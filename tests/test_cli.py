import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from nullgrid import FieldSpec, cli, parse_poly
from nullgrid.cli import main

GRID_F3_2D = '{"field":{"kind":"prime","p":3},"sets":[[{"value":"0","mult":1},{"value":"1","mult":1}],[{"value":"0","mult":1},{"value":"1","mult":1}]]}'
GRID_F5_01 = '{"field":{"kind":"prime","p":5},"sets":[[{"value":"0","mult":1},{"value":"1","mult":1}]]}'


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_golden_witness():
    argv = ["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", "1,1"]
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    assert out == "point: (1, 1)\nexponent: (0, 0)\nvalue: 1\n"
    code, out_json, _ = run_cli(argv + ["--json"])
    assert code == 0
    assert (
        out_json
        == '{"schema": "nullgrid.v1", "command": "witness", "point": ["1", "1"], '
        '"exponent": [0, 0], "value": "1", "method": "exhaustive"}\n'
    )


def test_golden_hopf_stiefel():
    code, out, _ = run_cli(["hopf-stiefel", "--p", "2", "--r", "2", "--s", "2"])
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(["hopf-stiefel", "--p", "2", "--r", "2", "--s", "2", "--json"])
    assert out == '{"schema": "nullgrid.v1", "command": "hopf-stiefel", "p": 2, "r": 2, "s": 2, "beta": 2}\n'


def test_golden_reduce(tmp_path):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(GRID_F5_01)
    code, out, _ = run_cli(["reduce", "--poly", "x1^3", "--grid", str(grid_file)])
    assert code == 0
    assert out == "r: x1\nh1: x1 + 1\n"


def test_golden_reduce_multivariate():
    grid = (
        '{"field":{"kind":"prime","p":5},"sets":[[{"value":"0","mult":1},{"value":"1","mult":1}],'
        '[{"value":"2","mult":2}]]}'
    )
    code, out, err = run_cli(["reduce", "--poly", "(x1 + 2*x2 + 1)^4", "--grid-inline", grid])
    assert code == 0 and err == ""
    assert out == (
        "r: 3*x1*x2\n"
        "h1: x1^2 + 3*x1*x2 + 4*x2^2 + 2*x2 + 1\n"
        "h2: 2*x1*x2 + x2^2 + x2 + 4\n"
    )


def test_hopf_stiefel_non_prime_p_is_an_input_error():
    for p in ("0", "1", "4"):
        code, out, err = run_cli(["hopf-stiefel", "--p", p, "--r", "2", "--s", "2"])
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


def test_repeat_runs_and_parallel_are_byte_identical():
    cases = [
        ["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", "1,1"],
        ["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", "1,1", "--json"],
        ["hopf-stiefel", "--p", "2", "--r", "2", "--s", "2"],
        ["reduce", "--poly", "x1^3", "--grid-inline", GRID_F5_01],
        ["alpha", "--grid-inline", GRID_F3_2D],
    ]
    for argv in cases:
        first = run_cli(argv)
        second = run_cli(argv)
        with_parallel = run_cli(argv + ["--parallel"])
        assert first == second == with_parallel


def test_printed_polynomials_reparse():
    code, out, _ = run_cli(["reduce", "--poly", "x1^3", "--grid-inline", GRID_F5_01, "--json"])
    data = json.loads(out)
    spec = FieldSpec.prime(5)
    r = parse_poly(data["r"], 1, spec)
    h = parse_poly(data["h"][0], 1, spec)
    g = parse_poly("x1^2 - x1", 1, spec)
    assert r + h * g == parse_poly("x1^3", 1, spec)


def test_member_and_divdiff_and_relation():
    code, out, _ = run_cli(["member", "--poly", "x1^2 - x1", "--grid-inline", GRID_F5_01])
    assert code == 0 and out == "member: true\nmethod: both\n"
    code, out, _ = run_cli(["member", "--poly", "1", "--grid-inline", GRID_F5_01, "--method", "pointwise"])
    assert code == 0 and "member: false" in out
    code, out, _ = run_cli(["divdiff", "--poly", "x1^2", "--grid-inline", GRID_F5_01])
    assert code == 0 and out == "value: 1\nmethod: both\n"
    code, out, _ = run_cli(["check-relation", "--poly", "x1", "--grid-inline", GRID_F5_01])
    assert code == 0 and out == "holds: true\n"


def test_alpha_output():
    code, out, _ = run_cli(["alpha", "--grid-inline", GRID_F5_01])
    assert code == 0
    assert out == "s=(0) u=(0): 4\ns=(1) u=(0): 1\n"


def test_punctured_cli():
    code, out, _ = run_cli(
        [
            "punctured",
            "--poly",
            "x1 - 1",
            "--grid-inline",
            GRID_F5_01,
            "--sub-grid-inline",
            '{"field":{"kind":"prime","p":5},"sets":[[{"value":"0","mult":1}]]}',
        ]
    )
    assert code == 0
    assert out == "r: x1 + 4\nh: 1\nbound: 1\ndeg_f: 1\n"


def test_cover_cli():
    grid = '{"field":{"kind":"prime","p":5},"sets":[[{"value":"0","mult":1},{"value":"1","mult":1}],[{"value":"0","mult":1},{"value":"1","mult":1}]]}'
    code, out, _ = run_cli(["cover-extremal", "--grid-inline", grid])
    assert code == 0 and out == "k: 2\nx1 + 4\nx2 + 4\n"
    code, out, _ = run_cli(
        ["cover-check", "--grid-inline", grid, "--hyperplanes-inline", '[["-1","1","0"],["-1","0","1"]]']
    )
    assert code == 0 and out.startswith("verdict: valid_cover\nk: 2\nbound: 2\n")
    code, out, _ = run_cli(["cover-check", "--grid-inline", grid, "--hyperplanes-inline", "[]"])
    assert code == 1 and "undercovered" in out


def test_sumset_and_cd_cli():
    code, out, _ = run_cli(
        ["sumset", "--field", "prime:7", "--a", '[{"value":"0","mult":2}]', "--b", '[{"value":"0","mult":3}]']
    )
    assert code == 0 and out == "{0:4}\n"
    code, out, _ = run_cli(
        ["cd-check", "--field", "prime:7", "--a", '[{"value":"0","mult":2}]', "--b", '[{"value":"0","mult":3}]']
    )
    assert code == 0 and out.endswith("holds: true\n")


def test_valueset_sun_ek_cli():
    code, out, _ = run_cli(["valueset", "--poly", "x1 + x2", "--grid-inline", GRID_F3_2D])
    assert code == 0 and out == "{0:1, 1:1, 2:1}\n"
    code, out, _ = run_cli(
        ["sun-check", "--grid-inline", GRID_F3_2D, "--coeffs", "1,1", "--k", "1"]
    )
    assert code == 0 and out == "lhs: 3\nrhs: 3\nholds: true\n"
    code, out, _ = run_cli(
        [
            "ek-check",
            "--p", "2", "--dim", "2",
            "--a", '[{"value":[0,0],"mult":1},{"value":[1,0],"mult":1}]',
            "--b", '[{"value":[0,0],"mult":1},{"value":[0,1],"mult":1}]',
        ]
    )
    assert code == 0 and out.endswith("lhs: 4\nrhs: 2\nholds: true\n")


def test_exit_codes():
    # input errors -> 2
    code, _, err = run_cli(["reduce", "--poly", "x1^", "--grid-inline", GRID_F5_01])
    assert code == 2 and err.startswith("error:") and "position" in err
    code, _, err = run_cli(["reduce", "--poly", "x1", "--grid-inline", "{not json"])
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(["cd-check", "--field", "prime:6", "--a", "[]", "--b", "[]"])
    assert code == 2
    # precondition violations -> 1
    code, _, err = run_cli(
        ["witness", "--poly", "x1", "--grid-inline", GRID_F5_01, "--t", "0"]
    )
    assert code == 1 and "degree" in err
    code, _, err = run_cli(
        [
            "punctured",
            "--poly", "x1",
            "--grid-inline", GRID_F5_01,
            "--sub-grid-inline", '{"field":{"kind":"prime","p":5},"sets":[[{"value":"0","mult":2}]]}',
        ]
    )
    assert code == 1 and "tight" in err


def test_deeply_nested_poly_is_an_input_error():
    for poly in ["(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1"]:
        code, out, err = run_cli(["reduce", f"--poly={poly}", "--grid-inline", GRID_F5_01])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: expression nested too deeply")


def test_unexpected_exception_is_one_internal_error_line(monkeypatch):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_hopf_stiefel", broken)
    code, out, err = run_cli(["hopf-stiefel", "--p", "2", "--r", "2", "--s", "2"])
    assert code == 1 and out == ""
    assert err == "error: internal: RuntimeError: boom second line\n"


def test_usage_errors_are_one_error_line():
    for argv in (
        ["reduce", "--bogus", "--poly", "x1", "--grid-inline", GRID_F5_01],
        ["reduce", "--grid-inline", GRID_F5_01],
        ["--bogus"],
        ["no-such-command"],
        ["member", "--method", "neither", "--poly", "x1", "--grid-inline", GRID_F5_01],
    ):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), argv
    code, _, err = run_cli(["reduce", "--grid-inline", GRID_F5_01])
    assert err == "error: the following arguments are required: --poly\n"


def test_help_still_prints_usage():
    for argv in (["--help"], ["reduce", "--help"]):
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and out.getvalue().startswith("usage: nullgrid")


def test_dash_led_poly_value_matches_equals_spelling():
    grid_f7 = '{"field":{"kind":"prime","p":7},"sets":[[{"value":"1","mult":2},{"value":"3","mult":1}],[{"value":"0","mult":2}]]}'
    for poly in ("-x1", "-x1^4*x2^2 + 3*x2", "-(x1 + 2)^5", "-2*x2^3"):
        for tail in ([], ["--json"]):
            spaced = run_cli(["reduce", "--poly", poly, "--grid-inline", grid_f7] + tail)
            joined = run_cli(["reduce", f"--poly={poly}", "--grid-inline", grid_f7] + tail)
            assert spaced == joined and spaced[0] == 0 and spaced[2] == ""
    # a dash-led value that is not a polynomial is still one input-error line
    code, _, err = run_cli(["reduce", "--poly", "-x9", "--grid-inline", grid_f7])
    assert code == 2 and err.count("\n") == 1 and err.startswith("error:")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nullgrid", "hopf-stiefel", "--p", "3", "--r", "2", "--s", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"
