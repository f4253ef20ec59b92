import hashlib
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from nullgrid import FieldElement, FieldSpec, cli, parse_poly
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


def test_golden_reduce_dense_power():
    # (x1 + x2 + x3 + 1)^30 has 5456 terms; the digest of its reduction
    # modulo {1..15}^3 over F_10007 was recorded with the term-pair product
    values = [{"value": str(v), "mult": 1} for v in range(1, 16)]
    grid = json.dumps({"field": {"kind": "prime", "p": 10007}, "sets": [values] * 3})
    code, out, err = run_cli(["reduce", "--poly", "(x1 + x2 + x3 + 1)^30", "--grid-inline", grid])
    assert code == 0 and err == ""
    assert len(out) == 109643
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c17ae4ef4a7ad6d6d623d6a8014b1aa189d987f330042fbf77294b480313a718"
    )


def test_hopf_stiefel_non_prime_p_is_an_input_error():
    for p in ("0", "1", "4"):
        code, out, err = run_cli(["hopf-stiefel", "--p", p, "--r", "2", "--s", "2"])
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


def test_hopf_stiefel_large_arguments_finish():
    proc = subprocess.run(
        [sys.executable, "-m", "nullgrid", "hopf-stiefel", "--p", "2", "--r", "99999999", "--s", "99999999"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "134217728\n"


def test_repeat_runs_are_byte_identical():
    cases = [
        ["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", "1,1"],
        ["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", "1,1", "--json"],
        ["hopf-stiefel", "--p", "2", "--r", "2", "--s", "2"],
        ["reduce", "--poly", "x1^3", "--grid-inline", GRID_F5_01],
        ["alpha", "--grid-inline", GRID_F3_2D],
    ]
    forward = []
    for argv in cases:
        first = run_cli(argv)
        second = run_cli(argv)
        third = run_cli(argv)
        assert first == second == third
        forward.append(first)
    assert [run_cli(argv) for argv in reversed(cases)] == forward[::-1]


def fresh_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "nullgrid"] + argv, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_cached_parser_keeps_no_state_between_calls():
    assert cli.build_parser() is cli.build_parser()
    member = ["member", "--poly", "x1^2 - x1", "--grid-inline", GRID_F5_01]
    witness = ["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", "1,1"]
    usage_error = ["member", "--method", "neither", "--poly", "x1", "--grid-inline", GRID_F5_01]
    fresh = {}
    # each call follows one that set other options, yet prints what a fresh process prints
    for argv in (member + ["--method", "pointwise"], member, witness + ["--json"], witness, usage_error):
        fresh[tuple(argv)] = fresh_cli(argv)
        assert run_cli(argv) == fresh[tuple(argv)], argv
    with redirect_stdout(io.StringIO()), pytest.raises(SystemExit):
        main(["member", "--help"])
    assert run_cli(member) == fresh[tuple(member)] == (0, "member: true\nmethod: both\n", "")


def test_closed_stdout_exits_quietly_with_the_computation_code():
    # 70x70 grid over F_101: about 116 KB of weights, well above a 64 KiB pipe buffer
    grid = json.dumps({"field": {"kind": "prime", "p": 101}, "sets": [[{"value": str(v), "mult": 1} for v in range(70)]] * 2})
    proc = subprocess.Popen(
        [sys.executable, "-m", "nullgrid", "alpha", "--grid-inline", grid],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(100).startswith(b"s=(0, 0) u=(0, 0): ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


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


def test_alpha_builds_no_field_element(monkeypatch):
    """alpha formats the raw table: no FieldElement is built, from loading
    the grid to printing its last weight, in either output mode."""
    made = []
    init = FieldElement.__init__

    def counting_init(self, value, spec):
        made.append(value)
        init(self, value, spec)

    monkeypatch.setattr(FieldElement, "__init__", counting_init)
    grid = '{"field":{"kind":"rational"},"sets":[[{"value":"0","mult":2},{"value":"1/2","mult":1}],[{"value":"3","mult":1},{"value":"-1","mult":2}]]}'
    code, out, _ = run_cli(["alpha", "--grid-inline", grid])
    assert code == 0 and out.startswith("s=(0, -1) u=(0, 0): 1/4\ns=(0, -1) u=(0, 1): 1\n") and out.count("\n") == 9
    code, out, _ = run_cli(["alpha", "--json", "--grid-inline", grid])
    assert code == 0 and json.loads(out)["weights"][6] == {"point": ["1/2", "-1"], "exponent": [0, 0], "value": "-1/4"}
    code, out, _ = run_cli(["alpha", "--grid-inline", GRID_F3_2D])
    assert code == 0 and out.count("\n") == 4
    assert made == []


def test_alpha_formats_each_point_once(monkeypatch):
    """A point's coordinates are formatted once for its whole box and each
    weight once, in either output mode: 4 points of arity 2 and 9 weights."""
    calls = []
    value_text = cli._value_text
    monkeypatch.setattr(cli, "_value_text", lambda x: calls.append(x) or value_text(x))
    grid = '{"field":{"kind":"rational"},"sets":[[{"value":"0","mult":2},{"value":"1/2","mult":1}],[{"value":"3","mult":1},{"value":"-1","mult":2}]]}'
    for argv in (["alpha", "--grid-inline", grid], ["alpha", "--json", "--grid-inline", grid]):
        calls.clear()
        assert run_cli(argv)[0] == 0
        assert len(calls) == 4 * 2 + 9, argv


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


def test_bound_checks_build_each_sumset_once(monkeypatch):
    """cd-check and ek-check print the sumset their bound check measured."""
    from nullgrid import applications

    calls = []
    for name in ("sumset", "vector_sumset"):
        inner = getattr(applications, name)
        monkeypatch.setattr(applications, name, lambda a, b, inner=inner, name=name: calls.append(name) or inner(a, b))
    argv = ["cd-check", "--field", "prime:7", "--a", '[{"value":"0","mult":2}]', "--b", '[{"value":"1","mult":1}]']
    assert run_cli(argv) == (0, "sumset: {1:2}\nlhs: 2\nrhs: 2\nholds: true\n", "")
    vec = '[{"value":[0,0],"mult":1},{"value":[1,0],"mult":1}]'
    code, out, _ = run_cli(["ek-check", "--p", "2", "--dim", "2", "--a", vec, "--b", vec])
    assert code == 0 and out.endswith("lhs: 2\nrhs: 2\nholds: true\n")
    assert calls == ["sumset", "vector_sumset"]


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
    # psi_12 = 399165290221 * 798330580441 passes the first twelve prime bases
    ms = '[{"value":"1","mult":1}]'
    argv = ["sumset", "--field", "prime:318665857834031151167461", "--a", ms, "--b", ms]
    assert run_cli(argv) == (2, "", "error: modulus must be a prime integer, got 318665857834031151167461\n")
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


def test_witness_for_the_zero_polynomial_names_it():
    """The zero polynomial has no degree: the degree condition says so
    instead of printing deg f = None."""
    want = "error: degree: f is the zero polynomial but the target needs degree 0\n"
    for method in ("exhaustive", "divided-difference"):
        for extra in ([], ["--json"]):
            argv = ["witness", "--poly", "0", "--grid-inline", GRID_F3_2D, "--t", "0,0", "--method", method]
            assert run_cli(argv + extra) == (1, "", want)
    argv = ["witness", "--poly", "x1 - x1", "--grid-inline", GRID_F3_2D, "--t", "1,1"]
    assert run_cli(argv) == (1, "", "error: degree: f is the zero polynomial but the target needs degree 2\n")


def test_malformed_field_is_an_input_error():
    sets = '"sets":[[{"value":"0","mult":1}]]'
    for field, message in (
        ('"x"', "error: field must be an object with a 'kind', got 'x'\n"),
        ("[5]", "error: field must be an object with a 'kind', got [5]\n"),
        ('{"kind":"prime"}', "error: prime field object needs 'p'\n"),
        ('{"kind":"bogus","p":5}', "error: unknown field kind 'bogus'\n"),
    ):
        code, out, err = run_cli(["reduce", "--poly", "x1", "--grid-inline", f'{{"field":{field},{sets}}}'])
        assert (code, out, err) == (2, "", message)


def test_field_option_text_is_checked():
    """--field reads prime:<p> or rational; a sumset needs the prime field."""
    a = '[{"value":"1","mult":1}]'
    for text in ("bogus", "prime", "Rational", "", "prime7"):
        code, out, err = run_cli(["sumset", "--field", text, "--a", a, "--b", a])
        assert (code, out, err) == (2, "", f"error: field must be 'prime:<p>' or 'rational', got {text!r}\n")
    for command in ("sumset", "cd-check"):
        code, out, err = run_cli([command, "--field", "rational", "--a", a, "--b", a])
        assert (code, out, err) == (1, "", "error: field: sumsets are taken in a prime field group\n")


def test_cover_check_names_proportional_planes():
    grid = '{"field":{"kind":"prime","p":5},"sets":[[{"value":"0","mult":1},{"value":"1","mult":2}],[{"value":"0","mult":1},{"value":"2","mult":1}]]}'
    # x1 + 4 = 0 twice, as 2*x1 + 3 = 0 once, and 4*x2 + 2 = 0 (x2 = 2)
    planes = '[["4","1","0"],["3","2","0"],["4","1","0"],["2","0","4"]]'
    code, out, err = run_cli(["cover-check", "--grid-inline", grid, "--hyperplanes-inline", planes])
    expected = "verdict: valid_cover\nk: 4\nbound: 3\nmeets_bound: true\norigin_covered: false\nproportional: 1~2; 1~3; 2~3\n"
    assert (code, out, err) == (0, expected, "")
    code, out, err = run_cli(["cover-check", "--grid-inline", grid, "--hyperplanes-inline", planes, "--json"])
    assert code == 0 and json.loads(out)["proportional"] == [[1, 2], [1, 3], [2, 3]]
    code, out, err = run_cli(["cover-check", "--grid-inline", grid, "--hyperplanes-inline", '[["4","1","0"],["3","2","0"]]'])
    assert (code, err) == (1, "") and out.endswith("meets_bound: false\norigin_covered: false\nundercovered: (0, 2)\nproportional: 1~2\n")


def test_exponent_notation_is_an_input_error():
    # Fraction would read "1e5000000" by building its 5-million-digit value
    for value in ("1e3", "2E-1", "1.5e2"):
        grid = f'{{"field":{{"kind":"rational"}},"sets":[[{{"value":"{value}","mult":1}}]]}}'
        assert run_cli(["reduce", "--poly", "x1", "--grid-inline", grid]) == (2, "", f"error: invalid QQ value '{value}'\n")
    grid = '{"field":{"kind":"rational"},"sets":[[{"value":"1.5","mult":1}]]}'
    assert run_cli(["reduce", "--poly", "x1", "--grid-inline", grid]) == (0, "r: 3/2\nh1: 1\n", "")


def test_malformed_grid_names_the_bad_part():
    field = '"field":{"kind":"prime","p":3}'
    for grid, message in (
        (f'{{{field},"sets":5}}', "error: grid 'sets' must be a list of multisets, got 5\n"),
        (f'{{{field},"sets":[5]}}', "error: grid sets[0] must be a list of {'value': ..., 'mult': ...} entries, got 5\n"),
        (
            f'{{{field},"sets":[[{{"value":"0","mult":1}}],5]}}',
            "error: grid sets[1] must be a list of {'value': ..., 'mult': ...} entries, got 5\n",
        ),
        ("3", "error: grid must be an object with 'field' and 'sets'\n"),
    ):
        assert run_cli(["reduce", "--poly", "x1", "--grid-inline", grid]) == (2, "", message)
        sub = ["--sub-grid-inline", grid]
        assert run_cli(["punctured", "--poly", "x1", "--grid-inline", GRID_F5_01] + sub) == (2, "", message)


def test_malformed_json_lists_name_the_bad_entry():
    grid = '{"field":{"kind":"prime","p":5},"sets":[[{"value":"0","mult":1},{"value":"1","mult":1},{"value":"4","mult":1}]]}'
    for planes, message in (
        ('["41"]', "error: hyperplanes[0] must be a list of coefficients, got '41'\n"),
        ('[["-1","1"],{"4":0,"1":0}]', "error: hyperplanes[1] must be a list of coefficients, got {'4': 0, '1': 0}\n"),
        ("[5]", "error: hyperplanes[0] must be a list of coefficients, got 5\n"),
        ("{}", "error: hyperplanes JSON must be a list of coefficient arrays\n"),
    ):
        assert run_cli(["cover-check", "--grid-inline", grid, "--hyperplanes-inline", planes]) == (2, "", message)
    b = '[{"value":[0,0],"mult":1}]'
    for a, message in (
        ('[{"value":"12","mult":1}]', "error: entry value must be a list of coordinates, got '12'\n"),
        ('[{"value":{"1":0,"2":0},"mult":1}]', "error: entry value must be a list of coordinates, got {'1': 0, '2': 0}\n"),
        ('[{"value":5,"mult":1}]', "error: entry value must be a list of coordinates, got 5\n"),
        (
            '{"value":[1,2],"mult":1}',
            "error: vector multiset must be a list of {'value': [..], 'mult': ..} entries, got {'value': [1, 2], 'mult': 1}\n",
        ),
        ('[{"value":[1.7,2],"mult":1}]', "error: invalid F_3 value '1.7'\n"),
        ('[{"value":[true,"2"],"mult":1}]', "error: invalid F_3 value 'True'\n"),
        ('[{"value":[null,2],"mult":1}]', "error: invalid F_3 value 'None'\n"),
        ('[{"value":[1,2],"mult":true}]', "error: multiplicity of (1, 2) must be a positive integer\n"),
    ):
        assert run_cli(["ek-check", "--p", "3", "--dim", "2", "--a", a, "--b", b]) == (2, "", message)
    code, out, _ = run_cli(["ek-check", "--p", "3", "--dim", "2", "--a", '[{"value":["1","5"],"mult":1}]', "--b", b])
    assert code == 0 and out.startswith("sumset: {[1, 2]:1}\n")


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
        ["reduce", "--poly", "x1", "--grid-inline", GRID_F5_01, "--parallel"],
    ):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), argv
    code, _, err = run_cli(["reduce", "--grid-inline", GRID_F5_01])
    assert err == "error: the following arguments are required: --poly\n"
    code, _, err = run_cli(["reduce", "--poly", "x1", "--grid-inline", GRID_F5_01, "--parallel"])
    assert err == "error: unrecognized arguments: --parallel\n"


def test_missing_json_arguments_are_named():
    sub_grid = "a sub-grid is required (--sub-grid PATH or --sub-grid-inline JSON)"
    planes = "hyperplanes are required (--hyperplanes PATH or --hyperplanes-inline JSON)"
    for argv, message in (
        (["reduce", "--poly", "x1"], "a grid is required (--grid PATH or --grid-inline JSON)"),
        (["alpha", "--grid-inline", ""], "a grid is required (--grid PATH or --grid-inline JSON)"),
        (["punctured", "--poly", "x1", "--grid-inline", GRID_F5_01], sub_grid),
        (["punctured", "--poly", "x1", "--grid-inline", GRID_F5_01, "--sub-grid", ""], sub_grid),
        (["cover-check", "--grid-inline", GRID_F5_01], planes),
        (["cover-check", "--grid-inline", GRID_F5_01, "--hyperplanes-inline", ""], planes),
    ):
        assert run_cli(argv) == (2, "", f"error: {message}\n")


def test_unknown_option_before_the_subcommand_is_named():
    assert run_cli(["--bogus"]) == (2, "", "error: unrecognized arguments: --bogus\n")
    assert run_cli([]) == (2, "", "error: the following arguments are required: command\n")


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


def test_oversized_inputs_fail_fast():
    grid_f7 = '{"field":{"kind":"prime","p":7},"sets":[[{"value":"1","mult":1},{"value":"2","mult":1}]]}'
    for poly in ("(x1^10000)^1000", "*".join(["x1^10000"] * 100)):
        code, out, err = run_cli(["reduce", "--poly", poly, "--grid-inline", grid_f7])
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: degree ") and "exceeds the limit 10000" in err
    sun = ["sun-check", "--grid-inline", grid_f7, "--coeffs", "1", "--k"]
    for k in ("1000000000", "10001", "0"):
        code, out, err = run_cli(sun + [k])
        assert (code, out) == (1, "") and err == f"error: exponent: k must be an integer from 1 to 10000, got {k}\n"
    assert run_cli(sun + ["10000"]) == (0, "lhs: 2\nrhs: 1\nholds: true\n", "")


def test_values_past_the_int_digit_limit_are_refused():
    limit = sys.get_int_max_str_digits()
    grid_q = '{"field":{"kind":"rational"},"sets":[[{"value":"0","mult":1}]]}'
    # a literal past the limit is a parse error at the literal
    code, out, err = run_cli(["reduce", "--poly", "x1 + " + "9" * (limit + 1), "--grid-inline", grid_q])
    assert (code, out) == (2, "")
    assert err == f"error: literal of {limit + 1} digits exceeds Python's int/str digit limit of {limit} (position 5)\n"
    # a computed value past it is an output-size failure, in both output modes
    message = f"error: output-size: a value has more digits than Python's int/str digit limit of {limit}\n"
    for subcommand in (["reduce"], ["reduce", "--json"], ["divdiff"], ["valueset", "--json"]):
        argv = subcommand + ["--poly", f"10^{limit - 300}*10^400 + x1", "--grid-inline", grid_q]
        assert run_cli(argv) == (1, "", message)
    # alpha's weight at 0 is 1 / 10^(2 * (limit - 300)), whose denominator is past the limit
    grid_big = '{"field":{"kind":"rational"},"sets":[[{"value":"0","mult":1},{"value":"1%s","mult":2}]]}' % ("0" * (limit - 300))
    for subcommand in (["alpha"], ["alpha", "--json"]):
        assert run_cli(subcommand + ["--grid-inline", grid_big]) == (1, "", message)
    # a JSON value past it is an input error named by its length, quoted or not
    big = "1" * (limit + 700)
    quoted = f"error: invalid F_7 value of {len(big)} characters, longer than Python's int/str digit limit of {limit}\n"
    unquoted = f"error: invalid JSON: a number of {len(big)} digits exceeds Python's int/str digit limit of {limit}\n"
    for value, message in ((f'"{big}"', quoted), (big, unquoted), ("-" + big, unquoted)):
        entry = f'[{{"value":{value},"mult":1}}]'
        grid = f'{{"field":{{"kind":"prime","p":7}},"sets":[{entry}]}}'
        assert run_cli(["reduce", "--poly", "x1", "--grid-inline", grid]) == (2, "", message)
        assert run_cli(["sumset", "--field", "prime:7", "--a", entry, "--b", entry]) == (2, "", message)
        vector = f'[{{"value":[{value}],"mult":1}}]'
        assert run_cli(["ek-check", "--p", "7", "--dim", "1", "--a", vector, "--b", vector]) == (2, "", message)
        planes = f"[[{value}, 1]]"
        argv = ["cover-check", "--grid-inline", GRID_F5_01.replace('"p":5', '"p":7'), "--hyperplanes-inline", planes]
        assert run_cli(argv) == (2, "", message)
    grid = '{"field":{"kind":"prime","p":%s},"sets":[[{"value":"1","mult":1}]]}' % big
    assert run_cli(["reduce", "--poly", "x1", "--grid-inline", grid]) == (2, "", unquoted)


def test_command_line_numbers_past_the_int_digit_limit_are_refused():
    """A modulus or a --t entry past the limit is one short error line that
    names its length and the limit, not Python's own text or the number."""
    limit = sys.get_int_max_str_digits()
    big = "1" * (limit + 700)
    message = f"digits exceeds Python's int/str digit limit of {limit}\n"
    code, out, err = run_cli(["sumset", "--field", "prime:" + big, "--a", "[]", "--b", "[]"])
    assert (code, out, err) == (2, "", f"error: --field: a number of {len(big)} " + message)
    for t in (big, "1," + big, "-" + big + ",0"):
        code, out, err = run_cli(["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", t])
        assert (code, out, err) == (2, "", f"error: --t: a number of {len(big)} " + message)
    # other bad text keeps its own message
    assert run_cli(["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", "1,a"]) == (
        2, "", "error: --t must be comma-separated integers, got '1,a'\n"
    )


def test_integer_options_past_the_int_digit_limit_are_refused():
    """The type=int options name a number past the limit by its length, and
    keep argparse's own message for other bad text."""
    limit = sys.get_int_max_str_digits()
    big = "1" + "9" * limit
    message = f"a number of {limit + 1} digits exceeds Python's int/str digit limit of {limit}\n"
    grid_f7 = '{"field":{"kind":"prime","p":7},"sets":[[{"value":"1","mult":1}]]}'
    vec = '[{"value":[0],"mult":1}]'
    sun = ["sun-check", "--grid-inline", grid_f7, "--coeffs", "1"]
    ek = ["ek-check", "--a", vec, "--b", vec]
    cases = [
        (sun, {"--k": "1"}),
        (["hopf-stiefel"], {"--p": "2", "--r": "1", "--s": "1"}),
        (ek, {"--p": "2", "--dim": "1"}),
    ]
    for head, options in cases:
        for option in options:
            for bad, text in ((big, message), ("abc", "invalid int value: 'abc'\n")):
                argv = head + [a for name, value in options.items() for a in (name, bad if name == option else value)]
                assert run_cli(argv) == (2, "", f"error: argument {option}: " + text)
        assert run_cli(head + [a for item in options.items() for a in item])[0] == 0


def test_input_errors_name_long_numbers_by_their_digits():
    """A number of more than 50 digits in an input error, such as a
    multiplicity, a multiset size or a number where a list belongs, is named
    by its digit count, so the error line stays short, even past the limit."""
    limit = sys.get_int_max_str_digits()
    nines = "9" * limit
    one = '[{"value":"1","mult":1}]'
    code, out, err = run_cli(["cd-check", "--field", "prime:7", "--a", f'[{{"value":"1","mult":{nines}}}]', "--b", one])
    assert (code, out, err) == (2, "", f"error: multiset size a number of {limit} digits exceeds the limit 10000\n")
    two = f'[{{"value":"1","mult":{nines}}},{{"value":"2","mult":{nines}}}]'
    code, out, err = run_cli(["sumset", "--field", "prime:7", "--a", two, "--b", one])
    assert (code, out, err) == (2, "", f"error: multiset size a number of {limit + 1} digits exceeds the limit 10000\n")
    grid = f'{{"field":{{"kind":"prime","p":7}},"sets":[[{{"value":"1","mult":-{nines}}}]]}}'
    expected = f"error: multiplicity of 1 must be a positive integer, got a negative number of {limit} digits\n"
    assert run_cli(["reduce", "--poly", "x1", "--grid-inline", grid]) == (2, "", expected)
    grid_f7 = '{"field":{"kind":"prime","p":7},"sets":[[{"value":"1","mult":1}]]}'
    for argv in (
        ["sumset", "--field", "prime:7", "--a", nines, "--b", one],
        ["sumset", "--field", "prime:7", "--a", f"[{nines}]", "--b", one],
        ["reduce", "--poly", "x1", "--grid-inline", '{"field":{"kind":"prime","p":7},"sets":%s}' % nines],
        ["reduce", "--poly", "x1", "--grid-inline", '{"field":{"kind":"prime","p":7},"sets":[%s]}' % nines],
        ["reduce", "--poly", "x1", "--grid-inline", '{"field":%s,"sets":[]}' % nines],
        ["reduce", "--poly", "x1", "--grid-inline", '{"field":{"kind":"prime","p":-%s},"sets":[]}' % nines],
        ["ek-check", "--p", "2", "--dim", "1", "--a", nines, "--b", "[]"],
        ["ek-check", "--p", "2", "--dim", "1", "--a", f"[{nines}]", "--b", "[]"],
        ["ek-check", "--p", "2", "--dim", "1", "--a", '[{"value":%s,"mult":1}]' % nines, "--b", "[]"],
        ["cover-check", "--grid-inline", grid_f7, "--hyperplanes-inline", f"[{nines}]"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "") and err.count("\n") == 1 and len(err) < 200
        assert err.endswith(f"got a {'negative ' if '-9' in argv[-1] else ''}number of {limit} digits\n")
    # up to 50 digits the number is printed as it is
    grid = '{"field":{"kind":"prime","p":7},"sets":[[{"value":"1","mult":-%s}]]}' % ("9" * 50)
    expected = f"error: multiplicity of 1 must be a positive integer, got -{'9' * 50}\n"
    assert run_cli(["reduce", "--poly", "x1", "--grid-inline", grid]) == (2, "", expected)


def test_input_errors_name_nested_long_numbers_by_their_digits():
    """A long number inside the offending value, not the value itself, is
    named by its digit count too, at any depth the JSON reader accepts."""
    limit = sys.get_int_max_str_digits()
    nines = "9" * limit
    entry = "error: multiset entry must be {'value': ..., 'mult': ...}, got "
    argv = ["sumset", "--field", "prime:7", "--a", f'[{{"value":"1","mlt":{nines}}}]', "--b", "[]"]
    assert run_cli(argv) == (2, "", entry + f"{{'value': '1', 'mlt': a number of {limit} digits}}\n")
    for depth in range(sys.getrecursionlimit(), 0, -1):
        argv = ["sumset", "--field", "prime:7", "--a", "[" * depth + nines + "]" * depth, "--b", "[]"]
        code, out, err = run_cli(argv)
        if err != "error: invalid JSON: nested too deeply\n":
            break
    assert depth > 900
    inner = "[" * (depth - 1) + f"a number of {limit} digits" + "]" * (depth - 1)
    assert (code, out, err) == (2, "", entry + inner + "\n")


def test_counts_too_long_to_print_are_output_size_failures():
    """A computed count past the int/str digit limit exits 1 with the
    output-size failure in both output modes, as a polynomial does.  At
    p = 2 hopf_stiefel takes about 14 300 steps, each dividing its carried
    ceilings by p; dividing r and s by the large p^k at each step took
    about 2 s of CPU time."""
    limit = sys.get_int_max_str_digits()
    nines = "9" * limit
    message = f"error: output-size: a value has more digits than Python's int/str digit limit of {limit}\n"
    a = f'[{{"value":[0],"mult":{nines}}},{{"value":[1],"mult":{nines}}}]'
    for p in ("10007", "2"):
        for mode in ([], ["--json"]):
            assert run_cli(["hopf-stiefel", "--p", p, "--r", nines, "--s", nines] + mode) == (1, "", message)
            argv = ["ek-check", "--p", p, "--dim", "1", "--a", a, "--b", '[{"value":[0],"mult":1}]']
            assert run_cli(argv + mode) == (1, "", message)
    start = time.process_time()
    assert run_cli(["hopf-stiefel", "--p", "2", "--r", nines, "--s", nines]) == (1, "", message)
    assert time.process_time() - start < 1
    # a count at the limit still prints
    code, out, err = run_cli(["hopf-stiefel", "--p", "10007", "--r", nines, "--s", "1", "--json"])
    assert (code, err) == (0, "") and json.loads(out)["beta"] == int(nines)


def test_deeply_nested_json_is_an_input_error(tmp_path):
    deep = "[" * 100000
    message = (2, "", "error: invalid JSON: nested too deeply\n")
    assert run_cli(["sumset", "--field", "prime:7", "--a", deep, "--b", "[]"]) == message
    assert run_cli(["ek-check", "--p", "3", "--dim", "2", "--a", deep, "--b", "[]"]) == message
    assert run_cli(["cover-check", "--grid-inline", GRID_F5_01, "--hyperplanes-inline", deep]) == message
    deep_file = tmp_path / "deep.json"
    deep_file.write_text(deep)
    assert run_cli(["reduce", "--poly", "x1", "--grid", str(deep_file)]) == message
    sub = ["--sub-grid", str(deep_file)]
    assert run_cli(["punctured", "--poly", "x1", "--grid-inline", GRID_F5_01] + sub) == message


def test_oversized_multisets_are_input_errors():
    big = '[{"value":"1","mult":10000},{"value":"2","mult":1}]'
    message = (2, "", "error: multiset size 10001 exceeds the limit 10000\n")
    grid = f'{{"field":{{"kind":"prime","p":7}},"sets":[{big}]}}'
    assert run_cli(["reduce", "--poly", "x1", "--grid-inline", grid]) == message
    assert run_cli(["sumset", "--field", "prime:7", "--a", big, "--b", '[{"value":"0","mult":1}]']) == message


def test_recursive_bracket_refuses_a_grid_past_the_entry_budget():
    def grid(k):
        values = [{"value": str(v), "mult": 1} for v in range(k)]
        return json.dumps({"field": {"kind": "prime", "p": 10007}, "sets": [values]})

    # 1100 values, 1099 levels deep, were past the old depth limit
    assert run_cli(["divdiff", "--poly", "x1", "--method", "rec", "--grid-inline", grid(1100)]) == (
        0, "value: 0\nmethod: rec\n", ""
    )
    # 1414 * 1415 / 2 entries
    message = (
        "error: budget: the recursive bracket would fill 1000405 Newton-table entries, above the limit 1000000\n"
    )
    for method in ("rec", "both"):
        assert run_cli(["divdiff", "--poly", "x1", "--method", method, "--grid-inline", grid(1414)]) == (1, "", message)
    assert run_cli(["divdiff", "--poly", "x1", "--method", "def", "--grid-inline", grid(1414)]) == (
        0, "value: 0\nmethod: def\n", ""
    )


def test_divdiff_route_disagreement_names_the_instance(monkeypatch):
    # the recursive bracket is made to answer 0 where the bracket is 1
    monkeypatch.setattr(cli, "divided_difference_recursive", lambda f, grid: grid.spec.zero)
    grid = '{"field": {"kind": "prime", "p": 5}, "sets": [[{"value": "0", "mult": 1}, {"value": "1", "mult": 1}]]}'
    message = f"error: invariant violation: divided-difference routes disagree; f = 2*x1 + 1, grid = {grid}\n"
    argv = ["divdiff", "--poly", "1 + 2*x1", "--method", "both", "--grid-inline", GRID_F5_01]
    assert run_cli(argv) == (1, "", message)


def test_membership_disagreement_names_the_instance(monkeypatch):
    # the pointwise route is made to call every polynomial a member
    monkeypatch.setattr(cli, "in_grid_ideal", lambda f, grid, method: method == "pointwise")
    grid = '{"field": {"kind": "prime", "p": 5}, "sets": [[{"value": "0", "mult": 1}, {"value": "1", "mult": 1}]]}'
    message = f"error: invariant violation: membership methods disagree; f = x1^2 + 4, grid = {grid}\n"
    argv = ["member", "--poly", "x1^2 - 1", "--method", "both", "--grid-inline", GRID_F5_01]
    assert run_cli(argv) == (1, "", message)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nullgrid", "hopf-stiefel", "--p", "3", "--r", "2", "--s", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


# -- CLI fuzz: small, possibly malformed inputs on every subcommand ---------------
# Each input is well formed four times in five, so that most examples get past
# parsing into the computation.


def _mostly(valid, malformed):
    return st.integers(0, 9).flatmap(lambda k: valid if k < 8 else malformed)


_VALUES = st.one_of(st.integers(-3, 7).map(str), st.sampled_from(["1/2", "-2/3", "x", "", 3, None]))
_BAD_ENTRIES = st.one_of(
    st.fixed_dictionaries({"value": _VALUES, "mult": st.sampled_from([1, 2, 0, -1, "2", True, 1.5, None])}),
    st.sampled_from([{}, {"value": "1"}, {"mult": 1}, 3, "x", None, []]),
)
_MULTISETS = _mostly(
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 2)), min_size=1, max_size=3, unique_by=lambda vm: vm[0])
    .map(lambda pairs: [{"value": str(v), "mult": m} for v, m in pairs]),
    st.lists(_BAD_ENTRIES, max_size=3),
)
_FIELDS = _mostly(
    st.sampled_from([{"kind": "prime", "p": 3}, {"kind": "prime", "p": 5}, {"kind": "rational"}]),
    st.sampled_from(
        [
            {"kind": "prime", "p": 4}, {"kind": "prime", "p": "5"}, {"kind": "prime"},
            {"kind": "rational", "p": 3}, {"kind": "complex"}, {}, "x", 5, None, [],
        ]
    ),
)
_GRIDS = _mostly(
    st.fixed_dictionaries({"field": _FIELDS, "sets": st.lists(_MULTISETS, min_size=1, max_size=3)})
    .map(json.dumps),
    st.sampled_from(
        [
            "{not json", "", "[]", '"x"', "3", "null", '{"sets": []}', '{"field": {"kind": "rational"}}',
            '{"field": {"kind": "prime", "p": 3}, "sets": 5}',
            '{"field": {"kind": "prime", "p": 3}, "sets": [5]}',
            '{"field": {"kind": "prime", "p": 3}, "sets": []}',
        ]
    ),
)
_ATOMS = _mostly(
    st.sampled_from(["x1", "x2", "x3", "2", "1/2", "(x1 - x2)", "(x1 + 1)^2", "x2^3", "x1*x2"]),
    st.sampled_from(["x0", "x4", "^", "1/0", "(x1", "x1^", "2^-1"]),
)
_POLYS = _mostly(
    st.tuples(_ATOMS, st.lists(st.tuples(st.sampled_from([" + ", " - ", "*"]), _ATOMS), max_size=3))
    .map(lambda first_rest: first_rest[0] + "".join(op + atom for op, atom in first_rest[1])),
    st.text(alphabet="x12+-*^()/ ", max_size=6),
)
_INTS = _mostly(st.integers(1, 40).map(str), st.sampled_from(["-1", "0", "4", "99999999", "x", ""]))
_TARGETS = st.sampled_from(["0", "1", "1,1", "0,1", "2,1", "1,0,1", "2,2,2", "-1", "x", ""])
_VECTORS = _mostly(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 2)), min_size=1, max_size=3,
        unique_by=lambda t: t[:2],
    ).map(lambda rows: json.dumps([{"value": [a, b], "mult": m} for a, b, m in rows])),
    st.sampled_from(["[]", "{}", "[3]", '[{"value": 3, "mult": 1}]', '[{"value": [0], "mult": 0}]', "x"]),
)
_HYPERPLANES = _mostly(
    st.lists(st.lists(st.sampled_from(["0", "1", "-1", "2"]), min_size=3, max_size=3), max_size=3).map(json.dumps),
    st.sampled_from(["{}", "5", "[5]", '[["x", 1]]', "[[1]]"]),
)

_MULTISET_JSON = _MULTISETS.map(json.dumps)
_OPTIONS = {
    "reduce": {"--grid-inline": _GRIDS, "--poly": _POLYS},
    "member": {
        "--grid-inline": _GRIDS, "--poly": _POLYS,
        "--method": st.sampled_from(["both", "remainder", "pointwise"]),
    },
    "witness": {
        "--grid-inline": _GRIDS, "--poly": _POLYS, "--t": _TARGETS,
        "--method": st.sampled_from(["exhaustive", "divided-difference"]),
    },
    "punctured": {"--grid-inline": _GRIDS, "--poly": _POLYS, "--sub-grid-inline": _GRIDS},
    "divdiff": {"--grid-inline": _GRIDS, "--poly": _POLYS, "--method": st.sampled_from(["both", "def", "rec"])},
    "alpha": {"--grid-inline": _GRIDS},
    "check-relation": {"--grid-inline": _GRIDS, "--poly": _POLYS},
    "cover-check": {"--grid-inline": _GRIDS, "--hyperplanes-inline": _HYPERPLANES},
    "cover-extremal": {"--grid-inline": _GRIDS},
    "sumset": {
        "--field": st.sampled_from(["prime:3", "prime:5", "prime:4", "rational", "x"]),
        "--a": _MULTISET_JSON, "--b": _MULTISET_JSON,
    },
    "cd-check": {
        "--field": st.sampled_from(["prime:3", "prime:7", "prime:1", "rational"]),
        "--a": _MULTISET_JSON, "--b": _MULTISET_JSON,
    },
    "valueset": {"--grid-inline": _GRIDS, "--poly": _POLYS},
    "sun-check": {
        "--grid-inline": _GRIDS, "--coeffs": st.sampled_from(["1", "1,1", "1,2", "1,0", "2,x", ""]),
        "--k": st.sampled_from(["1", "2", "3", "0", "-1", "x"]), "--g": _POLYS,
    },
    "hopf-stiefel": {"--p": st.sampled_from(["2", "3", "5", "4", "0", "x"]), "--r": _INTS, "--s": _INTS},
    "ek-check": {
        "--p": st.sampled_from(["2", "3", "4", "0", "x"]), "--dim": st.sampled_from(["2", "1", "0", "-1"]),
        "--a": _VECTORS, "--b": _VECTORS,
    },
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    left_out = draw(_mostly(st.none(), st.sampled_from(sorted(options))))
    argv = [command]
    for flag, values in options.items():
        if flag != left_out:
            argv.append(f"{flag}={draw(values)}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=60, deadline=None)
@given(_argvs())
def test_cli_fuzz_keeps_the_exit_code_contract(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2)
    if code == 0 or (code == 1 and out):
        # computed; exit 1 with a report on stdout is a checked bound that fails
        assert err == ""
    else:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:"), (argv, err)


def test_number_text_takes_ascii_digits_only():
    """int and Fraction read "1_0" and non-ASCII digits, which the polynomial
    grammar refuses; every reader of number text refuses them too, with the
    message it gives other bad text."""
    grid_f5 = '{"field":{"kind":"prime","p":5},"sets":[[{"value":"1_0","mult":1}]]}'
    grid_f7 = '{"field":{"kind":"prime","p":7},"sets":[[{"value":"1_000","mult":1}]]}'
    grid_q = '{"field":{"kind":"rational"},"sets":[[{"value":"١/2","mult":1}]]}'
    vec = '[{"value":[0],"mult":1}]'
    cases = [
        (["reduce", "--poly", "1_0", "--grid-inline", GRID_F5_01], "unexpected character '_' (position 1)"),
        (["reduce", "--poly", "x1", "--grid-inline", grid_f5], "invalid F_5 value '1_0'"),
        (["reduce", "--poly", "x1", "--grid-inline", grid_f7], "invalid F_7 value '1_000'"),
        (["reduce", "--poly", "x1", "--grid-inline", grid_q], "invalid QQ value '١/2'"),
        (
            ["cover-check", "--grid-inline", GRID_F5_01, "--hyperplanes-inline", '[["1_0", 1]]'],
            "invalid F_5 value '1_0'",
        ),
        (
            ["sumset", "--field", "prime:1_0007", "--a", "[]", "--b", "[]"],
            "invalid literal for int() with base 10: '1_0007'",
        ),
        (
            ["sumset", "--field", "prime:７", "--a", "[]", "--b", "[]"],
            "invalid literal for int() with base 10: '７'",
        ),
        (
            ["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", "١,١"],
            "--t must be comma-separated integers, got '١,١'",
        ),
        (["hopf-stiefel", "--p", "٢", "--r", "2", "--s", "3"], "argument --p: invalid int value: '٢'"),
        (["hopf-stiefel", "--p", "2", "--r", "1_0", "--s", "3"], "argument --r: invalid int value: '1_0'"),
        (
            ["sun-check", "--grid-inline", GRID_F3_2D, "--coeffs", "1_0,١", "--k", "2"],
            "invalid F_3 value '1_0'",
        ),
        (
            ["sun-check", "--grid-inline", GRID_F3_2D, "--coeffs", "1,١", "--k", "2"],
            "invalid F_3 value '١'",
        ),
        (
            ["sun-check", "--grid-inline", GRID_F3_2D, "--coeffs", "1,1", "--k", "٢"],
            "argument --k: invalid int value: '٢'",
        ),
        (
            ["ek-check", "--p", "2", "--dim", "١", "--a", vec, "--b", vec],
            "argument --dim: invalid int value: '١'",
        ),
    ]
    for argv, message in cases:
        assert run_cli(argv) == (2, "", f"error: {message}\n"), argv
    # the same numbers in ASCII digits are read
    for argv in (
        ["reduce", "--poly", "x1", "--grid-inline", grid_f5.replace("1_0", "10")],
        ["reduce", "--poly", "x1", "--grid-inline", grid_q.replace("١", "1")],
        ["sumset", "--field", "prime:10007", "--a", '[{"value":"1","mult":1}]', "--b", '[{"value":"2","mult":1}]'],
        ["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", "1,1"],
        ["hopf-stiefel", "--p", "2", "--r", "10", "--s", "3"],
        ["sun-check", "--grid-inline", GRID_F3_2D, "--coeffs", "10,1", "--k", "2"],
    ):
        code, _, err = run_cli(argv)
        assert (code, err) == (0, ""), argv
    # an ASCII number past the digit limit still names its length and the limit
    limit = sys.get_int_max_str_digits()
    big = "1" * 5000
    assert len(big) > limit
    message = f"a number of {len(big)} digits exceeds Python's int/str digit limit of {limit}\n"
    assert run_cli(["hopf-stiefel", "--p", big, "--r", "1", "--s", "1"]) == (2, "", "error: argument --p: " + message)
    assert run_cli(["sumset", "--field", "prime:" + big, "--a", "[]", "--b", "[]"]) == (2, "", "error: --field: " + message)


# -- dispatch: a known subcommand's arguments go straight to its parser -----------

_GRID_F5_MIXED = (
    '{"field":{"kind":"prime","p":5},"sets":[[{"value":"0","mult":1},{"value":"1","mult":1}],'
    '[{"value":"2","mult":2}]]}'
)
_GOLDEN_ARGVS = [
    ["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", "1,1"],
    ["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", "1,1", "--json"],
    ["hopf-stiefel", "--p", "2", "--r", "2", "--s", "2"],
    ["hopf-stiefel", "--p", "2", "--r", "2", "--s", "2", "--json"],
    ["reduce", "--poly", "x1^3", "--grid-inline", GRID_F5_01],
    ["reduce", "--poly", "x1^3", "--grid", "grid.json"],
    ["reduce", "--poly", "(x1 + 2*x2 + 1)^4", "--grid-inline", _GRID_F5_MIXED],
    ["alpha", "--grid-inline", GRID_F3_2D],
]
_EDGE_ARGVS = [
    [],
    ["--bogus"],
    ["no-such-command"],
    ["--help"],
    ["-h"],
    ["--bogus", "reduce", "--poly", "x1"],
    ["--json", "reduce", "--poly", "x1"],
    ["reduce", "-h"],
    ["reduce", "--help"],
    ["hopf-stiefel", "--p", "2", "-h"],
    ["reduce"],
    ["reduce", "--poly"],
    ["reduce", "reduce"],
    ["alpha", "reduce"],
    ["reduce", "--po", "x1", "--grid-inline", GRID_F5_01],
    ["reduce", "--gri", "grid.json", "--poly", "x1"],
    ["cover-check", "--h"],
    ["reduce", "--", "--poly", "x1"],
    ["reduce", "--poly", "x1", "--", "--grid-inline", GRID_F5_01],
    ["reduce", "--poly", "--", "x1"],
    ["reduce", "--poly", "-x1", "--grid-inline", GRID_F5_01],
    ["reduce", "--poly", "-x", "-y"],
    ["reduce", "--poly", "x1", "--poly", "x2", "--json", "--json"],
    ["reduce", "--bogus", "--poly", "x1", "--grid-inline", GRID_F5_01],
    ["reduce", "--poly=x1", "extra"],
    ["member", "--method", "neither", "--poly", "x1", "--grid-inline", GRID_F5_01],
    ["member", "--method", "remainder", "--method", "pointwise", "--poly", "x1"],
    ["witness", "--poly", "x1", "--t", "١,١", "--method", "divided"],
    ["sun-check", "--grid-inline", GRID_F5_01, "--coeffs", "1", "--k", "x"],
    ["sun-check", "--grid-inline", GRID_F5_01, "--coeffs", "1", "--k", "٢"],
    ["hopf-stiefel", "--p", "٢", "--r", "1_0", "--s", "3"],
    ["hopf-stiefel", "--p", "2", "--r", "1", "--s", "1", "--p", "3"],
    ["hopf-stiefel", "--p", "2", "--r", "1", "--s", "1" * 5000],
    ["sumset", "--field", "prime:1_0007", "--a", "[]", "--b", "[]"],
    ["ek-check", "--p", "2", "--dim", "-1", "--a", "[]", "--b", "[]"],
    # each reason the option-table reader leaves an argv to argparse
    ["reduce", "--bogus=1", "--poly", "x1", "--grid-inline", GRID_F5_01],  # unknown option with "="
    ["reduce", "--po=x1", "--grid-inline", GRID_F5_01],  # abbreviation with "="
    ["reduce", "--poly=--", "--grid-inline", GRID_F5_01],  # "--" as a value, dropped before Python 3.13
    ["reduce", "--poly", "x1", "--grid-inline", GRID_F5_01, "--json=yes"],  # a flag with "="
    ["reduce", "--poly", "x1", "--json="],
    ["reduce", "--grid-inline", GRID_F5_01, "--poly"],  # a missing value at the end
    ["reduce", "--poly", "x1", "--help=x"],
    ["sun-check", "--grid-inline", GRID_F5_01, "--coeffs=1", "--k=x"],  # a failed type with "="
    ["hopf-stiefel", "--p=2", "--r=1", "--s=" + "1" * 5000],
    ["divdiff", "--poly=x1", "--method=neither"],  # a failed choice with "="
    ["ek-check", "--p=2", "--dim=1", "--a=[]"],  # a missing required option
]


def _parse_outcome(parse, argv):
    """What one parse route makes of argv: the namespace, the usage error, or
    the SystemExit code with what was printed."""
    printed = io.StringIO()
    try:
        with redirect_stdout(printed), redirect_stderr(printed):
            return "parsed", sorted(vars(parse(argv)).items())
    except cli._InputError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, printed.getvalue()


def _assert_same_parse(argv):
    full = _parse_outcome(cli.build_parser().parse_args, argv)
    assert _parse_outcome(cli._parse_args, argv) == full, argv
    return full


def test_direct_dispatch_matches_the_full_parse(monkeypatch):
    outcomes = [_assert_same_parse(argv) for argv in _GOLDEN_ARGVS + _EDGE_ARGVS]
    assert {outcome[0] for outcome in outcomes} == {"parsed", "error", "exit"}
    # argv=None reads sys.argv[1:], as argparse does
    for argv in (["reduce", "--poly", "x1"], ["--bogus"], ["reduce", "--poly"]):
        monkeypatch.setattr(sys, "argv", ["nullgrid"] + argv)
        assert _parse_outcome(cli._parse_args, None) == _parse_outcome(cli.build_parser().parse_args, argv)


@settings(max_examples=200, deadline=None)
@given(_argvs())
def test_direct_dispatch_matches_the_full_parse_on_fuzzed_argvs(argv):
    _assert_same_parse(argv)


# one argv per subcommand naming each of its options with a value that is
# not dash-led; the empty value and "=" inside a value are read as values
_CANONICAL = {
    "reduce": [("--poly", "x1^3"), ("--grid-inline", GRID_F5_01)],
    "member": [("--poly", "x1"), ("--grid", "grid.json"), ("--method", "pointwise")],
    "witness": [("--poly", "x1*x2"), ("--grid-inline", GRID_F3_2D), ("--t", "1,1"), ("--method", "divided-difference")],
    "punctured": [("--poly", "x1"), ("--grid", "g.json"), ("--sub-grid", "d.json"), ("--sub-grid-inline", GRID_F5_01)],
    "divdiff": [("--poly", "x1^2"), ("--grid-inline", GRID_F5_01), ("--method", "rec")],
    "alpha": [("--grid-inline", GRID_F3_2D)],
    "check-relation": [("--poly", "x1 + 2"), ("--grid", "grid.json")],
    "cover-check": [("--grid-inline", GRID_F5_01), ("--hyperplanes", "h.json"), ("--hyperplanes-inline", "[[1, 1]]")],
    "cover-extremal": [("--grid-inline", GRID_F3_2D)],
    "sumset": [("--field", "prime:5"), ("--a", "[]"), ("--b", '[{"value":"1","mult":2}]')],
    "cd-check": [("--field", "prime:7"), ("--a", "[]"), ("--b", "[]")],
    "valueset": [("--poly", "a=b"), ("--grid-inline", GRID_F5_01)],
    "sun-check": [("--grid-inline", GRID_F3_2D), ("--coeffs", "1,1"), ("--k", "2"), ("--g", "")],
    "hopf-stiefel": [("--p", "2"), ("--r", "3"), ("--s", "+4")],
    "ek-check": [("--p", "3"), ("--dim", "2"), ("--a", "[]"), ("--b", "[]")],
}


# token shapes around the option-table reader's edge, put between the pairs of
# a canonical argv: exact and abbreviated options, "=" forms, dash-led and
# missing values, "--", help, flags with "=" and stray values; the options are
# mostly the subcommand's own
_ALL_OPTIONS = sorted({"--json", "--grid", "--sub-grid", "--hyperplanes"}.union(*_OPTIONS.values()))
_TOKEN_VALUES = st.sampled_from(
    ["x1", "x1 + 2", "", "2", "3", "+4", "1,1", "both", "pointwise", "rec", "prime:5", "[]", GRID_F5_01, "a=b", "١", "1_0"]
)


@st.composite
def _token_argvs(draw):
    command = draw(st.sampled_from(sorted(_CANONICAL)))
    pairs = _CANONICAL[command]
    pieces = [draw(st.sampled_from([[option, value], [f"{option}={value}"]])) for option, value in pairs]
    for _ in range(draw(st.integers(0, 3))):
        option = draw(_mostly(st.sampled_from([option for option, _ in pairs] + ["--json"]), st.sampled_from(_ALL_OPTIONS)))
        value = draw(_TOKEN_VALUES)
        shapes = [
            [option, value], [f"{option}={value}"], [option], [option[:-1], value], [option[:4] + "=" + value],
            [option, "-" + value], [f"{option}=-{value}"], ["--"], ["-h"], ["--json=" + value], [value],
        ]
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(shapes)))
    return [command] + [token for piece in pieces for token in piece]


@settings(max_examples=300, deadline=None)
@given(_token_argvs())
def test_direct_dispatch_matches_the_full_parse_on_mixed_token_shapes(argv):
    _assert_same_parse(argv)


def test_known_subcommands_skip_the_top_level_parser(monkeypatch):
    parser = cli.build_parser()
    known = _GOLDEN_ARGVS + [
        ["reduce", "--po", "x1", "--grid-inline", GRID_F5_01],
        ["reduce", "--bogus", "--poly", "x1", "--grid-inline", GRID_F5_01],
        ["reduce", "--grid-inline", GRID_F5_01],
        ["member", "--method", "neither", "--poly", "x1", "--grid-inline", GRID_F5_01],
    ]
    expected = [run_cli(argv) for argv in known]

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    with monkeypatch.context() as patched:
        patched.setattr(parser, "parse_args", refuse)
        patched.setattr(parser, "parse_known_args", refuse)
        assert [run_cli(argv) for argv in known] == expected
        with redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as exc:
            main(["reduce", "--help"])
        assert exc.value.code == 0 and out.getvalue().startswith("usage: nullgrid reduce")

    # an argv that does not start with a command still reaches it
    seen = []
    full_parse = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv=None, ns=None: seen.append(argv) or full_parse(argv, ns))
    assert run_cli([]) == (2, "", "error: the following arguments are required: command\n")
    assert run_cli(["--bogus"]) == (2, "", "error: unrecognized arguments: --bogus\n")
    code, out, err = run_cli(["no-such-command"])
    assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith("error: argument command: ")
    with redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and out.getvalue().startswith("usage: nullgrid [-h]")
    assert seen == [[], ["--bogus"], ["no-such-command"], ["--help"]]


def _canonical_argvs(command, pairs):
    space = [token for pair in pairs for token in pair]
    equals = [f"{option}={value}" for option, value in pairs]
    mixed = [token for i, (option, value) in enumerate(pairs) for token in ([option, value] if i % 2 else [f"{option}={value}"])]
    return [
        [command] + space,
        [command] + equals,
        [command] + mixed,
        [command, "--json"] + equals + ["--json"] + space,  # every option repeated
    ]


def test_canonical_argvs_are_read_without_argparse(monkeypatch):
    """Exact options with values in space, "=" and mixed forms, repeated
    options and --json --json, on every subcommand, give the full parse's
    namespace while every argparse parse refuses to run, so a silent fall
    back to argparse fails here."""
    assert sorted(_CANONICAL) == sorted(cli._COMMANDS)
    argvs = [argv for command, pairs in _CANONICAL.items() for argv in _canonical_argvs(command, pairs)]
    argvs += [
        ["reduce", "--poly", "x1", "--poly", "x2", "--json", "--json"],
        ["member", "--method", "remainder", "--method", "pointwise", "--poly", "x1"],
        ["hopf-stiefel", "--p", "2", "--r", "1", "--s", "1", "--p=3"],
        ["sun-check", "--k=2", "--coeffs", "1", "--g", "x1 - 1", "--k", "3"],
    ]
    expected = [sorted(vars(cli.build_parser().parse_args(argv)).items()) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a canonical argv")

    with monkeypatch.context() as patched:
        patched.setattr(cli._ArgumentParser, "parse_args", refuse)
        patched.setattr(cli._ArgumentParser, "parse_known_args", refuse)
        for argv, want in zip(argvs, expected):
            assert sorted(vars(cli._parse_args(argv)).items()) == want, argv
        assert run_cli(["hopf-stiefel", "--p=2", "--r", "2", "--s=2", "--json"])[0] == 0


def test_bom_led_json_is_the_decoders_error_inline_and_from_a_file(tmp_path):
    message = (2, "", "error: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n")
    assert run_cli(["reduce", "--poly", "x1", "--grid-inline", "\ufeff" + GRID_F5_01]) == message
    assert run_cli(["sumset", "--field", "prime:7", "--a", "\ufeff[]", "--b", "[]"]) == message
    bom_file = tmp_path / "bom.json"
    bom_file.write_bytes(b"\xef\xbb\xbf" + GRID_F5_01.encode())
    assert run_cli(["reduce", "--poly", "x1", "--grid", str(bom_file)]) == message
    # a BOM past the first character is an ordinary bad character
    code, out, err = run_cli(["reduce", "--poly", "x1", "--grid-inline", " \ufeff" + GRID_F5_01])
    assert (code, out, err) == (2, "", "error: invalid JSON: Expecting value: line 1 column 2 (char 1)\n")


def test_decoding_json_builds_no_decoder(tmp_path, monkeypatch):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(GRID_F5_01)
    built = []
    init = json.JSONDecoder.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(json.JSONDecoder, "__init__", counting)
    assert run_cli(["reduce", "--poly", "x1", "--grid-inline", GRID_F5_01])[0] == 0
    assert run_cli(["reduce", "--poly", "x1", "--grid", str(grid_file)])[0] == 0
    assert run_cli(["sumset", "--field", "prime:7", "--a", '[{"value":"1","mult":2}]', "--b", '[{"value":"3","mult":1}]'])[0] == 0
    assert built == []
