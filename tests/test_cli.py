import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

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


def test_hopf_stiefel_large_arguments_finish():
    proc = subprocess.run(
        [sys.executable, "-m", "nullgrid", "hopf-stiefel", "--p", "2", "--r", "99999999", "--s", "99999999"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "134217728\n"


def test_repeat_runs_and_parallel_are_byte_identical():
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
        with_parallel = run_cli(argv + ["--parallel"])
        assert first == second == with_parallel
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


def test_malformed_field_is_an_input_error():
    sets = '"sets":[[{"value":"0","mult":1}]]'
    for field, message in (
        ('"x"', "error: field must be an object with a 'kind', got 'x'\n"),
        ("[5]", "error: field must be an object with a 'kind', got [5]\n"),
        ('{"kind":"prime"}', "error: prime field object needs 'p'\n"),
    ):
        code, out, err = run_cli(["reduce", "--poly", "x1", "--grid-inline", f'{{"field":{field},{sets}}}'])
        assert (code, out, err) == (2, "", message)


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
    ):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), argv
    code, _, err = run_cli(["reduce", "--grid-inline", GRID_F5_01])
    assert err == "error: the following arguments are required: --poly\n"


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
