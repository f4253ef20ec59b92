"""The CLI checked against the oracles on random valid instances.

Each example draws a small instance over F_2, F_3, F_7, F_10007 or Q: arity
1 to 3, coordinate multisets of size at most 4 and polynomials of at most 6
terms.  It runs the instance through cli.main in text mode and in --json
mode, checks that both print the same data, and compares that data with
tests/oracles.py or, for sumsets and ek-check's vector sumset, with a
pairwise maximum written here.  The divided-difference witness is compared
after trim_grid, and cover-check runs on extremal covers and on covers
perturbed so that its undercovered: and proportional: lines and its failing
exit code appear; cover-extremal's planes must number sum(d_i) - n and pass
the report oracle as a valid cover.  punctured,
check-relation and sun-check read polynomial text too; their r and h, the
top-coefficient identity and the value-set size are checked against the
oracles, and sun-check's bound against its formula written out here.
Instances come from random.Random(seed), and every assertion names the argv,
so a failure is reproduced from its message alone.  Each example has a
CPU-time bound, so a handler that slows down by orders of magnitude fails.
"""

import io
import itertools
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout

from nullgrid import FieldSpec, Hyperplane, MultiPoly, Multiset, MultisetGrid, extremal_cover, parse_poly, trim_grid
from nullgrid.applications import hyperplane_to_list
from nullgrid.cli import main
from nullgrid.ideals import grid_to_dict, multiset_to_list
from randgen import rand_element, rand_grid, rand_multiset, rand_poly, rand_witness_instance
from oracles import (
    brute_first_witness,
    build_punctured_instance,
    cover_report_oracle,
    expansion_coefficient_oracle,
    generator_oracle,
    hermite_remainder_oracle,
    hopf_stiefel_oracle,
    ideal_member_oracle,
    poly_product_oracle,
    residue_weight_oracle,
    two_point_bracket_oracle,
    value_set_oracle,
)

SPECS = tuple(FieldSpec.prime(p) for p in (2, 3, 7, 10007)) + (FieldSpec.rationals(),)
EXAMPLES = 40  # per subcommand
CPU_SECONDS = 1.0  # per example, both output modes together


def _run(argv, exit_code=0):
    """cli.main on argv in text mode and in --json mode, each exiting with
    exit_code and nothing on stderr, within CPU_SECONDS: the text without its
    final newline, and the JSON object without its schema and command."""
    printed = []
    start = time.process_time()
    for tail in ([], ["--json"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + tail)
        assert (code, err.getvalue()) == (exit_code, ""), argv + tail
        printed.append(out.getvalue())
    assert time.process_time() - start < CPU_SECONDS, argv
    text, payload = printed
    assert text.endswith("\n"), argv
    obj = json.loads(payload)
    assert (obj.pop("schema"), obj.pop("command")) == ("nullgrid.v1", argv[0]), argv
    return text[:-1], obj


def _gridded(seed):
    """The seeded generator, then a random grid and polynomial drawn from it."""
    rng = random.Random(seed)
    spec = rng.choice(SPECS)
    grid = rand_grid(rng, spec, rng.randint(1, 3), max_size=4)
    f = rand_poly(rng, spec, grid.arity, max_deg=rng.randint(0, 6), max_terms=6)
    return rng, grid, f


def _grid_args(grid, f):
    return ["--poly", str(f), "--grid-inline", json.dumps(grid_to_dict(grid))]


def _fmt_tuple(values):
    return "(" + ", ".join(str(v) for v in values) + ")"


def _fmt_multiset(items):
    return "{" + ", ".join(f"{item['value']}:{item['mult']}" for item in items) + "}"


def _by_value(items):
    return {item["value"]: item["mult"] for item in items}


def test_reduce_matches_the_hermite_remainder():
    for seed in range(EXAMPLES):
        _, grid, f = _gridded(seed)
        argv = ["reduce"] + _grid_args(grid, f)
        text, obj = _run(argv)
        lines = [f"r: {obj['r']}"] + [f"h{i}: {h}" for i, h in enumerate(obj["h"], 1)]
        assert text == "\n".join(lines) and len(obj["h"]) == grid.arity, argv
        r = parse_poly(obj["r"], grid.arity, grid.spec)
        assert r == hermite_remainder_oracle(f, grid), argv
        # f = r + sum h_i * g_i, multiplied out by the oracles
        total = r
        for i, (h, ms) in enumerate(zip(obj["h"], grid.sets)):
            h = parse_poly(h, grid.arity, grid.spec)
            total = total + poly_product_oracle(h, generator_oracle(ms, i, grid.arity))
        assert total == f, argv


def test_punctured_matches_the_hermite_remainder():
    for seed in range(EXAMPLES):
        rng = random.Random(seed)
        spec = rng.choice(SPECS)
        while True:  # an instance with a punctured point: f's remainder is nonzero
            f, grid, d_grid, quotient = build_punctured_instance(rng, spec, rng.randint(1, 3))
            r = hermite_remainder_oracle(f, grid)
            if r.terms:
                break
        argv = ["punctured"] + _grid_args(grid, f) + ["--sub-grid-inline", json.dumps(grid_to_dict(d_grid))]
        text, obj = _run(argv)
        assert text == f"r: {obj['r']}\nh: {obj['h']}\nbound: {obj['bound']}\ndeg_f: {obj['deg_f']}", argv
        h = parse_poly(obj["h"], grid.arity, spec)
        assert parse_poly(obj["r"], grid.arity, spec) == r == poly_product_oracle(h, quotient), argv
        bound = sum(grid.sizes) - sum(d_grid.sizes)
        assert (obj["bound"], obj["deg_f"]) == (bound, f.total_degree()), argv


def test_member_matches_the_oracle_remainder():
    for seed in range(EXAMPLES):
        rng, grid, f = _gridded(seed)
        if seed % 2:  # half the examples are members
            f = ideal_member_oracle(rng, grid)
        method = rng.choice(["remainder", "pointwise", "both"])
        argv = ["member"] + _grid_args(grid, f) + ["--method", method]
        text, obj = _run(argv)
        assert text == f"member: {json.dumps(obj['member'])}\nmethod: {obj['method']}", argv
        assert obj == {"member": not hermite_remainder_oracle(f, grid).terms, "method": method}, argv
        assert obj["member"] or seed % 2 == 0, argv


def test_divdiff_matches_the_two_point_bracket():
    for seed in range(EXAMPLES):
        rng, grid, f = _gridded(seed)
        method = rng.choice(["def", "rec", "both"])
        argv = ["divdiff"] + _grid_args(grid, f) + ["--method", method]
        text, obj = _run(argv)
        assert text == f"value: {obj['value']}\nmethod: {obj['method']}", argv
        assert obj == {"value": str(two_point_bracket_oracle(f, grid, rng)), "method": method}, argv


def test_check_relation_matches_the_weighted_expansion_sum():
    holds_seen = set()
    for seed in range(EXAMPLES):
        rng = random.Random(seed)
        spec = rng.choice(SPECS)
        grid = rand_grid(rng, spec, rng.randint(1, 3), max_size=4)
        t = grid.top_exponent
        f = rand_poly(rng, spec, grid.arity, max_deg=rng.randint(0, sum(t)), max_terms=6)
        # the x^t coefficient of f's remainder against the sum over the grid
        # of each expansion coefficient times its residue weight
        top = hermite_remainder_oracle(f, grid).coefficient(t)
        weighted = spec.zero
        for point in grid.points():
            for u in itertools.product(*(range(m) for m in grid.multiplicity_vector(point))):
                weighted = weighted + residue_weight_oracle(grid, point, u) * expansion_coefficient_oracle(f, point, u)
        holds = top == weighted
        argv = ["check-relation"] + _grid_args(grid, f)
        text, obj = _run(argv, 0 if holds else 1)
        assert (text, obj) == (f"holds: {json.dumps(holds)}", {"holds": holds}), argv
        holds_seen.add(holds)
    assert holds_seen == {True}  # the identity is a theorem for deg f <= sum(t)


def test_exhaustive_witness_matches_the_brute_force_scan():
    for seed in range(EXAMPLES):
        rng = random.Random(seed)
        spec = rng.choice(SPECS)
        f, grid, t = rand_witness_instance(rng, spec, rng.randint(1, 3))
        argv = ["witness"] + _grid_args(grid, f) + ["--t", ",".join(map(str, t)), "--method", "exhaustive"]
        text, obj = _run(argv)
        expected_text = (
            f"point: {_fmt_tuple(obj['point'])}\nexponent: {_fmt_tuple(obj['exponent'])}\nvalue: {obj['value']}"
        )
        assert text == expected_text, argv
        point, u, value = brute_first_witness(f, grid)
        expected = {"point": [str(x) for x in point], "exponent": list(u), "value": str(value), "method": "exhaustive"}
        assert obj == expected, argv


def test_divided_difference_witness_matches_the_scan_of_the_trimmed_grid():
    for seed in range(EXAMPLES):
        rng = random.Random(seed)
        spec = rng.choice(SPECS)
        f, grid, t = rand_witness_instance(rng, spec, rng.randint(1, 3))
        argv = ["witness"] + _grid_args(grid, f) + ["--t", ",".join(map(str, t)), "--method", "divided-difference"]
        text, obj = _run(argv)
        expected_text = (
            f"point: {_fmt_tuple(obj['point'])}\nexponent: {_fmt_tuple(obj['exponent'])}\nvalue: {obj['value']}"
        )
        assert text == expected_text, argv
        point, u, value = brute_first_witness(f, trim_grid(grid, t))
        expected = {
            "point": [str(x) for x in point], "exponent": list(u), "value": str(value), "method": "divided-difference"
        }
        assert obj == expected, argv


def test_alpha_matches_the_residue_weights():
    for seed in range(EXAMPLES):
        rng = random.Random(seed)
        grid = rand_grid(rng, rng.choice(SPECS), rng.randint(1, 3), max_size=4)
        argv = ["alpha", "--grid-inline", json.dumps(grid_to_dict(grid))]
        text, obj = _run(argv)
        lines = [f"s={_fmt_tuple(w['point'])} u={_fmt_tuple(w['exponent'])}: {w['value']}" for w in obj["weights"]]
        assert text == "\n".join(lines), argv
        # every (point, exponent below its multiplicity vector), points in
        # grid order and each box in lexicographic order
        expected = [
            {"point": [str(x) for x in point], "exponent": list(u), "value": str(residue_weight_oracle(grid, point, u))}
            for point in grid.points()
            for u in itertools.product(*(range(m) for m in grid.multiplicity_vector(point)))
        ]
        assert obj == {"weights": expected}, argv


def _cover_grid(rng, spec):
    """A random grid holding 0 once per coordinate, as covers need."""
    sets = []
    for _ in range(rng.randint(1, 3)):
        ms = rand_multiset(rng, spec, 3)
        sets.append(Multiset(spec, [(v, m) for v, m in ms.entries.items() if v != 0] + [(0, 1)]))
    return MultisetGrid(sets)


def _cover_instance(seed):
    """A cover grid and its extremal cover as coefficient rows, perturbed by
    the seed: as it is, one plane dropped, one plane added, or one plane
    repeated times a nonzero scalar."""
    rng = random.Random(seed)
    spec = rng.choice(SPECS)
    grid = _cover_grid(rng, spec)
    rows = [hyperplane_to_list(h) for h in extremal_cover(grid)]
    values = list(range(spec.p)) if spec.p else [-2, -1, 0, 1, 3]
    kind = seed % 4
    if kind == 1 and rows:
        del rows[rng.randrange(len(rows))]
    elif kind == 2 or not rows:
        normal = [rng.choice(values) for _ in grid.sets]
        normal[rng.randrange(len(normal))] = 1
        rows.append([str(rng.choice(values))] + [str(c) for c in normal])
    elif kind == 3:
        scalar = spec.element(rng.choice([v for v in values if v]))
        rows.append([str(scalar * spec.element(c)) for c in rng.choice(rows)])
    return grid, rows


def test_cover_check_matches_the_report_oracle():
    verdicts, optional_lines = set(), set()
    for seed in range(EXAMPLES):
        grid, rows = _cover_instance(seed)
        argv = ["cover-check", "--grid-inline", json.dumps(grid_to_dict(grid)), "--hyperplanes-inline", json.dumps(rows)]
        expected = cover_report_oracle([Hyperplane(grid.spec, row) for row in rows], grid)
        text, obj = _run(argv, 0 if expected.verdict == "valid_cover" else 1)
        lines = [f"verdict: {obj['verdict']}", f"k: {obj['k']}", f"bound: {obj['bound']}"]
        lines += [f"meets_bound: {json.dumps(obj['meets_bound'])}", f"origin_covered: {json.dumps(obj['origin_covered'])}"]
        if obj["undercovered"]:
            lines.append("undercovered: " + "; ".join(map(_fmt_tuple, obj["undercovered"])))
        if obj["proportional"]:
            lines.append("proportional: " + "; ".join(f"{i}~{j}" for i, j in obj["proportional"]))
        assert text == "\n".join(lines), argv
        assert obj == {
            "verdict": expected.verdict,
            "k": expected.k,
            "bound": expected.bound,
            "meets_bound": expected.k >= expected.bound,
            "origin_covered": expected.origin_covered,
            "undercovered": [[str(x) for x in point] for point in expected.undercovered_points],
            "proportional": [[i + 1, j + 1] for i, j in expected.proportional_pairs],
        }, argv
        verdicts.add(expected.verdict)
        optional_lines.update(line.split(":")[0] for line in lines[5:])
    assert verdicts == {"valid_cover", "undercovered", "origin_violated"}
    assert optional_lines == {"undercovered", "proportional"}


def test_cover_extremal_meets_the_bound_by_the_report_oracle():
    for seed in range(EXAMPLES):
        rng = random.Random(seed)
        grid = _cover_grid(rng, rng.choice(SPECS))
        spec, n = grid.spec, grid.arity
        argv = ["cover-extremal", "--grid-inline", json.dumps(grid_to_dict(grid))]
        text, obj = _run(argv)
        k_line, *plane_lines = text.split("\n")
        rows = obj["hyperplanes"]
        assert k_line == f"k: {obj['k']}" and len(plane_lines) == len(rows) == obj["k"], argv
        # each printed plane c0 + c1*x1 + ... + cn*xn is its JSON row
        for line, row in zip(plane_lines, rows):
            terms = {(0,) * n: row[0]}
            terms.update({tuple(int(j == i) for j in range(n)): c for i, c in enumerate(row[1:])})
            assert parse_poly(line, n, spec) == MultiPoly(n, spec, terms), argv
        report = cover_report_oracle([Hyperplane(spec, row) for row in rows], grid)
        assert obj["k"] == sum(grid.sizes) - n == report.bound, argv
        assert report.verdict == "valid_cover", argv


def test_hopf_stiefel_matches_the_direct_search():
    for seed in range(EXAMPLES):
        rng = random.Random(seed)
        p, r, s = rng.choice([2, 3, 5, 7, 11, 10007]), rng.randint(1, 40), rng.randint(1, 40)
        argv = ["hopf-stiefel", "--p", str(p), "--r", str(r), "--s", str(s)]
        text, obj = _run(argv)
        beta = hopf_stiefel_oracle(p, r, s)
        assert (text, obj) == (str(beta), {"p": p, "r": r, "s": s, "beta": beta}), argv


def test_valueset_matches_enumeration():
    for seed in range(EXAMPLES):
        _, grid, f = _gridded(seed)
        argv = ["valueset"] + _grid_args(grid, f)
        text, obj = _run(argv)
        assert text == _fmt_multiset(obj["values"]), argv
        expected = value_set_oracle(f, grid)
        assert _by_value(obj["values"]) == _by_value(multiset_to_list(expected)), argv
        assert obj["size"] == expected.size == sum(_by_value(obj["values"]).values()), argv


def test_sun_check_matches_enumeration_and_the_bound():
    for seed in range(EXAMPLES):
        rng = random.Random(seed)
        spec = rng.choice(SPECS)
        grid = rand_grid(rng, spec, rng.randint(1, 3), max_size=4)
        n, k = grid.arity, rng.randint(1, 3)
        coeffs = []
        while len(coeffs) < n:
            c = rand_element(rng, spec)
            if c:
                coeffs.append(c)
        g = rand_poly(rng, spec, n, max_deg=k - 1, max_terms=3) if seed % 3 else MultiPoly.zero(n, spec)
        argv = ["sun-check", "--grid-inline", json.dumps(grid_to_dict(grid)),
                "--coeffs=" + ",".join(map(str, coeffs)), "--k", str(k), f"--g={g}"]
        f = g
        for i, c in enumerate(coeffs):
            f = f + MultiPoly.monomial(n, spec, [k if j == i else 0 for j in range(n)], c)
        lhs = value_set_oracle(f, grid).size
        # Sun's bound: min(char, sum_i floor((d_i - 1) / k) + 1), no cap over Q
        total = sum((d - 1) // k for d in grid.sizes) + 1
        rhs = min(spec.p, total) if spec.p else total
        text, obj = _run(argv, 0 if lhs >= rhs else 1)
        assert text == f"lhs: {obj['lhs']}\nrhs: {obj['rhs']}\nholds: {json.dumps(obj['holds'])}", argv
        assert obj == {"lhs": lhs, "rhs": rhs, "holds": lhs >= rhs}, argv


def _pairwise_max(a, b):
    """The multiset sum: every x + y, with the largest m_A(x) + m_B(y) - 1
    over its representations, keyed by the printed value."""
    best = {}
    for x, mx in a.entries.items():
        for y, my in b.entries.items():
            key = str(x + y)
            best[key] = max(best.get(key, 0), mx + my - 1)
    return best


def _operands(seed):
    rng = random.Random(seed)
    spec = rng.choice(SPECS[:-1])  # sumsets are taken in a prime field
    a, b = rand_multiset(rng, spec, 4), rand_multiset(rng, spec, 4)
    args = ["--field", f"prime:{spec.p}", "--a", json.dumps(multiset_to_list(a)), "--b", json.dumps(multiset_to_list(b))]
    return spec, a, b, args


def test_sumset_matches_the_pairwise_maximum():
    for seed in range(EXAMPLES):
        _, a, b, args = _operands(seed)
        argv = ["sumset"] + args
        text, obj = _run(argv)
        assert text == _fmt_multiset(obj["sumset"]), argv
        expected = _pairwise_max(a, b)
        assert _by_value(obj["sumset"]) == expected and obj["size"] == sum(expected.values()), argv


def test_cd_check_matches_the_pairwise_maximum():
    for seed in range(EXAMPLES):
        spec, a, b, args = _operands(seed)
        argv = ["cd-check"] + args
        text, obj = _run(argv)
        lines = [f"sumset: {_fmt_multiset(obj['sumset'])}", f"lhs: {obj['lhs']}", f"rhs: {obj['rhs']}"]
        assert text == "\n".join(lines + [f"holds: {json.dumps(obj['holds'])}"]), argv
        expected = _pairwise_max(a, b)
        assert _by_value(obj["sumset"]) == expected, argv
        lhs, rhs = sum(expected.values()), min(spec.p, a.size + b.size - 1)
        excess = sum(m - 1 for m in a.entries.values()) + sum(m - 1 for m in b.entries.values())
        assert (obj["lhs"], obj["rhs"], obj["holds"]) == (lhs, rhs, True), argv
        assert (obj["deg_lhs"], obj["deg_rhs"]) == (sum(m - 1 for m in expected.values()), excess), argv


def _vector_operand(rng, p, dim):
    """A random vector multiset over F_p^dim as CLI JSON, and as a
    {vector: multiplicity} map."""
    vectors = list(itertools.product(range(p), repeat=dim))
    support = rng.sample(vectors, rng.randint(1, min(4, len(vectors))))
    entries = {v: rng.randint(1, 3) for v in support}
    return json.dumps([{"value": list(v), "mult": m} for v, m in entries.items()]), entries


def test_ek_check_matches_the_pairwise_maximum_and_the_direct_search():
    for seed in range(EXAMPLES):
        rng = random.Random(seed)
        p, dim = rng.choice([2, 3, 5, 7]), rng.randint(1, 3)
        (a_json, a), (b_json, b) = _vector_operand(rng, p, dim), _vector_operand(rng, p, dim)
        argv = ["ek-check", "--p", str(p), "--dim", str(dim), "--a", a_json, "--b", b_json]
        text, obj = _run(argv)
        sumset_text = "{" + ", ".join(f"{item['value']}:{item['mult']}" for item in obj["sumset"]) + "}"
        lines = [f"sumset: {sumset_text}", f"lhs: {obj['lhs']}", f"rhs: {obj['rhs']}"]
        assert text == "\n".join(lines + [f"holds: {json.dumps(obj['holds'])}"]), argv
        # every x + y, added componentwise mod p, with the largest
        # m_A(x) + m_B(y) - 1 over its representations
        expected = {}
        for (x, mx), (y, my) in itertools.product(a.items(), b.items()):
            key = tuple((u + v) % p for u, v in zip(x, y))
            expected[key] = max(expected.get(key, 0), mx + my - 1)
        assert {tuple(item["value"]): item["mult"] for item in obj["sumset"]} == expected, argv
        lhs, rhs = sum(expected.values()), hopf_stiefel_oracle(p, sum(a.values()), sum(b.values()))
        assert (obj["lhs"], obj["rhs"], obj["holds"]) == (lhs, rhs, True), argv
