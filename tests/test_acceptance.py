"""Acceptance suite: one test per criterion, each printing one pass/fail line
(run with `pytest -s tests/test_acceptance.py` to see them).

All coefficient arithmetic in this package is exact, so every check below is
an exact equality or an exact inequality; there are no numeric tolerances to
calibrate.  Trial counts and instance caps are fixed here, not configurable.
"""

import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout

from nullgrid import (
    FieldSpec,
    MultiPoly,
    Multiset,
    MultisetGrid,
    TermOrder,
    cauchy_davenport_check,
    coefficients_stay_integral,
    divided_difference,
    divided_difference_recursive,
    eliahou_kervaire_check,
    extremal_cover,
    find_witness,
    grid_expansions,
    hopf_stiefel,
    in_grid_ideal,
    iter_multisets,
    iter_vector_multisets,
    multiset_deg,
    punctured_decompose,
    reduce_poly,
    standard_monomials,
    sumset,
    sun_value_set_check,
    top_coefficient_identity_holds,
    trim_grid,
    universal_gb_check,
    verify_cover,
    weight_table,
)
from nullgrid.applications import Hyperplane
from nullgrid.cli import main as cli_main
from nullgrid.ideals import in_local_ideal
from randgen import (
    rand_grid,
    rand_ideal_member,
    rand_multiset,
    rand_poly,
    rand_spec,
    rand_witness_instance,
)
from oracles import build_punctured_instance, dual_basis_poly, hopf_stiefel_oracle, two_point_bracket_oracle

PRIMES = (2, 3, 5, 7, 13)


def _report(num, name, ok, details):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({details})"
    print(line)
    assert ok, line


def _deg_bounds_ok(f, grid, res):
    for i, d in enumerate(grid.sizes):
        deg = res.remainder.degree_in(i)
        if deg is not None and deg >= d:
            return False
    deg_f = f.total_degree()
    for i, h in enumerate(res.cofactors):
        deg_h = h.total_degree()
        if deg_h is not None and (deg_f is None or deg_h > deg_f - grid.sizes[i]):
            return False
    return True


def test_c01_reduction_soundness():
    rng = random.Random(101)
    failures = 0
    for _ in range(1000):
        spec = FieldSpec.prime(rng.choice(PRIMES))
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=4)
        f = rand_poly(rng, spec, n, max_deg=8, max_terms=10)
        res = reduce_poly(f, grid)
        recombined = res.remainder
        for h, g in zip(res.cofactors, grid.generators()):
            recombined = recombined + h * g
        if recombined != f or not _deg_bounds_ok(f, grid, res):
            failures += 1
    _report(1, "reduction soundness", failures == 0, f"1000 trials, {failures} failures")


def test_c02_membership_methods_agree():
    rng = random.Random(102)
    disagreements = 0
    members = 0
    for _ in range(1000):
        spec = FieldSpec.prime(rng.choice(PRIMES))
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=4)
        if rng.random() < 0.5:
            f = rand_ideal_member(rng, grid)
        else:
            f = rand_poly(rng, spec, n, max_deg=8, max_terms=10)
        by_remainder = in_grid_ideal(f, grid, "remainder")
        by_points = in_grid_ideal(f, grid, "pointwise")
        if by_remainder != by_points:
            disagreements += 1
        if by_remainder:
            members += 1
    _report(
        2,
        "ideal equality (remainder vs pointwise)",
        disagreements == 0,
        f"1000 trials, {members} members, {disagreements} disagreements",
    )


def test_c03_dimension_formula():
    rng = random.Random(103)
    failures = 0
    for _ in range(200):
        spec = rand_spec(rng, rational_weight=0.2)
        grid = rand_grid(rng, spec, rng.randint(1, 3), max_size=4)
        expected = 1
        for d in grid.sizes:
            expected *= d
        if len(standard_monomials(grid)) != expected:
            failures += 1
    _report(3, "dimension formula", failures == 0, f"200 grids, {failures} failures")


def test_c04_universal_groebner_property():
    rng = random.Random(104)
    failures = 0
    checked = 0
    while checked < 200:
        spec = rand_spec(rng, rational_weight=0.2)
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=4)
        f = rand_ideal_member(rng, grid)
        if f.is_zero():
            continue
        checked += 1
        perms = [tuple(range(n)), tuple(reversed(range(n)))]
        orders = [TermOrder(kind, perm) for kind in TermOrder.KINDS for perm in perms]
        if not universal_gb_check(f, grid, orders):
            failures += 1
    _report(
        4,
        "universal Groebner property",
        failures == 0,
        f"200 members x 6 orders, {failures} failures",
    )


def test_c05_divided_difference_equivalence():
    rng = random.Random(105)
    mismatches = 0
    for _ in range(1000):
        spec = rand_spec(rng, rational_weight=0.2)
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=4)
        f = rand_poly(rng, spec, n, max_deg=8, max_terms=10)
        if divided_difference(f, grid) != divided_difference_recursive(f, grid):
            mismatches += 1
    pivot_mismatches = 0
    for trial in range(200):
        spec = rand_spec(rng, rational_weight=0.2)
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=4)
        f = rand_poly(rng, spec, n, max_deg=6, max_terms=8)
        canonical = divided_difference_recursive(f, grid)
        randomized = two_point_bracket_oracle(f, grid, random.Random(9000 + trial))
        if canonical != randomized:
            pivot_mismatches += 1
    _report(
        5,
        "divided-difference equivalence",
        mismatches == 0 and pivot_mismatches == 0,
        f"1000 def-vs-rec ({mismatches} off), 200 randomized pivots ({pivot_mismatches} off)",
    )


def _table_sum(f, grid, weights):
    """The weighted sum of f's expansion coefficients read entry by entry
    from a {(point, exponent): weight} map."""
    spec = grid.spec
    expansions = ((tuple(map(spec.element, point)), terms) for point, terms in grid_expansions(f, grid))
    return sum((weights[point, u] * spec.element(c) for point, terms in expansions for u, c in terms.items()), spec.zero)


def test_c06_linear_relation_and_weights():
    rng = random.Random(106)
    relation_failures = 0
    zero_top_weights = 0
    tables = []
    for _ in range(200):
        spec = rand_spec(rng, rational_weight=0.25)
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=4 if n < 3 else 3)
        table = weight_table(grid)
        tables.append((grid, table))
        for point in grid.points():
            top = tuple(m - 1 for m in grid.multiplicity_vector(point))
            if table.weight(point, top).is_zero():
                zero_top_weights += 1
        budget = sum(grid.top_exponent)
        for _ in range(5):
            f = (
                rand_poly(rng, grid.spec, n, max_deg=budget, max_terms=8)
                if budget
                else MultiPoly.constant(n, grid.spec, rng.randint(1, 5))
            )
            top = f.coefficient(grid.top_exponent)
            if not top_coefficient_identity_holds(f, grid) or top != _table_sum(f, grid, table.weights):
                relation_failures += 1
    undetected = 0
    for trial in range(100):
        grid, table = tables[trial % len(tables)]
        spec = grid.spec
        key = sorted(
            table.weights, key=lambda k: (tuple(e.sort_key() for e in k[0]), k[1])
        )[trial % len(table.weights)]
        point, u = key
        broken = {**table.weights, key: table.weights[key] + spec.one}
        probe = dual_basis_poly(grid, point, u)
        top = probe.coefficient(grid.top_exponent)
        if top == _table_sum(probe, grid, broken) or top != _table_sum(probe, grid, table.weights):
            undetected += 1
    _report(
        6,
        "top-coefficient linear relation",
        relation_failures == 0 and zero_top_weights == 0 and undetected == 0,
        f"1000 relation checks ({relation_failures} off), 200 grids all top weights nonzero "
        f"({zero_top_weights} zero), 100 perturbations ({undetected} undetected)",
    )


def test_c07_nonvanishing_witness():
    rng = random.Random(107)
    not_found = 0
    invalid = 0
    disagreements = 0
    for _ in range(500):
        spec = rand_spec(rng, rational_weight=0.2)
        n = rng.randint(1, 3)
        f, grid, t = rand_witness_instance(rng, spec, n)
        trimmed = trim_grid(grid, t)
        try:
            w_full = find_witness(f, grid, t, method="exhaustive")
            w_dd = find_witness(f, grid, t, method="divided_difference")
            w_trim = find_witness(f, trimmed, t, method="exhaustive")
        except Exception:
            not_found += 1
            continue
        for w, g in ((w_full, grid), (w_dd, trimmed), (w_trim, trimmed)):
            mv = g.multiplicity_vector(w.point)
            if w.value.is_zero() or not all(e < m for e, m in zip(w.exponent, mv)):
                invalid += 1
            if f.shift(w.point).coefficient(w.exponent) != w.value:
                invalid += 1
        if (w_dd.point, w_dd.exponent, w_dd.value) != (w_trim.point, w_trim.exponent, w_trim.value):
            disagreements += 1
    _report(
        7,
        "nonvanishing witness",
        not_found == 0 and invalid == 0 and disagreements == 0,
        f"500 instances, {not_found} not found, {invalid} invalid, "
        f"{disagreements} cross-method disagreements after identical trimming",
    )


def test_c08_punctured_decomposition():
    rng = random.Random(108)
    built = 0
    failures = 0
    equality_seen = False
    while built < 200:
        spec = rand_spec(rng, rational_weight=0.25)
        n = rng.randint(1, 2)
        f, grid, d_grid, quotient = build_punctured_instance(rng, spec, n)
        if not any(
            not in_local_ideal(f, s, grid.multiplicity_vector(s)) for s in grid.points()
        ):
            continue
        built += 1
        res = punctured_decompose(f, grid, d_grid)
        deg_f = f.total_degree()
        if (
            res.quotient.is_zero()
            or res.quotient * quotient != res.remainder
            or deg_f is None
            or deg_f < res.degree_bound
        ):
            failures += 1
        if res.quotient.total_degree() == 0 and deg_f == res.degree_bound:
            equality_seen = True
    # the canonical extremal instance: f exactly the product of quotients
    sg = MultisetGrid.of(FieldSpec.prime(5), [{0: 1, 1: 2}, {0: 1, 2: 1}])
    dg = MultisetGrid.of(FieldSpec.prime(5), [{0: 1}, {2: 1}])
    f_star = MultiPoly.constant(2, sg.spec, 1)
    for i, (big, small) in enumerate(zip(sg.sets, dg.sets)):
        outside = [(e, m) for e, m in big.entries.items() if small.multiplicity(e) == 0]
        f_star = f_star * Multiset(sg.spec, outside).generator_poly(i, 2)
    res_star = punctured_decompose(f_star, sg, dg)
    equality_ok = (
        res_star.quotient == MultiPoly.constant(2, sg.spec, 1)
        and f_star.total_degree() == res_star.degree_bound
    )
    _report(
        8,
        "punctured decomposition",
        failures == 0 and equality_ok,
        f"200 instances, {failures} failures, equality instance "
        f"{'included' if equality_ok else 'FAILED'}"
        + (", equality also hit at random" if equality_seen else ""),
    )


def _random_cover_grid(rng, spec, n, max_size):
    sets = []
    for _ in range(n):
        ms = rand_multiset(rng, spec, max_size=max_size)
        entries = {e: m for e, m in ms.entries.items() if not e.is_zero()}
        entries[spec.zero] = 1
        sets.append(Multiset(spec, entries.items()))
    return MultisetGrid(sets)


def test_c09_covering():
    rng = random.Random(109)
    failures = 0
    for _ in range(100):
        spec = rand_spec(rng, primes=(3, 5, 7, 13), rational_weight=0.2)
        n = rng.randint(1, 3)
        grid = _random_cover_grid(rng, spec, n, max_size=4)
        planes = extremal_cover(grid)
        rep = verify_cover(planes, grid)
        if rep.verdict != "valid_cover" or rep.k != sum(grid.sizes) - n:
            failures += 1

    # sharpness at desk scale over F_3: no list of fewer than sum(d_i) - n
    # hyperplanes is a valid cover.  Hyperplanes with the same zero set cover
    # identically, so searching multisets of scalar-class representatives of
    # every size below the bound is exhaustive.
    spec = FieldSpec.prime(3)
    classes_1d = [Hyperplane(spec, [-a, spec.one]) for a in (spec.element(v) for v in range(3))]
    normals_2d = [(1, 0), (0, 1), (1, 1), (1, 2)]
    classes_2d = [
        Hyperplane(spec, [c0, n1, n2])
        for n1, n2 in normals_2d
        for c0 in range(3)
    ]
    coord_multisets = []
    for m1 in range(4):
        for m2 in range(4):
            if 1 + m1 + m2 <= 4:
                entries = {spec.zero: 1}
                if m1:
                    entries[spec.element(1)] = m1
                if m2:
                    entries[spec.element(2)] = m2
                coord_multisets.append(Multiset(spec, entries.items()))
    small_covers = 0
    searched = 0
    grids = [MultisetGrid([ms]) for ms in coord_multisets]
    grids += [
        MultisetGrid([a, b])
        for a in coord_multisets
        for b in coord_multisets
        if a.size + b.size - 2 <= 3
    ]
    for grid in grids:
        bound = sum(grid.sizes) - grid.arity
        if bound < 1:
            continue
        classes = classes_1d if grid.arity == 1 else classes_2d
        for k in range(bound):
            for combo in itertools.combinations_with_replacement(classes, k):
                searched += 1
                if verify_cover(list(combo), grid).verdict == "valid_cover":
                    small_covers += 1
    _report(
        9,
        "hyperplane covering",
        failures == 0 and small_covers == 0,
        f"100 extremal covers ({failures} failures), {searched} undersized F_3 "
        f"candidates searched, {small_covers} valid",
    )


def test_c10_cauchy_davenport_exhaustive():
    checked = 0
    bound_failures = 0
    deg_failures = 0
    equality_cases = 0
    for p in (2, 3, 5, 7):
        spec = FieldSpec.prime(p)
        pool = list(iter_multisets(spec, 4))
        for a in pool:
            for b in pool:
                chk = cauchy_davenport_check(a, b)
                checked += 1
                if not chk.holds:
                    bound_failures += 1
                if chk.lhs == chk.rhs:
                    equality_cases += 1
                if multiset_deg(sumset(a, b)) < multiset_deg(a) + multiset_deg(b):
                    deg_failures += 1
    _report(
        10,
        "Cauchy-Davenport exhaustive",
        bound_failures == 0 and deg_failures == 0 and equality_cases > 0,
        f"{checked} pairs over p in (2,3,5,7), {bound_failures} bound failures, "
        f"{deg_failures} excess-degree failures, {equality_cases} equality cases",
    )


def test_c11_hopf_stiefel_and_eliahou_kervaire():
    value_failures = 0
    if hopf_stiefel(2, 2, 2) != 2:
        value_failures += 1
    if hopf_stiefel(2, 2, 3) != 4:
        value_failures += 1
    for p in (2, 3, 5):
        for s in range(1, 9):
            if hopf_stiefel(p, 1, s) != s:
                value_failures += 1
        for r in range(1, 7):
            for s in range(1, 7):
                if hopf_stiefel(p, r, s) != hopf_stiefel_oracle(p, r, s):
                    value_failures += 1
    ek_failures = 0
    ek_checked = 0
    for p, dim in ((2, 2), (3, 1)):
        pool = list(iter_vector_multisets(p, dim, 3))
        for a in pool:
            for b in pool:
                ek_checked += 1
                if not eliahou_kervaire_check(a, b).holds:
                    ek_failures += 1
    _report(
        11,
        "Hopf-Stiefel / Eliahou-Kervaire",
        value_failures == 0 and ek_failures == 0,
        f"beta values vs oracle ({value_failures} off), {ek_checked} EK pairs "
        f"({ek_failures} failures)",
    )


def test_c12_sun_exhaustive():
    checked = 0
    failures = 0
    for p in (3, 5, 7):
        spec = FieldSpec.prime(p)
        pool = list(iter_multisets(spec, 4))
        ones_1 = [spec.one]
        ones_2 = [spec.one, spec.one]
        zero_1 = MultiPoly.zero(1, spec)
        zero_2 = MultiPoly.zero(2, spec)
        for k in (1, 2, 3):
            for ms in pool:
                checked += 1
                if not sun_value_set_check(ones_1, k, zero_1, MultisetGrid([ms])).holds:
                    failures += 1
            # the canonical two-variable polynomial is symmetric under swapping
            # the coordinate multisets, so unordered pairs cover all grids
            for i, a in enumerate(pool):
                for b in pool[i:]:
                    checked += 1
                    if not sun_value_set_check(ones_2, k, zero_2, MultisetGrid([a, b])).holds:
                        failures += 1
    # general coefficients and perturbations on a randomized subsample
    rng = random.Random(112)
    for _ in range(500):
        p = rng.choice((3, 5, 7))
        spec = FieldSpec.prime(p)
        n = rng.randint(1, 2)
        k = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=4)
        coeffs = [spec.element(rng.randrange(1, p)) for _ in range(n)]
        g = (
            rand_poly(rng, spec, n, max_deg=k - 1, max_terms=3)
            if k > 1 and rng.random() < 0.7
            else MultiPoly.zero(n, spec)
        )
        checked += 1
        if not sun_value_set_check(coeffs, k, g, grid).holds:
            failures += 1
    _report(
        12,
        "power-sum value sets exhaustive",
        failures == 0,
        f"{checked} instances over p in (3,5,7), k <= 3, sizes <= 4; {failures} failures",
    )


def test_c13_integral_closure():
    rng = random.Random(113)
    spec = FieldSpec.rationals()
    failures = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=4, integer_elements=True)
        f = rand_poly(rng, spec, n, max_deg=7, integer_coeffs=True)
        if not coefficients_stay_integral(f, grid):
            failures += 1
    _report(13, "integral closure of reduction", failures == 0, f"200 instances, {failures} failures")


GRID_F3_2D = (
    '{"field":{"kind":"prime","p":3},"sets":[[{"value":"0","mult":1},{"value":"1","mult":1}],'
    '[{"value":"0","mult":1},{"value":"1","mult":1}]]}'
)
GRID_F5_01 = '{"field":{"kind":"prime","p":5},"sets":[[{"value":"0","mult":1},{"value":"1","mult":1}]]}'


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_c14_cli_golden():
    cases = {
        "witness": (
            ["witness", "--poly", "x1*x2", "--grid-inline", GRID_F3_2D, "--t", "1,1", "--json"],
            '{"schema": "nullgrid.v1", "command": "witness", "point": ["1", "1"], '
            '"exponent": [0, 0], "value": "1", "method": "exhaustive"}\n',
        ),
        "hopf-stiefel": (
            ["hopf-stiefel", "--p", "2", "--r", "2", "--s", "2"],
            "2\n",
        ),
        "reduce": (
            ["reduce", "--poly", "x1^3", "--grid-inline", GRID_F5_01],
            "r: x1\nh1: x1 + 1\n",
        ),
    }
    mismatches = []
    for name, (argv, golden) in cases.items():
        runs = [_run_cli(argv) for _ in range(3)]
        for code, out, err in runs:
            if code != 0 or err != "" or out != golden:
                mismatches.append(name)
                break
    _report(
        14,
        "CLI golden outputs",
        not mismatches,
        f"{len(cases)} commands x 3 runs, mismatches: {mismatches or 'none'}",
    )
