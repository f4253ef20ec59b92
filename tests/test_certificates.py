import dataclasses
import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from nullgrid import (
    FieldSpec,
    InvariantViolation,
    MultiPoly,
    Multiset,
    MultisetGrid,
    PreconditionError,
    cofactor_obstruction_check,
    find_witness,
    grid_to_dict,
    in_local_ideal,
    parse_poly,
    punctured_decompose,
    trim_grid,
)
from nullgrid import certificates, divdiff
from randgen import rand_poly, rand_spec, rand_witness_instance
from oracles import (
    brute_first_witness,
    build_punctured_instance,
    expansion_coefficient_oracle,
    hermite_remainder_oracle,
    ideal_member_oracle,
    poly_product_oracle,
)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()


def test_witness_examples():
    grid = MultisetGrid.of(F3, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    f = parse_poly("x1*x2", 2, F3)
    w = find_witness(f, grid, (1, 1))
    assert [x.value for x in w.point] == [1, 1]
    assert w.exponent == (0, 0)
    assert w.value.value == 1

    w2 = find_witness(f, grid, (1, 1), method="divided_difference")
    assert w2.point == w.point and w2.exponent == w.exponent

    gq = MultisetGrid.of(Q, [{0: 2}])
    wq = find_witness(parse_poly("x1", 1, Q), gq, (1,))
    assert wq.point[0].value == 0 and wq.exponent == (1,) and wq.value.value == 1


def test_witness_matches_brute_oracle():
    rng = random.Random(7)
    for _ in range(40):
        spec = rand_spec(rng, rational_weight=0.2)
        n = rng.randint(1, 3)
        f, grid, t = rand_witness_instance(rng, spec, n)
        w = find_witness(f, grid, t)
        assert brute_first_witness(f, grid) == (w.point, w.exponent, w.value)
        assert all(e < m for e, m in zip(w.exponent, grid.multiplicity_vector(w.point)))
        assert not w.value.is_zero()


def test_witness_preconditions_are_named():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}])
    g1 = grid.generators()[0]
    with pytest.raises(PreconditionError) as err:
        find_witness(g1, grid, (1,))  # deg g1 = 2 != 1
    assert err.value.condition == "degree"
    with pytest.raises(PreconditionError) as err:
        find_witness(parse_poly("x1^2 + x2^2", 2, F5), MultisetGrid.of(F5, [{0: 2}, {0: 2}]), (1, 1))
    assert err.value.condition == "top-coefficient"
    with pytest.raises(PreconditionError) as err:
        find_witness(parse_poly("x1", 1, F5), MultisetGrid.of(F5, [{0: 1}]), (1,))
    assert err.value.condition == "sizes"
    with pytest.raises(ValueError) as err:
        find_witness(parse_poly("x1", 1, F5), grid, (1,), method="divided-difference")
    assert str(err.value) == "unknown witness method 'divided-difference'"
    # a target entry must be an int and not a bool, in every check that reads one
    grid2 = MultisetGrid.of(F5, [{0: 1, 1: 2}, {2: 1, 3: 1}])
    f = parse_poly("x1*x2", 2, F5)
    assert find_witness(f, grid2, (1, 1)).exponent == (0, 0)
    checks = [
        lambda t: find_witness(f, grid2, t),
        lambda t: find_witness(f, grid2, t, method="divided_difference"),
        lambda t: cofactor_obstruction_check(f, grid2, t),
        lambda t: trim_grid(grid2, t),
    ]
    for check in checks:
        for t in ((True, True), (1.0, 1), (1, Fraction(1)), (1.5, 0.5)):
            with pytest.raises(PreconditionError, match="bad target exponent") as err:
                check(t)
            assert err.value.condition == "target"
    with pytest.raises(PreconditionError, match=r"bad target exponent \(1\.5, 0\)"):
        trim_grid(grid2, (1.5, 0))


def test_trim_grid_drops_largest_first():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 2, 4: 1}])
    trimmed = trim_grid(grid, (1,))
    assert trimmed.sets[0] == Multiset.of(F5, {0: 1, 1: 1})
    # removing two units: 4 entirely, then one copy of 1
    trimmed2 = trim_grid(grid, (2,))
    assert trimmed2.sets[0] == Multiset.of(F5, {0: 1, 1: 2})
    assert trim_grid(grid, (3,)) == grid
    # a multiplicity far too large to expand is cut to its first t + 1 copies
    huge = MultisetGrid.of(F5, [{0: 10**12, 1: 1}, {2: 1, 3: 10**12}])
    assert trim_grid(huge, (2, 1)) == MultisetGrid.of(F5, [{0: 3}, {2: 1, 3: 1}])
    with pytest.raises(PreconditionError, match="coordinate 2 is already below t"):
        trim_grid(huge, (0, 10**12 + 1))
    with pytest.raises(ValueError, match="multiset must be nonempty"):
        trim_grid(huge, (-1, 0))
    # a target of the wrong length is refused, neither cut short nor read past
    for t in ((1,), (1, 1, 5)):
        with pytest.raises(PreconditionError, match="bad target exponent"):
            trim_grid(huge, t)


def test_witness_methods_agree_after_identical_trimming():
    rng = random.Random(11)
    for _ in range(60):
        spec = rand_spec(rng, rational_weight=0.2)
        n = rng.randint(1, 2)
        f, grid, t = rand_witness_instance(rng, spec, n)
        trimmed = trim_grid(grid, t)
        w_dd = find_witness(f, grid, t, method="divided_difference")
        w_ex = find_witness(f, trimmed, t, method="exhaustive")
        assert (w_dd.point, w_dd.exponent, w_dd.value) == (w_ex.point, w_ex.exponent, w_ex.value)
        assert all(e < m for e, m in zip(w_dd.exponent, trimmed.multiplicity_vector(w_dd.point)))


def test_divided_difference_witness_rejects_a_wrong_table(monkeypatch):
    """Doubling one coordinate's weight rows doubles the weighted sum, which
    then misses the nonzero coefficient of x^t in every field, F_2
    included; doubling every row would scale it by 2^n, which is 1 in F_3
    at n = 2."""
    true_rows = divdiff._coordinate_weights
    doubled = []

    def first_rows_doubled(ms):
        rows = true_rows(ms)
        if not doubled:
            doubled.append(ms)
            rows = {s: [w + w for w in ws] for s, ws in rows.items()}
        return rows

    monkeypatch.setattr(divdiff, "_coordinate_weights", first_rows_doubled)
    rng = random.Random(67)
    for _ in range(30):
        spec = rand_spec(rng, rational_weight=0.2)
        f, grid, t = rand_witness_instance(rng, spec, rng.randint(1, 3))
        find_witness(f, grid, t)  # the exhaustive scan reads no weights
        assert not doubled
        with pytest.raises(InvariantViolation, match="failed to certify"):
            find_witness(f, grid, t, method="divided_difference")
        doubled.clear()


def test_divided_difference_witness_builds_no_weight_table():
    """{1..21}^3 over F_10007: the walk keeps one weight row per support
    value, about 0.05 MB at peak, while building weight_table's 9261 entries
    keyed by points peaks at about 4.6 MB."""
    spec = FieldSpec.prime(10007)
    grid = MultisetGrid.of(spec, [{s: 1 for s in range(1, 22)}] * 3)
    f = parse_poly("x1^20*x2^20*x3^20 + x1 + 1", 3, spec)
    tracemalloc.start()
    try:
        w = find_witness(f, grid, (20, 20, 20), method="divided_difference")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (w.point, w.exponent, w.value) == ((spec.one,) * 3, (0, 0, 0), spec.element(3))
    assert peak < 10**6


def test_obstruction_check_examples():
    grid = MultisetGrid.of(F3, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    assert cofactor_obstruction_check(parse_poly("x1*x2", 2, F3), grid, (1, 1))
    with pytest.raises(PreconditionError):
        g1 = MultisetGrid.of(F5, [{0: 1, 1: 1}]).generators()[0]
        cofactor_obstruction_check(g1, MultisetGrid.of(F5, [{0: 1, 1: 1}]), (1,))


def test_obstruction_check_refuses_a_bogus_cofactor(monkeypatch):
    grid = MultisetGrid.of(F3, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    f = parse_poly("x1*x2", 2, F3)
    real = certificates.reduce_poly

    def bogus(f, grid):
        # h_1 = f makes h_1 * g_1 of degree 4, above deg f = 2
        res = real(f, grid)
        return dataclasses.replace(res, cofactors=(f,) + res.cofactors[1:])

    monkeypatch.setattr(certificates, "reduce_poly", bogus)
    assert cofactor_obstruction_check(f, grid, (1, 1)) is False


def test_obstruction_check_random():
    rng = random.Random(13)
    for _ in range(30):
        spec = rand_spec(rng, rational_weight=0.2)
        n = rng.randint(1, 2)
        f, grid, t = rand_witness_instance(rng, spec, n)
        assert cofactor_obstruction_check(f, grid, t)


def test_punctured_example():
    sg = MultisetGrid.of(Q, [{0: 1, 1: 1}])
    dg = MultisetGrid.of(Q, [{0: 1}])
    res = punctured_decompose(parse_poly("x1 - 1", 1, Q), sg, dg)
    assert res.remainder == parse_poly("x1 - 1", 1, Q)
    assert res.quotient == MultiPoly.constant(1, Q, 1)
    assert res.degree_bound == 1


def test_punctured_extremal_equality():
    # f equal to the product of generator quotients meets the bound exactly
    sg = MultisetGrid.of(F5, [{0: 1, 1: 2}, {0: 1, 2: 1}])
    dg = MultisetGrid.of(F5, [{0: 1}, {2: 1}])
    f = parse_poly("(x1 - 1)^2", 2, F5) * parse_poly("x2", 2, F5)
    res = punctured_decompose(f, sg, dg)
    assert res.quotient == MultiPoly.constant(2, F5, 1)
    assert res.degree_bound == f.total_degree() == 3


def test_punctured_errors():
    sg = MultisetGrid.of(Q, [{0: 1, 1: 1}])
    with pytest.raises(PreconditionError) as err:
        punctured_decompose(parse_poly("x1", 1, Q), sg, MultisetGrid.of(Q, [{0: 2}]))
    assert err.value.condition == "tight"
    g1 = sg.generators()[0]
    with pytest.raises(PreconditionError) as err:
        punctured_decompose(g1, sg, MultisetGrid.of(Q, [{0: 1}]))
    assert err.value.condition == "punctured"
    with pytest.raises(PreconditionError) as err:
        # fails to vanish at 1, which is outside D
        punctured_decompose(parse_poly("x1 + 1", 1, Q), sg, MultisetGrid.of(Q, [{0: 1}]))
    assert err.value.condition == "vanishing"
    for sub, message in (
        (MultisetGrid.of(Q, [{0: 1}, {0: 1}]), "sub-grid: coordinate counts differ"),
        (MultisetGrid.of(F5, [{0: 1}]), "sub-grid: fields differ"),
    ):
        with pytest.raises(PreconditionError) as err:
            punctured_decompose(parse_poly("x1", 1, Q), sg, sub)
        assert str(err.value) == message


def test_punctured_random_instances():
    rng = random.Random(17)
    built = 0
    while built < 30:
        spec = rand_spec(rng, rational_weight=0.25)
        n = rng.randint(1, 2)
        f, grid, d_grid, quotient = build_punctured_instance(rng, spec, n)
        punctured_exists = any(
            not in_local_ideal(f, s, grid.multiplicity_vector(s)) for s in grid.points()
        )
        if not punctured_exists:
            continue  # h*quotient happened to vanish on all of D as well
        built += 1
        res = punctured_decompose(f, grid, d_grid)
        assert not res.quotient.is_zero()
        assert res.quotient * quotient == res.remainder  # exact reconstruction
        assert f.total_degree() >= res.degree_bound


def _vanishes_oracle(f, point, mv):
    return all(
        expansion_coefficient_oracle(f, point, u).is_zero()
        for u in itertools.product(*(range(m) for m in mv))
    )


def test_punctured_outcome_matches_a_pointwise_oracle():
    # the library decides the hypothesis by dividing the remainder; the
    # oracle reads every expansion coefficient at every point
    fields = (F2, F3, FieldSpec.prime(7), FieldSpec.prime(10007), Q)
    rng = random.Random(19)
    outcomes = Counter()
    for trial in range(150):
        spec = fields[trial % len(fields)]
        n = rng.randint(1, 2)
        f, grid, d_grid, quotient = build_punctured_instance(rng, spec, n)
        if trial % 3 == 1:
            f = f + rand_poly(rng, spec, n, max_deg=2, max_terms=1)  # may not vanish off D
        elif trial % 3 == 2:
            f = ideal_member_oracle(rng, grid)  # vanishes everywhere
        vanishing = [(point, _vanishes_oracle(f, point, grid.multiplicity_vector(point))) for point in grid.points()]
        failing = [point for point, zero in vanishing if not zero and not d_grid.contains_point(point)]
        if failing:
            outcomes["vanishing"] += 1
            with pytest.raises(PreconditionError) as err:
                punctured_decompose(f, grid, d_grid)
            assert err.value.condition == "vanishing"
            assert str(err.value) == (
                f"vanishing: f does not vanish fully at {tuple(str(x) for x in failing[0])}, "
                "which lies outside the sub-grid"
            )
        elif all(zero for _, zero in vanishing):
            outcomes["punctured"] += 1
            with pytest.raises(PreconditionError) as err:
                punctured_decompose(f, grid, d_grid)
            assert err.value.condition == "punctured"
        else:
            outcomes["success"] += 1
            res = punctured_decompose(f, grid, d_grid)
            assert res.remainder == hermite_remainder_oracle(f, grid)
            assert poly_product_oracle(res.quotient, quotient) == res.remainder
            assert res.degree_bound == sum(grid.sizes) - sum(d_grid.sizes)
    assert min(outcomes[k] for k in ("vanishing", "punctured", "success")) >= 10, outcomes


def _count_local_tests(monkeypatch):
    calls = []
    true_in_local_ideal = certificates.in_local_ideal

    def counted(f, point, box):
        calls.append(tuple(point))
        return true_in_local_ideal(f, point, box)

    monkeypatch.setattr(certificates, "in_local_ideal", counted)
    return calls


def test_punctured_success_tests_points_of_d_up_to_the_first_punctured(monkeypatch):
    # f = x1 (x1 - 2) vanishes at 0 and 2 and not at 1 or 3: the walk over
    # D = {0, 1, 3} stops at 1
    sg = MultisetGrid.of(F5, [{0: 1, 1: 1, 2: 1, 3: 1}])
    dg = MultisetGrid.of(F5, [{0: 1, 1: 1, 3: 1}])
    calls = _count_local_tests(monkeypatch)
    punctured_decompose(parse_poly("x1*(x1 - 2)", 1, F5), sg, dg)
    assert calls == [(F5.element(0),), (F5.element(1),)]

    rng = random.Random(23)
    checked = 0
    while checked < 30:
        spec = rand_spec(rng, rational_weight=0.25)
        f, grid, d_grid, _ = build_punctured_instance(rng, spec, rng.randint(1, 2))
        d_points = list(d_grid.points())
        punctured = [not in_local_ideal(f, p, d_grid.multiplicity_vector(p)) for p in d_points]
        if not any(punctured):
            continue  # h*quotient happened to vanish on all of D as well
        checked += 1
        calls.clear()
        punctured_decompose(f, grid, d_grid)
        assert calls == d_points[: punctured.index(True) + 1]


def test_punctured_route_disagreement_names_the_instance(monkeypatch):
    # the pointwise routes are made to report vanishing everywhere
    monkeypatch.setattr(certificates, "in_local_ideal", lambda f, point, box: True)
    sg = MultisetGrid.of(Q, [{0: 1, 1: 1}])
    dg = MultisetGrid.of(Q, [{0: 1}])
    repro = f"S = {json.dumps(grid_to_dict(sg))}, D = {json.dumps(grid_to_dict(dg))}"
    # divisible, yet no punctured point of D is found
    f = parse_poly("x1 - 1", 1, Q)
    with pytest.raises(InvariantViolation) as err:
        punctured_decompose(f, sg, dg)
    assert str(err.value) == (
        "reduced form is a nonzero multiple of the generator quotients, yet f vanishes "
        f"at every point of the sub-grid; f = x1 - 1, {repro}"
    )
    # not divisible, yet no failing point outside D is found
    monkeypatch.setattr(certificates, "grid_expansions", lambda f, grid: iter(()))
    with pytest.raises(InvariantViolation) as err:
        punctured_decompose(parse_poly("x1 + 1", 1, Q), sg, dg)
    assert str(err.value) == (
        "reduced form is not divisible by the coordinate-1 generator quotient, yet f vanishes "
        f"at every point outside the sub-grid; f = x1 + 1, {repro}"
    )


def test_witness_search_failure_names_the_instance(monkeypatch):
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}, {2: 2}])
    f = parse_poly("x1*x2 + 3", 2, F5)
    repro = f"f = x1*x2 + 3, grid = {json.dumps(grid_to_dict(grid))}, t = (1, 1)"
    # the walk is made to find no nonzero expansion coefficient
    monkeypatch.setattr(certificates, "grid_expansions", lambda f, grid: iter(()))
    with pytest.raises(InvariantViolation) as err:
        find_witness(f, grid, (1, 1))
    assert str(err.value) == f"no witness found on a valid instance; {repro}"
    # the weighted sum is made to miss the coefficient of x^t
    monkeypatch.setattr(certificates, "_weighted_sum", lambda f, grid: (0, None))
    with pytest.raises(InvariantViolation) as err:
        find_witness(f, grid, (1, 1), method="divided_difference")
    assert str(err.value) == f"weighted coefficient sum failed to certify the instance; {repro}"
