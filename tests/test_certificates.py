import random

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
    in_local_ideal,
    parse_poly,
    punctured_decompose,
    trim_grid,
)
from nullgrid import certificates
from nullgrid.randgen import rand_spec, rand_witness_instance
from oracles import brute_first_witness, build_punctured_instance

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


def test_trim_grid_drops_largest_first():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 2, 4: 1}])
    trimmed = trim_grid(grid, (1,))
    assert trimmed.sets[0] == Multiset.of(F5, {0: 1, 1: 1})
    # removing two units: 4 entirely, then one copy of 1
    trimmed2 = trim_grid(grid, (2,))
    assert trimmed2.sets[0] == Multiset.of(F5, {0: 1, 1: 2})
    assert trim_grid(grid, (3,)) == grid


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
    true_table = certificates.weight_table

    def doubled(grid):
        table = true_table(grid)
        table.weights = {k: w + w for k, w in table.weights.items()}
        return table

    monkeypatch.setattr(certificates, "weight_table", doubled)
    rng = random.Random(67)
    for _ in range(30):
        spec = rand_spec(rng, rational_weight=0.2)
        f, grid, t = rand_witness_instance(rng, spec, rng.randint(1, 3))
        find_witness(f, grid, t)  # the exhaustive scan reads no table
        with pytest.raises(InvariantViolation, match="failed to certify"):
            find_witness(f, grid, t, method="divided_difference")


def test_obstruction_check_examples():
    grid = MultisetGrid.of(F3, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    assert cofactor_obstruction_check(parse_poly("x1*x2", 2, F3), grid, (1, 1))
    with pytest.raises(PreconditionError):
        g1 = MultisetGrid.of(F5, [{0: 1, 1: 1}]).generators()[0]
        cofactor_obstruction_check(g1, MultisetGrid.of(F5, [{0: 1, 1: 1}]), (1,))


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
