import itertools
import math
import random

import pytest

from nullgrid import (
    FieldSpec,
    Hyperplane,
    MultiPoly,
    Multiset,
    MultisetGrid,
    PreconditionError,
    VectorMultiset,
    cauchy_davenport_check,
    eliahou_kervaire_check,
    extremal_cover,
    hopf_stiefel,
    iter_multisets,
    iter_vector_multisets,
    lucas_binomial,
    multiset_deg,
    parse_poly,
    sumset,
    sun_value_set_check,
    value_set,
    vector_sumset,
    verify_cover,
)
from nullgrid.applications import (
    hyperplane_to_list,
    hyperplanes_from_lists,
    vector_multiset_from_list,
    vector_multiset_to_list,
)
from nullgrid.randgen import rand_element, rand_multiset, rand_spec
from oracles import cover_report_oracle, hopf_stiefel_oracle

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
Q = FieldSpec.rationals()


# -- covers ----------------------------------------------------------------------


def test_cover_verify_examples():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    planes = hyperplanes_from_lists(F5, [["-1", "1", "0"], ["-1", "0", "1"]])
    rep = verify_cover(planes, grid)
    assert rep.verdict == "valid_cover"
    assert rep.k == rep.bound == 2
    assert rep.meets_bound

    rep_empty = verify_cover([], grid)
    assert rep_empty.verdict == "undercovered"
    assert len(rep_empty.undercovered_points) == 3

    rep_origin = verify_cover([Hyperplane(F5, ["0", "1", "0"])], grid)
    assert rep_origin.verdict == "origin_violated"


def test_cover_hypothesis_checked():
    with pytest.raises(PreconditionError):
        verify_cover([], MultisetGrid.of(F5, [{1: 1, 2: 1}]))  # no 0
    with pytest.raises(PreconditionError):
        verify_cover([], MultisetGrid.of(F5, [{0: 2, 1: 1}]))  # 0 repeated


def test_extremal_cover_examples():
    grid = MultisetGrid.of(F5, [{0: 1, 2: 3}])
    planes = extremal_cover(grid)
    assert len(planes) == 3
    assert all(str(h) == "x1 + 3" for h in planes)
    rep = verify_cover(planes, grid)
    assert rep.verdict == "valid_cover" and rep.k == rep.bound == 3

    grid2 = MultisetGrid.of(F5, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    assert [str(h) for h in extremal_cover(grid2)] == ["x1 + 4", "x2 + 4"]


def test_extremal_cover_random():
    rng = random.Random(3)
    for _ in range(30):
        spec = rand_spec(rng, primes=(3, 5, 7))
        n = rng.randint(1, 3)
        sets = []
        for _ in range(n):
            ms = rand_multiset(rng, spec, max_size=3)
            entries = {e: m for e, m in ms.entries.items() if not e.is_zero()}
            entries[spec.zero] = 1
            sets.append(Multiset(spec, entries.items()))
        grid = MultisetGrid(sets)
        planes = extremal_cover(grid)
        assert len(planes) == sum(grid.sizes) - n
        assert verify_cover(planes, grid).verdict == "valid_cover"


def test_proportional_hyperplanes_reported():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    planes = hyperplanes_from_lists(F5, [["-1", "1", "0"], ["-2", "2", "0"], ["-1", "0", "1"]])
    rep = verify_cover(planes, grid)
    assert rep.proportional_pairs == [(0, 1)]
    assert rep.k == 3  # multiplicity counts as listed


def _random_planes(rng, spec, grid):
    """Planes over a few shared normals, so classes hold parallel planes:
    some through the origin, some through a grid point, some anywhere, and
    some followed by a scalar multiple of themselves."""
    n = grid.arity
    points = list(grid.points())
    normals = []
    for _ in range(rng.randint(1, 3)):
        normal = [rand_element(rng, spec) for _ in range(n)]
        if all(c.is_zero() for c in normal):
            normal[rng.randrange(n)] = spec.one
        normals.append(normal)
    planes = []
    for _ in range(rng.randint(0, 6)):
        normal = rng.choice(normals)
        roll = rng.random()
        if roll < 0.2:
            c0 = spec.zero
        elif roll < 0.7:
            c0 = -sum((c * x for c, x in zip(normal, rng.choice(points))), spec.zero)
        else:
            c0 = rand_element(rng, spec)
        coeffs = [c0] + normal
        planes.append(Hyperplane(spec, coeffs))
        if rng.random() < 0.4:
            scale = rand_element(rng, spec)
            if not scale.is_zero():
                planes.append(Hyperplane(spec, [scale * c for c in coeffs]))
    rng.shuffle(planes)
    return planes


def test_cover_report_matches_plane_by_plane_oracle():
    rng = random.Random(71)
    primes = (2, 3, 5, 7, 11, 13, 101)
    for trial in range(450):
        spec = rand_spec(rng, primes=primes, rational_weight=0.2)
        sets = []
        for _ in range(rng.randint(1, 3)):
            ms = rand_multiset(rng, spec, max_size=4)
            entries = {e: m for e, m in ms.entries.items() if not e.is_zero()}
            entries[spec.zero] = 1
            sets.append(Multiset(spec, entries.items()))
        grid = MultisetGrid(sets)
        kind = trial % 3
        if kind == 2:
            planes = _random_planes(rng, spec, grid)
        else:
            planes = extremal_cover(grid)
            if kind == 1 and planes:
                del planes[rng.randrange(len(planes))]
            rng.shuffle(planes)
        rep = verify_cover(planes, grid)
        want = cover_report_oracle(planes, grid)
        assert list(rep.per_point.items()) == list(want.per_point.items())
        assert rep.undercovered_points == want.undercovered_points
        assert rep.verdict == want.verdict
        assert rep.origin_covered == want.origin_covered
        assert rep.proportional_pairs == want.proportional_pairs


# -- sumsets ----------------------------------------------------------------------


def test_sumset_examples():
    assert sumset(Multiset.of(F7, {0: 2}), Multiset.of(F7, {0: 3})) == Multiset.of(F7, {0: 4})
    a = Multiset.of(F5, {0: 1, 1: 1})
    assert sumset(a, a) == Multiset.of(F5, {0: 1, 1: 1, 2: 1})
    b = Multiset.of(F5, {1: 2, 3: 1})
    shifted = sumset(Multiset.of(F5, {2: 1}), b)
    assert shifted == Multiset.of(F5, {3: 2, 0: 1})
    with pytest.raises(PreconditionError):
        sumset(Multiset.of(Q, {0: 1}), Multiset.of(Q, {0: 1}))


def test_sumset_symmetry_random():
    rng = random.Random(5)
    for _ in range(50):
        spec = rand_spec(rng, primes=(2, 3, 5, 7))
        a = rand_multiset(rng, spec, 4)
        b = rand_multiset(rng, spec, 4)
        assert sumset(a, b) == sumset(b, a)


def test_cd_examples():
    a = Multiset.of(F5, {0: 1, 1: 1})
    chk = cauchy_davenport_check(a, a)
    assert (chk.lhs, chk.rhs, chk.holds) == (3, 3, True)
    chk2 = cauchy_davenport_check(Multiset.of(F7, {0: 2}), Multiset.of(F7, {0: 3}))
    assert (chk2.lhs, chk2.rhs) == (4, 4)
    full = Multiset.of(F3, {0: 1, 1: 1, 2: 1})
    chk3 = cauchy_davenport_check(full, Multiset.of(F3, {0: 1}))
    assert (chk3.lhs, chk3.rhs, chk3.holds) == (3, 3, True)


def test_multiset_deg_examples():
    assert multiset_deg(Multiset.of(F5, {0: 1, 1: 1})) == 0
    assert multiset_deg(Multiset.of(F7, {0: 2, 3: 3})) == 3


def test_cd_and_deg_exhaustive_tiny():
    spec = F3
    pool = list(iter_multisets(spec, 3))
    for a, b in itertools.product(pool, pool):
        chk = cauchy_davenport_check(a, b)
        assert chk.holds, (a, b)
        s = sumset(a, b)
        assert multiset_deg(s) >= multiset_deg(a) + multiset_deg(b)


def test_iter_multisets_counts():
    # multisets of size exactly d over p elements: C(p + d - 1, d)
    assert sum(1 for _ in iter_multisets(F7, 4)) == 7 + 28 + 84 + 210
    assert sum(1 for _ in iter_multisets(F2, 3)) == 2 + 3 + 4


# -- value sets --------------------------------------------------------------------


def test_value_set_examples():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    vs = value_set(parse_poly("x1 + x2", 2, F5), grid)
    assert vs == Multiset.of(F5, {0: 1, 1: 1, 2: 1})

    const = MultiPoly.constant(2, F5, 3)
    gridm = MultisetGrid.of(F5, [{0: 2, 1: 1}, {0: 3}])
    assert value_set(const, gridm) == Multiset.of(F5, {3: 4})  # max(2+3) - 2 + 1

    assert value_set(parse_poly("x1", 1, F5), MultisetGrid.of(F5, [{0: 2}])) == Multiset.of(F5, {0: 2})


def test_separable_value_set_is_iterated_sumset():
    # For f = f_1(x_1) + ... + f_n(x_n) the rule "c gets the largest
    # sum(m_i) - n + 1 over f(s) = c" splits coordinate by coordinate into the
    # sumset rule mx + my - 1.  value_set enumerates the whole grid; the other
    # side composes one-variable value sets with sumset.  Neither calls the other.
    rng = random.Random(7081)
    for _ in range(400):
        spec = FieldSpec.prime(rng.choice([2, 3, 5, 7, 11]))
        n = rng.randint(1, 3)
        sets = [
            Multiset(spec, [(v, rng.randint(1, 3)) for v in rng.sample(range(spec.p), rng.randint(1, min(3, spec.p)))])
            for _ in range(n)
        ]
        parts = [{e: rng.randrange(spec.p) for e in range(rng.randint(0, 3) + 1)} for _ in range(n)]
        f = MultiPoly.zero(n, spec)
        composed = None
        for i, (ms, coeffs) in enumerate(zip(sets, parts)):
            f = f + MultiPoly(n, spec, {tuple(e if j == i else 0 for j in range(n)): c for e, c in coeffs.items()})
            one = value_set(MultiPoly(1, spec, {(e,): c for e, c in coeffs.items()}), MultisetGrid([ms]))
            composed = one if composed is None else sumset(composed, one)
        assert value_set(f, MultisetGrid(sets)) == composed, (spec.p, sets, parts)


def test_sun_examples():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    chk = sun_value_set_check(["1", "1"], 1, MultiPoly.zero(2, F5), grid)
    assert (chk.lhs, chk.rhs, chk.holds) == (3, 3, True)

    gfull = MultisetGrid.of(F5, [{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}])
    chk2 = sun_value_set_check(["1"], 2, MultiPoly.zero(1, F5), gfull)
    assert (chk2.lhs, chk2.rhs, chk2.holds) == (3, 3, True)

    single = MultisetGrid.of(F5, [{3: 1}])
    chk3 = sun_value_set_check(["1"], 2, MultiPoly.zero(1, F5), single)
    assert chk3.holds and chk3.rhs == 1


def test_sun_preconditions():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}])
    with pytest.raises(PreconditionError):
        sun_value_set_check(["0"], 1, MultiPoly.zero(1, F5), grid)
    with pytest.raises(PreconditionError):
        sun_value_set_check(["1"], 1, parse_poly("x1", 1, F5), grid)
    with pytest.raises(PreconditionError):
        sun_value_set_check(["1"], 0, MultiPoly.zero(1, F5), grid)


def test_sun_over_rationals_has_no_cap():
    grid = MultisetGrid.of(Q, [{0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 1: 1}])
    chk = sun_value_set_check(["1", "1"], 1, MultiPoly.zero(2, Q), grid)
    assert chk.rhs == 3 + 1 + 1  # no characteristic cap
    assert chk.holds


# -- Hopf-Stiefel and Eliahou-Kervaire ------------------------------------------------


def test_lucas_binomial_against_comb():
    for p in (2, 3, 5, 7):
        for n in range(0, 40):
            for k in range(0, n + 1):
                assert lucas_binomial(n, k, p) == math.comb(n, k) % p
    assert lucas_binomial(5, 7, 3) == 0
    assert lucas_binomial(5, -1, 3) == 0


def test_hopf_stiefel_examples():
    assert hopf_stiefel(2, 2, 2) == 2
    assert hopf_stiefel(2, 2, 3) == 4
    for p in (2, 3, 5):
        for s in range(1, 9):
            assert hopf_stiefel(p, 1, s) == s
            assert hopf_stiefel(p, s, 1) == s


def test_hopf_stiefel_rejects_non_prime_p():
    for p in (0, 1, 4):
        with pytest.raises(ValueError):
            hopf_stiefel(p, 2, 2)


def test_hopf_stiefel_against_oracle_and_properties():
    for p in (2, 3, 5):
        for r in range(1, 7):
            for s in range(1, 7):
                beta = hopf_stiefel(p, r, s)
                assert beta == hopf_stiefel_oracle(p, r, s)
                assert beta == hopf_stiefel(p, s, r)
                assert max(r, s) <= beta <= r + s - 1


def test_hopf_stiefel_closed_form_matches_oracle():
    for p in (2, 3, 5, 7):
        for r in range(1, 40):
            for s in range(1, 40):
                assert hopf_stiefel(p, r, s) == hopf_stiefel_oracle(p, r, s), (p, r, s)


def test_ek_examples():
    a = VectorMultiset(2, 2, [((0, 0), 1), ((1, 0), 1)])
    b = VectorMultiset(2, 2, [((0, 0), 1), ((0, 1), 1)])
    chk = eliahou_kervaire_check(a, b)
    assert (chk.lhs, chk.rhs, chk.holds) == (4, 2, True)

    point = VectorMultiset(3, 1, [((0,), 1)])
    chk2 = eliahou_kervaire_check(point, point)
    assert (chk2.lhs, chk2.rhs) == (1, 1)

    line = VectorMultiset(2, 2, [((0, 0), 1), ((1, 0), 1)])
    chk3 = eliahou_kervaire_check(line, line)
    assert (chk3.lhs, chk3.rhs) == (2, 2)  # a subspace meets the bound exactly


def test_ek_exhaustive_tiny():
    for a, b in itertools.product(list(iter_vector_multisets(2, 2, 2)), repeat=2):
        assert eliahou_kervaire_check(a, b).holds


def test_vector_multiset_validation():
    with pytest.raises(ValueError):
        VectorMultiset(2, 2, [])
    with pytest.raises(ValueError):
        VectorMultiset(2, 2, [((0, 0), 0)])
    with pytest.raises(ValueError):
        VectorMultiset(2, 2, [((0, 0), 1), ((2, 0), 1)])  # (2,0) = (0,0) mod 2
    with pytest.raises(ValueError):
        VectorMultiset(4, 2, [((0, 0), 1)])  # 4 is not prime
    with pytest.raises(ValueError):
        VectorMultiset(3, 2, [((0, 0), True)])
    with pytest.raises(TypeError):
        VectorMultiset(3, 2, [((1.7, 2), 1)])


def test_vector_sumset_group_structure():
    rng = random.Random(7)
    pool = list(iter_vector_multisets(3, 1, 3))
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        assert vector_sumset(a, b) == vector_sumset(b, a)
    # dimension-1 vector sumsets agree with field sumsets
    for a, b in itertools.product(pool[:8], repeat=2):
        ms_a = Multiset(F3, [(v[0], m) for v, m in a.entries.items()])
        ms_b = Multiset(F3, [(v[0], m) for v, m in b.entries.items()])
        vs = vector_sumset(a, b)
        assert Multiset(F3, [(v[0], m) for v, m in vs.entries.items()]) == sumset(ms_a, ms_b)


def test_power_sum_top_coefficient_matches_multinomial():
    # coefficient of x1^(k*j1) * x2^(k*j2) in (a1*x1^k + a2*x2^k)^(j1+j2) is
    # the multinomial (j1+j2)! / (j1! j2!) times a1^j1 * a2^j2
    f = parse_poly("(x1^2 + 2*x2^2)^3", 2, Q)
    assert f.coefficient((4, 2)).value == math.factorial(3) // (math.factorial(2) * math.factorial(1)) * 1 * 2
    f7 = parse_poly("(x1^2 + 2*x2^2)^3", 2, F7)
    assert f7.coefficient((4, 2)).value == 6  # still nonzero mod 7


def test_cd_instance_polynomial_is_obstructed():
    # the product of (x1 + x2 - c) over a multiset C of size d(A)+d(B)-2 has
    # a binomial top coefficient; when that survives mod p the witness
    # machinery must reject membership in the ideal of A x B
    from nullgrid import cofactor_obstruction_check, find_witness

    a = Multiset.of(F5, {0: 1, 1: 2})
    b = Multiset.of(F5, {0: 1, 2: 1})
    t = (a.size - 1, b.size - 1)
    f = parse_poly("(x1 + x2)*(x1 + x2 - 1)*(x1 + x2 - 2)", 2, F5)
    assert f.coefficient(t).value == math.comb(3, 2) % 5
    grid = MultisetGrid([a, b])
    assert cofactor_obstruction_check(f, grid, t)
    w = find_witness(f, grid, t)
    assert not w.value.is_zero()


def test_application_json_helpers():
    planes = hyperplanes_from_lists(F5, [["-1", "1", "0"]])
    assert hyperplane_to_list(planes[0]) == ["4", "1", "0"]
    vm = VectorMultiset(2, 2, [((0, 1), 2)])
    assert vector_multiset_to_list(vm) == [{"value": [0, 1], "mult": 2}]
    assert vector_multiset_from_list(2, 2, vector_multiset_to_list(vm)) == vm
