import itertools
import math
import random
import time

import pytest

from nullgrid import (
    BoundCheck,
    ArityMismatchError,
    FieldMismatchError,
    FieldSpec,
    Hyperplane,
    MultiPoly,
    Multiset,
    MultisetGrid,
    PreconditionError,
    TermOrder,
    VectorMultiset,
    cauchy_davenport_check,
    eliahou_kervaire_check,
    extremal_cover,
    hopf_stiefel,
    iter_multisets,
    iter_vector_multisets,
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
from randgen import rand_element, rand_multiset, rand_poly, rand_spec
from oracles import cover_report_oracle, evaluate_oracle, hopf_stiefel_oracle, value_set_oracle

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


def test_cover_planes_must_match_the_grid():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}, {0: 1, 2: 1}])
    with pytest.raises(ArityMismatchError) as info:
        verify_cover([Hyperplane(F5, [4, 1, 0]), Hyperplane(F5, [1, 1])], grid)
    assert str(info.value) == "hyperplane arity 1 vs grid arity 2"
    with pytest.raises(FieldMismatchError) as info:
        verify_cover([Hyperplane(F7, [1, 1, 0])], grid)
    assert str(info.value) == "hyperplane and grid fields differ"


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


def test_hyperplane_validation():
    for coeffs, message in (
        (["1", "0", "0"], "hyperplane normal vector is zero"),
        (["1"], "hyperplane needs a constant term and at least one variable"),
    ):
        with pytest.raises(ValueError) as err:
            Hyperplane(F5, coeffs)
        assert str(err.value) == message


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
    with pytest.raises(FieldMismatchError) as err:
        sumset(Multiset.of(F5, {0: 1}), Multiset.of(F7, {0: 1}))
    assert str(err.value) == "sumset operands over different fields"


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
    # the check carries the sumset it measured, which takes no part in equality
    assert chk.measured == sumset(a, a) and chk3.measured == full
    assert chk == BoundCheck(lhs=3, rhs=3) and BoundCheck(lhs=3, rhs=3).measured is None


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


def test_iter_multisets_refuses_the_rationals():
    with pytest.raises(PreconditionError) as err:
        next(iter_multisets(Q, 2))
    assert str(err.value) == "field: enumeration needs a finite ground set"


# -- value sets --------------------------------------------------------------------


def test_value_set_examples():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    vs = value_set(parse_poly("x1 + x2", 2, F5), grid)
    assert vs == Multiset.of(F5, {0: 1, 1: 1, 2: 1})

    const = MultiPoly.constant(2, F5, 3)
    gridm = MultisetGrid.of(F5, [{0: 2, 1: 1}, {0: 3}])
    assert value_set(const, gridm) == Multiset.of(F5, {3: 4})  # max(2+3) - 2 + 1

    assert value_set(parse_poly("x1", 1, F5), MultisetGrid.of(F5, [{0: 2}])) == Multiset.of(F5, {0: 2})


def test_value_set_and_evaluate_match_the_enumeration_oracle():
    # grids holding 0, whose power row is 1, 0, 0, ..., and degrees at or
    # above p, where x^p = x over F_p: the power rows run to each degree
    rng = random.Random(2311)
    for spec in (F2, F3, FieldSpec.prime(101), Q):
        for _ in range(30):
            n = rng.randint(1, 3)
            sets = []
            for _ in range(n):
                ms = rand_multiset(rng, spec, 4)
                if not ms.multiplicity(0) and rng.random() < 0.6:
                    ms = Multiset(spec, [*ms.entries.items(), (0, rng.randint(1, 2))])
                sets.append(ms)
            grid = MultisetGrid(sets)
            top = spec.p + 2 if spec.p else 6
            f = rand_poly(rng, spec, n, max_deg=top, max_terms=6)
            if rng.random() < 0.5:
                f = f + MultiPoly.monomial(n, spec, [top] + [0] * (n - 1), 1)
            assert value_set(f, grid) == value_set_oracle(f, grid), (spec, grid, f)
            for point in grid.points():
                assert f.evaluate(point) == evaluate_oracle(f, point), (spec, point, f)
    # x^p - x vanishes on all of F_p, 0 among it
    grid = MultisetGrid.of(F3, [{0: 2, 1: 1, 2: 1}])
    assert value_set(parse_poly("x1^3 - x1", 1, F3), grid) == Multiset.of(F3, {0: 2})


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
    for k in (0, 10_001, 10**9):
        with pytest.raises(PreconditionError, match="exponent"):
            sun_value_set_check(["1"], k, MultiPoly.zero(1, F5), grid)
    # g must live on the grid: its arity and its field are checked before f is built
    with pytest.raises(ArityMismatchError):
        sun_value_set_check(["1"], 2, parse_poly("x2", 2, F5), grid)
    with pytest.raises(FieldMismatchError):
        sun_value_set_check(["1"], 2, parse_poly("x1", 1, F7), grid)


def test_sun_refuses_a_coefficient_count_off_the_arity():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    for coeffs in (["1"], ["1", "1", "1"]):
        with pytest.raises(ArityMismatchError) as err:
            sun_value_set_check(coeffs, 2, MultiPoly.zero(2, F5), grid)
        assert str(err.value) == f"{len(coeffs)} coefficients for arity 2"


def test_sun_over_rationals_has_no_cap():
    grid = MultisetGrid.of(Q, [{0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 1: 1}])
    chk = sun_value_set_check(["1", "1"], 1, MultiPoly.zero(2, Q), grid)
    assert chk.rhs == 3 + 1 + 1  # no characteristic cap
    assert chk.holds


# -- Hopf-Stiefel and Eliahou-Kervaire ------------------------------------------------


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
    for r, s in ((0, 2), (2, 0), (-1, -1)):
        with pytest.raises(ValueError) as err:
            hopf_stiefel(2, r, s)
        assert str(err.value) == "arguments must be positive"


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


def test_hopf_stiefel_matches_oracle_on_random_inputs():
    rng = random.Random(29)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 11, 13, 101))
        r, s = rng.randint(1, 150), rng.randint(1, 150)
        assert hopf_stiefel(p, r, s) == hopf_stiefel_oracle(p, r, s), (p, r, s)


def test_hopf_stiefel_cpu_time_at_4300_digits():
    """p = 2 at r = s = 10^4300 - 1 takes about 14 300 steps.  Carrying the
    negated ceilings through divmod and the term by small multiples of p^k
    must take under half the CPU time of the loop that multiplies
    (a + b - 1) * p^k in full at each step, timed in the same process, so
    the bound does not depend on the host's speed (on an Intel Xeon core it
    took about a quarter); that loop also checks the value."""
    r = s = 10**4300 - 1
    start = time.process_time()
    beta = hopf_stiefel(2, r, s)
    fast = time.process_time() - start
    start = time.process_time()
    best, q, a, b = r + s - 1, 1, r, s
    while a > 1 or b > 1:
        q *= 2
        a, b = -(-a // 2), -(-b // 2)
        best = min(best, (a + b - 1) * q)
    full = time.process_time() - start
    assert beta == best
    assert fast < full / 2, (fast, full)


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
    assert chk.measured == vector_sumset(a, b) and chk3.measured == vector_sumset(line, line)


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
    with pytest.raises(ArityMismatchError) as err:
        VectorMultiset(3, 2, [((0, 0), 1), ((1, 2, 0), 1)])
    assert str(err.value) == "vector (1, 2, 0) has dimension != 2"


def test_vector_sumset_refuses_different_spaces():
    a = VectorMultiset(2, 1, [((1,), 1)])
    for b in (VectorMultiset(2, 2, [((1, 0), 1)]), VectorMultiset(3, 1, [((1,), 1)])):
        with pytest.raises(FieldMismatchError) as err:
            vector_sumset(a, b)
        assert str(err.value) == "vector multisets live in different spaces"


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


def test_reprs_and_equality_with_a_foreign_type():
    f7 = FieldSpec.prime(7)
    q = FieldSpec.rationals()
    ms = Multiset(f7, [(3, 2), (0, 1)])
    grid = MultisetGrid([ms, Multiset(f7, [(1, 1)])])
    objects = {
        # perfbench digests render weight-table points as tuples of elements
        "3:F_7": f7.element(3),
        "-1/2:QQ": q.element("-1/2"),
        "MultiPoly(x1^2 - 1/2*x2 + 3)": parse_poly("x1^2 - 1/2*x2 + 3", 2, q),
        "Multiset({0:1, 3:2})": ms,
        "MultisetGrid({0:1, 3:2} x {1:1})": grid,
        "Hyperplane(2*x1 + 3*x3 + 1)": Hyperplane(f7, [1, 2, 0, 3]),
        "VectorMultiset(p=3, dim=2, {[0, 0]:1, [1, 2]:2})": VectorMultiset(3, 2, [((1, 2), 2), ((0, 0), 1)]),
    }
    for text, obj in objects.items():
        assert repr(obj) == text
        assert obj != "x" and not obj == None  # noqa: E711, the foreign-type branch of __eq__
    assert repr((f7.element(3), f7.element(0))) == "(3:F_7, 0:F_7)"
    assert str(grid) == "{0:1, 3:2} x {1:1}"
    assert repr(TermOrder()) == "TermOrder('grlex', None)"
    assert repr(TermOrder("grevlex", (1, 0))) == "TermOrder('grevlex', (1, 0))"
    with pytest.raises(ValueError) as err:
        VectorMultiset(3, 0, [])
    assert str(err.value) == "dimension must be at least 1"
