import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from nullgrid import (
    FieldMismatchError,
    FieldSpec,
    MultiPoly,
    Multiset,
    MultisetGrid,
    PreconditionError,
    coefficients_stay_integral,
    grid_expansions,
    grid_from_dict,
    grid_to_dict,
    in_grid_ideal,
    in_local_ideal,
    multiset_from_list,
    parse_poly,
    reduce_poly,
    standard_monomials,
    term_order_family,
    universal_gb_check,
)
from nullgrid import ideals, polynomials
from randgen import rand_grid, rand_ideal_member, rand_multiset, rand_poly, rand_spec
from nullgrid.errors import ArityMismatchError
from oracles import (
    expansion_coefficient_oracle,
    generator_oracle,
    hermite_remainder_oracle,
    poly_to_coeff_list,
    univariate_divmod_oracle,
)

F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()


def test_multiset_basics():
    ms = Multiset.of(F5, {0: 1, 1: 1})
    assert ms.size == 2
    assert Multiset.of(F5, {0: 2, 3: 3}).size == 5
    assert Multiset.of(Q, {Fraction(7, 2): 4}).size == 4
    assert ms.multiplicity(1) == 1 and ms.multiplicity(2) == 0
    with pytest.raises(ValueError):
        Multiset(F5, [])
    with pytest.raises(ValueError):
        Multiset.of(F5, {0: 0})
    with pytest.raises(ValueError):
        Multiset(F5, [(1, 1), (6, 2)])  # 6 = 1 in F_5: duplicate keys must not merge


def test_grid_needs_coordinates_over_one_field():
    with pytest.raises(ValueError) as info:
        MultisetGrid([])
    assert str(info.value) == "grid needs at least one coordinate multiset"
    with pytest.raises(FieldMismatchError) as info:
        MultisetGrid([Multiset.of(F5, {1: 1}), Multiset.of(F5, {2: 1}), Multiset.of(Q, {1: 1})])
    assert str(info.value) == "grid multisets span different fields"


def test_generator_examples():
    assert Multiset.of(F5, {0: 1, 1: 1}).generator_poly(0, 1) == parse_poly(
        "x1^2 - x1", 1, F5
    )
    assert Multiset.of(F5, {0: 2}).generator_poly(1, 2) == parse_poly("x2^2", 2, F5)
    # expansion oracle: multiply the linear factors directly
    ms = Multiset.of(F5, {1: 1, 2: 1, 3: 1})
    expected = MultiPoly.constant(1, F5, 1)
    for a in (1, 2, 3):
        expected = expected * (parse_poly("x1", 1, F5) - MultiPoly.constant(1, F5, a))
    g = ms.generator_poly(0, 1)
    assert g == expected == parse_poly("x1^3 + 4*x1^2 + x1 + 4", 1, F5)
    assert g.coefficient((3,)).value == 1  # monic
    assert g.total_degree() == ms.size


def test_generator_matches_linear_factor_oracle():
    rng = random.Random(17)
    for spec in (F2, FieldSpec.prime(3), FieldSpec.prime(7), FieldSpec.prime(101), Q):
        pool = range(spec.p) if spec.p else [Fraction(k, 2) for k in range(-7, 8)]
        for _ in range(10):
            values = rng.sample(pool, rng.randint(1, min(4, len(pool))))
            ms = Multiset(spec, [(v, rng.randint(1, 4)) for v in values])
            for arity in (1, 2, 3):
                for var in range(arity):
                    g = ms.generator_poly(var, arity)
                    assert g == generator_oracle(ms, var, arity)
                    top = tuple(ms.size if i == var else 0 for i in range(arity))
                    assert g.coefficient(top) == spec.one  # monic
                    assert g.total_degree() == g.degree_in(var) == ms.size
            grid = MultisetGrid([ms] * 3)
            assert grid.generators() == tuple(generator_oracle(ms, i, 3) for i in range(3))
            with pytest.raises(ArityMismatchError):
                ms.generator_poly(3, 3)


def test_large_multiplicity_generators_match_linear_factor_oracle():
    rng = random.Random(71)
    f10007 = FieldSpec.prime(10007)
    cases = [
        Multiset(Q, [("1/2", 200), ("-3", 50)]),
        Multiset(f10007, [(v, 3) for v in rng.sample(range(10007), 9)]),
        # multiplicity at or above the characteristic: C(m, k) vanishes mod p
        Multiset(F5, [("2", 13)]),
        Multiset(FieldSpec.prime(7), [("3", 7)]),
        Multiset(FieldSpec.prime(7), [("3", 50), ("0", 9)]),
    ]
    for ms in cases:
        for arity, var in ((1, 0), (3, 1)):
            assert ms.generator_poly(var, arity) == generator_oracle(ms, var, arity)
        assert ms._generator_raw()[-1] == 1 and len(ms._generator_raw()) == ms.size + 1
    # Frobenius: (x - s)^p = x^p - s^p over F_p
    assert Multiset(F5, [("2", 5)]).generator_poly(0, 1) == parse_poly("x1^5 - 2", 1, F5)


def test_reduce_univariate_against_long_division():
    grid = MultisetGrid([Multiset.of(F5, {0: 1, 1: 1})])
    f = parse_poly("x1^3", 1, F5)
    res = reduce_poly(f, grid)
    assert res.remainder == parse_poly("x1", 1, F5)
    assert res.cofactors[0] == parse_poly("x1 + 1", 1, F5)

    rng = random.Random(5)
    for _ in range(50):
        spec = rand_spec(rng, rational_weight=0.25)
        ms = Multiset(
            spec,
            [(v, rng.randint(1, 2)) for v in rng.sample(range(-3, 4) if not spec.is_prime_field else range(spec.p), rng.randint(1, min(3, spec.p or 7)))],
        )
        grid = MultisetGrid([ms])
        f = rand_poly(rng, spec, 1, max_deg=6)
        res = reduce_poly(f, grid)
        g = ms.generator_poly(0, 1)
        quo, rem = univariate_divmod_oracle(
            poly_to_coeff_list(f, spec), poly_to_coeff_list(g, spec), spec
        )
        assert poly_to_coeff_list(res.remainder, spec) == rem
        assert poly_to_coeff_list(res.cofactors[0], spec) == quo


def test_reduce_trivial_cases():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}, {2: 2}])
    f = parse_poly("x1*x2 + 3", 2, F5)  # already below the sizes
    res = reduce_poly(f, grid)
    assert res.remainder == f
    assert all(h.is_zero() for h in res.cofactors)

    g1 = MultisetGrid([Multiset.of(F5, {0: 2})])
    res = reduce_poly(parse_poly("x1^2", 1, F5), g1)
    assert res.remainder.is_zero()
    assert res.cofactors[0] == MultiPoly.constant(1, F5, 1)


def _degree_bounds_ok(f, grid, res):
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


def test_reduction_identity_and_bounds_random():
    rng = random.Random(17)
    for _ in range(120):
        spec = rand_spec(rng, rational_weight=0.2)
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=4)
        f = rand_poly(rng, spec, n, max_deg=7)
        res = reduce_poly(f, grid)
        recombined = res.remainder
        for h, g in zip(res.cofactors, grid.generators()):
            recombined = recombined + h * g
        assert recombined == f
        assert _degree_bounds_ok(f, grid, res)


def test_remainder_uniqueness_random():
    rng = random.Random(19)
    for _ in range(40):
        spec = rand_spec(rng)
        n = rng.randint(1, 2)
        grid = rand_grid(rng, spec, n, max_size=3)
        f = rand_poly(rng, spec, n, max_deg=5)
        base = reduce_poly(f, grid).remainder
        perturbed = f + rand_ideal_member(rng, grid)
        assert reduce_poly(perturbed, grid).remainder == base


def test_remainder_matches_hermite_interpolation():
    """A third route to the remainder, sharing no code with the division
    kernel: Hermite interpolation of f's expansion coefficients on the grid
    must give every coefficient of reduce_poly's remainder."""
    rng = random.Random(67)
    for _ in range(200):
        spec = rand_spec(rng, primes=(2, 3, 5, 7, 13, 101), rational_weight=0.4)
        n = rng.randint(1, 3)
        integral = rng.random() < 0.5
        grid = rand_grid(rng, spec, n, max_size=4, integer_elements=integral)
        f = rand_poly(rng, spec, n, max_deg=rng.randint(0, 8), integer_coeffs=integral)
        if rng.random() < 0.3:
            f = f + rand_ideal_member(rng, grid)
        assert reduce_poly(f, grid).remainder == hermite_remainder_oracle(f, grid)


def test_local_membership_examples():
    assert in_local_ideal(parse_poly("x1^2", 1, Q), [Q.zero], (2,))
    assert not in_local_ideal(parse_poly("x1", 1, Q), [Q.zero], (2,))
    f = parse_poly("(x1 - 1)*(x2 - 2)^2", 2, Q)
    point = [Q.element(1), Q.element(2)]
    assert in_local_ideal(f, point, (1, 2))
    assert all(expansion_coefficient_oracle(f, point, u).is_zero() for u in [(0, 0), (0, 1)])
    assert not in_local_ideal(f, point, (2, 3))


def test_grid_membership_examples():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 2}, {2: 1, 3: 1}])
    g1, g2 = grid.generators()
    f = g1 * g2
    assert in_grid_ideal(f, grid, "remainder")
    assert in_grid_ideal(f, grid, "pointwise")
    one = MultiPoly.constant(2, F5, 1)
    assert not in_grid_ideal(one, grid, "remainder")
    assert not in_grid_ideal(one, grid, "pointwise")
    with pytest.raises(ValueError) as err:
        in_grid_ideal(one, grid, "both")
    assert str(err.value) == "unknown membership method 'both'"


def test_membership_methods_agree_random():
    rng = random.Random(29)
    for _ in range(80):
        spec = rand_spec(rng, rational_weight=0.15)
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=3)
        f = rand_poly(rng, spec, n, max_deg=5)
        if rng.random() < 0.5:
            f = rand_ideal_member(rng, grid)
        assert in_grid_ideal(f, grid, "remainder") == in_grid_ideal(f, grid, "pointwise")


def _walk_instance(rng, spec, n):
    """A random grid, with 0 added to some coordinates, and a dense enough f."""
    sets = []
    for _ in range(n):
        ms = rand_multiset(rng, spec, max_size=3)
        if rng.random() < 0.4 and ms.multiplicity(0) == 0:
            ms = Multiset(spec, list(ms.entries.items()) + [(0, rng.randint(1, 2))])
        sets.append(ms)
    return MultisetGrid(sets), rand_poly(rng, spec, n, max_deg=6, max_terms=12)


def _count_shifts(monkeypatch):
    calls = []
    inner = polynomials._shift_raw

    def counting(spec, terms, var, *rest):
        calls.append(var)
        return inner(spec, terms, var, *rest)

    monkeypatch.setattr(polynomials, "_shift_raw", counting)
    return calls


def test_grid_expansions_match_per_point_shifts():
    rng = random.Random(53)
    specs = [F2, FieldSpec.prime(3), FieldSpec.prime(101), Q]
    for _ in range(120):
        spec = rng.choice(specs)
        n = rng.randint(1, 4)
        grid, f = _walk_instance(rng, spec, n)
        walked = list(grid_expansions(f, grid))
        points = [tuple(map(spec.element, s)) for s, _ in walked]
        assert points == list(grid.points())
        for s, mv, (_, got) in zip(points, grid.multiplicity_vectors(), walked):
            assert mv == grid.multiplicity_vector(s)
            # equal terms in equal insertion order
            assert list(got.items()) == list(f.shift(s, mv).terms.items())
            # shift and the walk share one driver, so the box is also read
            # against the term-by-term oracle at every exponent below mv
            box = list(itertools.product(*map(range, mv)))
            assert set(got) <= set(box) and all(got.values())
            for u in box:
                assert got.get(u, 0) == expansion_coefficient_oracle(f, s, u).value, (spec, s, u)
    # more coordinates than the interpreter's recursion limit
    grid = MultisetGrid.of(F5, [{1: 1}] * 1500 + [{0: 1, 2: 2}])
    f = parse_poly("x1^2 + 3*x1501 + 1", 1501, F5)
    walked = list(grid_expansions(f, grid))
    assert [list(terms.items()) for _, terms in walked] == [
        list(f.shift(s, grid.multiplicity_vector(s)).terms.items()) for s in grid.points()
    ]
    with pytest.raises(ArityMismatchError):
        next(grid_expansions(parse_poly("x1", 1, F5), MultisetGrid.of(F5, [{0: 1}, {1: 1}])))


def test_grid_expansions_shift_each_prefix_once(monkeypatch):
    calls = _count_shifts(monkeypatch)
    rng = random.Random(59)
    for _ in range(40):
        spec = rng.choice([FieldSpec.prime(3), FieldSpec.prime(101), Q])
        n = rng.randint(1, 4)
        grid, f = _walk_instance(rng, spec, n)
        calls.clear()
        points = sum(1 for _ in grid_expansions(f, grid))
        assert points == grid.point_count()
        prefixes = 1
        for i, ms in enumerate(grid.sets):
            prefixes *= len(ms.support)
            assert calls.count(i) == prefixes


def test_grid_expansions_build_taylor_columns_once_per_value(monkeypatch):
    calls = _count_shifts(monkeypatch)
    builds = []
    inner = polynomials._taylor_columns

    def counting(spec, point, top, box):
        builds.append(point)
        return inner(spec, point, top, box)

    monkeypatch.setattr(polynomials, "_taylor_columns", counting)
    rng = random.Random(67)
    for _ in range(40):
        spec = rng.choice([FieldSpec.prime(3), FieldSpec.prime(101), Q])
        n = rng.randint(1, 4)
        grid, f = _walk_instance(rng, spec, n)
        calls.clear()
        builds.clear()
        assert sum(1 for _ in grid_expansions(f, grid)) == grid.point_count()
        assert len(builds) == sum(len(ms.support) for ms in grid.sets)
        prefixes = 1
        for i, ms in enumerate(grid.sets):
            prefixes *= len(ms.support)
            assert calls.count(i) == prefixes


def test_grid_expansions_build_first_coordinate_columns_as_they_go():
    """Each value of S_1 opens one prefix, so its Taylor columns are built
    when the walk reaches it, not all before the first point: one
    coordinate of 1413 values and f = x1^1412 + x1^3 traced 80 MB at the
    first point with every table built up front."""
    spec = FieldSpec.prime(10007)
    f = parse_poly("x1^1412 + x1^3", 1, spec)
    grid = MultisetGrid.of(spec, [{v: 1 for v in range(1413)}])
    tracemalloc.start()
    try:
        walk = grid_expansions(f, grid)
        point, first = next(walk)
        peak = tracemalloc.get_traced_memory()[1]
        walk.close()
    finally:
        tracemalloc.stop()
    point, first = tuple(map(spec.element, point)), MultiPoly(1, spec, first)
    assert point[0].value == 0 and first.coefficient((0,)) == 0
    assert peak < 2 * 10**6
    # a whole walk holds one or two tables at a time; 300 values, 300 deep,
    # traced about 3.6 MB with every table kept
    f = parse_poly("x1^299 + 5*x1^3 + x1", 1, spec)
    grid = MultisetGrid.of(spec, [{v: 1 for v in range(300)}])
    tracemalloc.start()
    try:
        values = [spec.element(terms.get((0,), 0)) for _, terms in grid_expansions(f, grid)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == [f.evaluate([v]) for v in range(300)]
    assert peak < 10**6


def test_grid_expansions_stop_when_partly_consumed(monkeypatch):
    calls = _count_shifts(monkeypatch)
    builds = []
    inner = polynomials._taylor_columns

    def counting(spec, point, top, box):
        builds.append(point)
        return inner(spec, point, top, box)

    monkeypatch.setattr(polynomials, "_taylor_columns", counting)
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1, 2: 1}, {0: 2, 3: 1}, {1: 1, 4: 2}])
    f = parse_poly("(x1 + x2 + 2*x3 + 1)^4", 3, F5)
    walk = grid_expansions(f, grid)

    def step():  # the next point as elements, and its multiplicity vector
        point = tuple(map(F5.element, next(walk)[0]))
        return point, grid.multiplicity_vector(point)

    first = step()
    assert first[0] == next(grid.points()) and calls == [0, 1, 2]
    assert builds == [0, 0, 1]  # the columns of the values the first point reads
    second = step()
    assert second[1] == (1, 2, 2) and calls == [0, 1, 2, 2]
    assert builds == [0, 0, 1, 4]
    walk.close()
    assert len(calls) == 4  # the full walk would shift 3 + 6 + 12 times
    assert len(builds) == 4  # and build the columns of all 7 support values


def _count_groupings(monkeypatch):
    """The variable of every row set the walk builds: f's rows in x_1 come
    from _rows, and each shift at a level above the last writes the rows
    of the next variable itself."""
    calls = []
    inner_rows, inner_shift = polynomials._rows, polynomials._shift_raw

    def counting_rows(terms, var, size):
        calls.append(var)
        return inner_rows(terms, var, size)

    def counting_shift(spec, rows, var, cols, packed=None, size=0):
        if size:
            calls.append(var + 1)
        return inner_shift(spec, rows, var, cols, packed, size)

    monkeypatch.setattr(polynomials, "_rows", counting_rows)
    monkeypatch.setattr(polynomials, "_shift_raw", counting_shift)
    return calls


def test_grid_expansions_group_each_prefix_once(monkeypatch):
    calls = _count_groupings(monkeypatch)
    rng = random.Random(71)
    for _ in range(40):
        spec = rng.choice([F2, FieldSpec.prime(3), FieldSpec.prime(101), Q])
        n = rng.randint(1, 4)
        grid, f = _walk_instance(rng, spec, n)
        calls.clear()
        assert sum(1 for _ in grid_expansions(f, grid)) == grid.point_count()
        # coordinate i is grouped once per prefix (s_1, ..., s_i): once for
        # the whole walk at i = 0, and never at a value of coordinate i
        prefixes = 1
        for i, ms in enumerate(grid.sets):
            assert calls.count(i) == prefixes
            prefixes *= len(ms.support)
        assert len(calls) == sum(calls.count(i) for i in range(n))


def test_grid_expansions_group_only_the_prefixes_reached(monkeypatch):
    calls = _count_groupings(monkeypatch)
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1, 2: 1}, {0: 2, 3: 1}, {1: 1, 4: 2}])
    f = parse_poly("(x1 + x2 + 2*x3 + 1)^4", 3, F5)
    walk = grid_expansions(f, grid)
    next(walk)
    assert calls == [0, 1, 2]
    next(walk)  # only the last value changed: its rows are the first point's
    assert calls == [0, 1, 2]
    next(walk)  # x2 moves to 3, so the prefix (0, 3) is grouped in x3
    assert calls == [0, 1, 2, 2]
    walk.close()
    assert len(calls) == 4  # the full walk would group 1 + 3 + 6 times


def test_taylor_columns_entry_by_entry():
    """cols[j][k] = C(j + k, j) * s^k, reduced, for j < min(width, top + 1)
    and j + k <= top, computed here through FieldElement arithmetic; tops at
    and past p make some binomials vanish mod p."""
    rng = random.Random(73)
    for spec in [F2, FieldSpec.prime(3), FieldSpec.prime(101), Q]:
        tops = [0, 1, 2, 5, 7] + ([100, 103] if spec.p == 101 else [])
        for top in tops:
            for s in [0, 1, rng.randint(2, 50), Fraction(-3, 7) if spec.p is None else rng.randint(0, 200)]:
                point = spec.element(s)
                for width in sorted({1, 2, top + 1, rng.randint(1, top + 1)}):
                    cols = polynomials._taylor_columns(spec, point.value, top, width)
                    assert len(cols) == min(width, top + 1)
                    for j, col in enumerate(cols):
                        assert len(col) == top - j + 1
                        for k, got in enumerate(col):
                            want = spec.element(math.comb(j + k, j)) * point**k
                            assert got == want.value, (spec, s, top, j, k)


def test_pointwise_membership_at_one_long_multiplicity():
    """One value of multiplicity 1000 and f of degree 1999: the shift needs
    1000 Taylor columns, each built from the one before by Pascal's rule in
    a fraction of a second; exact binomials took about a minute at a
    nonzero value.  The value 0 takes the same columns."""
    spec = FieldSpec.prime(10007)
    f = parse_poly("x1^1999 + 3*x1", 1, spec)
    for value in (1, 0):
        grid = MultisetGrid.of(spec, [{value: 1000}])
        start = time.process_time()
        assert not in_grid_ideal(f, grid, "pointwise")
        assert time.process_time() - start < 2.0


def test_multiplicity_vectors_follow_points():
    rng = random.Random(61)
    for _ in range(200):
        spec = rng.choice([F2, F5, FieldSpec.prime(101), Q])
        grid = rand_grid(rng, spec, rng.randint(1, 3), max_size=4)
        assert list(grid.multiplicity_vectors()) == [grid.multiplicity_vector(p) for p in grid.points()]


def test_standard_monomials():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}, {2: 2}])
    assert standard_monomials(grid) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert standard_monomials(MultisetGrid.of(F5, [{3: 1}])) == {(0,)}
    grid2 = MultisetGrid.of(F5, [{0: 3}, {0: 1, 1: 1}])
    assert len(standard_monomials(grid2)) == 6


def test_dimension_formula_random():
    rng = random.Random(37)
    for _ in range(40):
        spec = rand_spec(rng)
        grid = rand_grid(rng, spec, rng.randint(1, 3), max_size=4)
        count = 1
        for d in grid.sizes:
            count *= d
        assert len(standard_monomials(grid)) == count


def test_universal_gb_examples():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}, {0: 2}])
    g1, g2 = grid.generators()
    orders = term_order_family(2)
    assert len(orders) == 6
    assert universal_gb_check(g1, grid, orders)
    f = g1 * parse_poly("x2", 2, F5) + g2
    assert universal_gb_check(f, grid, orders)
    with pytest.raises(PreconditionError):
        universal_gb_check(parse_poly("x1", 2, F5), grid, orders)
    with pytest.raises(PreconditionError):
        universal_gb_check(MultiPoly.zero(2, F5), grid, orders)


def test_universal_gb_random_members():
    rng = random.Random(41)
    for _ in range(40):
        spec = rand_spec(rng)
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=3)
        f = rand_ideal_member(rng, grid)
        if f.is_zero():
            continue
        assert universal_gb_check(f, grid, term_order_family(n))


def test_universal_gb_check_refuses_a_leading_monomial_below_the_sizes(monkeypatch):
    # x1 is no member; with membership faked, its leading monomial x1 is
    # divisible by no x_i^(d_i), under any order
    grid = MultisetGrid.of(F5, [{0: 1, 1: 1}, {0: 2}])
    monkeypatch.setattr(ideals, "in_grid_ideal", lambda f, grid: True)
    assert universal_gb_check(parse_poly("x1", 2, F5), grid, term_order_family(2)) is False


def test_term_order_family_keeps_the_first_24_permutations():
    orders = term_order_family(5)
    assert [o.kind for o in orders] == ["lex"] * 24 + ["grlex"] * 24 + ["grevlex"] * 24
    assert [o.permutation for o in orders[:24]] == sorted(itertools.permutations(range(5)))[:24]
    # arity 12 has 479 001 600 permutations, and none past the 24th is built
    start = time.process_time()
    tracemalloc.start()
    try:
        orders = term_order_family(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 0.5
    assert peak < 1_000_000
    assert len(orders) == 72
    assert orders[23].permutation == (0, 1, 2, 3, 4, 5, 6, 7, 11, 10, 9, 8)


def test_pairwise_s_polynomials_reduce_to_zero():
    # lcm of leading monomials of generators in distinct variables is their
    # product, so the s-polynomial is x_j^{d_j} g_i - x_i^{d_i} g_j
    rng = random.Random(43)
    for _ in range(20):
        spec = rand_spec(rng)
        n = rng.randint(2, 3)
        grid = rand_grid(rng, spec, n, max_size=3)
        gens = grid.generators()
        d = grid.sizes
        for i, j in itertools.combinations(range(n), 2):
            lead_i = MultiPoly.monomial(n, spec, tuple(d[i] if k == i else 0 for k in range(n)))
            lead_j = MultiPoly.monomial(n, spec, tuple(d[j] if k == j else 0 for k in range(n)))
            spoly = lead_j * gens[i] - lead_i * gens[j]
            assert reduce_poly(spoly, grid).remainder.is_zero()


def test_integral_closure_examples():
    grid = MultisetGrid.of(Q, [{0: 1, 2: 1}])
    assert coefficients_stay_integral(parse_poly("x1^3", 1, Q), grid)
    with pytest.raises(PreconditionError):
        coefficients_stay_integral(parse_poly("1/2*x1", 1, Q), grid)
    with pytest.raises(PreconditionError):
        coefficients_stay_integral(
            parse_poly("x1", 1, Q), MultisetGrid.of(Q, [{Fraction(1, 2): 1}])
        )
    with pytest.raises(PreconditionError):
        coefficients_stay_integral(parse_poly("x1", 1, F5), MultisetGrid.of(F5, [{0: 1}]))


def test_integral_closure_random():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(1, 2)
        grid = rand_grid(rng, Q, n, max_size=3, integer_elements=True)
        f = rand_poly(rng, Q, n, max_deg=5, integer_coeffs=True)
        assert coefficients_stay_integral(f, grid)


def test_multiset_size_is_capped_like_a_parsed_degree():
    at_limit = [{"value": "1", "mult": 9999}, {"value": "2", "mult": 1}]
    assert multiset_from_list(F5, at_limit).size == 10000
    assert grid_from_dict({"field": {"kind": "prime", "p": 5}, "sets": [at_limit]}).sizes == (10000,)
    over = [{"value": "1", "mult": 10000}, {"value": "2", "mult": 1}]
    with pytest.raises(ValueError, match="^multiset size 10001 exceeds the limit 10000$"):
        multiset_from_list(F5, over)
    with pytest.raises(ValueError, match="^multiset size 10001 exceeds the limit 10000$"):
        grid_from_dict({"field": {"kind": "prime", "p": 5}, "sets": [[{"value": "0", "mult": 1}], over]})


def test_grid_json_round_trip():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 2}, {3: 1}])
    assert grid_from_dict(grid_to_dict(grid)) == grid
    gq = MultisetGrid.of(Q, [{Fraction(1, 2): 2, -3: 1}])
    data = grid_to_dict(gq)
    assert data["field"] == {"kind": "rational"}
    assert grid_from_dict(data) == gq
    with pytest.raises(ValueError):
        grid_from_dict({"sets": []})
    for bad in (3, {"field": {"kind": "prime", "p": 5}, "sets": 5}, {"field": {"kind": "prime", "p": 5}, "sets": [5]}):
        with pytest.raises(ValueError, match="grid"):
            grid_from_dict(bad)
    with pytest.raises(ValueError, match="multiset must be a list"):
        multiset_from_list(F5, 5)
    with pytest.raises(ValueError):
        grid_from_dict(
            {
                "field": {"kind": "prime", "p": 5},
                "sets": [[{"value": "0", "mult": 1}, {"value": "5", "mult": 1}]],
            }
        )
