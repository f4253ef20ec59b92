"""Multisets and hyperplanes keep raw values and hand out FieldElement views.

Every view, count, comparison, hash and text is checked against a reference
keyed by FieldElement and built here from the same inputs; the sumset, the
value set and the cover report are checked against rules written in the test
or in tests/oracles.py, on both sides of their split between per-coordinate
tables and per-point work: one-variable terms and axis-parallel planes go
to the tables, everything else is evaluated at each point, and each side is
counted.  The last tests pin the raw path itself: the
kernels and the constructors that read inputs build no FieldElement, the grid
walk builds no FieldElement and no MultiPoly, and a plane listed m times is
normalised once.
"""

import random
from fractions import Fraction

import pytest

from nullgrid import (
    FieldElement,
    FieldMismatchError,
    FieldSpec,
    Hyperplane,
    MultiPoly,
    Multiset,
    MultisetGrid,
    VectorMultiset,
    extremal_cover,
    grid_expansions,
    in_grid_ideal,
    sumset,
    value_set,
    verify_cover,
)
from nullgrid import applications
from nullgrid.certificates import find_witness
from nullgrid.divdiff import divided_difference_recursive
from randgen import rand_poly
from oracles import cover_report_oracle, value_set_oracle

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
F10007 = FieldSpec.prime(10007)
Q = FieldSpec.rationals()
FIELDS = (F2, F3, F7, F10007, Q)


def _rand_value(rng, spec):
    """A value of the field in one of the forms FieldSpec.element reads:
    an element, an int, a decimal string or a Fraction, unreduced where the
    form allows it."""
    if spec.p:
        v = rng.randrange(-2 * spec.p, 2 * spec.p)
        forms = (spec.element(v), v, str(v), Fraction(v))
    else:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        forms = (spec.element(v), v, str(v)) + ((v.numerator,) if v.denominator == 1 else ())
    return rng.choice(forms)


def _rand_pairs(rng, spec, max_support=5):
    """(value, mult) pairs with distinct canonical values, in random order."""
    pairs, seen = [], set()
    while len(pairs) < rng.randint(1, max_support):
        value = _rand_value(rng, spec)
        canonical = spec.element(value)
        if canonical in seen:
            if spec.p and len(seen) == spec.p:
                break
            continue
        seen.add(canonical)
        pairs.append((value, rng.randint(1, 4)))
    return pairs


def _reference(spec, pairs):
    """{FieldElement: mult} in canonical order, as Multiset held it before."""
    entries = {spec.element(v): m for v, m in pairs}
    return {e: entries[e] for e in sorted(entries, key=FieldElement.sort_key)}


def test_multiset_views_counts_and_text_match_an_element_keyed_reference():
    rng = random.Random(2901)
    for spec in FIELDS:
        for _ in range(60):
            pairs = _rand_pairs(rng, spec)
            ms = Multiset(spec, pairs)
            ref = _reference(spec, pairs)
            assert type(ms.entries) is dict and type(ms.support) is tuple
            assert list(ms.entries.items()) == list(ref.items())
            assert all(type(e) is FieldElement and e.spec is spec for e in ms.entries)
            assert ms.support == tuple(ref)
            assert ms.entries is ms.entries and ms.support is ms.support  # built once, kept
            assert ms.size == sum(ref.values())
            for value, _ in pairs:
                assert ms.multiplicity(value) == ref[spec.element(value)]
            probe = _rand_value(rng, spec)
            assert ms.multiplicity(probe) == ref.get(spec.element(probe), 0)
            shuffled = pairs[:]
            rng.shuffle(shuffled)
            twin = Multiset(spec, [(spec.element(v), m) for v, m in shuffled])
            assert twin == ms and hash(twin) == hash(ms)
            assert hash(ms) == hash((spec, tuple(ref.items())))
            assert str(ms) == "{" + ", ".join(f"{e}:{m}" for e, m in ref.items()) + "}"
            bumped = dict(ref)
            first = next(iter(bumped))
            bumped[first] += 1
            assert Multiset(spec, bumped.items()) != ms
    assert Multiset(F7, [(1, 1)]) != Multiset(F5, [(1, 1)])


def test_multiset_errors_are_unchanged():
    def message(exc_type, pairs, spec=F7):
        with pytest.raises(exc_type) as info:
            Multiset(spec, pairs)
        return str(info.value)

    assert message(ValueError, [(1, 1), ("8", 2)]) == "duplicate element 1 in multiset input"
    assert message(ValueError, [(Fraction(1, 2), 1), ("2/4", 1)], Q) == "duplicate element 1/2 in multiset input"
    assert message(ValueError, [(10, 0)]) == "multiplicity of 3 must be a positive integer, got 0"
    assert message(ValueError, [("3", True)]) == "multiplicity of 3 must be a positive integer, got True"
    assert message(ValueError, [(3, 1.5)]) == "multiplicity of 3 must be a positive integer, got 1.5"
    assert message(ValueError, [(3, -10**60)]) == "multiplicity of 3 must be a positive integer, got a negative number of 61 digits"
    assert message(ValueError, [(3, 1), (10, 0)]) == "multiplicity of 3 must be a positive integer, got 0"
    assert message(ValueError, []) == "multiset must be nonempty"
    assert message(FieldMismatchError, [(F5.element(1), 1)]) == "element of F_5 used in F_7"
    assert message(FieldMismatchError, [(1, 1), (F5.element(2), 1)]) == "element of F_5 used in F_7"
    ms = Multiset(F7, [(1, 1)])
    with pytest.raises(FieldMismatchError, match="element of F_5 used in F_7"):
        ms.multiplicity(F5.element(1))


def test_hyperplane_views_and_keys_match_recomputed_values():
    rng = random.Random(1008)
    for spec in FIELDS:
        for _ in range(40):
            n = rng.randint(1, 3)
            coeffs = [_rand_value(rng, spec) for _ in range(n + 1)]
            elems = tuple(spec.element(c) for c in coeffs)
            if all(c.is_zero() for c in elems[1:]):
                continue
            h = Hyperplane(spec, coeffs)
            assert type(h.coeffs) is tuple and h.coeffs == elems
            assert all(type(c) is FieldElement and c.spec is spec for c in h.coeffs)
            assert h.coeffs is h.coeffs and h.arity == n
            assert h == Hyperplane(spec, elems) and hash(h) == hash((spec, elems))
            inv = next(c for c in elems[1:] if not c.is_zero()).inv()
            assert h.direction_key() == tuple((c * inv).value for c in elems)
            scale = spec.element(rng.choice([2, 3, -1, Fraction(1, 2) if not spec.p else 1]))
            if not scale.is_zero():
                scaled = Hyperplane(spec, [c * scale for c in elems])
                assert scaled.direction_key() == h.direction_key()
                assert (scaled == h) == (scale == 1)
    with pytest.raises(ValueError, match="^hyperplane normal vector is zero$"):
        Hyperplane(F7, [1, 7, "14"])
    with pytest.raises(ValueError, match="^hyperplane needs a constant term and at least one variable$"):
        Hyperplane(F7, [1])


def test_sumset_is_the_pairwise_maximum():
    rng = random.Random(1012)
    for spec in (F2, F3, F7, F10007):
        for _ in range(40):
            a = Multiset(spec, _rand_pairs(rng, spec))
            b = Multiset(spec, _rand_pairs(rng, spec))
            best = {}
            for x, mx in a.entries.items():
                for y, my in b.entries.items():
                    best[x + y] = max(best.get(x + y, 0), mx + my - 1)
            s = sumset(a, b)
            assert list(s.entries.items()) == sorted(best.items(), key=lambda kv: kv[0].value)
            assert s == Multiset(spec, best.items())


def _rand_grid(rng, spec, n, zero=False):
    sets = []
    for _ in range(n):
        pairs = _rand_pairs(rng, spec, max_support=3)
        if zero:
            pairs = [(v, m) for v, m in pairs if not spec.element(v).is_zero()] + [(0, 1)]
        sets.append(Multiset(spec, pairs))
    return MultisetGrid(sets)


def test_value_set_matches_the_enumeration_oracle():
    rng = random.Random(1013)
    for spec in FIELDS:
        for _ in range(15):
            n = rng.randint(1, 3)
            grid = _rand_grid(rng, spec, n)
            f = rand_poly(rng, spec, n, max_deg=4, max_terms=5)
            got, want = value_set(f, grid), value_set_oracle(f, grid)
            assert got == want and list(got.entries.items()) == list(want.entries.items()), (grid, f)


def test_extremal_cover_reports_as_the_oracle_does():
    rng = random.Random(1014)
    for spec in FIELDS:
        for _ in range(15):
            grid = _rand_grid(rng, spec, rng.randint(1, 3), zero=True)
            planes = extremal_cover(grid)
            got, want = verify_cover(planes, grid), cover_report_oracle(planes, grid)
            assert got == want and list(got.per_point.items()) == list(want.per_point.items())
            assert got.verdict == "valid_cover" and got.k == got.bound


def _rand_scalar(rng, spec):
    """A nonzero field value, fractional over Q."""
    if spec.p:
        return rng.randrange(1, spec.p)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))


def _mixed_planes(rng, grid):
    """Planes of every kind verify_cover tells apart: axis-parallel ones at
    values of S_i and at values outside it, with any scaling; oblique ones;
    some through the origin; and scaled copies of planes already drawn."""
    spec, n = grid.spec, grid.arity
    planes = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.random()
        if planes and kind < 0.25:
            h = rng.choice(planes)  # the same plane, or a proportional one
            scale = rng.choice([1, _rand_scalar(rng, spec)])
            planes.append(Hyperplane(spec, [spec.element(c) * scale for c in h.coeffs]))
            continue
        normal = [0] * n
        if n == 1 or kind < 0.65:
            i = rng.randrange(n)
            normal[i] = _rand_scalar(rng, spec)
            nonzero = [v for v in grid.sets[i].support if not v.is_zero()]
            pick = rng.random()
            if nonzero and pick < 0.6:
                value = rng.choice(nonzero)
            else:  # through the origin, or at a value that may lie outside S_i
                value = spec.element(0 if pick < 0.75 else _rand_value(rng, spec))
            constant = -value * normal[i]
        else:
            for i in rng.sample(range(n), rng.randint(2, n)):
                normal[i] = _rand_scalar(rng, spec)
            constant = spec.element(0 if rng.random() < 0.2 else _rand_value(rng, spec))
        planes.append(Hyperplane(spec, [constant] + normal))
    return planes


def test_covers_of_mixed_planes_report_as_the_oracle_does():
    rng = random.Random(1015)
    for spec in (F2, F3, F7, Q):
        for _ in range(60):
            grid = _rand_grid(rng, spec, rng.randint(1, 3), zero=True)
            planes = _mixed_planes(rng, grid)
            if rng.random() < 0.3:
                planes += extremal_cover(grid)
                rng.shuffle(planes)
            got, want = verify_cover(planes, grid), cover_report_oracle(planes, grid)
            assert list(got.per_point.items()) == list(want.per_point.items()), (grid, planes)
            assert got.undercovered_points == want.undercovered_points
            assert (got.verdict, got.origin_covered) == (want.verdict, want.origin_covered)
            assert got.proportional_pairs == want.proportional_pairs
            assert got == want


def _rand_terms(rng, spec, n, kind):
    """A term map of one kind: terms in one variable, terms in two or more,
    a constant, or both kinds; exponents reach past p over F_2 and F_3."""
    top = 2 * spec.p + 2 if spec.p in (2, 3) else 4
    terms = {}
    if kind == "constant":
        return {(0,) * n: _rand_scalar(rng, spec)}
    for _ in range(rng.randint(1, 5)):
        u = [0] * n
        if kind == "mixed" or (kind == "both" and n > 1 and rng.random() < 0.5):
            for i in rng.sample(range(n), rng.randint(2, n)):
                u[i] = rng.randint(1, top)
        else:
            u[rng.randrange(n)] = rng.randint(0, top)
        terms[tuple(u)] = _rand_scalar(rng, spec)
    return terms


def test_value_sets_of_every_term_split_match_the_enumeration_oracle():
    rng = random.Random(1016)
    for spec in (F2, F3, F7, Q):
        for _ in range(40):
            n = rng.randint(1, 3)
            grid = _rand_grid(rng, spec, n)
            kinds = ["one-variable", "constant", "zero", "both"] + (["mixed"] if n > 1 else [])
            kind = rng.choice(kinds)
            f = MultiPoly.zero(n, spec) if kind == "zero" else MultiPoly(n, spec, _rand_terms(rng, spec, n, kind))
            got, want = value_set(f, grid), value_set_oracle(f, grid)
            assert list(got.entries.items()) == list(want.entries.items()), (kind, grid, f)


def test_value_set_evaluates_point_by_point_only_the_mixed_terms(monkeypatch):
    evaluated = []
    inner = applications._evaluate_raw

    def counting(terms, rows):
        evaluated.append(terms)
        return inner(terms, rows)

    monkeypatch.setattr(applications, "_evaluate_raw", counting)
    for spec in (F3, F7, Q):
        grid = MultisetGrid.of(spec, [{0: 1, 1: 2, 2: 1}, {1: 3, 2: 1}, {0: 2, 2: 1}])
        separable = MultiPoly(3, spec, {(4, 0, 0): 1, (0, 2, 0): 2, (0, 0, 1): 1, (0, 0, 0): 1})
        evaluated.clear()
        assert value_set(separable, grid) == value_set_oracle(separable, grid)
        assert evaluated == []
        mixed = separable + MultiPoly(3, spec, {(1, 1, 0): 1})
        assert value_set(mixed, grid) == value_set_oracle(mixed, grid)
        assert evaluated == [{(1, 1, 0): 1}] * grid.point_count()


def test_axis_parallel_covers_reduce_per_class_not_per_point(monkeypatch):
    for spec in (FieldSpec.prime(23), F10007, Q):
        grid = MultisetGrid.of(spec, [{v: 1 + v % 2 for v in range(21)}] * 2)
        planes = extremal_cover(grid) + [Hyperplane(spec, [-3, 0, 2])] * 2
        reduced = []
        inner = FieldSpec._reduce

        def counting(self, v):
            reduced.append(v)
            return inner(self, v)

        monkeypatch.setattr(FieldSpec, "_reduce", counting)
        report = verify_cover(planes, grid)
        monkeypatch.undo()
        assert report.verdict == "valid_cover" and len(report.per_point) == 440
        assert len(reduced) < grid.point_count()


def _count_element_inits(monkeypatch):
    made = []
    init = FieldElement.__init__

    def counting(self, value, spec):
        made.append(value)
        init(self, value, spec)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    return made


def test_sumset_and_value_set_build_no_field_element(monkeypatch):
    a = Multiset(F7, [(0, 2), (3, 1), (5, 3)])
    b = Multiset(F7, [(1, 1), (6, 2)])
    grid = MultisetGrid([a, b])
    f = rand_poly(random.Random(5), F7, 2, max_deg=3, max_terms=4) + MultiPoly.monomial(2, F7, (2, 1), 1)
    qa = Multiset(Q, [(Fraction(1, 2), 2), (-3, 1)])
    qgrid = MultisetGrid([qa, qa])
    qf = rand_poly(random.Random(6), Q, 2, max_deg=3, max_terms=4)
    made = _count_element_inits(monkeypatch)
    results = (sumset(a, b), value_set(f, grid), value_set(qf, qgrid))
    assert made == []
    monkeypatch.undo()
    assert results[0] == Multiset(F7, [(1, 2), (2, 2), (4, 4), (6, 3)])
    assert results[1] == value_set_oracle(f, grid)
    assert results[2] == value_set_oracle(qf, qgrid)


def test_cover_builds_no_field_element_once_the_points_exist(monkeypatch):
    for spec in (F7, Q):
        grid = MultisetGrid.of(spec, [{0: 1, 2: 3, 5: 1}, {0: 1, 1: 2}, {0: 1, 3: 1, 4: 2}])
        list(grid.points())
        made = _count_element_inits(monkeypatch)
        report = verify_cover(extremal_cover(grid), grid)
        assert made == []
        monkeypatch.undo()
        assert report.verdict == "valid_cover" and report.k == report.bound == 9


def test_each_distinct_plane_is_normalised_once(monkeypatch):
    """A plane read from its coefficients inverts its first nonzero normal
    entry once, when it is built; the planes x_i = s of extremal_cover are
    their own direction keys and invert nothing, and verify_cover inverts
    nothing either."""
    for spec in (F7, Q):
        grid = MultisetGrid.of(spec, [{0: 1, 2: 3, 5: 1}, {0: 1, 1: 4}])
        inverted = []
        inv = FieldSpec._inv

        def counting(self, a):
            inverted.append(a)
            return inv(self, a)

        monkeypatch.setattr(FieldSpec, "_inv", counting)
        planes = extremal_cover(grid)
        report = verify_cover(planes, grid)
        monkeypatch.undo()
        assert len(planes) == 8 and len({id(h) for h in planes}) == 3
        assert inverted == []
        assert report.verdict == "valid_cover"
        for h in planes:
            assert h.direction_key() == Hyperplane(spec, h.coeffs).direction_key()
        monkeypatch.setattr(FieldSpec, "_inv", counting)
        h = Hyperplane(spec, [1, 0, 2])
        assert inverted == [2]
        verify_cover([h] * 5, grid)
        monkeypatch.undo()
        assert inverted == [2]


def test_constructors_read_inputs_without_building_field_elements(monkeypatch):
    made = _count_element_inits(monkeypatch)
    ms = Multiset(F7, [("3", 2), ("-1", 1), ("12", 1)])
    qs = Multiset(Q, [("1/2", 1), ("-3", 2)])
    vm = VectorMultiset(5, 2, [((7, -1), 2), ((0, 3), 1)])
    h = Hyperplane(F7, [3, 0, -1])
    f = MultiPoly(2, F7, {(1, 0): 9, (0, 2): -1, (0, 0): 7})
    scaled = f * 3
    assert ms.multiplicity("12") == 1 and qs.multiplicity(-3) == 2
    assert made == []
    monkeypatch.undo()
    assert ms._raw == {3: 2, 5: 1, 6: 1} and qs._raw == {-3: 2, Fraction(1, 2): 1}
    assert vm.entries == {(0, 3): 1, (2, 4): 2}
    assert h._raw == (3, 0, 6) and str(h.as_poly()) == "6*x2 + 3"
    assert f.terms == {(1, 0): 2, (0, 2): 6} and scaled.terms == {(1, 0): 6, (0, 2): 4}


def test_grid_walk_builds_no_field_element_and_no_polynomial(monkeypatch):
    """Every scan of grid_expansions reads raw points and raw term maps; only
    a witness, which leaves the library, is wrapped."""
    rng = random.Random(3030)
    for spec in FIELDS:
        grid = _rand_grid(rng, spec, 3, zero=False)
        f = rand_poly(rng, spec, 3, max_deg=4, max_terms=6)
        made = _count_element_inits(monkeypatch)
        polys = []  # MultiPoly(...) runs __init__, and _from_raw skips it
        init, from_raw = MultiPoly.__init__, MultiPoly._from_raw.__func__

        def counting_init(self, *args):
            polys.append(args)
            init(self, *args)

        def counting_from_raw(cls, *args):
            polys.append(args)
            return from_raw(cls, *args)

        monkeypatch.setattr(MultiPoly, "__init__", counting_init)
        monkeypatch.setattr(MultiPoly, "_from_raw", classmethod(counting_from_raw))
        walked = list(grid_expansions(f, grid))
        member = in_grid_ideal(f, grid, "pointwise")
        bracket = divided_difference_recursive(f, grid)
        assert made == [bracket.value] and polys == []
        monkeypatch.undo()
        assert [point for point, _ in walked] == [tuple(e.value for e in s) for s in grid.points()]
        assert member == (not any(terms for _, terms in walked))
    # a witness wraps its raw point and coefficient once, when it is returned
    grid = MultisetGrid.of(F7, [{1: 2, 3: 1}, {0: 1, 5: 2}])
    f = MultiPoly(2, F7, {(2, 1): 1, (0, 0): 4})
    for method in ("exhaustive", "divided_difference"):
        made = _count_element_inits(monkeypatch)
        w = find_witness(f, grid, (2, 1), method)
        assert sorted(made) == sorted([*(e.value for e in w.point), w.value.value])
        monkeypatch.undo()
