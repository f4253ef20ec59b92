import gc
import itertools
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from nullgrid import (
    ArityMismatchError,
    FieldElement,
    FieldSpec,
    MultiPoly,
    Multiset,
    MultisetGrid,
    PreconditionError,
    divided_difference,
    divided_difference_recursive,
    grid_expansions,
    parse_poly,
    reduce_poly,
    top_coefficient_identity_holds,
    top_weight_closed_form,
    weight_table,
)
from nullgrid import divdiff
from nullgrid.divdiff import _contracted_sum, _weighted_sum
from randgen import rand_grid, rand_poly, rand_spec
from oracles import (
    confluent_vandermonde,
    dual_basis_poly,
    expansion_coefficient_oracle,
    gauss_jordan_inverse,
    hermite_remainder_oracle,
    newton_table_oracle,
    residue_weight_oracle,
    two_point_bracket_oracle,
    two_point_weight_oracle,
)

F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
F10007 = FieldSpec.prime(10007)
Q = FieldSpec.rationals()


def test_bracket_base_cases():
    ms = MultisetGrid([Multiset.of(Q, {4: 1})])
    f = parse_poly("x1^2 - 3", 1, Q)
    assert divided_difference(f, ms).value == 13  # f(4)

    grid = MultisetGrid.of(Q, [{0: 1, 1: 1}])
    assert divided_difference(parse_poly("x1^2", 1, Q), grid).value == 1

    top = MultisetGrid.of(Q, [{0: 1, 1: 1, 2: 1}, {5: 2}])
    f_top = MultiPoly.monomial(2, Q, top.top_exponent)
    assert divided_difference(f_top, top).value == 1


def test_bracket_matches_newton_oracle():
    rng = random.Random(3)
    for _ in range(30):
        spec = rand_spec(rng, rational_weight=0.4)
        pool = list(range(spec.p)) if spec.is_prime_field else list(range(-8, 9))
        k = rng.randint(1, min(4, len(pool)))
        nodes = [spec.element(v) for v in rng.sample(pool, k)]
        grid = MultisetGrid([Multiset(spec, [(x, 1) for x in nodes])])
        f = rand_poly(rng, spec, 1, max_deg=4)
        expected = newton_table_oracle(
            sorted(nodes, key=lambda e: e.sort_key()),
            [f.evaluate([x]) for x in sorted(nodes, key=lambda e: e.sort_key())],
        )
        assert divided_difference(f, grid) == expected
        assert divided_difference_recursive(f, grid) == expected


def test_second_difference_example():
    grid = MultisetGrid.of(Q, [{0: 1, 1: 1, 2: 1}])
    f = parse_poly("x1^2", 1, Q)
    assert divided_difference_recursive(f, grid).value == 1


def test_singleton_multiplicity_is_expansion_coefficient():
    grid = MultisetGrid.of(Q, [{3: 4}])
    f = parse_poly("x1^4 + 2*x1^3", 1, Q)
    expected = expansion_coefficient_oracle(f, [Q.element(3)], (3,))
    assert divided_difference(f, grid) == expected
    assert divided_difference_recursive(f, grid) == expected


@pytest.mark.parametrize("spec", [F2, F7, F10007, Q], ids=str)
def test_bracket_matches_remainder_and_hermite_oracle(spec):
    """The bracket reads one-coordinate top coefficients off the generators
    without dividing; the remainder's top coefficient and the top
    coefficient of the division-free Hermite interpolant are the
    references.  Multiplicities reach past p over F_2 and F_7, degrees run
    to several times d_i, and the zero polynomial and one-element
    coordinates are among the cases."""
    rng = random.Random(47 + (spec.p or 0))
    pool = list(range(spec.p)) if spec.p else [Fraction(k, 2) for k in range(-6, 7)]
    max_mult = spec.p + 1 if spec.p and spec.p < 10 else 3
    seen = set()
    for trial in range(14):
        n = rng.randint(1, 2)
        sets = []
        for _ in range(n):
            support = rng.sample(pool, 1 if trial == 1 else rng.randint(1, min(3, len(pool))))
            sets.append(Multiset(spec, [(s, rng.randint(1, max_mult)) for s in support]))
        grid = MultisetGrid(sets)
        if trial == 0:
            f = MultiPoly.zero(n, spec)
        else:
            f = rand_poly(rng, spec, n, max_deg=4 * max(grid.sizes))
            if any(f.degree_in(i) >= 2 * d for i, d in enumerate(grid.sizes)):
                seen.add("deg far above d")
        if any(len(ms.support) == 1 for ms in sets):
            seen.add("one-element coordinate")
        if spec.p and any(m >= spec.p for ms in sets for m in ms.entries.values()):
            seen.add("multiplicity past p")
        top = grid.top_exponent
        expected = reduce_poly(f, grid).remainder.coefficient(top)
        assert divided_difference(f, grid) == expected, (grid, f)
        assert hermite_remainder_oracle(f, grid).coefficient(top) == expected, (grid, f)
    wanted = {"deg far above d", "one-element coordinate"}
    assert seen >= (wanted | {"multiplicity past p"} if spec.p in (2, 7) else wanted)


def test_definitional_equals_recursive_random():
    rng = random.Random(11)
    for _ in range(60):
        spec = rand_spec(rng, rational_weight=0.25)
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=4)
        f = rand_poly(rng, spec, n, max_deg=6)
        assert divided_difference(f, grid) == divided_difference_recursive(f, grid)


def test_randomized_pivots_agree_with_canonical():
    rng = random.Random(13)
    for trial in range(30):
        spec = rand_spec(rng, rational_weight=0.25)
        n = rng.randint(1, 2)
        grid = rand_grid(rng, spec, n, max_size=4)
        f = rand_poly(rng, spec, n, max_deg=5)
        canonical = divided_difference_recursive(f, grid)
        pivot_rng = random.Random(1000 + trial)
        assert two_point_bracket_oracle(f, grid, pivot_rng) == canonical


def test_recursive_bracket_refuses_grids_past_the_entry_budget(monkeypatch):
    spec = FieldSpec.prime(10007)
    f = parse_poly("x1^3 + x2", 2, spec)
    # at the old depth limit, 256 levels: 257 * 258 / 2 = 33 153 table entries
    # in x1, then one leaf for each of the 257 (point, exponent) pairs in x2,
    # which has one distinct value: 33 410
    at_limit = MultisetGrid.of(spec, [{0: 1, 1: 256}, {3: 300}])
    assert divided_difference_recursive(f, at_limit) == divided_difference(f, at_limit)
    # 129 * 130 / 2 + 129 * (130 * 131 / 2) = 8385 + 1 098 435 entries
    with pytest.raises(PreconditionError) as err:
        divided_difference_recursive(f, MultisetGrid.of(spec, [{0: 1, 1: 128}, {2: 1, 3: 129}]))
    assert err.value.condition == "budget"
    assert str(err.value) == (
        "budget: the recursive bracket would fill 1106820 Newton-table entries, above the limit 1000000"
    )
    # the deepest one-coordinate grid the depth limit allowed: 257 distinct
    # values and 33 153 entries of constant work each; states that copy and
    # hash whole rows cost about d^3, seconds here
    f = parse_poly("x1^256 + x1^3", 1, spec)
    deepest = MultisetGrid.of(spec, [{v: 1 for v in range(257)}])
    start = time.process_time()
    bracket = divided_difference_recursive(f, deepest)
    assert time.process_time() - start < 0.75
    assert bracket.value == 1
    assert bracket == divided_difference(f, deepest)
    # {0..85}^3 is 255 elements deep, within the old depth limit, yet 27 993 903
    # entries: refused from the sizes alone, before the walk
    grid = MultisetGrid.of(spec, [{v: 1 for v in range(86)}] * 3)
    start = time.process_time()
    with pytest.raises(PreconditionError, match="would fill 27993903 Newton-table entries"):
        divided_difference_recursive(parse_poly("x1", 3, spec), grid)
    assert time.process_time() - start < 0.5
    # the exact boundary, under small limits: 3 * 4 / 2 + 3 * (2 * 3 / 2) = 15
    # entries, and 6 + 3 * 1 = 9 with a second coordinate of one distinct value
    f = parse_poly("x1^2*x2 + 3*x2^3 + x1", 2, spec)
    for sets, entries in (([{0: 1, 1: 2}, {5: 1, 6: 1}], 15), ([{0: 1, 1: 2}, {5: 4}], 9)):
        grid = MultisetGrid.of(spec, sets)
        monkeypatch.setattr(divdiff, "_MAX_NEWTON_ENTRIES", entries)
        assert divided_difference_recursive(f, grid) == divided_difference(f, grid)
        monkeypatch.setattr(divdiff, "_MAX_NEWTON_ENTRIES", entries - 1)
        with pytest.raises(PreconditionError) as err:
            divided_difference_recursive(f, grid)
        assert str(err.value) == (
            f"budget: the recursive bracket would fill {entries} Newton-table entries, above the limit {entries - 1}"
        )


def test_recursive_bracket_time_and_memory_on_a_wide_grid():
    # {0..159} x {0..96}: 773 360 entries, the top one 1; the memoized
    # recursion over index intervals took about 3 s and a 141 MB peak
    spec = FieldSpec.prime(10007)
    grid = MultisetGrid.of(spec, [{v: 1 for v in range(160)}, {v: 1 for v in range(97)}])
    f = parse_poly("x1^159*x2^96 + x1^3", 2, spec)
    start = time.process_time()
    value = divided_difference_recursive(f, grid)
    assert time.process_time() - start < 1.5
    assert value == 1
    tracemalloc.start()
    try:
        divided_difference_recursive(f, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 10**6


def test_recursive_bracket_leaves_no_reference_cycle():
    # the Newton tables are plain lists and dicts, freed on return; nothing
    # may be left for the cyclic collector
    grid = MultisetGrid.of(F7, [{0: 2, 1: 1, 3: 1}, {2: 1, 4: 2}])
    f = parse_poly("x1^3*x2^2 + 3*x1*x2 + 2", 2, F7)
    gc.collect()
    divided_difference_recursive(f, grid)
    assert gc.collect() == 0


def test_weight_table_examples():
    t01 = weight_table(MultisetGrid.of(Q, [{0: 1, 1: 1}]))
    vals = {pt[0].value: w.value for (pt, u), w in t01.weights.items()}
    assert vals == {0: -1, 1: 1}

    t012 = weight_table(MultisetGrid.of(Q, [{0: 1, 1: 1, 2: 1}]))
    vals = {pt[0].value: w.value for (pt, u), w in t012.weights.items()}
    assert vals == {0: Fraction(1, 2), 1: -1, 2: Fraction(1, 2)}

    single = weight_table(MultisetGrid.of(Q, [{7: 3}]))
    assert {(pt[0].value, u): w.value for (pt, u), w in single.weights.items()} == {
        (7, (0,)): 0,
        (7, (1,)): 0,
        (7, (2,)): 1,
    }


def test_weight_table_of_a_long_multiplicity():
    """The partial fractions of 1/((x - 1)^9999 (x - 2)): every weight at 1 is
    -1 and the weight at 2 is 1.  Each element's residue series starts as
    its first factor, so an element of one factor multiplies nothing and
    this takes milliseconds; an O(m^2) convolution into 1 + 0*y + ... first
    took seconds at m = 9999."""
    spec = FieldSpec.prime(10007)
    start = time.process_time()
    table = weight_table(MultisetGrid.of(spec, [{1: 9999, 2: 1}]))
    assert time.process_time() - start < 1.0
    weights = {(pt[0].value, u): w.value for (pt, u), w in table.weights.items()}
    assert weights == {**{(1, (e,)): 10006 for e in range(9999)}, (2, (0,)): 1}


def test_weight_table_of_two_long_multiplicities():
    """The partial fractions of 1/((x - 1)^5000 (x - 2)^5000): the weight of
    (1, e) is C(4999 + k, k) and that of (2, e) is (-1)^k C(4999 + k, k),
    with k = 4999 - e.  Each element's weights are one closed-form binomial
    series carried as a running integer, so this takes milliseconds; a
    math.comb per coefficient took over ten seconds."""
    spec = F10007
    grid = MultisetGrid.of(spec, [{1: 5000, 2: 5000}])
    start = time.process_time()
    table = weight_table(grid)
    assert time.process_time() - start < 1.0
    assert len(table.weights) == 10000
    for point in grid.points():
        assert table.weight(point, (4999,)) == top_weight_closed_form(grid, point)
    for e in (0, 1, 2500, 4998):
        k = 4999 - e
        binom = math.comb(4999 + k, k)
        assert table.weight((1,), (e,)) == spec.element(binom)
        assert table.weight((2,), (e,)) == spec.element((-1) ** k * binom)


@pytest.mark.parametrize(
    "spec, sets, entries",
    [
        (F10007, [{1: 3000, 2: 3000, 3: 3000, 4: 1000}], 10000),
        (Q, [{Fraction(1, 2): 200, Fraction(-2, 3): 200, 5: 200}], 600),
    ],
    ids=["F_10007", "Q"],
)
def test_weight_table_of_several_long_multiplicities(spec, sets, entries):
    """Every element multiplies two or three closed-form series, of up to
    3000 terms over F_10007 and 200 rational ones over Q, by Kronecker
    products in polynomials._mul_raw: about 0.1 s each, where a convolution
    per product took 1.1-1.6 s and 1.6 s."""
    grid = MultisetGrid.of(spec, sets)
    start = time.process_time()
    table = weight_table(grid)
    assert time.process_time() - start < 0.5
    assert len(table.weights) == entries
    for point in grid.points():
        top = tuple(mult - 1 for mult in grid.multiplicity_vector(point))
        assert table.weight(point, top) == top_weight_closed_form(grid, point)


def test_weight_table_domain_cardinality():
    rng = random.Random(17)
    grids = [rand_grid(rng, rand_spec(rng), rng.randint(1, 2), max_size=4) for _ in range(20)]
    grids.append(MultisetGrid.of(F5, [{0: 1, 1: 2}, {2: 2, 3: 1, 4: 1}]))
    grids.append(MultisetGrid.of(Q, [{0: 2, 1: 1}, {5: 1, 6: 1}, {2: 1, 3: 2}]))
    for grid in grids:
        table = weight_table(grid)
        expected = 1
        for d in grid.sizes:
            expected *= d
        assert len(table.weights) == expected
        for (point, u) in table.weights:
            mv = grid.multiplicity_vector(point)
            assert all(e < m for e, m in zip(u, mv))
        # entries come in grid.points() order, each point's box in lexicographic order
        assert list(table.weights) == [
            (point, u)
            for point, mv in zip(grid.points(), grid.multiplicity_vectors())
            for u in itertools.product(*(range(m) for m in mv))
        ]


def test_top_weights_match_closed_form_and_are_nonzero():
    grid = MultisetGrid.of(Q, [{0: 1, 1: 1}])
    assert top_weight_closed_form(grid, [1]).value == 1
    assert top_weight_closed_form(grid, [0]).value == -1
    assert top_weight_closed_form(MultisetGrid.of(Q, [{9: 4}]), [9]).value == 1

    rng = random.Random(19)
    for _ in range(25):
        spec = rand_spec(rng, rational_weight=0.3)
        grid = rand_grid(rng, spec, rng.randint(1, 2), max_size=4)
        table = weight_table(grid)
        for point in grid.points():
            mv = grid.multiplicity_vector(point)
            top = tuple(m - 1 for m in mv)
            w = table.weight(point, top)
            assert not w.is_zero()
            assert w == top_weight_closed_form(grid, point)
    with pytest.raises(ValueError):
        top_weight_closed_form(grid, [2])


def test_weight_accepts_plain_point_values():
    grid = MultisetGrid.of(F5, [{0: 1, 1: 2}, {2: 1, 3: 1}])
    table = weight_table(grid)
    w = table.weight((1, 2), (1, 0))
    assert w == table.weight((F5.element(1), F5.element(2)), (1, 0)) == top_weight_closed_form(grid, (1, 2))
    assert table.weight(["1", 7], [0, 0]) == table.weight((1, 2), (0, 0))


def test_every_weight_matches_residue_oracle():
    """The library computes the weights in residue form too, so this checks
    the implementation -- binomial series against repeated geometric series
    -- not the method; the Hermite and two-point oracles check the method."""
    rng = random.Random(29)
    for trial in range(36):
        spec = Q if trial % 3 == 0 else rand_spec(rng)
        grid = rand_grid(rng, spec, rng.randint(1, 3), max_size=4)
        table = weight_table(grid)
        for (point, u), w in table.weights.items():
            assert w == residue_weight_oracle(grid, point, u), (grid, point, u)
    # multiplicities on both sides of the choice between in-place passes
    # (8 * M <= m + 32, in a row of three or more elements) and the
    # closed-form series, mixed within one element's row, with passes cut
    # below y^m and multiplicities at or past p over F_2 and F_3
    cases = [
        (F2, [{0: 5, 1: 3}]),  # a row of two: closed form only
        (FieldSpec.prime(3), [{0: 20, 1: 2, 2: 7}]),  # 0: passes for 1, closed for 2
        (FieldSpec.prime(3), [{0: 4, 1: 3, 2: 3}, {1: 1, 2: 6}]),  # passes past y^4
        (FieldSpec.prime(5), [{0: 4, 1: 3, 2: 3, 3: 2}]),
        (FieldSpec.prime(10007), [{1: 16, 2: 1, 3: 3, 4: 7, 5: 1}]),  # 1: closed for 4 only
        (Q, [{1: 16, 2: 1, 3: 3, 4: 7, 5: 1}]),
    ]
    # every element multiplies two series or more in polynomials._mul_raw:
    # under 32 term pairs each (term pair by term pair) in the first grid,
    # packed by Kronecker substitution in the second; over F_3 some binomials
    # vanish, 2^61 - 1 needs wide slots and Q signed ones
    for spec in (FieldSpec.prime(3), FieldSpec.prime(2**61 - 1), Q):
        cases += [(spec, [{0: 2, 1: 5, 2: 5}]), (spec, [{0: 40, 1: 10, 2: 10}])]
    for spec, sets in cases:
        grid = MultisetGrid.of(spec, sets)
        for (point, u), w in weight_table(grid).weights.items():
            assert w == residue_weight_oracle(grid, point, u), (grid, point, u)


def test_every_weight_matches_hermite_oracle():
    """A method-independent check, with the two-point one.  The last row of
    the inverse confluent Vandermonde matrix of S_i maps expansion
    coefficients on S_i to the top coefficient of the interpolant, so each
    weight is the product over axes of that row's entry at (s_i, u_i)."""
    rng = random.Random(37)
    for trial in range(36):
        spec = Q if trial % 3 == 0 else rand_spec(rng)
        grid = rand_grid(rng, spec, rng.randint(1, 3), max_size=4)
        last_rows = []
        for ms in grid.sets:
            slots = [(s, j) for s, mult in ms.entries.items() for j in range(mult)]
            last = gauss_jordan_inverse(confluent_vandermonde(ms, spec), spec)[-1]
            last_rows.append(dict(zip(slots, last)))
        table = weight_table(grid)
        for (point, u), w in table.weights.items():
            expected = spec.one
            for row, s, e in zip(last_rows, point, u):
                expected = expected * row[(s, e)]
            assert w == expected, (grid, point, u)


def test_every_weight_matches_two_point_oracle():
    """A method-independent check, with the Hermite one: the oracle expands
    the two-point recursion symbolically over sub-multisets, where the
    library multiplies truncated residue series.  Multiplicities reach past
    p over F_2, F_3 and F_5, where C(M + k - 1, k) vanishes mod p for some
    k."""
    rng = random.Random(43)
    past_p = set()
    for trial in range(32):
        spec = [FieldSpec.prime(2), FieldSpec.prime(3), F5, Q][trial % 4]
        pool = list(range(spec.p)) if spec.p else [Fraction(k, 2) for k in range(-6, 7)]
        sets = []
        for _ in range(rng.randint(1, 2)):
            support = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            sets.append(Multiset(spec, [(s, rng.randint(1, (spec.p or 3) + 2)) for s in support]))
        grid = MultisetGrid(sets)
        past_p.update(spec.p for ms in sets if spec.p and max(ms.entries.values()) >= spec.p)
        table = weight_table(grid)
        for (point, u), w in table.weights.items():
            assert w == two_point_weight_oracle(grid, point, u), (grid, point, u)
    assert past_p == {2, 3, 5}


def test_identity_examples():
    grid = MultisetGrid.of(Q, [{0: 1, 1: 1, 2: 1}, {0: 2}])
    t = grid.top_exponent
    assert top_coefficient_identity_holds(MultiPoly.monomial(2, Q, t), grid)
    assert top_coefficient_identity_holds(MultiPoly.constant(2, Q, 9), grid)
    assert top_coefficient_identity_holds(MultiPoly.zero(2, Q), grid)
    with pytest.raises(PreconditionError):
        top_coefficient_identity_holds(parse_poly("x1^4*x2^2", 2, Q), grid)


def test_identity_random():
    rng = random.Random(23)
    for _ in range(50):
        spec = rand_spec(rng, rational_weight=0.25)
        n = rng.randint(1, 2)
        grid = rand_grid(rng, spec, n, max_size=4)
        budget = sum(grid.top_exponent)
        f = rand_poly(rng, spec, n, max_deg=budget) if budget else MultiPoly.constant(n, spec, 1)
        assert top_coefficient_identity_holds(f, grid)


def _table_sum(f, grid, weights):
    """The weighted sum of f's expansion coefficients read entry by entry
    from a {(point, exponent): weight} map, which need not factor over the
    coordinates."""
    spec = grid.spec
    expansions = ((tuple(map(spec.element, point)), terms) for point, terms in grid_expansions(f, grid))
    return sum((weights[point, u] * spec.element(c) for point, terms in expansions for u, c in terms.items()), spec.zero)


def test_contraction_matches_the_table_sum():
    """The identity contracts the weighted sum one coordinate at a time, and
    the witness search sums it over one walk with per-coordinate weight
    rows; the entry-by-entry sum over the materialized table is the
    reference.  All equal the bracket for every f, so degrees run past the
    identity's admissible total too.  Every monomial x1^e with e <= 2 * d on
    one-coordinate grids over F_2 and F_3 with multiplicities at least p,
    and over Q at fractional values, checks the contraction's row for the
    coordinate entry by entry."""
    rng = random.Random(53)
    cases = []
    for trial in range(40):
        spec = Q if trial % 4 == 0 else rand_spec(rng, primes=(2, 3, 7, 101, 10007))
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=5)
        if trial == 1:
            cases.append((grid, MultiPoly.zero(n, spec)))
        else:
            cases.append((grid, rand_poly(rng, spec, n, max_deg=rng.randint(0, 2 * sum(grid.sizes)))))
    for grid in (
        MultisetGrid.of(F2, [{0: 2, 1: 3}]),
        MultisetGrid.of(FieldSpec.prime(3), [{0: 3, 1: 4, 2: 1}]),
        MultisetGrid.of(Q, [{Fraction(1, 2): 2, Fraction(-2, 3): 3, 5: 1}]),
    ):
        cases += [(grid, MultiPoly.monomial(1, grid.spec, (e,))) for e in range(2 * grid.sizes[0] + 1)]
    for grid, f in cases:
        spec = grid.spec
        expected = _contracted_sum(f, grid)
        assert _weighted_sum(f, grid)[0] == expected, (grid, f)
        assert spec.element(expected) == _table_sum(f, grid, weight_table(grid).weights), (grid, f)
        assert spec.element(expected) == divided_difference(f, grid)


def test_contraction_builds_taylor_columns_once_per_support_value(monkeypatch):
    """_contracted_sum builds one set of Taylor columns per support value
    of each coordinate, in order, and never groups or shifts f's terms."""
    from nullgrid import ideals, polynomials

    calls = []
    inner = divdiff._taylor_columns

    def counting(spec, point, top, box):
        calls.append(point)
        return inner(spec, point, top, box)

    def refused(*args):
        raise AssertionError("the contraction groups or shifts f")

    monkeypatch.setattr(divdiff, "_taylor_columns", counting)
    for module in (divdiff, ideals, polynomials):
        for name in ("_rows", "_shift_raw"):
            monkeypatch.setattr(module, name, refused, raising=False)
    rng = random.Random(79)
    for trial in range(40):
        spec = Q if trial % 4 == 0 else rand_spec(rng, primes=(2, 3, 7, 101))
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=5)
        f = rand_poly(rng, spec, n, max_deg=rng.randint(0, 2 * sum(grid.sizes)))
        calls.clear()
        _contracted_sum(f, grid)
        assert calls == [s for ms in grid.sets for s in ms._raw]


def test_single_entry_perturbation_is_detected():
    rng = random.Random(29)
    for _ in range(25):
        spec = rand_spec(rng, rational_weight=0.3)
        n = rng.randint(1, 2)
        grid = rand_grid(rng, spec, n, max_size=3)
        table = weight_table(grid)
        key = rng.choice(sorted(table.weights, key=lambda k: (tuple(e.sort_key() for e in k[0]), k[1])))
        point, u = key
        delta = spec.one if spec.is_prime_field else spec.element(Fraction(1, 3))
        broken = {**table.weights, key: table.weights[key] + delta}
        probe = dual_basis_poly(grid, point, u)
        deg = probe.total_degree()
        assert deg is not None and deg <= sum(grid.top_exponent)
        top = probe.coefficient(grid.top_exponent)
        assert top == _table_sum(probe, grid, table.weights)
        assert top != _table_sum(probe, grid, broken)


def test_weight_table_degenerates_to_expansion_extraction():
    # singleton coordinates: the only weight is 1 at the top exponent, so the
    # bracket is a pure expansion coefficient
    grid = MultisetGrid.of(F5, [{2: 3}, {4: 2}])
    table = weight_table(grid)
    point = (F5.element(2), F5.element(4))
    for u in itertools.product(range(3), range(2)):
        expected = 1 if u == (2, 1) else 0
        assert table.weight(point, u).value == expected


def _count_field_elements(monkeypatch):
    """A list whose length is the number of FieldElements constructed from
    now on, counted by a wrapper around FieldElement.__init__."""
    made = []
    init = FieldElement.__init__

    def counting_init(self, value, spec):
        made.append(value)
        init(self, value, spec)

    monkeypatch.setattr(FieldElement, "__init__", counting_init)
    return made


def test_weight_table_builds_no_field_element(monkeypatch):
    grids = [
        MultisetGrid.of(F10007, [{1: 2, 5: 1, 9: 3}, {2: 1, 4: 2}]),
        MultisetGrid.of(Q, [{0: 2, Fraction(1, 2): 1}, {3: 1, -1: 2}, {7: 2}]),
        MultisetGrid.of(F2, [{0: 3, 1: 2}]),
    ]
    made = _count_field_elements(monkeypatch)
    for grid in grids:
        table = weight_table(grid)
        assert made == []
        assert len(table.weights) == math.prod(grid.sizes)
        assert made == []
        # weight() wraps only its one result
        point = tuple(next(iter(ms._raw)) for ms in grid.sets)
        table.weight(point, (0,) * grid.arity)
        assert len(made) == 1
        made.clear()


def _old_style_weights(grid):
    """The table as a list of ((FieldElement point, exponent), FieldElement
    weight) pairs in grid.points() order, each box in lex order, multiplied
    out in FieldElement arithmetic from the one-coordinate weight rows."""
    spec = grid.spec
    rows = [divdiff._coordinate_weights(ms) for ms in grid.sets]
    out = []
    for point, mv in zip(grid.points(), grid.multiplicity_vectors()):
        for u in itertools.product(*(range(m) for m in mv)):
            w = spec.one
            for row, x, e in zip(rows, point, u):
                w = w * spec.element(row[x.value][e])
            out.append(((point, u), w))
    return out


@pytest.mark.parametrize("spec", [F2, FieldSpec.prime(3), F10007, Q], ids=str)
def test_weight_view_keeps_keys_types_values_and_order(spec):
    """weights reads as the dict of FieldElement points and weights it was
    before the table became raw: the same keys, in the same order, with
    canonical values of the grid's field; multiplicities reach p or more."""
    rng = random.Random(83)
    if spec.p is None:
        values, top_mult = [0, 1, -2, 5, Fraction(1, 3), Fraction(-7, 2)], 3
    elif spec.p < 5:
        values, top_mult = list(range(spec.p)), spec.p + 1
    else:
        values, top_mult = [0, 1, 5, 77, 10006], 3
    for _ in range(12):
        sets = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(values, rng.randint(1, min(3, len(values))))
            sets.append({v: rng.randint(1, top_mult) for v in support})
        grid = MultisetGrid.of(spec, sets)
        table = weight_table(grid)
        want = _old_style_weights(grid)
        got = list(table.weights.items())
        assert got == want, grid
        assert list(table.weights) == [key for key, _ in want]
        assert table.sorted_items() == want
        assert len(table.weights) == len(want)
        for (point, u), w in got:
            assert all(type(x) is FieldElement and x.spec is spec for x in point)
            assert type(u) is tuple and all(type(e) is int for e in u)
            assert type(w) is FieldElement and w.spec is spec
            assert spec._reduce(w.value) == w.value and type(w.value) is type(spec._reduce(w.value))
            assert table.weights[point, u] == w == table.weight(point, u)
            assert (point, u) in table.weights and ((point, u), w) in table.weights.items()


@pytest.mark.parametrize("spec", [F2, FieldSpec.prime(3), F10007, Q], ids=str)
def test_weight_view_values_wrap_the_raw_weights(spec, monkeypatch):
    """values() gives the weights items() gives, in order, and coerces no key
    point: Mapping's own values() looked every key up again."""
    rng = random.Random(89)
    values = [0, 1, -2, Fraction(1, 3)] if spec.p is None else list(range(min(spec.p, 4)))
    top_mult = spec.p + 1 if spec.p and spec.p < 5 else 3

    def refuse(self, value):
        raise AssertionError("a key point was coerced")

    for _ in range(8):
        sets = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(values, rng.randint(1, min(3, len(values))))
            sets.append({v: rng.randint(1, top_mult) for v in support})
        weights = weight_table(MultisetGrid.of(spec, sets)).weights
        want = [w for _, w in weights.items()]
        with monkeypatch.context() as patched:
            patched.setattr(FieldSpec, "_raw_value", refuse)
            got = list(weights.values())
        assert got == want and len(weights.values()) == len(want)
        assert all(type(w) is FieldElement and w.spec is spec for w in got)


def test_weight_view_reads_int_str_and_element_points():
    grid = MultisetGrid.of(F7, [{1: 2, 3: 1}, {0: 1, 5: 2}])
    table = weight_table(grid)
    w = table.weights[(F7.element(1), F7.element(5)), (1, 1)]
    assert table.weights[(1, 5), (1, 1)] == table.weights[("1", "5"), [1, 1]] == table.weights[(8, -2), (1, 1)] == w
    assert w == table.weight((1, 5), (1, 1))
    for key in [((2, 5), (0, 0)), ((1, 5), (2, 0)), ((1,), (0,)), ((1, 5, 0), (0, 0, 0)), ((1, "x"), (0, 0)),
                ((FieldSpec.prime(5).element(1), 5), (0, 0)), ((Fraction(1, 2), 5), (0, 0)), ((1, 5),), 7]:
        with pytest.raises(KeyError):
            table.weights[key]
        assert key not in table.weights
        assert table.weights.get(key) is None
    # weight() keeps the coercion errors of the field
    with pytest.raises(TypeError):
        table.weight((Fraction(1, 2), 5), (0, 0))
    with pytest.raises(KeyError):
        table.weight((2, 5), (0, 0))


def test_weight_view_unpacks_and_tables_of_one_grid_compare_equal():
    grid = MultisetGrid.of(Q, [{0: 2, 1: 1}, {5: 1, Fraction(1, 2): 2}])
    table = weight_table(grid)
    unpacked = {**table.weights}
    assert list(unpacked.items()) == list(table.weights.items())
    assert table.weights == unpacked and unpacked == table.weights
    assert dict(table.weights) == unpacked
    assert table == weight_table(grid) == weight_table(MultisetGrid.of(Q, [{1: 1, 0: 2}, {Fraction(1, 2): 2, 5: 1}]))
    assert table != weight_table(MultisetGrid.of(Q, [{0: 2, 1: 1}, {5: 2, Fraction(1, 2): 2}]))
    # one point, weight 1 at its top exponent, in two fields: the raw tables agree, the views do not
    assert weight_table(MultisetGrid.of(F7, [{0: 1}])).weights != weight_table(MultisetGrid.of(F5, [{0: 1}])).weights


def test_weight_table_at_scale_cpu_time():
    """{1..30}^3 with multiplicities 1 + (s mod 2) over F_10007: 91 125
    entries in a fraction of a second as one raw outer product; wrapping
    every entry in a FieldElement keyed by FieldElement points took about
    half a second."""
    grid = MultisetGrid.of(F10007, [{s: 1 + s % 2 for s in range(1, 31)}] * 3)
    start = time.process_time()
    table = weight_table(grid)
    assert time.process_time() - start < 1.0
    assert len(table.weights) == 91125


def test_top_weight_closed_form_messages():
    grid = MultisetGrid.of(F7, [{1: 2, 3: 1}, {0: 1, 5: 2}])
    assert top_weight_closed_form(grid, (8, "5")) == top_weight_closed_form(grid, (F7.element(1), F7.element(5)))
    with pytest.raises(ValueError, match=r"^2 is not in the grid's coordinate multiset$"):
        top_weight_closed_form(grid, (9, 5))
    with pytest.raises(ArityMismatchError, match=r"^point of length 1 for arity 2$"):
        top_weight_closed_form(grid, (1,))
    q_grid = MultisetGrid.of(Q, [{0: 1, Fraction(1, 3): 2}])
    assert top_weight_closed_form(q_grid, (Fraction(1, 3),)) == Q.element(3)
    assert top_weight_closed_form(q_grid, ("0",)) == Q.element(9)
    with pytest.raises(ValueError, match=r"^1/2 is not in the grid's coordinate multiset$"):
        top_weight_closed_form(q_grid, ("1/2",))
    # an off-grid value past the int/str digit limit is named as a FieldElement names it
    with pytest.raises(PreconditionError, match=r"^output-size: "):
        top_weight_closed_form(q_grid, (10 ** (sys.get_int_max_str_digits() + 1),))
