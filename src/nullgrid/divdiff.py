"""Generalized divided differences on multiset grids.

The bracket of a polynomial against a grid is the coefficient of the largest
standard monomial in its reduced form.  It can be computed two independent
ways: definitionally, or by the two-point recursion, which divides by the
difference of two distinct elements of one coordinate and bottoms out in
expansion coefficients at single points, filled in bottom-up as one
confluent Newton table per coordinate.  The grid ideal is a tensor product
of univariate ideals, so the remainder of x^u is the product of the
remainders of x_i^(u_i) modulo g_i: the definitional bracket sums f's
coefficients against one-coordinate top coefficients, the power series
inverse of each reversed g_i (polynomials._inv_series), and never divides.

A weight table holds field constants, depending only on the grid, that
express the bracket as a linear combination of pointwise expansion
coefficients.  Every weight is a product of one-coordinate weights, the
confluent divided-difference coefficients of each coordinate multiset, and
the table is their outer product.  They are read off in residue form, the
partial-fraction expansion of 1 / g_i at each element s: the power series
in x - s of 1 / prod (x - s')^m(s') over the other elements s', truncated.
The factors of small multiplicity are multiplied into one polynomial, which
the same series inverse inverts once, and a factor of large multiplicity is
taken as the closed-form binomial series of its inverse.  Neither the Newton
tables nor the generator is used, so the three routes stay independent.  The
weights at the maximal exponents are the inverted heads prod (s - s')^m(s'),
never zero, which powers the witness search.  The table holds raw values.

The top-coefficient identity checks the bracket against the weighted sum of
expansion coefficients, contracted to one row per coordinate: entry e of
coordinate i's row is the weighted sum over S_i of the expansion
coefficients of x_i^e, read off each element's Taylor columns, and f's terms
are summed against products of row entries, so f itself is never shifted.
The divided-difference witness search sums it over one ideals.grid_expansions
walk instead, from the coordinate weights with no table, and takes the walk's
first witness.  The Newton tables' single-point expansions come from such a
walk too, so points that share a prefix share its shifts.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from itertools import chain, repeat
from math import prod
from operator import add, getitem, itemgetter, mul
from typing import Tuple

from .errors import PreconditionError
from .fields import FieldElement
from .ideals import MultisetGrid, _check_poly_grid, grid_expansions
from .polynomials import MultiPoly, _inv_series, _mul_raw, _taylor_columns

# most Newton-table entries divided_difference_recursive will fill: the sum
# over the coordinates i of (prod_{j<i} d_j) * T_i, where T_i is
# d_i(d_i + 1)/2 when S_i has two or more distinct elements and 1 otherwise
_MAX_NEWTON_ENTRIES = 1_000_000


def _bracket_row(ms, top: int) -> list:
    """h[e] for e <= top: the coefficient of x^(d - 1) in x^e mod g, for the
    generator g of the multiset, of degree d.  It is 0 below d - 1, and
    h[d - 1 + k] is the coefficient of y^k in the power series 1 / rev(g),
    where rev(g)(y) = y^d g(1/y) has constant term 1 because g is monic:
    x^d = -sum_j g_j x^j mod g is that series' recurrence."""
    gen = ms._generator_raw()
    d = len(gen) - 1
    return [0] * (d - 1) + _inv_series(ms.spec, gen[::-1], top - d + 2)


def divided_difference(f: MultiPoly, grid: MultisetGrid) -> FieldElement:
    """Definitional bracket: the coefficient of the largest standard monomial
    in the remainder of f modulo the grid generators.

    The generators are univariate, so the remainder of x^u is the product
    over i of x_i^(u_i) mod g_i, and the coefficient of x^t in it is the
    product of the one-coordinate coefficients _bracket_row reads off g_i.
    The bracket is then the sum over the terms c x^u of f of c times that
    product, reduced once: O(sum_i deg_i f * d_i + |f| * n) work, and no
    division.  The products are one chain of maps over f's exponent columns,
    one link per coordinate, so no term is visited by a Python loop."""
    _check_poly_grid(f, grid)
    products = f.terms.values()
    for ms, col in zip(grid.sets, zip(*f.terms)):
        products = map(mul, products, map(_bracket_row(ms, max(col)).__getitem__, col))
    return FieldElement(f.spec._reduce(sum(products)), f.spec)


def divided_difference_recursive(f: MultiPoly, grid: MultisetGrid) -> FieldElement:
    """Recursive bracket; agrees with divided_difference on every input.

    Coordinate i is written out as seq_i, its elements in entry order, each
    repeated by its multiplicity.  The two-point recursion on it is its
    Newton table: a non-constant index interval [lo, hi] holds
    (D[lo + 1, hi] - D[lo, hi - 1]) / (seq_i[hi] - seq_i[lo]), and a constant
    one, at an element s, the leaf at (s, hi - lo).  The last coordinate's
    leaves are the expansion coefficients of one grid_expansions walk, keyed
    by (point, exponent).  From the last coordinate to the first, the values
    are grouped by (point prefix, exponent prefix) and each group's table is
    filled by width, keeping one column and sharing each width's inverses;
    its top entry D[0, d_i - 1] is a leaf of the coordinate before.  A grid
    whose tables would exceed _MAX_NEWTON_ENTRIES entries is refused first.
    """
    _check_poly_grid(f, grid)
    entries, prefixes = 0, 1
    for ms in grid.sets:
        entries += prefixes * (ms.size * (ms.size + 1) // 2 if len(ms._raw) >= 2 else 1)
        prefixes *= ms.size
    if entries > _MAX_NEWTON_ENTRIES:
        raise PreconditionError(
            "budget",
            f"the recursive bracket would fill {entries} Newton-table entries, above the limit {_MAX_NEWTON_ENTRIES}",
        )
    spec = f.spec
    reduce, inv = spec._reduce, spec._inv
    values = {}  # (point, exponent) -> nonzero leaf, on the last coordinate first
    for point, terms in grid_expansions(f, grid):
        values.update(((point, u), c) for u, c in terms.items())
    for i in reversed(range(grid.arity)):
        seq = [s for s, m in grid.sets[i]._raw.items() for _ in range(m)]
        groups = {}  # (point prefix, exponent prefix) -> {(s, e): leaf}
        for (point, u), c in values.items():
            groups.setdefault((point[:i], u[:i]), {})[point[i], u[i]] = c
        if seq[0] == seq[-1]:  # one distinct element: its table is the top leaf
            cols = [[leaves.get((seq[0], len(seq) - 1), 0)] for leaves in groups.values()]
        else:
            cols = [[leaves.get((s, 0), 0) for s in seq] for leaves in groups.values()]
            for w in range(1, len(seq)):  # col[lo] = D[lo, lo + w - 1] becomes D[lo, lo + w]
                invs = [inv(b - a) if a != b else None for a, b in zip(seq, seq[w:])]
                cols = [
                    [leaves.get((s, w), 0) if c is None else reduce((b - a) * c)
                     for s, a, b, c in zip(seq, col, col[1:], invs)]
                    for col, leaves in zip(cols, groups.values())
                ]
        values = {key: col[0] for key, col in zip(groups, cols) if col[0]}
    return FieldElement(values.get(((), ()), 0), spec)


class _WeightView(Mapping):
    """weight_table's raw {(raw point, exponent): raw weight} dict, read as a
    mapping of FieldElements: key points are coerced by FieldSpec._raw_value."""

    def __init__(self, raw: dict, grid: MultisetGrid):
        self._raw, self._grid = raw, grid

    def __len__(self):
        return len(self._raw)

    def __getitem__(self, key):
        try:
            (point, u), spec = key, self._grid.spec
            return FieldElement(self._raw[tuple(map(spec._raw_value, point)), tuple(u)], spec)
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None

    def __iter__(self):  # the raw dict is in points() order, prod(mv) entries per point
        boxes = map(repeat, self._grid.points(), map(prod, self._grid.multiplicity_vectors()))
        return zip(chain.from_iterable(boxes), map(itemgetter(1), self._raw))

    def items(self):
        return _WeightItems(self)

    def values(self):
        return _WeightValues(self)

    def __eq__(self, other):
        if isinstance(other, _WeightView):
            return self._grid.spec is other._grid.spec and self._raw == other._raw
        return super().__eq__(other)


class _WeightItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.values())


class _WeightValues(ValuesView):  # the raw weights wrapped, no key looked up again
    def __iter__(self):
        return map(FieldElement, self._mapping._raw.values(), repeat(self._mapping._grid.spec))


@dataclass
class WeightTable:
    """Grid-determined weights turning pointwise expansion coefficients into
    the bracket.  The domain is exactly the pairs (grid point, exponent below
    the point's multiplicity vector); there are prod(d_i) of them, kept raw."""

    grid: MultisetGrid
    weights: Mapping[Tuple[Tuple[FieldElement, ...], Tuple[int, ...]], FieldElement]

    def weight(self, point, exponent) -> FieldElement:
        """The weight of (point, exponent); point coordinates are coerced
        into the grid's field, like top_weight_closed_form's."""
        spec = self.grid.spec
        return FieldElement(self.weights._raw[(tuple(map(spec._raw_value, point)), tuple(exponent))], spec)

    def sorted_items(self):
        """The entries as stored: in grid.points() order, boxes in lex order."""
        return list(self.weights.items())


def _coordinate_weights(ms) -> dict:
    """Weights of the one-coordinate grid of the multiset, as raw
    {element: [w_0, ..., w_(m-1)]} in entry order, zeros included, in residue
    form.  For each entry (s, m), with y = x - s, w_e is the coefficient of
    y^(m - 1 - e) in the power series of 1 / q_s, truncated below y^m, where
    q_s(y) is the product over the other entries (t, M) of (y + s - t)^M.

    A factor with M small against m, 8 * M <= m + 32, is multiplied into
    one truncated polynomial by M in-place passes of y + s - t, O(m) steps
    each, and that polynomial is inverted once (polynomials._inv_series).
    Any other factor is taken as the closed-form series of its inverse, the
    sum over k of C(M + k - 1, k) * c^M * (-c)^k * y^k with c = (s - t)^(-1),
    in O(m) steps and one inversion; the first such series is taken as it
    is, and each later one, and the inverted polynomial, are multiplied into
    it by polynomials._mul_raw, cut below y^m.  A row of two elements has one
    factor, whose closed form is the whole series, so it always takes that
    form.  C(M + k - 1, k) is carried from k - 1 to k as an exact integer
    and reduced like any other coefficient, so no factorial is inverted and
    the weights are right over F_p for every multiplicity."""
    spec = ms.spec
    reduce, inv, p = spec._reduce, spec._inv, spec.p
    row = list(ms._raw.items())
    weights = {}
    for s, m in row:
        poly, factors = [1], []  # the small factors' product; series to multiply
        for t, big_m in row:
            if t == s:
                continue
            diff = reduce(s - t)
            if len(row) > 2 and 8 * big_m <= m + 32:
                for _ in range(big_m):  # poly *= y + diff, cut below y^m
                    if len(poly) < m:
                        poly.append(0)
                    for k in range(len(poly) - 1, 0, -1):
                        poly[k] = reduce(diff * poly[k] + poly[k - 1])
                    poly[0] = reduce(diff * poly[0])
                continue
            c = inv(diff)
            neg_c = reduce(-c)
            factor, binom, power = [], 1, reduce(pow(c, big_m, p))
            for k in range(m):  # binom = C(M + k - 1, k), power = c^M * (-c)^k
                factor.append(reduce(binom * power))
                binom = binom * (big_m + k) // (k + 1)
                power = reduce(power * neg_c)
            factors.append(factor)
        if poly != [1] or not factors:
            factors.append(_inv_series(spec, poly, m))
        series = factors[0]
        for factor in factors[1:]:
            terms = _mul_raw(spec, *({(k,): c for k, c in enumerate(cs) if c} for cs in (series, factor)))
            series = [terms.get((k,), 0) for k in range(m)]
        weights[s] = series[::-1]
    return weights


def weight_table(grid: MultisetGrid) -> WeightTable:
    """The bracket is the tensor product of one-coordinate brackets, so the
    weight of (s, u) is the product over coordinates i of the weight of
    (s_i, u_i) in the table of the one-coordinate grid S_i.  The table is
    built as an outer product over raw points, one coordinate at a time:
    each point prefix keeps its box of (exponent prefix, unreduced weight)
    pairs, and extending it by an element s of S_i multiplies each weight by
    s's own; each is reduced once, at the last coordinate.  The raw entries
    come out in grid.points() order, each point's box in lexicographic order."""
    rows = [list(_coordinate_weights(ms).items()) for ms in grid.sets]
    groups = [((), [((), 1)])]  # (raw point prefix, [(exponent prefix, unreduced weight)])
    for row in rows[:-1]:
        groups = [(prefix + (s,), [(u + (e,), w * we) for u, w in box for e, we in enumerate(ws)])
                  for prefix, box in groups for s, ws in row]
    reduce = grid.spec._reduce
    raw = {(point, u + (e,)): reduce(w * we) for prefix, box in groups for s, ws in rows[-1]
           for point in [prefix + (s,)] for u, w in box for e, we in enumerate(ws)}
    return WeightTable(grid, _WeightView(raw, grid))


def top_weight_closed_form(grid: MultisetGrid, point) -> FieldElement:
    """Closed form for the weight at a point's maximal exponent: the product
    over coordinates of (s_i - s')^(-mult(s')) over the other elements s' of
    the i-th multiset, inverted once.  Never zero; cross-checked against
    weight_table."""
    spec = grid.spec
    point = tuple(map(spec._raw_value, point))
    grid.multiplicity_vector(point)  # raises if the point is off the grid
    denom = 1
    for si, ms in zip(point, grid.sets):
        for other, mult in ms._raw.items():
            if other != si:
                denom = spec._reduce(denom * pow(si - other, mult, spec.p))  # p is None over Q
    return FieldElement(spec._inv(denom), spec)


def _weighted_sum(f: MultiPoly, grid: MultisetGrid):
    """One grid_expansions walk: the raw sum of weight times expansion
    coefficient over the grid, and the walk's first witness as raw (point,
    exponent, coefficient) -- the smallest exponent of the first nonempty
    box -- or None.  A weight is the product of one entry of each point's
    coordinate weight rows, read only where f has a nonzero coefficient."""
    rows = [_coordinate_weights(ms) for ms in grid.sets]
    acc = 0
    first = None
    for point, terms in grid_expansions(f, grid):
        if first is None and terms:
            u = min(terms)
            first = (point, u, terms[u])
        ws = [row[s] for row, s in zip(rows, point)]
        for u, c in terms.items():
            acc += prod(map(getitem, ws, u), start=c)  # reduced once below
    return f.spec._reduce(acc), first


def _contracted_sum(f: MultiPoly, grid: MultisetGrid):
    """The raw weighted sum of f's expansion coefficients over the grid,
    contracted one coordinate at a time instead of read from a weight table.
    A weight and an expansion coefficient of x^u are both products over the
    coordinates, so the sum is the sum over the terms c x^u of f of c times
    the product over i of K_i[u_i], where K_i[e] is the weighted sum over
    S_i of the expansion coefficients of x_i^e: K_i[j + k] gathers
    w[j] * taylor_j[k] for each s in S_i, with its weights w and its Taylor
    columns up to x_i's largest exponent in f.  That takes one set of Taylor
    columns per support value and never shifts f.  K_i is reduced once, and
    the products are one chain of maps over f's exponent columns."""
    spec = f.spec
    products = f.terms.values()
    for ms, col in zip(grid.sets, zip(*f.terms)):
        top = max(col)
        row = [0] * (top + 1)
        for s, w in _coordinate_weights(ms).items():
            for j, (wj, taylor) in enumerate(zip(w, _taylor_columns(spec, s, top, len(w)))):
                row[j:] = map(add, row[j:], map(mul, repeat(wj), taylor))
        products = map(mul, products, map(list(map(spec._reduce, row)).__getitem__, col))
    return spec._reduce(sum(products))


def top_coefficient_identity_holds(f: MultiPoly, grid: MultisetGrid) -> bool:
    """For deg f at most the sum of (d_i - 1), the coefficient of the largest
    standard monomial must equal the weighted sum of f's expansion
    coefficients over the grid, summed over f's terms against one row per
    coordinate of weighted one-variable expansion coefficients
    (_contracted_sum)."""
    _check_poly_grid(f, grid)
    t = grid.top_exponent
    deg = f.total_degree()
    if deg is not None and deg > sum(t):
        raise PreconditionError(
            "degree", f"deg f = {deg} exceeds the admissible total {sum(t)}"
        )
    return f.terms.get(t, 0) == _contracted_sum(f, grid)
