"""Generalized divided differences on multiset grids.

The bracket of a polynomial against a grid is the coefficient of the largest
standard monomial in its reduced form.  It can be computed two independent
ways: definitionally (reduce, then read the coefficient) or by a recursion
that splits one coordinate multiset at two distinct elements and divides by
their difference, bottoming out in expansion coefficients at single points.

A weight table holds field constants, depending only on the grid, that
express the bracket as a linear combination of pointwise expansion
coefficients.  The grid ideal is a tensor product of univariate ideals, so
the bracket is a tensor product of one-coordinate brackets and every weight
is a product of one-coordinate weights: the confluent divided-difference
coefficients of each coordinate multiset.  They are read off in residue
form, the partial-fraction expansion of 1 / g_i at each element s, as the
low coefficients of a product of truncated power series in x - s; the
recursion is not used, so the weight table and the recursive bracket stay
independent routes.  The weights attached to the maximal exponents are the
closed form prod (s - s')^(-m(s')), never zero, which is what powers the
witness search.

Both the recursion's single-point expansions and the weighted sum read
expansion coefficients from ideals.grid_expansions, so points that share a
prefix share its shifts.  The weighted sum is one loop, shared with the
divided-difference witness search, which takes the walk's first witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import Dict, Optional, Tuple

from .errors import PreconditionError
from .fields import FieldElement
from .ideals import MultisetGrid, _check_poly_grid, grid_expansions, reduce_poly
from .polynomials import MultiPoly

# deepest recursion divided_difference_recursive will enter: one level per
# dropped element, so at most the sum of (d_i - 1) over the coordinates with
# two or more distinct elements
_MAX_RECURSION_DEPTH = 256

# a grid state is one row per coordinate, each row a tuple of
# (canonical representative, multiplicity) pairs sorted by representative
_State = Tuple[Tuple[Tuple[object, int], ...], ...]


def _state_of(grid: MultisetGrid) -> _State:
    return tuple(
        tuple((e.value, m) for e, m in ms.entries.items()) for ms in grid.sets
    )


def _drop_one(row, value):
    out = []
    for v, m in row:
        if v == value:
            if m > 1:
                out.append((v, m - 1))
        else:
            out.append((v, m))
    return tuple(out)


def _pick_pivot(state: _State, rng=None):
    eligible = [i for i, row in enumerate(state) if len(row) >= 2]
    if rng is None:
        i = eligible[0]
        return i, state[i][0][0], state[i][1][0]
    i = rng.choice(eligible)
    a, b = rng.sample([v for v, _ in state[i]], 2)
    return i, a, b


def divided_difference(f: MultiPoly, grid: MultisetGrid) -> FieldElement:
    """Definitional bracket: the coefficient of the largest standard monomial
    in the remainder of f modulo the grid generators."""
    _check_poly_grid(f, grid)
    return reduce_poly(f, grid).remainder.coefficient(grid.top_exponent)


def divided_difference_recursive(f: MultiPoly, grid: MultisetGrid, rng=None) -> FieldElement:
    """Recursive bracket; agrees with divided_difference on every input.

    The canonical pivot (first coordinate with two distinct elements, its two
    smallest elements) makes traces reproducible; pass an rng to randomize the
    pivots instead, which must not change the value.  Sub-brackets are
    memoized, the two pivot elements are distinct so the division is always
    legal, and single-point states reduce to one expansion coefficient.  Every
    point is expanded once, by one grid_expansions walk, in the box of its
    multiplicities in the grid, which holds every exponent its sub-states ask
    for.  A grid whose recursion would go deeper than _MAX_RECURSION_DEPTH
    levels is refused before any work.
    """
    _check_poly_grid(f, grid)
    depth = sum(ms.size - 1 for ms in grid.sets if len(ms.support) >= 2)
    if depth > _MAX_RECURSION_DEPTH:
        raise PreconditionError(
            "budget",
            f"the recursive bracket would recurse {depth} levels deep, above the limit {_MAX_RECURSION_DEPTH}",
        )
    spec = f.spec
    shifts = {tuple(s.value for s in point): g for point, _, g in grid_expansions(f, grid)}
    memo: Dict[_State, object] = {}

    def go(state: _State):
        cached = memo.get(state)
        if cached is not None:
            return cached
        if all(len(row) == 1 for row in state):
            point = tuple(row[0][0] for row in state)
            u = tuple(row[0][1] - 1 for row in state)
            val = shifts[point].terms.get(u, 0)
        else:
            i, a, b = _pick_pivot(state, rng)
            left = state[:i] + (_drop_one(state[i], a),) + state[i + 1:]
            right = state[:i] + (_drop_one(state[i], b),) + state[i + 1:]
            val = spec._reduce((go(left) - go(right)) * spec._inv(b - a))
        memo[state] = val
        return val

    return FieldElement(go(_state_of(grid)), spec)


@dataclass
class WeightTable:
    """Grid-determined weights turning pointwise expansion coefficients into
    the bracket.  The domain is exactly the pairs (grid point, exponent below
    the point's multiplicity vector); there are prod(d_i) of them."""

    grid: MultisetGrid
    weights: Dict[Tuple[Tuple[FieldElement, ...], Tuple[int, ...]], FieldElement]

    def weight(self, point, exponent) -> FieldElement:
        """The weight of (point, exponent); point coordinates are coerced
        into the grid's field, like top_weight_closed_form's."""
        point = tuple(self.grid.spec.element(x) for x in point)
        return self.weights[(point, tuple(exponent))]

    def sorted_items(self):
        return sorted(
            self.weights.items(),
            key=lambda kv: (tuple(e.sort_key() for e in kv[0][0]), kv[0][1]),
        )


def _coordinate_weights(spec, row) -> dict:
    """Weights of the one-coordinate grid with the given row, as raw
    {(element, exponent): weight}, in residue form.  For each (s, m) in the
    row, with y = x - s, the truncated power series of the product over the
    other entries (t, M) of (y + s - t)^(-M) is multiplied out below y^m;
    with c = (s - t)^(-1), one factor is the sum over k of
    C(M + k - 1, k) * (-c)^k * c^M * y^k.  The weight of (s, e) is the
    coefficient of y^(m - 1 - e).  C(M + k - 1, k) is an integer reduced like
    any other coefficient, so no factorial is inverted and the weights are
    right over F_p for every multiplicity.  Missing keys have weight zero."""
    reduce = spec._reduce
    p = spec.p
    weights = {}
    for s, m in row:
        series = None  # the product so far; the first factor is taken as it is
        for t, big_m in row:
            if t == s:
                continue
            c = spec._inv(s - t)
            neg_c = reduce(-c)
            scale = pow(c, big_m, p) if p else c**big_m
            factor, neg_power = [], 1
            for k in range(m):
                factor.append(reduce(math.comb(big_m + k - 1, k) * neg_power * scale))
                neg_power = reduce(neg_power * neg_c)
            series = factor if series is None else [
                reduce(sum(map(mul, series[: k + 1], reversed(factor[: k + 1]))))
                for k in range(m)
            ]
        series = series or [1] + [0] * (m - 1)
        for e in range(m):
            w = series[m - 1 - e]
            if w:
                weights[(s, e)] = w
    return weights


def weight_table(grid: MultisetGrid) -> WeightTable:
    """The bracket is the tensor product of one-coordinate brackets, so the
    weight of (s, u) is the product over coordinates i of the weight of
    (s_i, u_i) in the table of the one-coordinate grid S_i, multiplied out
    and reduced once per entry."""
    spec = grid.spec
    reduce = spec._reduce
    tables = [_coordinate_weights(spec, row) for row in _state_of(grid)]
    weights = {}
    for point, mv in zip(grid.points(), grid.multiplicity_vectors()):
        for u in itertools.product(*(range(m) for m in mv)):
            w = 1
            for table, s, e in zip(tables, point, u):
                w *= table.get((s.value, e), 0)
            weights[(point, u)] = FieldElement(reduce(w), spec)
    return WeightTable(grid, weights)


def top_weight_closed_form(grid: MultisetGrid, point) -> FieldElement:
    """Closed form for the weight at a point's maximal exponent: the product
    over coordinates of (s_i - s')^(-mult(s')) over the other elements s' of
    the i-th multiset.  Never zero; cross-checked against weight_table."""
    point = tuple(grid.spec.element(x) for x in point)
    grid.multiplicity_vector(point)  # raises if the point is off the grid
    denom = grid.spec.one
    for si, ms in zip(point, grid.sets):
        for other, mult in ms.entries.items():
            if other != si:
                denom *= (si - other) ** mult
    return denom.inv()


def _weighted_sum(f: MultiPoly, grid: MultisetGrid, table: WeightTable):
    """One grid_expansions walk: the raw sum of weight times expansion
    coefficient over the grid, and the walk's first witness (point,
    exponent, coefficient) -- the smallest exponent of the first nonempty
    box -- or None.  Boxes hold only nonzero coefficients, so the table is
    read only where f has one."""
    acc = 0
    first = None
    weights = table.weights
    for point, _, shifted in grid_expansions(f, grid):
        if first is None and shifted.terms:
            u = min(shifted.terms)
            first = (point, u, shifted.coefficient(u))
        for u, c in shifted.terms.items():
            acc += weights[(point, u)].value * c  # reduced once below
    return f.spec._reduce(acc), first


def top_coefficient_identity_holds(
    f: MultiPoly, grid: MultisetGrid, table: Optional[WeightTable] = None
) -> bool:
    """For deg f at most the sum of (d_i - 1), the coefficient of the largest
    standard monomial must equal the weighted sum of f's expansion
    coefficients over the grid.  Exposed so tests can falsify broken tables."""
    _check_poly_grid(f, grid)
    t = grid.top_exponent
    deg = f.total_degree()
    if deg is not None and deg > sum(t):
        raise PreconditionError(
            "degree", f"deg f = {deg} exceeds the admissible total {sum(t)}"
        )
    if table is None:
        table = weight_table(grid)
    return f.terms.get(t, 0) == _weighted_sum(f, grid, table)[0]
