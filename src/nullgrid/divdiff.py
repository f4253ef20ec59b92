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
coefficients of each coordinate multiset, found by expanding the recursion
symbolically on that multiset alone.  The weights attached to the maximal
exponents are never zero, which is what powers the witness search.

Both the recursion's single-point expansions and the weighted sum read
expansion coefficients from ideals.grid_expansions, so points that share a
prefix share its shifts.  The weighted sum is one loop, shared with the
divided-difference witness search, which takes the walk's first witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import PreconditionError
from .fields import FieldElement
from .ideals import MultisetGrid, _check_poly_grid, grid_expansions, reduce_poly
from .polynomials import MultiPoly

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
    for.
    """
    _check_poly_grid(f, grid)
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
            val = shifts[point].coefficient(u).value
        else:
            i, a, b = _pick_pivot(state, rng)
            left = state[:i] + (_drop_one(state[i], a),) + state[i + 1:]
            right = state[:i] + (_drop_one(state[i], b),) + state[i + 1:]
            val = spec._mul(
                spec._sub(go(left), go(right)), spec._inv(spec._sub(b, a))
            )
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
        return self.weights[(tuple(point), tuple(exponent))]

    def sorted_items(self):
        return sorted(
            self.weights.items(),
            key=lambda kv: (tuple(e.sort_key() for e in kv[0][0]), kv[0][1]),
        )


def _coordinate_weights(spec, row) -> dict:
    """Weights of the one-coordinate grid with the given row, as raw
    {(element, exponent): weight}: the two-point recursion expanded
    symbolically over sub-multisets of the row, splitting at its two smallest
    elements.  Missing keys have weight zero."""
    zero = spec._zero_raw
    memo: Dict[tuple, dict] = {}

    def go(row) -> dict:
        cached = memo.get(row)
        if cached is not None:
            return cached
        if len(row) == 1:
            (s, m), = row
            res = {(s, m - 1): spec._one_raw}
        else:
            a, b = row[0][0], row[1][0]
            inv = spec._inv(spec._sub(b, a))
            res = {k: spec._mul(v, inv) for k, v in go(_drop_one(row, a)).items()}
            for k, v in go(_drop_one(row, b)).items():
                t = spec._sub(res.get(k, zero), spec._mul(v, inv))
                if t:
                    res[k] = t
                else:
                    res.pop(k, None)
        memo[row] = res
        return res

    return go(row)


def weight_table(grid: MultisetGrid) -> WeightTable:
    """The bracket is the tensor product of one-coordinate brackets, so the
    weight of (s, u) is the product over coordinates i of the weight of
    (s_i, u_i) in the table of the one-coordinate grid S_i."""
    spec = grid.spec
    zero = spec._zero_raw
    tables = [_coordinate_weights(spec, row) for row in _state_of(grid)]
    weights = {}
    for point, mv in zip(grid.points(), grid.multiplicity_vectors()):
        for u in itertools.product(*(range(m) for m in mv)):
            w = spec._one_raw
            for table, s, e in zip(tables, point, u):
                w = spec._mul(w, table.get((s.value, e), zero))
            weights[(point, u)] = FieldElement(w, spec)
    return WeightTable(grid, weights)


def top_weight_closed_form(grid: MultisetGrid, point) -> FieldElement:
    """Closed form for the weight at a point's maximal exponent: the product
    over coordinates of (s_i - s')^(-mult(s')) over the other elements s' of
    the i-th multiset.  Never zero; cross-checked against weight_table."""
    point = tuple(grid.spec.element(x) for x in point)
    grid.multiplicity_vector(point)  # raises if the point is off the grid
    spec = grid.spec
    denom = spec._one_raw
    for i, ms in enumerate(grid.sets):
        si = point[i].value
        for other, mult in ms.entries.items():
            if other.value != si:
                denom = spec._mul(denom, spec._pow(spec._sub(si, other.value), mult))
    return FieldElement(spec._inv(denom), spec)


def _weighted_sum(f: MultiPoly, grid: MultisetGrid, table: WeightTable):
    """One grid_expansions walk: the raw sum of weight times expansion
    coefficient over the grid, and the walk's first witness (point,
    exponent, coefficient) -- the smallest exponent of the first nonempty
    box -- or None.  Boxes hold only nonzero coefficients, so the table is
    read only where f has one."""
    spec = f.spec
    acc = spec._zero_raw
    first = None
    for point, _, shifted in grid_expansions(f, grid):
        if first is None and shifted.terms:
            u = min(shifted.terms)
            first = (point, u, shifted.terms[u])
        for u, c in shifted.terms.items():
            acc = spec._add(acc, spec._mul(table.weight(point, u).value, c.value))
    return acc, first


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
    return f.coefficient(t).value == _weighted_sum(f, grid, table)[0]
