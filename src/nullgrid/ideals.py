"""Multisets, multiset grids, and the ideal of functions vanishing on a grid
with prescribed multiplicities.

Each coordinate carries a finite nonempty multiset; the grid ideal is cut out
by one monic univariate generator per coordinate, the product of (x_i - s)
raised to the multiplicity of s.  A generator is built as a raw univariate
coefficient list, one linear factor at a time, and reduction divides by that
list directly; the n-variate MultiPoly form exists only for callers that ask
for it.  Reducing a polynomial modulo the generators terminates, produces a
unique remainder with per-variable degrees below the multiset sizes, and
decides ideal membership; membership can be cross-checked pointwise through
expansion coefficients, and the remainder and cofactors never leave the
subring generated by the inputs' coefficients because the generators are
monic.  Grid scans read those coefficients from grid_expansions, which walks
the grid one coordinate at a time so that points sharing a prefix share its
shifts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import ArityMismatchError, FieldMismatchError, PreconditionError
from .fields import FieldElement, FieldSpec
from .polynomials import MultiPoly, TermOrder, _divmod_raw, _shift_raw


class Multiset:
    """A finite nonempty multiset of field elements with multiplicities >= 1."""

    __slots__ = ("spec", "entries", "support")

    def __init__(self, spec: FieldSpec, pairs: Iterable):
        entries: Dict[FieldElement, int] = {}
        for value, mult in pairs:
            elem = spec.element(value)
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise ValueError(f"multiplicity of {elem} must be a positive integer, got {mult!r}")
            if elem in entries:
                raise ValueError(f"duplicate element {elem} in multiset input")
            entries[elem] = mult
        if not entries:
            raise ValueError("multiset must be nonempty")
        self.spec = spec
        self.support = tuple(sorted(entries, key=FieldElement.sort_key))
        self.entries = {e: entries[e] for e in self.support}

    @classmethod
    def of(cls, spec: FieldSpec, mapping: Dict) -> "Multiset":
        return cls(spec, mapping.items())

    @property
    def size(self) -> int:
        """Total size counted with multiplicity."""
        return sum(self.entries.values())

    def multiplicity(self, value) -> int:
        return self.entries.get(self.spec.element(value), 0)

    def items(self):
        return tuple(self.entries.items())

    def _generator_raw(self) -> list:
        """Raw coefficients of the monic product of (x - s)^mult over this
        multiset, lowest degree first; one linear factor is multiplied in at
        a time, O(size^2) field operations."""
        spec = self.spec
        g = [spec._one_raw]
        for elem, mult in self.entries.items():
            s = elem.value
            for _ in range(mult):
                # g * (x - s): the new coefficient at k is g[k-1] - s * g[k]
                g.append(g[-1])
                for k in range(len(g) - 2, 0, -1):
                    g[k] = spec._sub(g[k - 1], spec._mul(s, g[k]))
                g[0] = spec._neg(spec._mul(s, g[0]))
        return g

    def generator_poly(self, var: int, arity: int) -> MultiPoly:
        """The monic univariate product of (x_{var+1} - s)^mult over this
        multiset as an arity-variate polynomial: the raw coefficient list of
        _generator_raw, which reduction reads directly, wrapped once."""
        if not 0 <= var < arity:
            raise ArityMismatchError(f"variable index {var} out of range for arity {arity}")
        head, tail = (0,) * var, (0,) * (arity - var - 1)
        raw = {head + (e,) + tail: c for e, c in enumerate(self._generator_raw())}
        return MultiPoly._from_raw(arity, self.spec, raw)

    def __eq__(self, other):
        if not isinstance(other, Multiset):
            return NotImplemented
        return self.spec == other.spec and self.entries == other.entries

    def __hash__(self):
        return hash((self.spec, tuple(self.entries.items())))

    def __str__(self):
        return "{" + ", ".join(f"{e}:{m}" for e, m in self.entries.items()) + "}"

    def __repr__(self):
        return f"Multiset({self})"


class MultisetGrid:
    """A product of coordinate multisets over one shared field."""

    __slots__ = ("spec", "sets")

    def __init__(self, sets: Sequence[Multiset]):
        sets = tuple(sets)
        if not sets:
            raise ValueError("grid needs at least one coordinate multiset")
        spec = sets[0].spec
        for ms in sets[1:]:
            if ms.spec != spec:
                raise FieldMismatchError("grid multisets span different fields")
        self.spec = spec
        self.sets = sets

    @classmethod
    def of(cls, spec: FieldSpec, mappings: Sequence[Dict]) -> "MultisetGrid":
        return cls([Multiset.of(spec, m) for m in mappings])

    @property
    def arity(self) -> int:
        return len(self.sets)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(ms.size for ms in self.sets)

    @property
    def top_exponent(self) -> Tuple[int, ...]:
        """Componentwise sizes minus one: the largest standard monomial."""
        return tuple(d - 1 for d in self.sizes)

    def points(self):
        """All grid points, in lexicographic order of canonical representatives."""
        return itertools.product(*(ms.support for ms in self.sets))

    def multiplicity_vectors(self):
        """The multiplicity vector of every grid point, in points() order."""
        return itertools.product(*(tuple(ms.entries.values()) for ms in self.sets))

    def point_count(self) -> int:
        prod = 1
        for ms in self.sets:
            prod *= len(ms.support)
        return prod

    def multiplicity_vector(self, point: Sequence) -> Tuple[int, ...]:
        if len(point) != self.arity:
            raise ArityMismatchError(f"point of length {len(point)} for arity {self.arity}")
        vec = []
        for ms, x in zip(self.sets, point):
            m = ms.multiplicity(x)
            if m == 0:
                raise ValueError(f"{x} is not in the grid's coordinate multiset")
            vec.append(m)
        return tuple(vec)

    def contains_point(self, point: Sequence) -> bool:
        return len(point) == self.arity and all(
            ms.multiplicity(x) > 0 for ms, x in zip(self.sets, point)
        )

    def generators(self) -> Tuple[MultiPoly, ...]:
        n = self.arity
        return tuple(ms.generator_poly(i, n) for i, ms in enumerate(self.sets))

    def replace(self, index: int, ms: Multiset) -> "MultisetGrid":
        sets = list(self.sets)
        sets[index] = ms
        return MultisetGrid(sets)

    def __eq__(self, other):
        if not isinstance(other, MultisetGrid):
            return NotImplemented
        return self.sets == other.sets

    def __str__(self):
        return " x ".join(str(ms) for ms in self.sets)

    def __repr__(self):
        return f"MultisetGrid({self})"


@dataclass
class ReductionResult:
    """Remainder plus cofactors certifying f = remainder + sum h_i * g_i,
    with deg_i(remainder) < d_i and deg(h_i) <= deg(f) - d_i."""

    remainder: MultiPoly
    cofactors: Tuple[MultiPoly, ...]


def _check_poly_grid(f: MultiPoly, grid: MultisetGrid):
    if f.arity != grid.arity:
        raise ArityMismatchError(f"polynomial arity {f.arity} vs grid arity {grid.arity}")
    if f.spec != grid.spec:
        raise FieldMismatchError(f"polynomial over {f.spec}, grid over {grid.spec}")


def reduce_poly(f: MultiPoly, grid: MultisetGrid) -> ReductionResult:
    """Reduce f modulo the grid generators.

    Strategy: divide by g_1 in x_1, then the remainder by g_2 in x_2, and so
    on; the i-th quotient is the cofactor h_i.  The remainder is unique.  The
    cofactors are those of eliminating, one monomial at a time, each x^u
    through the smallest i with u_i >= d_i: that rewrite is linear, and once
    stages 1..i-1 are done no term has u_j >= d_j for any j < i, so stage i
    sends exactly those monomials to g_i.
    """
    _check_poly_grid(f, grid)
    spec = f.spec
    n = grid.arity
    work = {u: c.value for u, c in f.terms.items()}
    cof = []
    for i, ms in enumerate(grid.sets):
        h, work = _divmod_raw(spec, work, i, ms._generator_raw())
        cof.append(h)
    return ReductionResult(
        remainder=MultiPoly._from_raw(n, spec, work),
        cofactors=tuple(MultiPoly._from_raw(n, spec, h) for h in cof),
    )


def grid_expansions(f: MultiPoly, grid: MultisetGrid):
    """Yield (point, multiplicity vector, f.shift(point, mv)) for every grid
    point, lazily and in grid.points() order.  Each shifted polynomial holds
    only the nonzero expansion coefficients at its point, all strictly below
    mv, so readers iterate its terms instead of scanning the box.

    The box bound m_i(s_i) depends on s_i alone, so the grid is walked as a
    tree: x_{i+1} is shifted and cut once per prefix (s_1, ..., s_{i+1}), and
    every point below that prefix shares the result.  The shifts are the ones
    MultiPoly.shift runs, on the same inputs in the same order.  The walk is
    a loop, not a recursion, so the arity is not bounded by the interpreter's
    recursion limit."""
    _check_poly_grid(f, grid)
    spec, n = f.spec, grid.arity
    # shifted[i] is f shifted in x_1..x_i at the current point's prefix
    shifted = [{u: c.value for u, c in f.terms.items()}] + [None] * n
    prev = (None,) * n
    for cells in itertools.product(*(tuple(ms.entries.items()) for ms in grid.sets)):
        # product changes a suffix of the cells: reshift from its first new cell
        depth = 0
        while cells[depth] is prev[depth]:
            depth += 1
        for i in range(depth, n):
            elem, m = cells[i]
            shifted[i + 1] = _shift_raw(spec, shifted[i], i, elem.value, m)
        prev = cells
        point, mv = zip(*cells)
        yield point, mv, MultiPoly._from_raw(n, spec, shifted[n])


def in_local_ideal(f: MultiPoly, point: Sequence, box: Sequence[int]) -> bool:
    """Whether every expansion coefficient of f at the point with exponent
    strictly below box (componentwise) vanishes."""
    return f.shift(point, box).is_zero()


def in_grid_ideal(f: MultiPoly, grid: MultisetGrid, method: str = "remainder") -> bool:
    """Grid ideal membership, by zero remainder or by pointwise vanishing; the
    two must agree on every input."""
    _check_poly_grid(f, grid)
    if method == "remainder":
        return reduce_poly(f, grid).remainder.is_zero()
    if method == "pointwise":
        return all(g.is_zero() for _, _, g in grid_expansions(f, grid))
    raise ValueError(f"unknown membership method {method!r}")


def standard_monomials(grid: MultisetGrid):
    """Exponent vectors below the sizes in every coordinate; they form a basis
    of the quotient, so there are exactly prod(d_i) of them."""
    return set(itertools.product(*(range(d) for d in grid.sizes)))


def term_order_family(arity: int, rng=None, max_perms: int = 24) -> List[TermOrder]:
    """All three order kinds crossed with variable permutations: every
    permutation when there are at most four variables, a sample otherwise."""
    perms = list(itertools.permutations(range(arity)))
    if len(perms) > max_perms:
        if rng is None:
            perms = perms[:max_perms]
        else:
            perms = rng.sample(perms, max_perms)
    return [TermOrder(kind, perm) for kind in TermOrder.KINDS for perm in perms]


def universal_gb_check(f: MultiPoly, grid: MultisetGrid, orders: Iterable[TermOrder]) -> bool:
    """For a nonzero member of the grid ideal, check that under every supplied
    term order its leading monomial is divisible by some x_i^{d_i}."""
    _check_poly_grid(f, grid)
    if f.is_zero():
        raise PreconditionError("nonzero", "the zero polynomial has no leading monomial")
    if not in_grid_ideal(f, grid):
        raise PreconditionError("membership", "polynomial is not in the grid ideal")
    d = grid.sizes
    for order in orders:
        lm = f.leading_monomial(order)
        if not any(lm[i] >= d[i] for i in range(grid.arity)):
            return False
    return True


def coefficients_stay_integral(f: MultiPoly, grid: MultisetGrid) -> bool:
    """Over the rationals with integer inputs, reduction must not introduce
    denominators (the generators are monic).  True iff the remainder and all
    cofactors have integer coefficients."""
    _check_poly_grid(f, grid)
    if f.spec.is_prime_field:
        raise PreconditionError("field", "integrality is checked over the rationals")
    if any(c.value.denominator != 1 for c in f.terms.values()):
        raise PreconditionError("integral-input", "polynomial has a non-integer coefficient")
    for ms in grid.sets:
        for elem in ms.support:
            if elem.value.denominator != 1:
                raise PreconditionError("integral-input", f"grid element {elem} is not an integer")
    res = reduce_poly(f, grid)
    polys = (res.remainder,) + res.cofactors
    return all(c.value.denominator == 1 for q in polys for c in q.terms.values())


# -- JSON wire format ---------------------------------------------------------

def multiset_to_list(ms: Multiset) -> list:
    return [{"value": str(e), "mult": m} for e, m in ms.entries.items()]


def multiset_from_list(spec: FieldSpec, items: list) -> Multiset:
    if not isinstance(items, list):
        raise ValueError(f"multiset must be a list of {{'value': ..., 'mult': ...}} entries, got {items!r}")
    pairs = []
    for item in items:
        if not isinstance(item, dict) or "value" not in item or "mult" not in item:
            raise ValueError(f"multiset entry must be {{'value': ..., 'mult': ...}}, got {item!r}")
        pairs.append((str(item["value"]), item["mult"]))
    return Multiset(spec, pairs)


def grid_to_dict(grid: MultisetGrid) -> dict:
    from .fields import field_to_dict

    return {
        "field": field_to_dict(grid.spec),
        "sets": [multiset_to_list(ms) for ms in grid.sets],
    }


def grid_from_dict(d: dict) -> MultisetGrid:
    from .fields import field_from_dict

    if not isinstance(d, dict) or "field" not in d or "sets" not in d:
        raise ValueError("grid must be an object with 'field' and 'sets'")
    spec = field_from_dict(d["field"])
    sets = d["sets"]
    if not isinstance(sets, list):
        raise ValueError(f"grid 'sets' must be a list of multisets, got {sets!r}")
    for i, items in enumerate(sets):
        if not isinstance(items, list):
            raise ValueError(f"grid sets[{i}] must be a list of {{'value': ..., 'mult': ...}} entries, got {items!r}")
    return MultisetGrid([multiset_from_list(spec, items) for items in sets])
