"""Multisets, multiset grids, and the ideal of functions vanishing on a grid
with prescribed multiplicities.

Each coordinate carries a finite nonempty multiset; the grid ideal is cut out
by one monic univariate generator per coordinate, the product of (x_i - s)
raised to the multiplicity of s.  A generator is built once per multiset as
a raw univariate coefficient list: each (x - s)^m is written down as its
binomial row, and the rows are multiplied up a product tree by the product
kernel of polynomials.  Reduction divides by that list directly; the
n-variate MultiPoly form exists only for callers that ask for it.  Reducing
a polynomial modulo the generators terminates, produces a unique remainder
with per-variable degrees below the multiset sizes, and decides ideal
membership; membership can be cross-checked pointwise through expansion
coefficients, and the remainder and cofactors never leave the subring
generated by the inputs' coefficients because the generators are monic.
Grid scans read those coefficients from grid_expansions, the walk of
polynomials._expansions that MultiPoly.shift runs at one point, so points
sharing a prefix share its shifts; it yields raw points and raw term maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import ArityMismatchError, FieldMismatchError, PreconditionError
from .fields import FieldElement, FieldSpec, _short_repr, _value_text, field_from_dict, field_to_dict
from .polynomials import _MAX_EXPONENT, MultiPoly, TermOrder, _divmod_raw, _expansions, _mul_raw


class Multiset:
    """A finite nonempty multiset of field elements with multiplicities >= 1.

    It holds one raw map {canonical value: multiplicity}, sorted by value,
    which every count, comparison, hash and kernel reads.  entries and
    support are FieldElement views of that map for callers that read
    elements; a multiset never changes, so each is built on its first read
    and kept."""

    __slots__ = ("spec", "_raw", "_entries", "_support", "_generator")

    def __init__(self, spec: FieldSpec, pairs: Iterable):
        raw: Dict[object, int] = {}
        for value, mult in pairs:
            v = spec._raw_value(value)
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise ValueError(f"multiplicity of {_value_text(v)} must be a positive integer, got {_short_repr(mult)}")
            if v in raw:
                raise ValueError(f"duplicate element {_value_text(v)} in multiset input")
            raw[v] = mult
        self._set(spec, raw)

    @classmethod
    def _from_raw(cls, spec: FieldSpec, raw: Dict) -> "Multiset":
        """The multiset of a raw {value: mult} map whose values are already
        canonical and whose multiplicities are positive ints."""
        ms = object.__new__(cls)
        ms._set(spec, raw)
        return ms

    def _set(self, spec: FieldSpec, raw: Dict):
        if not raw:
            raise ValueError("multiset must be nonempty")
        self.spec = spec
        self._raw = dict(sorted(raw.items()))
        self._entries = self._support = self._generator = None

    @property
    def entries(self) -> Dict[FieldElement, int]:
        """{element: multiplicity} in canonical order."""
        if self._entries is None:
            spec = self.spec
            self._entries = {FieldElement(v, spec): m for v, m in self._raw.items()}
        return self._entries

    @property
    def support(self) -> Tuple[FieldElement, ...]:
        """The distinct elements in canonical order."""
        if self._support is None:
            self._support = tuple(self.entries)
        return self._support

    @classmethod
    def of(cls, spec: FieldSpec, mapping: Dict) -> "Multiset":
        return cls(spec, mapping.items())

    @property
    def size(self) -> int:
        """Total size counted with multiplicity."""
        return sum(self._raw.values())

    def multiplicity(self, value) -> int:
        return self._raw.get(self.spec._raw_value(value), 0)

    def _generator_raw(self) -> list:
        """Raw coefficients of the monic product of (x - s)^mult over this
        multiset, lowest degree first, built on first use and kept: callers
        read the list and never change it.

        Each (x - s)^m is written down as its binomial row
        C(m, k) * (-s)^(m - k); C(m, k) is an integer reduced like any other
        coefficient, so the row is right over F_p even when m >= p.  The rows
        are multiplied pairwise up a product tree by _mul_raw."""
        if self._generator is not None:
            return self._generator
        reduce = self.spec._reduce
        rows = []
        for v, m in self._raw.items():
            neg = reduce(-v)
            row, binom, power = {}, 1, 1  # C(m, k) and (-s)^(m - k), k from m down
            for k in range(m, -1, -1):
                c = reduce(binom * power)
                if c:
                    row[(k,)] = c
                binom = binom * k // (m - k + 1)
                power = reduce(power * neg)
            rows.append(row)
        while len(rows) > 1:
            rows = [_mul_raw(self.spec, *rows[i:i + 2]) if i + 1 < len(rows) else rows[i]
                    for i in range(0, len(rows), 2)]
        self._generator = [rows[0].get((k,), 0) for k in range(self.size + 1)]
        return self._generator

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
        return self.spec == other.spec and self._raw == other._raw

    def __hash__(self):
        return hash((self.spec, tuple(self._raw.items())))  # an element hashes as its raw value

    def __str__(self):
        return "{" + ", ".join(f"{_value_text(v)}:{m}" for v, m in self._raw.items()) + "}"

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
        return itertools.product(*(tuple(ms._raw.values()) for ms in self.sets))

    def point_count(self) -> int:
        prod = 1
        for ms in self.sets:
            prod *= len(ms._raw)
        return prod

    def multiplicity_vector(self, point: Sequence) -> Tuple[int, ...]:
        if len(point) != self.arity:
            raise ArityMismatchError(f"point of length {len(point)} for arity {self.arity}")
        vec = []
        for ms, x in zip(self.sets, point):
            m = ms.multiplicity(x)
            if m == 0:
                raise ValueError(f"{_value_text(x)} is not in the grid's coordinate multiset")
            vec.append(m)
        return tuple(vec)

    def contains_point(self, point: Sequence) -> bool:
        return len(point) == self.arity and all(
            ms.multiplicity(x) > 0 for ms, x in zip(self.sets, point)
        )

    def generators(self) -> Tuple[MultiPoly, ...]:
        n = self.arity
        return tuple(ms.generator_poly(i, n) for i, ms in enumerate(self.sets))

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
    work = f.terms
    cof = []
    for i, ms in enumerate(grid.sets):
        h, work = _divmod_raw(spec, work, i, ms._generator_raw())
        cof.append(h)
    return ReductionResult(
        remainder=MultiPoly._from_raw(n, spec, work),
        cofactors=tuple(MultiPoly._from_raw(n, spec, h) for h in cof),
    )


def grid_expansions(f: MultiPoly, grid: MultisetGrid):
    """The walk of polynomials._expansions over the grid: (point, terms) for
    every grid point in points() order, the terms of f.shift(point, mv) at
    its multiplicity vector mv.  The walk is returned, not wrapped, so f and
    the grid are checked when this is called, not at the first next()."""
    _check_poly_grid(f, grid)
    return _expansions(f.spec, f.terms, [ms._raw for ms in grid.sets])


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
        return not any(terms for _, terms in grid_expansions(f, grid))
    raise ValueError(f"unknown membership method {method!r}")


def standard_monomials(grid: MultisetGrid):
    """Exponent vectors below the sizes in every coordinate; they form a basis
    of the quotient, so there are exactly prod(d_i) of them."""
    return set(itertools.product(*(range(d) for d in grid.sizes)))


def term_order_family(arity: int) -> List[TermOrder]:
    """All three order kinds crossed with variable permutations: every
    permutation when there are at most four variables, the first 24 in
    lexicographic order otherwise, drawn lazily so the rest are never built."""
    perms = list(itertools.islice(itertools.permutations(range(arity)), 24))
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
    if any(c.denominator != 1 for c in f.terms.values()):
        raise PreconditionError("integral-input", "polynomial has a non-integer coefficient")
    for ms in grid.sets:
        for v in ms._raw:
            if v.denominator != 1:
                raise PreconditionError("integral-input", f"grid element {_value_text(v)} is not an integer")
    res = reduce_poly(f, grid)
    polys = (res.remainder,) + res.cofactors
    return all(c.denominator == 1 for q in polys for c in q.terms.values())


# -- JSON wire format ---------------------------------------------------------

def multiset_to_list(ms: Multiset) -> list:
    return [{"value": _value_text(v), "mult": m} for v, m in ms._raw.items()]


def multiset_from_list(spec: FieldSpec, items: list) -> Multiset:
    """Read a multiset from its JSON list.  Its size is the degree of its
    generator, so it is capped like a parsed polynomial's degree."""
    if not isinstance(items, list):
        raise ValueError(f"multiset must be a list of {{'value': ..., 'mult': ...}} entries, got {_short_repr(items)}")
    pairs = []
    for item in items:
        if not isinstance(item, dict) or "value" not in item or "mult" not in item:
            raise ValueError(f"multiset entry must be {{'value': ..., 'mult': ...}}, got {_short_repr(item)}")
        pairs.append((str(item["value"]), item["mult"]))
    ms = Multiset(spec, pairs)
    if ms.size > _MAX_EXPONENT:
        raise ValueError(f"multiset size {_short_repr(ms.size)} exceeds the limit {_MAX_EXPONENT}")
    return ms


def grid_to_dict(grid: MultisetGrid) -> dict:
    return {
        "field": field_to_dict(grid.spec),
        "sets": [multiset_to_list(ms) for ms in grid.sets],
    }


def grid_from_dict(d: dict) -> MultisetGrid:
    if not isinstance(d, dict) or "field" not in d or "sets" not in d:
        raise ValueError("grid must be an object with 'field' and 'sets'")
    spec = field_from_dict(d["field"])
    sets = d["sets"]
    if not isinstance(sets, list):
        raise ValueError(f"grid 'sets' must be a list of multisets, got {_short_repr(sets)}")
    for i, items in enumerate(sets):
        if not isinstance(items, list):
            raise ValueError(f"grid sets[{i}] must be a list of {{'value': ..., 'mult': ...}} entries, got {_short_repr(items)}")
    return MultisetGrid([multiset_from_list(spec, items) for items in sets])
