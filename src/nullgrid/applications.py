"""Executable checks for four multiplicity-aware combinatorial results:
hyperplane coverings of multiset grids, the Cauchy-Davenport sumset bound,
Sun's value-set bound for power-sum polynomials, and the Eliahou-Kervaire
bound through Hopf-Stiefel numbers.

These are verification tools: value sets and covers enumerate the full grid,
and the bound checkers surface both sides as data so exhaustive suites can
assert the inequalities rather than trust them.  The per-coordinate work of
a scan is done once per support value, and each point costs one C-level sum
over a product of per-coordinate tables: a value set tabulates its terms in
one variable and evaluates only its terms in two or more at every point,
with MultiPoly.evaluate's loop; a cover counts its hits per zero-set class
of planes, and an axis-parallel class is one entry of one coordinate's
table.

Sumsets, value sets, covers and the enumerators work on raw canonical
values, as the kernels do: they read a Multiset's raw map and build their
multisets and hyperplanes from raw values, so a FieldElement is made only
where a caller reads entries, support or coeffs.  A cover report's points
are tuples of the grid's support views.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from operator import add
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import ArityMismatchError, FieldMismatchError, PreconditionError
from .fields import FieldElement, FieldSpec, _short_repr, _value_text
from .ideals import Multiset, MultisetGrid, _check_poly_grid
from .polynomials import _MAX_EXPONENT, MultiPoly, _degrees, _evaluate_raw, _powers


@dataclass(frozen=True)
class BoundCheck:
    """Both sides of a proved inequality; holds must be true on every valid
    instance, so a False is either a bad instance or a bug worth surfacing.
    measured is the sumset whose size is lhs, where the check builds one; it
    takes no part in comparisons."""

    lhs: int
    rhs: int
    measured: object = field(default=None, compare=False)

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs


# -- hyperplane coverings -------------------------------------------------------


class Hyperplane:
    """An affine hyperplane c0 + c1*x1 + ... + cn*xn = 0 with (c1..cn) != 0.

    It keeps its raw coefficients and its direction key, both computed once
    when it is built; coeffs is their FieldElement view, built on its first
    read and kept."""

    __slots__ = ("spec", "_raw", "_key", "_coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Sequence):
        raw = tuple(map(spec._raw_value, coeffs))
        if len(raw) < 2:
            raise ValueError("hyperplane needs a constant term and at least one variable")
        if not any(raw[1:]):
            raise ValueError("hyperplane normal vector is zero")
        inv = spec._inv(next(c for c in raw[1:] if c))
        self.spec, self._raw, self._coeffs = spec, raw, None
        self._key = tuple(spec._reduce(c * inv) for c in raw)

    @classmethod
    def _from_raw(cls, spec: FieldSpec, raw: tuple) -> "Hyperplane":
        """The plane of canonical raw coefficients whose first nonzero
        normal entry is 1, so that they are their own direction key."""
        h = object.__new__(cls)
        h.spec, h._raw, h._key, h._coeffs = spec, raw, raw, None
        return h

    @property
    def coeffs(self) -> Tuple[FieldElement, ...]:
        """(c0, c1, ..., cn) as field elements."""
        if self._coeffs is None:
            self._coeffs = tuple(FieldElement(c, self.spec) for c in self._raw)
        return self._coeffs

    @property
    def arity(self) -> int:
        return len(self._raw) - 1

    def as_poly(self) -> MultiPoly:
        n = self.arity
        terms = {(0,) * n: self._raw[0]}
        for i, c in enumerate(self._raw[1:]):
            terms[tuple(1 if j == i else 0 for j in range(n))] = c
        return MultiPoly._from_raw(n, self.spec, terms)

    def direction_key(self):
        """Coefficients normalized by the first nonzero normal entry; two
        hyperplanes with equal keys are proportional (same zero set)."""
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Hyperplane):
            return NotImplemented
        return self.spec == other.spec and self._raw == other._raw

    def __hash__(self):
        return hash((self.spec, self._raw))  # an element hashes as its raw value

    def __str__(self):
        return str(self.as_poly())

    def __repr__(self):
        return f"Hyperplane({self})"


@dataclass
class CoverReport:
    """Outcome of checking a hyperplane list against a grid: the per-point
    required and achieved covering counts, whether the origin was hit, the
    size bound sum(d_i) - n, and a verdict."""

    verdict: str  # "valid_cover" | "origin_violated" | "undercovered"
    k: int
    bound: int
    origin_covered: bool
    per_point: Dict[Tuple[FieldElement, ...], Tuple[int, int]]
    undercovered_points: List[Tuple[FieldElement, ...]] = field(default_factory=list)
    proportional_pairs: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def meets_bound(self) -> bool:
        return self.k >= self.bound


def _check_cover_hypothesis(grid: MultisetGrid):
    for i, ms in enumerate(grid.sets):
        if ms._raw.get(0) != 1:
            raise PreconditionError(
                "origin",
                f"coordinate {i + 1} must contain 0 with multiplicity exactly 1",
            )


def verify_cover(hyperplanes: Sequence[Hyperplane], grid: MultisetGrid) -> CoverReport:
    """Count, for every nonzero grid point, the hyperplanes vanishing there;
    each point s needs at least |m(s)| - n + 1 hits and the origin none.

    Hits are counted per zero-set class, not per plane: planes with equal
    direction keys share a zero set.  A class whose normalized normal is
    the unit vector e_i (an axis-parallel class, as every plane of
    extremal_cover) vanishes exactly where s_i equals minus its constant,
    so its count goes into coordinate i's table at that value, and the
    axis-parallel hits of a point are one sum of a table entry per
    coordinate.  The other classes are grouped by normal (c1..cn): such a
    class vanishes at s exactly when c1*s1 + ... + cn*sn equals minus its
    constant, so each normal costs one reduced sum per point and one lookup
    in its {-constant: planes} count.  Every per-point count is a C-level
    map over a product of per-coordinate rows, in grid.points() order."""
    _check_cover_hypothesis(grid)
    n = grid.arity
    for h in hyperplanes:
        if h.arity != n:
            raise ArityMismatchError(f"hyperplane arity {h.arity} vs grid arity {n}")
        if h.spec != grid.spec:
            raise FieldMismatchError("hyperplane and grid fields differ")
    spec = grid.spec
    reduce = spec._reduce
    groups: Dict[tuple, List[int]] = {}
    for i, h in enumerate(hyperplanes):
        groups.setdefault(h._key, []).append(i)
    # tables[i][s]: the planes of the axis-parallel classes x_i = s
    tables = [dict.fromkeys(ms._raw, 0) for ms in grid.sets]
    oblique: Dict[tuple, Dict[object, int]] = {}
    for key, members in groups.items():
        normal, s = key[1:], reduce(-key[0])
        if normal.count(0) == n - 1:  # the planes x_i = s
            table = tables[normal.index(1)]
            if s in table:
                table[s] += len(members)
        else:
            oblique.setdefault(normal, {})[s] = len(members)
    supports = [list(ms._raw) for ms in grid.sets]
    streams = [map(sum, itertools.product(*(t.values() for t in tables)))] + [
        map(hits.get, map(reduce, map(sum, itertools.product(
            *([c * s for s in supp] for c, supp in zip(normal, supports))
        ))), itertools.repeat(0))
        for normal, hits in oblique.items()
    ]
    achieved = streams[0] if len(streams) == 1 else map(sum, zip(*streams))
    required = map(sum, grid.multiplicity_vectors(), itertools.repeat(1 - n))
    per_point = dict(zip(grid.points(), zip(required, achieved)))
    origin = tuple(ms.support[supp.index(0)] for ms, supp in zip(grid.sets, supports))
    del per_point[origin]
    undercovered = [point for point, (r, a) in per_point.items() if a < r]
    origin_covered = any(not key[0] for key in groups)
    if origin_covered:
        verdict = "origin_violated"
    elif undercovered:
        verdict = "undercovered"
    else:
        verdict = "valid_cover"
    proportional = sorted(
        pair for members in groups.values() for pair in itertools.combinations(members, 2)
    )
    return CoverReport(
        verdict=verdict,
        k=len(hyperplanes),
        bound=sum(grid.sizes) - n,
        origin_covered=origin_covered,
        per_point=per_point,
        undercovered_points=undercovered,
        proportional_pairs=proportional,
    )


def extremal_cover(grid: MultisetGrid) -> List[Hyperplane]:
    """The canonical cover meeting the bound with equality: for every nonzero
    element s of the i-th multiset, the hyperplane x_i = s repeated mult(s)
    times.  Always passes verify_cover with exactly sum(d_i) - n planes."""
    _check_cover_hypothesis(grid)
    spec = grid.spec
    n = grid.arity
    planes = []
    for i, ms in enumerate(grid.sets):
        normal = (0,) * i + (1,) + (0,) * (n - i - 1)
        for s, mult in ms._raw.items():
            if s:
                planes.extend([Hyperplane._from_raw(spec, (spec._reduce(-s),) + normal)] * mult)
    return planes


# -- sumsets and Cauchy-Davenport -------------------------------------------------


def _max_sum(a: dict, b: dict, add) -> dict:
    """The multiset sum of two {element: mult} maps: support is every
    add(x, y), and each sum carries the largest mult(x) + mult(y) - 1 over
    its representations."""
    best = {}
    for x, mx in a.items():
        for y, my in b.items():
            s = add(x, y)
            m = mx + my - 1
            if best.get(s, 0) < m:
                best[s] = m
    return best


def sumset(a: Multiset, b: Multiset) -> Multiset:
    """Multiset sum over (F_p, +)."""
    if a.spec != b.spec:
        raise FieldMismatchError("sumset operands over different fields")
    if not a.spec.is_prime_field:
        raise PreconditionError("field", "sumsets are taken in a prime field group")
    reduce = a.spec._reduce
    return Multiset._from_raw(a.spec, _max_sum(a._raw, b._raw, lambda x, y: reduce(x + y)))


def multiset_deg(ms: Multiset) -> int:
    """Total multiplicity excess: sum of (mult - 1) over the support."""
    return sum(m - 1 for m in ms._raw.values())


def cauchy_davenport_check(a: Multiset, b: Multiset) -> BoundCheck:
    """Sizes must satisfy d(A+B) >= min(p, d(A) + d(B) - 1)."""
    s = sumset(a, b)
    p = a.spec.p
    return BoundCheck(lhs=s.size, rhs=min(p, a.size + b.size - 1), measured=s)


# -- value sets --------------------------------------------------------------------


def value_set(f: MultiPoly, grid: MultisetGrid) -> Multiset:
    """The image of the grid under f, as a multiset: each value c gets the
    largest sum(m_i(s_i)) - n + 1 over grid points s with f(s) = c.

    Cost is the full product of the supports; these checkers enumerate, they
    do not solve.  The terms in at most one variable (the constant counts
    as x_1's) are tabulated per coordinate: table i holds, at every value of
    S_i, the reduced sum of x_i's terms there, each power taken by pow
    (modulo p over F_p).  A point's value is then one C-level sum of a
    table entry per coordinate.  Only terms in two or more variables are
    evaluated at every point, by MultiPoly.evaluate's loop from power rows
    as long as their own degrees.  The points stream: one value and one
    multiplicity sum at a time, besides the result.
    """
    _check_poly_grid(f, grid)
    spec = grid.spec
    reduce = spec._reduce
    n = grid.arity
    # terms[i]: the (exponent, coefficient) pairs of the terms in x_i alone
    terms = [[] for _ in range(n)]
    mixed = {}
    for u, c in f.terms.items():
        if u.count(0) < n - 1:
            mixed[u] = c
        else:
            e = sum(u)
            terms[u.index(e)].append((e, c))  # index 0 for the constant
    tables = [
        [reduce(sum([c * pow(s, e, spec.p) for e, c in pairs])) for s in ms._raw]
        for ms, pairs in zip(grid.sets, terms)
    ]
    values = map(sum, itertools.product(*tables))
    if mixed:
        row_sets = [
            [_powers(spec, s, top) for s in ms._raw]
            for ms, top in zip(grid.sets, _degrees(mixed, n))
        ]
        mixed_values = map(_evaluate_raw, itertools.repeat(mixed), itertools.product(*row_sets))
        values = map(add, values, mixed_values)
    best: Dict[object, int] = {}
    mults = map(sum, grid.multiplicity_vectors(), itertools.repeat(1 - n))
    for value, m in zip(map(reduce, values), mults):
        if best.get(value, 0) < m:
            best[value] = m
    return Multiset._from_raw(spec, best)


def sun_value_set_check(
    coeffs: Sequence, k: int, g: MultiPoly, grid: MultisetGrid
) -> BoundCheck:
    """For f = a_1*x1^k + ... + a_n*xn^k + g with nonzero a_i and deg g < k,
    the value-set size is at least min(char, sum(floor((d_i - 1)/k)) + 1),
    with characteristic 0 meaning no cap.  The value set tabulates k powers
    of every support value, so k is capped like a parsed exponent."""
    if not 1 <= k <= _MAX_EXPONENT:
        raise PreconditionError("exponent", f"k must be an integer from 1 to {_MAX_EXPONENT}, got {k}")
    n = grid.arity
    spec = grid.spec
    a = [spec._raw_value(c) for c in coeffs]
    if len(a) != n:
        raise ArityMismatchError(f"{len(a)} coefficients for arity {n}")
    if not all(a):
        raise PreconditionError("coefficients", "power-sum coefficients must be nonzero")
    gdeg = g.total_degree()
    if gdeg is not None and gdeg >= k:
        raise PreconditionError("perturbation-degree", f"deg g = {gdeg} must be below k = {k}")
    _check_poly_grid(g, grid)
    terms = dict(g.terms)  # deg g < k, so no term of g sits at an x_i^k
    for i, c in enumerate(a):
        terms[(0,) * i + (k,) + (0,) * (n - i - 1)] = c
    lhs = value_set(MultiPoly._from_raw(n, spec, terms), grid).size
    total = sum((d - 1) // k for d in grid.sizes) + 1
    char = spec.characteristic
    rhs = min(char, total) if char else total
    return BoundCheck(lhs=lhs, rhs=rhs)


# -- Hopf-Stiefel numbers and Eliahou-Kervaire ---------------------------------------


def hopf_stiefel(p: int, r: int, s: int) -> int:
    """The smallest n >= 1 such that p divides C(n, k) for every integer k
    with n - r < k < s (an empty range counts).  Always at most r + s - 1.

    Computed by the closed form min over k >= 0 of
    (ceil(r / p^k) + ceil(s / p^k) - 1) * p^k; the term for the first
    p^k >= max(r, s) is p^k itself and no larger k does better, so the loop
    takes O(log max(r, s)) steps.  It carries the ceilings negated, since
    divmod(-c, p) gives -ceil(c / p) and (-c) mod p at once, and
    ceil(r / p^(k+1)) = ceil(ceil(r / p^k) / p); the term grows by
    p^k * ((-a) mod p + (-b) mod p + 1 - p) from the ceilings a, b of one
    step to the next.  So each step divides by p and multiplies p^k by small
    numbers only, never dividing r and s by the large p^k or multiplying two
    large numbers."""
    if r < 1 or s < 1:
        raise ValueError("arguments must be positive")
    FieldSpec.prime(p)  # validates primality; the closed form needs a prime
    best = term = r + s - 1
    q, a, b = 1, -r, -s  # -ceil(r / q), -ceil(s / q)
    while a < -1 or b < -1:  # q < max(r, s)
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        term += q * (da + db + 1 - p)
        q *= p
        best = min(best, term)
    return best


class VectorMultiset:
    """A multiset of coordinate vectors over F_p^dim with componentwise
    addition; stands in for multisets of a finite vector space.  Coordinates
    are values that FieldSpec._raw_value reads."""

    __slots__ = ("p", "dim", "entries")

    def __init__(self, p: int, dim: int, pairs: Iterable):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        spec = FieldSpec.prime(p)  # validates primality
        entries: Dict[Tuple[int, ...], int] = {}
        for vec, mult in pairs:
            vec = tuple(map(spec._raw_value, vec))
            if len(vec) != dim:
                raise ArityMismatchError(f"vector {vec} has dimension != {dim}")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise ValueError(f"multiplicity of {vec} must be a positive integer")
            if vec in entries:
                raise ValueError(f"duplicate vector {vec} in multiset input")
            entries[vec] = mult
        if not entries:
            raise ValueError("vector multiset must be nonempty")
        self.p = p
        self.dim = dim
        self.entries = {v: entries[v] for v in sorted(entries)}

    @property
    def size(self) -> int:
        return sum(self.entries.values())

    def __eq__(self, other):
        if not isinstance(other, VectorMultiset):
            return NotImplemented
        return (self.p, self.dim, self.entries) == (other.p, other.dim, other.entries)

    def __str__(self):
        return "{" + ", ".join(f"{list(v)}:{m}" for v, m in self.entries.items()) + "}"

    def __repr__(self):
        return f"VectorMultiset(p={self.p}, dim={self.dim}, {self})"


def vector_sumset(a: VectorMultiset, b: VectorMultiset) -> VectorMultiset:
    """Multiset sum over (F_p^dim, +), added componentwise mod p."""
    if (a.p, a.dim) != (b.p, b.dim):
        raise FieldMismatchError("vector multisets live in different spaces")
    p = a.p

    def add(x, y):
        return tuple((u + v) % p for u, v in zip(x, y))

    return VectorMultiset(p, a.dim, _max_sum(a.entries, b.entries, add).items())


def eliahou_kervaire_check(a: VectorMultiset, b: VectorMultiset) -> BoundCheck:
    """Sizes must satisfy d(A+B) >= beta_p(d(A), d(B))."""
    s = vector_sumset(a, b)
    return BoundCheck(lhs=s.size, rhs=hopf_stiefel(a.p, a.size, b.size), measured=s)


# -- enumeration helpers (exhaustive verification drivers) ----------------------------


def iter_multisets(spec: FieldSpec, max_size: int) -> Iterable[Multiset]:
    """Every multiset with support in F_p and total size between 1 and
    max_size, in a deterministic order.  Prime fields only."""
    if not spec.is_prime_field:
        raise PreconditionError("field", "enumeration needs a finite ground set")
    for size in range(1, max_size + 1):
        for combo in itertools.combinations_with_replacement(range(spec.p), size):
            yield Multiset._from_raw(spec, Counter(combo))


def iter_vector_multisets(p: int, dim: int, max_size: int) -> Iterable[VectorMultiset]:
    vectors = list(itertools.product(range(p), repeat=dim))
    for size in range(1, max_size + 1):
        for combo in itertools.combinations_with_replacement(vectors, size):
            yield VectorMultiset(p, dim, Counter(combo).items())


# -- JSON wire formats -----------------------------------------------------------------


def hyperplanes_from_lists(spec: FieldSpec, rows: list) -> List[Hyperplane]:
    if not isinstance(rows, list):
        raise ValueError("hyperplanes JSON must be a list of coefficient arrays")
    planes = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"hyperplanes[{i}] must be a list of coefficients, got {_short_repr(row)}")
        planes.append(Hyperplane(spec, [str(c) for c in row]))
    return planes


def hyperplane_to_list(h: Hyperplane) -> List[str]:
    return [_value_text(c) for c in h._raw]


def vector_multiset_from_list(p: int, dim: int, items: list) -> VectorMultiset:
    if not isinstance(items, list):
        raise ValueError(f"vector multiset must be a list of {{'value': [..], 'mult': ..}} entries, got {_short_repr(items)}")
    pairs = []
    for item in items:
        if not isinstance(item, dict) or "value" not in item or "mult" not in item:
            raise ValueError(f"entry must be {{'value': [..], 'mult': ..}}, got {_short_repr(item)}")
        if not isinstance(item["value"], list):
            raise ValueError(f"entry value must be a list of coordinates, got {_short_repr(item['value'])}")
        pairs.append(([str(x) for x in item["value"]], item["mult"]))
    return VectorMultiset(p, dim, pairs)


def vector_multiset_to_list(vm: VectorMultiset) -> List[dict]:
    return [{"value": list(v), "mult": m} for v, m in vm.entries.items()]
