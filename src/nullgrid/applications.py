"""Executable checks for four multiplicity-aware combinatorial results:
hyperplane coverings of multiset grids, the Cauchy-Davenport sumset bound,
Sun's value-set bound for power-sum polynomials, and the Eliahou-Kervaire
bound through Hopf-Stiefel numbers.

These are verification tools: value sets and covers enumerate the full grid
(a cover counts its hits per zero-set class of planes, not plane by plane),
and the bound checkers surface both sides as data so exhaustive suites can
assert the inequalities rather than trust them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import ArityMismatchError, FieldMismatchError, PreconditionError
from .fields import FieldElement, FieldSpec
from .ideals import Multiset, MultisetGrid, _check_poly_grid
from .polynomials import MultiPoly


@dataclass(frozen=True)
class BoundCheck:
    """Both sides of a proved inequality; holds must be true on every valid
    instance, so a False is either a bad instance or a bug worth surfacing."""

    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs


# -- hyperplane coverings -------------------------------------------------------


class Hyperplane:
    """An affine hyperplane c0 + c1*x1 + ... + cn*xn = 0 with (c1..cn) != 0."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Sequence):
        coeffs = tuple(spec.element(c) for c in coeffs)
        if len(coeffs) < 2:
            raise ValueError("hyperplane needs a constant term and at least one variable")
        if all(c.is_zero() for c in coeffs[1:]):
            raise ValueError("hyperplane normal vector is zero")
        self.spec = spec
        self.coeffs = coeffs

    @property
    def arity(self) -> int:
        return len(self.coeffs) - 1

    def as_poly(self) -> MultiPoly:
        n = self.arity
        terms = {(0,) * n: self.coeffs[0]}
        for i, c in enumerate(self.coeffs[1:]):
            terms[tuple(1 if j == i else 0 for j in range(n))] = c
        return MultiPoly(n, self.spec, terms)

    def direction_key(self):
        """Coefficients normalized by the first nonzero normal entry; two
        hyperplanes with equal keys are proportional (same zero set)."""
        spec = self.spec
        inv = spec._inv(next(c.value for c in self.coeffs[1:] if c.value))
        return tuple(spec._mul(c.value, inv) for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Hyperplane):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.spec, self.coeffs))

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
    zero = grid.spec.zero
    for i, ms in enumerate(grid.sets):
        if ms.multiplicity(zero) != 1:
            raise PreconditionError(
                "origin",
                f"coordinate {i + 1} must contain 0 with multiplicity exactly 1",
            )


def verify_cover(hyperplanes: Sequence[Hyperplane], grid: MultisetGrid) -> CoverReport:
    """Count, for every nonzero grid point, the hyperplanes vanishing there;
    each point s needs at least |m(s)| - n + 1 hits and the origin none.

    Hits are counted per zero-set class, not per plane.  Planes with equal
    direction keys share a zero set, and planes whose keys share the
    normalized normal (c1..cn) vanish at s exactly when c1*s1 + ... + cn*sn
    equals minus their constant.  So each point costs one sum per normal
    class, of terms read from per-coordinate tables, and one lookup in that
    class's {-constant: planes} count."""
    _check_cover_hypothesis(grid)
    n = grid.arity
    for h in hyperplanes:
        if h.arity != n:
            raise ArityMismatchError(f"hyperplane arity {h.arity} vs grid arity {n}")
        if h.spec != grid.spec:
            raise FieldMismatchError("hyperplane and grid fields differ")
    spec = grid.spec
    groups: Dict[tuple, List[int]] = {}
    for i, h in enumerate(hyperplanes):
        groups.setdefault(h.direction_key(), []).append(i)
    classes: Dict[tuple, Dict[object, int]] = {}
    for key, members in groups.items():
        classes.setdefault(key[1:], {})[spec._neg(key[0])] = len(members)
    supports = [ms.support for ms in grid.sets]
    # per normal class, the terms c_i * s_i of each point, in grid.points() order
    term_streams = [
        itertools.product(*([spec._mul(c, e.value) for e in supp] for c, supp in zip(normal, supports)))
        for normal in classes
    ]
    origin_at = 0
    for supp in supports:
        origin_at = origin_at * len(supp) + supp.index(spec.zero)
    p = spec.p
    per_point = {}
    undercovered = []
    for at, point, mults, *terms in zip(
        itertools.count(), grid.points(), grid.multiplicity_vectors(), *term_streams
    ):
        if at == origin_at:
            continue
        required = sum(mults) - n + 1
        achieved = 0
        for hits, t in zip(classes.values(), terms):
            v = sum(t)
            achieved += hits.get(v % p if p else v, 0)
        per_point[point] = (required, achieved)
        if achieved < required:
            undercovered.append(point)
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
        for elem, mult in ms.entries.items():
            if elem.is_zero():
                continue
            coeffs = [-elem] + [spec.element(1 if j == i else 0) for j in range(n)]
            planes.extend([Hyperplane(spec, coeffs)] * mult)
    return planes


# -- sumsets and Cauchy-Davenport -------------------------------------------------


def sumset(a: Multiset, b: Multiset) -> Multiset:
    """Multiset sum over (F_p, +): support is all pairwise sums, and each sum
    carries the largest mult(a) + mult(b) - 1 over its representations."""
    if a.spec != b.spec:
        raise FieldMismatchError("sumset operands over different fields")
    if not a.spec.is_prime_field:
        raise PreconditionError("field", "sumsets are taken in a prime field group")
    best: Dict[FieldElement, int] = {}
    for x, mx in a.entries.items():
        for y, my in b.entries.items():
            s = x + y
            m = mx + my - 1
            if best.get(s, 0) < m:
                best[s] = m
    return Multiset(a.spec, best.items())


def multiset_deg(ms: Multiset) -> int:
    """Total multiplicity excess: sum of (mult - 1) over the support."""
    return sum(m - 1 for m in ms.entries.values())


def cauchy_davenport_check(a: Multiset, b: Multiset) -> BoundCheck:
    """Sizes must satisfy d(A+B) >= min(p, d(A) + d(B) - 1)."""
    s = sumset(a, b)
    p = a.spec.p
    return BoundCheck(lhs=s.size, rhs=min(p, a.size + b.size - 1))


# -- value sets --------------------------------------------------------------------


def value_set(f: MultiPoly, grid: MultisetGrid) -> Multiset:
    """The image of the grid under f, as a multiset: each value c gets the
    largest sum(m_i(s_i)) - n + 1 over grid points s with f(s) = c.

    Cost is the full product of the supports; these checkers enumerate, they
    do not solve.  Powers of the support elements are tabulated once so the
    sweep stays cheap on the exhaustive suites.
    """
    _check_poly_grid(f, grid)
    spec = grid.spec
    n = grid.arity
    supports = [ms.support for ms in grid.sets]
    max_exp = [max((u[i] for u in f.terms), default=0) for i in range(n)]
    pow_tables = []
    for i in range(n):
        rows = []
        for e in supports[i]:
            row = [spec._one_raw]
            for _ in range(max_exp[i]):
                row.append(spec._mul(row[-1], e.value))
            rows.append(row)
        pow_tables.append(rows)
    raw_terms = [(u, c.value) for u, c in f.terms.items()]
    zero = spec._zero_raw
    best: Dict[object, int] = {}
    combos = itertools.product(*(range(len(s)) for s in supports))
    for combo, mults in zip(combos, grid.multiplicity_vectors()):
        acc = zero
        for u, cv in raw_terms:
            t = cv
            for i, j in enumerate(combo):
                e = u[i]
                if e:
                    t = spec._mul(t, pow_tables[i][j][e])
            acc = spec._add(acc, t)
        m = sum(mults) - n + 1
        if best.get(acc, 0) < m:
            best[acc] = m
    return Multiset(spec, [(FieldElement(v, spec), m) for v, m in best.items()])


def sun_value_set_check(
    coeffs: Sequence, k: int, g: MultiPoly, grid: MultisetGrid
) -> BoundCheck:
    """For f = a_1*x1^k + ... + a_n*xn^k + g with nonzero a_i and deg g < k,
    the value-set size is at least min(char, sum(floor((d_i - 1)/k)) + 1),
    with characteristic 0 meaning no cap."""
    if k < 1:
        raise PreconditionError("exponent", f"k must be a positive integer, got {k}")
    n = grid.arity
    spec = grid.spec
    a = [spec.element(c) for c in coeffs]
    if len(a) != n:
        raise ArityMismatchError(f"{len(a)} coefficients for arity {n}")
    if any(c.is_zero() for c in a):
        raise PreconditionError("coefficients", "power-sum coefficients must be nonzero")
    gdeg = g.total_degree()
    if gdeg is not None and gdeg >= k:
        raise PreconditionError("perturbation-degree", f"deg g = {gdeg} must be below k = {k}")
    f = g
    for i, c in enumerate(a):
        exps = tuple(k if j == i else 0 for j in range(n))
        f = f + MultiPoly.monomial(n, spec, exps, c)
    lhs = value_set(f, grid).size
    total = sum((d - 1) // k for d in grid.sizes) + 1
    char = spec.characteristic
    rhs = min(char, total) if char else total
    return BoundCheck(lhs=lhs, rhs=rhs)


# -- Hopf-Stiefel numbers and Eliahou-Kervaire ---------------------------------------


def lucas_binomial(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas: the product of digitwise binomials base p."""
    if k < 0 or k > n:
        return 0
    result = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        result = result * (math.comb(ni, ki) % p) % p
        n //= p
        k //= p
    return result


def hopf_stiefel(p: int, r: int, s: int) -> int:
    """The smallest n >= 1 such that p divides C(n, k) for every integer k
    with n - r < k < s (an empty range counts).  Always at most r + s - 1.

    Computed by the closed form min over k >= 0 of
    (ceil(r / p^k) + ceil(s / p^k) - 1) * p^k; the term for the first
    p^k >= max(r, s) is p^k itself and no larger k does better, so the loop
    takes O(log max(r, s)) steps."""
    if r < 1 or s < 1:
        raise ValueError("arguments must be positive")
    FieldSpec.prime(p)  # validates primality; the closed form needs a prime
    best, q = r + s - 1, 1
    while q < max(r, s):
        q *= p
        best = min(best, (-(-r // q) - (-s // q) - 1) * q)
    return best


class VectorMultiset:
    """A multiset of coordinate vectors over F_p^dim with componentwise
    addition; stands in for multisets of a finite vector space.  Coordinates
    are values that FieldSpec.element reads."""

    __slots__ = ("p", "dim", "entries")

    def __init__(self, p: int, dim: int, pairs: Iterable):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        spec = FieldSpec.prime(p)  # validates primality
        entries: Dict[Tuple[int, ...], int] = {}
        for vec, mult in pairs:
            vec = tuple(spec.element(x).value for x in vec)
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
    if (a.p, a.dim) != (b.p, b.dim):
        raise FieldMismatchError("vector multisets live in different spaces")
    p, dim = a.p, a.dim
    best: Dict[Tuple[int, ...], int] = {}
    for x, mx in a.entries.items():
        for y, my in b.entries.items():
            s = tuple((u + v) % p for u, v in zip(x, y))
            m = mx + my - 1
            if best.get(s, 0) < m:
                best[s] = m
    return VectorMultiset(p, dim, best.items())


def eliahou_kervaire_check(a: VectorMultiset, b: VectorMultiset) -> BoundCheck:
    """Sizes must satisfy d(A+B) >= beta_p(d(A), d(B))."""
    s = vector_sumset(a, b)
    return BoundCheck(lhs=s.size, rhs=hopf_stiefel(a.p, a.size, b.size))


# -- enumeration helpers (exhaustive verification drivers) ----------------------------


def iter_multisets(spec: FieldSpec, max_size: int) -> Iterable[Multiset]:
    """Every multiset with support in F_p and total size between 1 and
    max_size, in a deterministic order.  Prime fields only."""
    if not spec.is_prime_field:
        raise PreconditionError("field", "enumeration needs a finite ground set")
    elements = [spec.element(v) for v in range(spec.p)]
    for size in range(1, max_size + 1):
        for combo in itertools.combinations_with_replacement(elements, size):
            entries: Dict[FieldElement, int] = {}
            for e in combo:
                entries[e] = entries.get(e, 0) + 1
            yield Multiset(spec, entries.items())


def iter_vector_multisets(p: int, dim: int, max_size: int) -> Iterable[VectorMultiset]:
    vectors = list(itertools.product(range(p), repeat=dim))
    for size in range(1, max_size + 1):
        for combo in itertools.combinations_with_replacement(vectors, size):
            entries: Dict[Tuple[int, ...], int] = {}
            for v in combo:
                entries[v] = entries.get(v, 0) + 1
            yield VectorMultiset(p, dim, entries.items())


# -- JSON wire formats -----------------------------------------------------------------


def hyperplanes_from_lists(spec: FieldSpec, rows: list) -> List[Hyperplane]:
    if not isinstance(rows, list):
        raise ValueError("hyperplanes JSON must be a list of coefficient arrays")
    planes = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"hyperplanes[{i}] must be a list of coefficients, got {row!r}")
        planes.append(Hyperplane(spec, [str(c) for c in row]))
    return planes


def hyperplane_to_list(h: Hyperplane) -> List[str]:
    return [str(c) for c in h.coeffs]


def vector_multiset_from_list(p: int, dim: int, items: list) -> VectorMultiset:
    if not isinstance(items, list):
        raise ValueError(f"vector multiset must be a list of {{'value': [..], 'mult': ..}} entries, got {items!r}")
    pairs = []
    for item in items:
        if not isinstance(item, dict) or "value" not in item or "mult" not in item:
            raise ValueError(f"entry must be {{'value': [..], 'mult': ..}}, got {item!r}")
        if not isinstance(item["value"], list):
            raise ValueError(f"entry value must be a list of coordinates, got {item['value']!r}")
        pairs.append(([str(x) for x in item["value"]], item["mult"]))
    return VectorMultiset(p, dim, pairs)


def vector_multiset_to_list(vm: VectorMultiset) -> List[dict]:
    return [{"value": list(v), "mult": m} for v, m in vm.entries.items()]
