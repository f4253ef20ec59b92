"""Nonvanishing certificates and the punctured decomposition.

A polynomial of degree sum(t_i) whose coefficient at x^t is nonzero cannot lie
in the ideal of a grid with d_i > t_i; concretely some grid point s and some
exponent u below the multiplicity vector of s carry a nonzero expansion
coefficient.  Two independent searches realize that guarantee: a direct scan
of every (point, exponent) pair, and a route through the weight table of a
trimmed grid, where the nonzero top coefficient forces a nonzero term in the
weighted sum.  Failure of either search on a valid instance is an internal
bug, never a legitimate outcome.  Both searches read the expansion
coefficients from ideals.grid_expansions, so points that share a prefix share
its shifts, and return the smallest exponent of its first nonempty box.

The punctured decomposition handles polynomials vanishing everywhere on a
grid except at points of a tight sub-grid: the reduced form is then exactly
divisible by the product of the generator quotients, with a nonzero cofactor,
which forces the degree of f to be at least the total size difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import InvariantViolation, PreconditionError
from .fields import FieldElement
from .divdiff import _weighted_sum, weight_table
from .ideals import (
    Multiset,
    MultisetGrid,
    _check_poly_grid,
    grid_expansions,
    in_local_ideal,
    reduce_poly,
)
from .polynomials import MultiPoly


@dataclass(frozen=True)
class Witness:
    """A grid point and exponent below its multiplicity vector where an
    expansion coefficient of the polynomial is nonzero."""

    point: Tuple[FieldElement, ...]
    exponent: Tuple[int, ...]
    value: FieldElement

    def sort_key(self):
        return (tuple(e.sort_key() for e in self.point), self.exponent)


def _check_witness_preconditions(f: MultiPoly, grid: MultisetGrid, t: Sequence[int]):
    _check_poly_grid(f, grid)
    t = tuple(t)
    if len(t) != grid.arity or any(e < 0 for e in t):
        raise PreconditionError("target", f"bad target exponent {t} for arity {grid.arity}")
    if f.total_degree() != sum(t):
        raise PreconditionError(
            "degree", f"deg f = {f.total_degree()} but the target needs {sum(t)}"
        )
    if f.coefficient(t).is_zero():
        raise PreconditionError("top-coefficient", f"coefficient of x^{t} is zero")
    bad = [i for i, d in enumerate(grid.sizes) if d <= t[i]]
    if bad:
        raise PreconditionError(
            "sizes", f"need multiset size > target in coordinate(s) {[i + 1 for i in bad]}"
        )
    return t


def trim_grid(grid: MultisetGrid, t: Sequence[int]) -> MultisetGrid:
    """Shrink each coordinate multiset to size t_i + 1 by lowering the
    multiplicity of the canonically largest element first."""
    sets = []
    for i, ms in enumerate(grid.sets):
        excess = ms.size - (t[i] + 1)
        if excess < 0:
            raise PreconditionError("sizes", f"coordinate {i + 1} is already below t+1")
        entries = dict(ms.entries)
        for elem in reversed(ms.support):
            if excess == 0:
                break
            take = min(excess, entries[elem])
            if take == entries[elem]:
                del entries[elem]
            else:
                entries[elem] -= take
            excess -= take
        sets.append(Multiset(ms.spec, entries.items()))
    return MultisetGrid(sets)


def find_witness(
    f: MultiPoly,
    grid: MultisetGrid,
    t: Sequence[int],
    method: str = "exhaustive",
) -> Witness:
    """Produce a nonvanishing witness; both methods are deterministic and
    return the smallest exponent of the first nonempty box of grid_expansions.

    exhaustive scans the grid as given.  divided_difference first trims the
    grid so every size equals t_i + 1, builds the weight table, evaluates the
    weighted sum of expansion coefficients (divdiff._weighted_sum) -- which
    must reproduce the nonzero coefficient of x^t, certifying that a witness
    exists -- and returns the first witness of that walk of the trimmed grid.
    After identical trimming the two methods always return the same witness.
    """
    t = _check_witness_preconditions(f, grid, t)
    if method == "exhaustive":
        for point, _, shifted in grid_expansions(f, grid):
            if shifted.terms:
                u = min(shifted.terms)
                return Witness(point, u, shifted.terms[u])
        raise InvariantViolation("no witness found on a valid instance")
    if method == "divided_difference":
        trimmed = trim_grid(grid, t)
        acc, first = _weighted_sum(f, trimmed, weight_table(trimmed))
        # a sum equal to the nonzero coefficient of x^t has a nonzero term,
        # so a certified instance always has a first witness
        if acc != f.coefficient(t).value:
            raise InvariantViolation("weighted coefficient sum failed to certify the instance")
        return Witness(*first)
    raise ValueError(f"unknown witness method {method!r}")


def cofactor_obstruction_check(f: MultiPoly, grid: MultisetGrid, t: Sequence[int]) -> bool:
    """Verify the degree obstruction behind the witness guarantee on a concrete
    instance: the remainder of f is nonzero and carries the same coefficient
    at x^t as f itself, because in every cofactor-times-generator product the
    monomials of full degree are divisible by x_i^{d_i} and so never reach
    x^t."""
    t = _check_witness_preconditions(f, grid, t)
    res = reduce_poly(f, grid)
    if res.remainder.is_zero():
        return False
    deg_f = f.total_degree()
    d = grid.sizes
    gens = grid.generators()
    for i, h in enumerate(res.cofactors):
        if h.is_zero():
            continue
        prod = h * gens[i]
        deg_prod = prod.total_degree()
        if deg_prod is not None and deg_prod > deg_f:
            return False
        for u in prod.terms:
            if sum(u) == deg_f and u[i] < d[i]:
                return False
        if not prod.coefficient(t).is_zero():
            return False
    return res.remainder.coefficient(t) == f.coefficient(t)


@dataclass
class PuncturedResult:
    """Reduced form r, the nonzero cofactor h with r = h * prod(g_i / l_i),
    and the degree bound sum(d(S_i) - d(D_i)) that deg f must meet."""

    remainder: MultiPoly
    quotient: MultiPoly
    degree_bound: int


def _check_tight_subgrid(s_grid: MultisetGrid, d_grid: MultisetGrid):
    if s_grid.arity != d_grid.arity:
        raise PreconditionError("sub-grid", "coordinate counts differ")
    if s_grid.spec != d_grid.spec:
        raise PreconditionError("sub-grid", "fields differ")
    for i, (big, small) in enumerate(zip(s_grid.sets, d_grid.sets)):
        for elem, mult in small.entries.items():
            if big.multiplicity(elem) != mult:
                raise PreconditionError(
                    "tight",
                    f"element {elem} has multiplicity {mult} in D_{i + 1} but "
                    f"{big.multiplicity(elem)} in S_{i + 1}",
                )


def punctured_decompose(
    f: MultiPoly, s_grid: MultisetGrid, d_grid: MultisetGrid
) -> PuncturedResult:
    """Decompose a polynomial that vanishes with full multiplicity at every
    grid point except at one or more points of the tight sub-grid."""
    _check_poly_grid(f, s_grid)
    _check_tight_subgrid(s_grid, d_grid)

    punctured = []
    for point, mv in zip(s_grid.points(), s_grid.multiplicity_vectors()):
        if not in_local_ideal(f, point, mv):
            if not d_grid.contains_point(point):
                raise PreconditionError(
                    "vanishing",
                    f"f does not vanish fully at {tuple(str(x) for x in point)}, "
                    "which lies outside the sub-grid",
                )
            punctured.append(point)
    if not punctured:
        raise PreconditionError("punctured", "f vanishes on the whole grid; no punctured point")

    r = reduce_poly(f, s_grid).remainder
    spec = f.spec
    n = s_grid.arity
    h = r
    for i in range(n):
        big, small = s_grid.sets[i], d_grid.sets[i]
        outside = [(e, m) for e, m in big.entries.items() if small.multiplicity(e) == 0]
        if not outside:
            continue
        quotient_poly = Multiset(spec, outside).generator_poly(i, n)
        h, rem = h.divmod_univariate(quotient_poly, i)
        if not rem.is_zero():
            raise InvariantViolation(
                f"reduced form is not divisible by the coordinate-{i + 1} generator quotient"
            )
    if h.is_zero():
        raise InvariantViolation("punctured decomposition produced a zero cofactor")
    bound = sum(s_grid.sizes) - sum(d_grid.sizes)
    return PuncturedResult(remainder=r, quotient=h, degree_bound=bound)
