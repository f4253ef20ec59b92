"""Nonvanishing certificates and the punctured decomposition.

A polynomial of degree sum(t_i) whose coefficient at x^t is nonzero cannot lie
in the ideal of a grid with d_i > t_i; concretely some grid point s and some
exponent u below the multiplicity vector of s carry a nonzero expansion
coefficient.  Two independent searches realize that guarantee: a direct scan
of every (point, exponent) pair, and a route through the coordinate weights
of a trimmed grid, where the nonzero top coefficient forces a nonzero term in
the weighted sum.  Failure of either search on a valid instance is an internal
bug, never a legitimate outcome.  Both searches read the expansion
coefficients from ideals.grid_expansions, so points that share a prefix share
its shifts, and return the smallest exponent of its first nonempty box.

The punctured decomposition handles polynomials vanishing everywhere on a
grid except at points of a tight sub-grid: the reduced form is then exactly
divisible by the product of the generator quotients, with a nonzero cofactor,
which forces the degree of f to be at least the total size difference.  The
grid ideal is a tensor product of univariate ideals, so that divisibility is
also the whole hypothesis: dividing the reduced form decides whether f
vanishes off the sub-grid, and the pointwise test is left only to name a
failing point and to confirm one punctured point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import InvariantViolation, PreconditionError
from .fields import FieldElement, _value_text
from .divdiff import _weighted_sum
from .ideals import (
    Multiset,
    MultisetGrid,
    _check_poly_grid,
    grid_expansions,
    grid_to_dict,
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


def _witness(spec, point, exponent, value) -> Witness:  # from raw values
    return Witness(tuple(FieldElement(x, spec) for x in point), exponent, FieldElement(value, spec))


def _target(t: Sequence[int], grid: MultisetGrid, nonnegative: bool) -> Tuple[int, ...]:
    """t as a tuple, refused unless it holds one int (not a bool) per
    coordinate of grid, and with nonnegative, none below 0."""
    t = tuple(t)
    if len(t) != grid.arity or any(
        isinstance(e, bool) or not isinstance(e, int) or (nonnegative and e < 0) for e in t
    ):
        raise PreconditionError("target", f"bad target exponent {t} for arity {grid.arity}")
    return t


def _check_witness_preconditions(f: MultiPoly, grid: MultisetGrid, t: Sequence[int]):
    _check_poly_grid(f, grid)
    t = _target(t, grid, True)
    deg = f.total_degree()
    if deg is None:
        raise PreconditionError("degree", f"f is the zero polynomial but the target needs degree {sum(t)}")
    if deg != sum(t):
        raise PreconditionError("degree", f"deg f = {deg} but the target needs {sum(t)}")
    if not f.terms.get(t):
        raise PreconditionError("top-coefficient", f"coefficient of x^{t} is zero")
    bad = [i for i, d in enumerate(grid.sizes) if d <= t[i]]
    if bad:
        raise PreconditionError(
            "sizes", f"need multiset size > target in coordinate(s) {[i + 1 for i in bad]}"
        )
    return t


def trim_grid(grid: MultisetGrid, t: Sequence[int]) -> MultisetGrid:
    """Shrink each coordinate multiset to its t_i + 1 canonically smallest
    elements, counted with multiplicity: the prefix of its raw map that holds
    them.  A negative t_i keeps nothing, which Multiset refuses."""
    t = _target(t, grid, False)
    sets = []
    for i, ms in enumerate(grid.sets):
        keep = t[i] + 1
        if ms.size < keep:
            raise PreconditionError("sizes", f"coordinate {i + 1} is already below t+1")
        prefix = {}
        for v, m in ms._raw.items():
            if keep < 1:
                break
            prefix[v] = min(m, keep)
            keep -= m
        sets.append(Multiset._from_raw(ms.spec, prefix))
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
    grid so every size equals t_i + 1, evaluates the weighted sum of
    expansion coefficients (divdiff._weighted_sum, from the coordinate
    weights) -- which must reproduce the nonzero coefficient of x^t,
    certifying that a witness exists -- and returns its walk's first witness.
    After identical trimming the two methods always return the same witness.
    """
    t = _check_witness_preconditions(f, grid, t)
    if method == "exhaustive":
        for point, terms in grid_expansions(f, grid):
            if terms:
                u = min(terms)
                return _witness(f.spec, point, u, terms[u])
        raise InvariantViolation(f"no witness found on a valid instance; {_reproduction(f, grid=grid)}, t = {t}")
    if method == "divided_difference":
        trimmed = trim_grid(grid, t)
        acc, first = _weighted_sum(f, trimmed)
        # a sum equal to the nonzero coefficient of x^t has a nonzero term,
        # so a certified instance always has a first witness
        if acc != f.terms.get(t, 0):
            raise InvariantViolation(
                f"weighted coefficient sum failed to certify the instance; {_reproduction(f, grid=grid)}, t = {t}"
            )
        return _witness(f.spec, *first)
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
        for v, mult in small._raw.items():
            if big._raw.get(v, 0) != mult:
                raise PreconditionError(
                    "tight",
                    f"element {_value_text(v)} has multiplicity {mult} in D_{i + 1} but "
                    f"{big._raw.get(v, 0)} in S_{i + 1}",
                )


def _reproduction(f: MultiPoly, **grids: MultisetGrid) -> str:
    """f and the named grids as text that reruns a failed check."""
    return ", ".join([f"f = {f}"] + [f"{name} = {json.dumps(grid_to_dict(g))}" for name, g in grids.items()])


def punctured_decompose(
    f: MultiPoly, s_grid: MultisetGrid, d_grid: MultisetGrid
) -> PuncturedResult:
    """Decompose a polynomial that vanishes with full multiplicity at every
    grid point except at one or more points of the tight sub-grid.

    Write g_i for the generator of S_i, l_i for that of D_i, q_i = g_i / l_i,
    A_i = F[x_i]/(g_i) and A for the tensor product of the A_i, the
    quotient of F[x_1, ..., x_n] by the grid ideal.  By the Chinese remainder
    theorem A_i is the direct sum of the F[x_i]/(x_i - s)^m(s) over s in S_i,
    and q_i * A_i is the sum of the components at s in D_i.  Tensoring, f
    vanishes with full multiplicity at every point outside D exactly when
    its remainder r lies in the tensor product of the q_i * A_i, which is
    prod(q_i) * A.  Such an r is prod(q_i) * h modulo the grid ideal for an
    h with deg_i h < deg l_i, and then deg_i(q_i * h) < d_i, so
    r = prod(q_i) * h holds as polynomials.  Hence the divisions of r by q_1
    in x_1, then by q_2 in x_2, and so on, all leave zero remainders exactly
    when the hypothesis holds.  A nonzero remainder is a precondition
    failure; only then is S walked by grid_expansions, in points() order,
    to name the first point outside D where f does not vanish.  r = 0 means f
    vanishes everywhere.  Otherwise the cofactor h is nonzero, and walking
    D until its first punctured point cross-checks the division against
    the pointwise test.
    """
    _check_poly_grid(f, s_grid)
    _check_tight_subgrid(s_grid, d_grid)
    r = reduce_poly(f, s_grid).remainder
    if r.is_zero():
        raise PreconditionError("punctured", "f vanishes on the whole grid; no punctured point")

    spec = f.spec
    n = s_grid.arity
    h = r
    for i in range(n):
        big, small = s_grid.sets[i], d_grid.sets[i]
        outside = {v: m for v, m in big._raw.items() if v not in small._raw}
        if not outside:
            continue
        quotient_poly = Multiset._from_raw(spec, outside).generator_poly(i, n)
        h, rem = h.divmod_univariate(quotient_poly, i)
        if not rem.is_zero():
            for point, terms in grid_expansions(f, s_grid):
                if terms and not d_grid.contains_point(point):
                    raise PreconditionError(
                        "vanishing",
                        f"f does not vanish fully at {tuple(map(_value_text, point))}, "
                        "which lies outside the sub-grid",
                    )
            raise InvariantViolation(
                f"reduced form is not divisible by the coordinate-{i + 1} generator quotient, "
                f"yet f vanishes at every point outside the sub-grid; {_reproduction(f, S=s_grid, D=d_grid)}"
            )
    # D is tight, so its multiplicity vectors are those of S at its points
    if all(in_local_ideal(f, point, mv) for point, mv in zip(d_grid.points(), d_grid.multiplicity_vectors())):
        raise InvariantViolation(
            "reduced form is a nonzero multiple of the generator quotients, "
            f"yet f vanishes at every point of the sub-grid; {_reproduction(f, S=s_grid, D=d_grid)}"
        )
    bound = sum(s_grid.sizes) - sum(d_grid.sizes)
    return PuncturedResult(remainder=r, quotient=h, degree_bound=bound)
