"""Random instance generators for stress suites and experiment scripts.

Everything takes an explicit random.Random so runs are reproducible from a
seed.  Rational "grids" draw from small integers; prime-field draws are
uniform over the field.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from nullgrid import FieldElement, FieldSpec, MultiPoly, Multiset, MultisetGrid

DEFAULT_PRIMES = (2, 3, 5, 7, 13)


def rand_spec(rng: random.Random, primes: Sequence[int] = DEFAULT_PRIMES, rational_weight: float = 0.0) -> FieldSpec:
    if rational_weight and rng.random() < rational_weight:
        return FieldSpec.rationals()
    return FieldSpec.prime(rng.choice(list(primes)))


def rand_element(rng: random.Random, spec: FieldSpec) -> FieldElement:
    if spec.is_prime_field:
        return spec.element(rng.randrange(spec.p))
    return spec.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def rand_multiset(
    rng: random.Random,
    spec: FieldSpec,
    max_size: int,
    min_size: int = 1,
    integer_elements: bool = False,
) -> Multiset:
    size = rng.randint(min_size, max_size)
    if spec.is_prime_field:
        pool = list(range(spec.p))
    elif integer_elements:
        pool = list(range(-6, 7))
    else:
        pool = sorted({Fraction(n, d) for n in range(-5, 6) for d in (1, 2, 3)})
    support_size = rng.randint(1, min(size, len(pool)))
    support = rng.sample(pool, support_size)
    mults = [1] * support_size
    for _ in range(size - support_size):
        mults[rng.randrange(support_size)] += 1
    return Multiset(spec, zip(support, mults))


def rand_grid(
    rng: random.Random,
    spec: FieldSpec,
    arity: int,
    max_size: int,
    min_size: int = 1,
    integer_elements: bool = False,
) -> MultisetGrid:
    return MultisetGrid(
        [
            rand_multiset(rng, spec, max_size, min_size, integer_elements)
            for _ in range(arity)
        ]
    )


def rand_poly(
    rng: random.Random,
    spec: FieldSpec,
    arity: int,
    max_deg: int,
    max_terms: int = 8,
    integer_coeffs: bool = False,
) -> MultiPoly:
    """A sparse polynomial with total degree at most max_deg (possibly zero)."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            u = tuple(rng.randint(0, max_deg) for _ in range(arity))
            if sum(u) <= max_deg:
                break
        if spec.is_prime_field:
            c = rng.randrange(1, spec.p)
        elif integer_coeffs:
            c = rng.randint(-9, 9) or 1
        else:
            c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        terms[u] = c
    return MultiPoly(arity, spec, terms)


def rand_ideal_member(
    rng: random.Random, grid: MultisetGrid, max_cof_deg: int = 2, max_terms: int = 4
) -> MultiPoly:
    """A random combination of the grid generators (possibly zero)."""
    spec = grid.spec
    n = grid.arity
    f = MultiPoly.zero(n, spec)
    for g in grid.generators():
        if rng.random() < 0.75:
            f = f + rand_poly(rng, spec, n, max_cof_deg, max_terms) * g
    return f


def rand_witness_instance(rng: random.Random, spec: FieldSpec, arity: int):
    """A (polynomial, grid, target) triple meeting the witness preconditions:
    the target monomial is planted with a nonzero coefficient, every other
    term has strictly smaller total degree, and the grid sizes exceed the
    target componentwise."""
    t = tuple(rng.randint(0, 2) for _ in range(arity))
    f = MultiPoly.monomial(
        arity,
        spec,
        t,
        rng.randrange(1, spec.p) if spec.is_prime_field else rng.randint(1, 9),
    )
    if sum(t) > 0:
        extra = rand_poly(rng, spec, arity, sum(t) - 1, max_terms=4)
        f = f + extra
    sizes = [t[i] + rng.randint(1, 2) for i in range(arity)]
    grid = MultisetGrid(
        [rand_multiset(rng, spec, sizes[i], min_size=sizes[i]) for i in range(arity)]
    )
    return f, grid, t
