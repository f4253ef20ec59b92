#!/usr/bin/env python3
"""Dyson's constant-term identity, checked on a multiset grid.

The constant term of prod_{i != j} (1 - x_i/x_j)^(a_i) is the multinomial
sigma!/(a_1! ... a_n!), sigma = a_1 + ... + a_n (F. J. Dyson, J. Math. Phys.
3, 1962; I. J. Good, J. Math. Phys. 11, 1970).  Clearing denominators, it is
the coefficient of x^t in F = prod_{i != j} (x_j - x_i)^(a_i), with
t_j = sigma - a_j, and deg F = t_1 + ... + t_n.  So on any grid whose j-th
multiset has t_j + 1 elements, counted with multiplicity, the definitional
and the recursive bracket of F, the x^t coefficient of its remainder and the
weighted sum of its expansion coefficients (the top-coefficient identity)
all equal the multinomial, mod p over F_p, where it may vanish when p <= sigma.

The grid is {0, ..., t_j} in coordinate j (its images in F_p, so a value
repeats when t_j >= p), or with --grid random, t_j + 1 draws from a random
set of values.  The script prints each route's value next to the multinomial
and exits 1 when one differs:

    python scripts/dyson.py --a 2,2,2 --field prime:10007 --grid random --seed 3
"""

import argparse
import math
import random
import sys
import time
from collections import Counter

from nullgrid import (
    FieldSpec,
    MultisetGrid,
    divided_difference,
    divided_difference_recursive,
    parse_poly,
    reduce_poly,
    top_coefficient_identity_holds,
)


def dyson_poly(a, spec):
    """F = prod_{i != j} (x_j - x_i)^(a_i), parsed from its product text."""
    n = len(a)
    factors = [f"(x{j + 1} - x{i + 1})^{a[i]}" for i in range(n) for j in range(n) if i != j and a[i]]
    return parse_poly("*".join(factors) or "1", n, spec)


def dyson_target(a):
    """t with t_j = sigma - a_j: the exponent whose coefficient in F is the
    constant term."""
    return tuple(sum(a) - e for e in a)


def dyson_grid(spec, t, kind="range", rng=None):
    """A grid whose j-th multiset has t_j + 1 elements counted with
    multiplicity: the images of 0, ..., t_j, or with kind "random", t_j + 1
    draws from a random set of at most t_j + 1 values."""
    sets = []
    for top in t:
        if kind == "range":
            values = range(top + 1)
        else:
            pool = range(spec.p) if spec.p else range(-2 * top - 2, 2 * top + 3)
            support = rng.sample(pool, rng.randint(1, min(len(pool), top + 1)))
            values = [rng.choice(support) for _ in range(top + 1)]
        sets.append(Counter(v % spec.p if spec.p else v for v in values))
    return MultisetGrid.of(spec, sets)


# each route's value of the constant term, from F, the grid and t
ROUTES = {
    "definitional bracket": lambda f, grid, t: divided_difference(f, grid),
    "recursive bracket": lambda f, grid, t: divided_difference_recursive(f, grid),
    "remainder coefficient of x^t": lambda f, grid, t: reduce_poly(f, grid).remainder.coefficient(t),
    "top-coefficient identity": lambda f, grid, t: top_coefficient_identity_holds(f, grid),
}


def parse_field(text):
    if text == "rational":
        return FieldSpec.rationals()
    if text.startswith("prime:"):
        return FieldSpec.prime(int(text.split(":", 1)[1]))
    raise argparse.ArgumentTypeError(f"field must be 'prime:<p>' or 'rational', got {text!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--a", default="2,2,2", help="comma-separated exponents a_1,...,a_n")
    parser.add_argument("--field", type=parse_field, default="prime:10007", help="prime:<p> or rational")
    parser.add_argument("--grid", choices=("range", "random"), default="range")
    parser.add_argument("--seed", type=int, default=0, help="seed of the random grid")
    args = parser.parse_args()

    a = tuple(int(v) for v in args.a.split(","))
    if any(e < 0 for e in a):
        parser.error("every a_i must be nonnegative")
    spec = args.field
    t = dyson_target(a)
    expected = spec.element(math.factorial(sum(a)) // math.prod(map(math.factorial, a)))
    start = time.process_time()
    f = dyson_poly(a, spec)
    grid = dyson_grid(spec, t, args.grid, random.Random(args.seed))
    print(f"a = {a} over {spec}, {args.grid} grid of sizes {grid.sizes}: "
          f"F has {len(f.terms)} terms ({time.process_time() - start:.2f} s)")
    print(f"multinomial: {expected}")
    failures = 0
    for name, route in ROUTES.items():
        start = time.process_time()
        value = route(f, grid, t)
        elapsed = time.process_time() - start
        if isinstance(value, bool):
            ok, shown = value, "holds" if value else "fails"
        else:
            ok, shown = value == expected, value
        failures += not ok
        print(f"{name}: {shown} ({elapsed:.2f} s)" + ("" if ok else "  MISMATCH"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
