#!/usr/bin/env python3
"""Exhaustive Cauchy-Davenport sweep over small prime fields.

Enumerates every pair of multisets with support in F_p and size up to the cap,
checks d(A+B) >= min(p, d(A)+d(B)-1) together with the excess-degree
inequality, and reports the equality cases.  It also checks that the value
set of x1 + x2 on the grid A x B is the sumset A + B, and reports every pair
where the two routes differ (the exit status is then 1).
"""

import argparse
import sys
import time

from nullgrid import (
    FieldSpec,
    MultisetGrid,
    cauchy_davenport_check,
    iter_multisets,
    multiset_deg,
    parse_poly,
    value_set,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", default="2,3,5,7", help="comma-separated primes")
    parser.add_argument("--max-size", type=int, default=4)
    parser.add_argument("--show-equality", type=int, default=5, metavar="N",
                        help="print the first N equality cases per prime")
    args = parser.parse_args()

    grand_total = 0
    mismatches = 0
    start = time.time()
    for p in (int(v) for v in args.primes.split(",")):
        spec = FieldSpec.prime(p)
        x_sum = parse_poly("x1 + x2", 2, spec)
        pool = list(iter_multisets(spec, args.max_size))
        total = 0
        equalities = []
        for a in pool:
            for b in pool:
                chk = cauchy_davenport_check(a, b)
                assert chk.holds, f"bound violated: A={a} B={b}"
                s = chk.measured
                assert multiset_deg(s) >= multiset_deg(a) + multiset_deg(b), \
                    f"excess-degree violated: A={a} B={b}"
                values = value_set(x_sum, MultisetGrid([a, b]))
                if values != s:
                    print(f"    value set of x1 + x2 on A x B is {values}, "
                          f"sumset is {s}  A={a}  B={b}")
                    mismatches += 1
                if chk.lhs == chk.rhs:
                    equalities.append((a, b, chk.lhs))
                total += 1
        grand_total += total
        print(f"p={p}: {len(pool)} multisets, {total} pairs, "
              f"{len(equalities)} equality cases")
        for a, b, v in equalities[: args.show_equality]:
            print(f"    d(A+B) = {v} = min(p, d(A)+d(B)-1)  A={a}  B={b}")
    print(f"all {grand_total} pairs satisfy both inequalities "
          f"({time.time() - start:.1f}s)")
    if mismatches:
        print(f"value set of x1 + x2 differs from the sumset on {mismatches} "
              f"of {grand_total} pairs")
        return 1
    print(f"value set of x1 + x2 equals the sumset on all {grand_total} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
