#!/usr/bin/env python3
"""Witness-search stress run.

Generates random valid nonvanishing instances, runs both search methods, and
confirms every run produces a verified witness, with the two methods agreeing
after identical grid trimming.  The instances come from the test suite's
generators, tests/randgen.py.
"""

import argparse
import random
import sys
import time
from pathlib import Path

from nullgrid import find_witness, trim_grid

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from randgen import rand_spec, rand_witness_instance  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-arity", type=int, default=3)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    start = time.time()
    by_field = {}
    for _ in range(args.trials):
        spec = rand_spec(rng, rational_weight=0.2)
        n = rng.randint(1, args.max_arity)
        f, grid, t = rand_witness_instance(rng, spec, n)
        w_ex = find_witness(f, grid, t, method="exhaustive")
        w_dd = find_witness(f, grid, t, method="divided_difference")
        w_trim = find_witness(f, trim_grid(grid, t), t, method="exhaustive")
        assert not w_ex.value.is_zero() and not w_dd.value.is_zero()
        assert (w_dd.point, w_dd.exponent, w_dd.value) == (
            w_trim.point,
            w_trim.exponent,
            w_trim.value,
        ), f"methods disagree on {f} over {grid}"
        key = str(spec)
        by_field[key] = by_field.get(key, 0) + 1
    elapsed = time.time() - start
    print(f"{args.trials} instances, every witness found and verified "
          f"({elapsed:.1f}s, {1000 * elapsed / args.trials:.2f} ms/instance)")
    for key in sorted(by_field):
        print(f"    {key}: {by_field[key]}")


if __name__ == "__main__":
    main()
