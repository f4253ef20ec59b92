"""Dyson's constant-term identity as a closed-form check of every bracket
route: on a grid of sizes t_j + 1, the definitional and recursive brackets of
F = prod_{i != j} (x_j - x_i)^(a_i), the x^t coefficient of its remainder and
the top-coefficient identity all give sigma!/(a_1! ... a_n!), mod p over F_p.
F, t and the grids come from scripts/dyson.py; the multinomial is computed
here, never by the library."""

import math
import random
import sys
import time
from pathlib import Path

import pytest

from nullgrid import FieldSpec, find_witness

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from dyson import ROUTES, dyson_grid, dyson_poly, dyson_target  # noqa: E402

SMALL = [(1,), (1, 1), (2, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1), (1, 1, 1, 1), (2, 1, 1, 1)]


def multinomial(a):
    return math.factorial(sum(a)) // math.prod(math.factorial(e) for e in a)


@pytest.mark.parametrize(
    "spec", [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(10007), FieldSpec.rationals()], ids=str
)
def test_every_route_gives_the_dyson_multinomial(spec):
    """Range grids and random multiset grids, multiplicities above p among
    them; over F_2 and F_3, where p <= sigma, the multinomial vanishes for
    some a, and wherever x^t has a nonzero coefficient F is a witness
    instance on which both find_witness methods agree."""
    rng = random.Random(17)
    vanished = 0
    for a in SMALL:
        f, t = dyson_poly(a, spec), dyson_target(a)
        expected = spec.element(multinomial(a))
        vanished += expected.is_zero()
        assert f.total_degree() == sum(t) and f.coefficient(t) == expected
        for grid in [dyson_grid(spec, t)] + [dyson_grid(spec, t, "random", rng) for _ in range(3)]:
            assert grid.sizes == tuple(e + 1 for e in t)
            values = {name: route(f, grid, t) for name, route in ROUTES.items()}
            assert values == {
                "definitional bracket": expected,
                "recursive bracket": expected,
                "remainder coefficient of x^t": expected,
                "top-coefficient identity": True,
            }, (a, grid)
            if not expected.is_zero():
                witness = find_witness(f, grid, t, method="exhaustive")
                assert find_witness(f, grid, t, method="divided_difference") == witness
                assert not witness.value.is_zero()
    assert bool(vanished) == (spec.p in (2, 3))


def test_five_variable_dyson_build_and_bracket_cpu_time():
    """a = (2, 2, 2, 2, 2) over F_10007: F has 38 621 terms.  Parsing its
    product text and taking the definitional bracket on {0..8}^5 took
    0.5-0.9 s of CPU time on a shared 2-core host, up to 1.4 s under
    python -X dev."""
    spec = FieldSpec.prime(10007)
    a = (2, 2, 2, 2, 2)
    t = dyson_target(a)
    start = time.process_time()
    f = dyson_poly(a, spec)
    value = ROUTES["definitional bracket"](f, dyson_grid(spec, t), t)
    assert time.process_time() - start < 2.5
    assert len(f.terms) == 38621
    assert value == spec.element(multinomial(a)) == spec.element(113400)
