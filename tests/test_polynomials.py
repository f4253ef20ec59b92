import itertools
import math
import operator
import random
import sys
import time
from array import array
from fractions import Fraction

import pytest

from nullgrid import (
    ArityMismatchError,
    FieldMismatchError,
    FieldSpec,
    MultiPoly,
    PolyParseError,
    TermOrder,
    parse_poly,
)
from nullgrid import polynomials
from nullgrid.fields import is_probable_prime
from randgen import rand_element, rand_poly, rand_spec
from oracles import (
    expansion_coefficient_oracle,
    operator_route_oracle,
    poly_product_oracle,
    univariate_divmod_oracle,
)

F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
Q = FieldSpec.rationals()


def test_arith_examples():
    x = parse_poly("x1", 2, Q)
    y = parse_poly("x2", 2, Q)
    assert (x + y) * (x - y) == parse_poly("x1^2 - x2^2", 2, Q)
    f = parse_poly("3*x1^2 + x2", 2, Q)
    assert f + MultiPoly.zero(2, Q) == f
    assert parse_poly("(x1+1)^2", 1, F2) == parse_poly("x1^2 + 1", 1, F2)


def test_ring_operations_refuse_mixed_arities_and_fields():
    f = parse_poly("x1 + 1", 1, F5)
    for other, error, message in (
        (parse_poly("x1 + 1", 2, F5), ArityMismatchError, "arity 1 vs 2"),
        (parse_poly("x1 + 1", 1, F7), FieldMismatchError, "mixed fields F_5 and F_7"),
    ):
        for op in (operator.add, operator.sub, operator.mul, lambda a, b: a.divmod_univariate(b, 0)):
            with pytest.raises(error) as err:
                op(f, other)
            assert str(err.value) == message


def test_sum_and_difference_refuse_a_non_polynomial():
    f = parse_poly("x1 + 1", 1, F5)
    for other in (3, Fraction(3), F5.element(3), "3", 2.5, None):
        name = type(other).__name__
        for op, sign in ((operator.add, "+"), (operator.sub, "-")):
            with pytest.raises(TypeError) as err:
                op(f, other)
            assert str(err.value) == f"unsupported operand type(s) for {sign}: 'MultiPoly' and '{name}'"
            with pytest.raises(TypeError):
                op(other, f)
    # a difference is the sum with the negation, which scales by -1
    g = parse_poly("3*x1^2 + 4", 1, F5)
    assert -g == g * -1 == parse_poly("2*x1^2 + 1", 1, F5) and f - g == parse_poly("2*x1^2 + x1 + 2", 1, F5)
    h = parse_poly("1/2*x1 - 3", 1, Q)
    assert -h == parse_poly("-1/2*x1 + 3", 1, Q) and h - h == MultiPoly.zero(1, Q)


def test_term_order_refuses_an_unknown_kind_and_a_non_permutation():
    with pytest.raises(ValueError) as err:
        TermOrder("lux")
    assert str(err.value) == "unknown term order kind 'lux'"
    with pytest.raises(ValueError) as err:
        TermOrder("lex", (0, 2))
    assert str(err.value) == "not a permutation of 0..1: (0, 2)"


def test_variable_refuses_an_index_out_of_range():
    assert MultiPoly.variable(2, F5, 1) == parse_poly("x2", 2, F5)
    for index in (-1, 2):
        with pytest.raises(ArityMismatchError) as err:
            MultiPoly.variable(2, F5, index)
        assert str(err.value) == f"variable index {index} out of range for arity 2"


def test_exponents_must_be_nonnegative_ints():
    for u in [(1.5,), (True,), (False,), (2.0,), (-1,), ("1",)]:
        with pytest.raises(ArityMismatchError, match="bad exponent vector"):
            MultiPoly(1, F5, {u: 1})
    assert str(MultiPoly(2, F5, {(2, 0): 1, (0, 1): 3})) == "x1^2 + 3*x2"


def test_scalar_and_exponent_typing():
    f = parse_poly("2*x1 + 3", 1, Q)
    half = parse_poly("x1 + 3/2", 1, Q)
    assert f * Fraction(1, 2) == Fraction(1, 2) * f == half
    assert f * Q.element(Fraction(1, 2)) == half and f * 2 == 2 * f == parse_poly("4*x1 + 6", 1, Q)
    g = parse_poly("x1 + 1", 1, F5)
    assert g * Fraction(6, 2) == g * 3 == parse_poly("3*x1 + 3", 1, F5)
    with pytest.raises(TypeError):
        g * Fraction(1, 2)  # no canonical image of 1/2 in F_5 as a rational literal
    for other in ("3", 2.5, None, [1]):
        with pytest.raises(TypeError):
            f * other
        with pytest.raises(TypeError):
            other * f
    for e in (True, False, 2.5, 2.0, "2", None):
        with pytest.raises(TypeError, match="exponent must be an int"):
            f**e
    with pytest.raises(ValueError):
        f**-1
    assert f**0 == MultiPoly.constant(1, Q, 1) == MultiPoly.zero(1, Q) ** 0
    assert f**1 == f and MultiPoly.zero(1, Q) ** 3 == MultiPoly.zero(1, Q)


def _random_coefficient(rng, spec):
    if spec.p:
        return rng.randrange(1, spec.p)
    return Fraction(rng.randint(-40, 40) or 1, rng.choice([1, 1, 2, 3, 7, 12]))


def _dense_poly(rng, spec, degrees):
    """Every exponent below degrees + 1, each with a nonzero coefficient."""
    return MultiPoly(len(degrees), spec, {
        u: _random_coefficient(rng, spec) for u in itertools.product(*(range(d + 1) for d in degrees))
    })


def _sparse_poly(rng, spec, n, terms, degree):
    """terms random terms below degree in every variable, one of them at
    degree in every variable."""
    exponents = [(degree,) * n] + [tuple(rng.randint(0, degree) for _ in range(n)) for _ in range(terms - 1)]
    return MultiPoly(n, spec, {u: _random_coefficient(rng, spec) for u in exponents})


@pytest.fixture
def packed(monkeypatch):
    """packed(a, b) checks a * b against the schoolbook oracle and tells
    whether the product took _mul_packed."""
    packed_calls = []
    real_packed = polynomials._mul_packed

    def spy(spec, radix, a, b):
        packed_calls.append(radix)
        return real_packed(spec, radix, a, b)

    monkeypatch.setattr(polynomials, "_mul_packed", spy)

    def check(a, b):
        del packed_calls[:]
        product = a * b
        assert product == poly_product_oracle(a, b)
        return bool(packed_calls)

    return check


def test_products_and_powers_match_schoolbook_oracle(packed):
    rng = random.Random(2026)
    side = math.isqrt(polynomials._KRONECKER_MIN_PAIRS) + 1  # side * side term pairs clear the floor
    specs = [FieldSpec.prime(p) for p in (2, 13, 10007, 2**61 - 1)] + [Q]
    for spec in specs:
        for n in (1, 2, 3):
            zero, one = MultiPoly.zero(n, spec), MultiPoly.constant(n, spec, _random_coefficient(rng, spec))
            for _ in range(6):
                f = rand_poly(rng, spec, n, max_deg=4, max_terms=10)
                assert f * zero == zero * f == zero and f * one == poly_product_oracle(f, one)
                assert f * f == poly_product_oracle(f, f)
            # dense: every exponent below (side, 2, ..., 2), far inside the packed region
            degrees = [side - 1] + [1] * (n - 1)
            a, b = _dense_poly(rng, spec, degrees), _dense_poly(rng, spec, degrees)
            assert packed(a, b) and packed(b, a)
            # tiny: fewer pairs than the floor
            tiny = _dense_poly(rng, spec, [1] + [0] * (n - 1))
            assert not packed(tiny, tiny)
            # sparse: enough pairs, but the box holds far more slots than pairs
            s1, s2 = _sparse_poly(rng, spec, n, side, 40 * side), _sparse_poly(rng, spec, n, side, 40 * side)
            pairs = len(s1.terms) * len(s2.terms)
            if pairs >= polynomials._KRONECKER_MIN_PAIRS:
                assert (80 * side + 1) ** n > polynomials._KRONECKER_FACTOR * pairs
                assert not packed(s1, s2)
            # powers 0..12 of a linear form, and of a random polynomial
            linear = MultiPoly(n, spec, {
                tuple(int(i == j) for j in range(n)): _random_coefficient(rng, spec) for i in range(-1, n)
            })
            base = rand_poly(rng, spec, n, max_deg=2, max_terms=4)
            # a one-term base: its squarings take the term-pair loop
            coeff = Fraction(-7, 3) if spec.p is None else spec.p - 2 or 1
            monomial = MultiPoly.monomial(n, spec, [2] + [1] * (n - 1), coeff)
            expected_linear = expected_base = expected_monomial = MultiPoly.constant(n, spec, 1)
            for e in range(13):
                assert linear**e == expected_linear
                expected_linear = poly_product_oracle(expected_linear, linear)
                assert monomial**e == expected_monomial
                expected_monomial = poly_product_oracle(expected_monomial, monomial)
                if e <= (12 if n == 1 else 6):
                    assert base**e == expected_base
                    expected_base = poly_product_oracle(expected_base, base)
    # over Q, wide numerators of both signs over unlike denominators: signed
    # slots far wider than any F_p slot
    a = MultiPoly(1, Q, {(k,): Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**9)) for k in range(20)})
    b = MultiPoly(1, Q, {(k,): Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**9)) for k in range(20)})
    assert packed(a, b) and packed(-a, b) and packed(a, -a)


def test_packed_products_at_the_slot_edges(packed):
    """Products whose slots sit at the edges of the biased encoding, each
    through _mul_packed: a product coefficient exactly at minus the slot
    bound, or at the bound over F_p; every coefficient negative; scales
    other than 1; and one-term operands on both sides of a dense
    polynomial."""
    rng = random.Random(40)
    for m in (1, 2**31 - 1, 10**29 + 7):
        for den_a, den_b in ((1, 1), (3, 5)):
            # six terms of -M times six of M: the x^5 coefficient is -6M^2,
            # minus the bound 6M^2 once the denominators are cleared
            a = MultiPoly(1, Q, {(k,): Fraction(-m, den_a) for k in range(6)})
            b = MultiPoly(1, Q, {(k,): Fraction(m, den_b) for k in range(6)})
            assert packed(a, b) and packed(b, a) and packed(a, a)
            assert (a * b).terms[(5,)] == Fraction(-6 * m * m, den_a * den_b)
    for p in (2, 13, 2**61 - 1):
        # every coefficient p - 1: the middle slot holds the bound 6(p - 1)^2
        full = MultiPoly(1, FieldSpec.prime(p), {(k,): p - 1 for k in range(6)})
        assert packed(full, full)
    for n in (1, 2, 3):
        degrees = [40 >> (n - 1)] + [1] * (n - 1)  # over 32 terms
        # every coefficient of the product negative, wide and with a scale
        positive = MultiPoly(n, Q, {u: abs(c) * 10**30 for u, c in _dense_poly(rng, Q, degrees).terms.items()})
        negative = MultiPoly(n, Q, {u: -abs(c) for u, c in _dense_poly(rng, Q, degrees).terms.items()})
        assert packed(positive, negative) and packed(negative, positive)
        assert all(c < 0 for c in (positive * negative).terms.values())
        for spec in [FieldSpec.prime(p) for p in (2, 13, 10007, 2**61 - 1)] + [Q]:
            dense = _dense_poly(rng, spec, degrees)
            for u in ((0,) * n, (2,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)):
                for c in ([Fraction(-7, 3), 10**29 + 7] if spec.p is None else [1, spec.p - 1]):
                    mono = MultiPoly.monomial(n, spec, u, c)
                    assert packed(mono, dense) and packed(dense, mono)


def test_slot_reader_matches_per_slot_reads():
    """_read_slots against one int.from_bytes per slot, at every width from
    1 to 17 bytes, so slots of one, two and three 8-byte limbs and the
    8/9 and 16/17 edges between them, on zero, all-ones and random slots."""
    rng = random.Random(41)
    for width in range(1, 18):
        top = (1 << 8 * width) - 1
        for count in (1, 2, 7):
            for values in ([0] * count, [top] * count, [rng.randint(0, top) for _ in range(count)],
                           [rng.choice((0, top, rng.randint(0, top))) for _ in range(count)]):
                data = b"".join(v.to_bytes(width, "little") for v in values)
                oracle = [int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width)]
                assert polynomials._read_slots(data, width) == oracle == values, (width, values)


@pytest.mark.parametrize("spec", [FieldSpec.prime(13), FieldSpec.prime(10007), FieldSpec.prime(2**61 - 1), Q])
def test_packed_squares_pack_once(monkeypatch, spec):
    """A packed square, f * f or a squaring inside a power, packs its
    operand once, over Q after one clearing of its denominators; a product
    of two distinct operands packs both."""
    packs, products = [], []
    real_pack, real_packed = polynomials._pack, polynomials._mul_packed

    def pack_spy(terms, *args):
        packs.append(terms)
        return real_pack(terms, *args)

    def packed_spy(*args):
        products.append(args)
        return real_packed(*args)

    monkeypatch.setattr(polynomials, "_pack", pack_spy)
    monkeypatch.setattr(polynomials, "_mul_packed", packed_spy)
    rng = random.Random(42)
    f, g = _dense_poly(rng, spec, [6, 1]), _dense_poly(rng, spec, [6, 1])
    if spec.p is None:
        assert any(c.denominator > 1 for c in f.terms.values())
    square = poly_product_oracle(f, f)
    for a, b, expected, count in ((f, f, square, 1), (f, g, poly_product_oracle(f, g), 2)):
        del packs[:], products[:]
        assert a * b == expected
        assert len(products) == 1 and len(packs) == count
    del packs[:], products[:]
    assert f**4 == poly_product_oracle(square, square)
    assert len(products) == 2 and len(packs) == 2  # two packed squarings, one pack each


def test_eval_examples():
    f = parse_poly("x1*x2", 2, Q)
    assert f.evaluate([Q.element(2), Q.element(3)]).value == 6
    assert MultiPoly.zero(2, Q).evaluate([Q.element(9), Q.element(-1)]).is_zero()
    g = parse_poly("x1^2 - x1", 1, F5)
    assert g.evaluate([F5.element(3)]).value == 1
    with pytest.raises(ArityMismatchError):
        f.evaluate([Q.element(1)])


def test_shift_examples():
    f = parse_poly("x1^2", 1, F5)
    assert f.shift([F5.element(3)]) == parse_poly("x1^2 + x1 + 4", 1, F5)
    g = parse_poly("2*x1^3 - x2", 2, Q)
    assert g.shift([Q.zero, Q.zero]) == g
    a = Q.element(7)
    h = parse_poly("x1 - 7", 1, Q)
    assert h.shift([a]) == parse_poly("x1", 1, Q)
    # no variables: a constant is its own expansion, with or without a box
    c = MultiPoly(0, F5, {(): 3})
    assert c.shift(()) == c == c.shift((), ())
    assert MultiPoly.zero(0, F5).shift(()).is_zero()
    # the zero polynomial shifts to zero, boxed or not
    for spec in (F5, Q):
        zero = MultiPoly.zero(3, spec)
        point = [spec.element(v) for v in (1, 2, 4)]
        assert zero.shift(point).is_zero() and zero.shift(point, (1, 3, 2)).is_zero()


def test_shift_groups_the_terms_into_rows_once(monkeypatch):
    """The shift is the grid walk at one point: f is grouped into rows in
    x_1 once, and each coordinate's shift writes the next one's rows."""
    calls = []
    inner = polynomials._rows

    def counting(terms, var, size):
        calls.append(var)
        return inner(terms, var, size)

    monkeypatch.setattr(polynomials, "_rows", counting)
    f = parse_poly("(x1 + 2*x2 - x3 + 1)^3 + x2*x3^4", 3, F7)
    point = [F7.element(v) for v in (3, 0, 5)]
    for box in (None, (2, 1, 3), (9, 9, 9)):
        calls.clear()
        f.shift(point, box)
        assert calls == [0]


def test_shift_composition_random():
    rng = random.Random(101)
    for _ in range(40):
        spec = rand_spec(rng, rational_weight=0.3)
        n = rng.randint(1, 3)
        f = rand_poly(rng, spec, n, max_deg=5)
        s = [rand_element(rng, spec) for _ in range(n)]
        neg = [-x for x in s]
        assert f.shift(s).shift(neg) == f


def test_truncated_shift_is_the_full_shift_cut_to_the_box():
    rng = random.Random(29)
    specs = [FieldSpec.prime(p) for p in (2, 3, 7, 101)] + [Q]
    for k in range(150):
        spec = specs[k % len(specs)]
        n = rng.randint(1, 4)
        f = rand_poly(rng, spec, n, max_deg=6, max_terms=12)
        if k % 10 == 0:
            f = MultiPoly.zero(n, spec)
        s = [rand_element(rng, spec) for _ in range(n)]
        top = f.total_degree() or 0
        full = f.shift(s)
        for box in (
            tuple(rng.randint(1, 4) for _ in range(n)),
            (1,) * n,
            tuple(top + rng.randint(1, 3) for _ in range(n)),  # above the degree
        ):
            cut = {u: c for u, c in full.terms.items() if all(e < b for e, b in zip(u, box))}
            boxed = f.shift(s, box)
            assert boxed.terms == cut
            # independent of the shift kernel: the term-by-term expansion
            u = tuple(rng.randrange(b) for b in box)
            assert boxed.coefficient(u) == expansion_coefficient_oracle(f, s, u)


def test_shift_at_zero_is_a_cut_to_the_box():
    """At the zero point the expansion coefficients are f's own, so the
    boxed shift keeps f's terms below the box."""
    rng = random.Random(31)
    for spec in [F2, FieldSpec.prime(3), FieldSpec.prime(101), Q]:
        for _ in range(40):
            n = rng.randint(1, 4)
            f = rand_poly(rng, spec, n, max_deg=rng.choice([3, 6, 12]), max_terms=12)
            box = tuple(rng.randint(1, 14) for _ in range(n))
            cut = {u: c for u, c in f.terms.items() if all(e < b for e, b in zip(u, box))}
            assert f.shift([spec.zero] * n, box).terms == cut
            assert f.shift([0] * n) == f


def test_shift_box_must_fit_the_arity():
    f = parse_poly("x1*x2 + 1", 2, F5)
    point = [F5.element(1), F5.element(2)]
    for box in [(1,), (1, 1, 1), (0, 2), (2, 0)]:
        with pytest.raises(ArityMismatchError):
            f.shift(point, box)


def _box_coefficients(f, point, box):
    """Every expansion coefficient below the box, zeros included, read from
    one boxed shift."""
    g = f.shift(point, box)
    return {u: g.coefficient(u) for u in itertools.product(*(range(b) for b in box))}


def test_expansion_coefficient_examples():
    f = parse_poly("x1^2", 1, Q)
    coeffs = _box_coefficients(f, [Q.element(1)], (3,))
    assert {u[0]: c.value for u, c in coeffs.items()} == {0: 1, 1: 2, 2: 1}

    f5 = parse_poly("x1^2", 1, F5)
    coeffs = _box_coefficients(f5, [F5.element(3)], (2,))
    assert {u[0]: c.value for u, c in coeffs.items()} == {0: 4, 1: 1}

    # char 2: the first-order coefficient survives where the derivative dies
    f2 = parse_poly("x1^2", 1, F2)
    coeffs = _box_coefficients(f2, [F2.element(1)], (3,))
    assert {u[0]: c.value for u, c in coeffs.items()} == {0: 1, 1: 0, 2: 1}


def test_expansion_reconstruction_random():
    # with w above the per-variable degrees, the boxed expansion recovers f
    rng = random.Random(7)
    for _ in range(25):
        spec = rand_spec(rng, rational_weight=0.3)
        n = rng.randint(1, 2)
        f = rand_poly(rng, spec, n, max_deg=4)
        w = tuple((f.degree_in(i) or 0) + 1 for i in range(n))
        s = [rand_element(rng, spec) for _ in range(n)]
        coeffs = _box_coefficients(f, s, w)
        total = MultiPoly.zero(n, spec)
        for u, c in coeffs.items():
            if c.is_zero():
                continue
            term = MultiPoly.constant(n, spec, c)
            for i, e in enumerate(u):
                base = MultiPoly.variable(n, spec, i) - MultiPoly.constant(n, spec, s[i])
                term = term * base**e
            total = total + term
        assert total == f


def test_high_order_coefficients_are_shift_invariant():
    rng = random.Random(13)
    for _ in range(25):
        spec = rand_spec(rng, rational_weight=0.3)
        n = rng.randint(1, 2)
        f = rand_poly(rng, spec, n, max_deg=4)
        deg = f.total_degree() or 0
        box = tuple(deg + 2 for _ in range(n))
        s1 = [rand_element(rng, spec) for _ in range(n)]
        s2 = [rand_element(rng, spec) for _ in range(n)]
        c1 = _box_coefficients(f, s1, box)
        c2 = _box_coefficients(f, s2, box)
        for u in c1:
            if sum(u) >= deg:
                assert c1[u] == c2[u]


def test_leading_monomial_examples():
    f = parse_poly("x1 + x2^2", 2, Q)
    for perm in ((0,), (0, 1, 2)):
        with pytest.raises(ArityMismatchError):
            parse_poly("x2 + x2^2", 2, Q).leading_monomial(TermOrder("lex", perm))
    assert f.leading_monomial(TermOrder("lex", (0, 1))) == (1, 0)
    assert f.leading_monomial(TermOrder("grlex", (0, 1))) == (0, 2)
    assert f.leading_monomial(TermOrder("grevlex", (0, 1))) == (0, 2)
    mono = parse_poly("3*x1^2*x2", 2, Q)
    for kind in TermOrder.KINDS:
        assert mono.leading_monomial(TermOrder(kind, (0, 1))) == (2, 1)
    with pytest.raises(ValueError):
        MultiPoly.zero(2, Q).leading_monomial(TermOrder("lex", (0, 1)))


def test_grevlex_tiebreak():
    # among degree-2 monomials in two variables: y^2 < x*y < x^2
    order = TermOrder("grevlex", (0, 1))
    ranked = sorted([(2, 0), (1, 1), (0, 2)], key=order.key)
    assert ranked == [(0, 2), (1, 1), (2, 0)]


def test_leading_monomial_multiplicative():
    rng = random.Random(23)
    for _ in range(30):
        spec = rand_spec(rng, rational_weight=0.3)
        n = rng.randint(1, 3)
        f = rand_poly(rng, spec, n, max_deg=3)
        g = rand_poly(rng, spec, n, max_deg=3)
        order = TermOrder(rng.choice(TermOrder.KINDS), tuple(rng.sample(range(n), n)))
        lm_f = f.leading_monomial(order)
        lm_g = g.leading_monomial(order)
        assert (f * g).leading_monomial(order) == tuple(a + b for a, b in zip(lm_f, lm_g))


def test_coefficient_access():
    f = parse_poly("2*x1*x2", 2, F5)
    assert f.coefficient((1, 1)).value == 2
    assert f.coefficient((3, 0)).is_zero()


def test_degree_sentinels():
    z = MultiPoly.zero(2, Q)
    assert z.total_degree() is None
    assert z.degree_in(0) is None
    assert MultiPoly.constant(2, Q, 5).total_degree() == 0


def test_parse_examples():
    f = parse_poly("x1^2 - x1", 1, F5)
    assert f.terms == {(2,): 1, (1,): 4}
    assert all(type(c) is int for c in f.terms.values())
    assert parse_poly("(x1+x2)^2", 2, F2) == parse_poly("x1^2 + x2^2", 2, F2)
    with pytest.raises(PolyParseError):
        parse_poly("", 1, F5)


def test_parse_errors_carry_positions():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 + x9", 3, F5)
    assert err.value.position == 5
    with pytest.raises(PolyParseError):
        parse_poly("2x1", 1, F5)  # implicit multiplication is not allowed
    with pytest.raises(PolyParseError):
        parse_poly("x1^(2)", 1, F5)
    with pytest.raises(PolyParseError):
        parse_poly("x1^99999999", 1, F5)
    with pytest.raises(PolyParseError):
        parse_poly("1/2*x1", 1, F5)  # rational literals need the rational field
    with pytest.raises(PolyParseError):
        parse_poly("x1/2", 1, Q)  # '/' only joins integer literals
    for text, message in (
        ("1/0", "zero denominator (position 2)"),
        ("1/", "expected denominator after '/' (position 2)"),
        ("(x1", "expected ')', found 'end of input' (position 3)"),
    ):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, 1, Q)
        assert str(err.value) == message


def test_parse_refuses_non_ascii_digits():
    # int() reads any Unicode decimal digit; the grammar takes ASCII digits only
    for text, pos, char in (("x\u0661 + \u0663", 1, "\u0661"), ("x1\u0663", 2, "\u0663"),
                            ("x1 + \u0663", 5, "\u0663"), ("x1^\uff12", 3, "\uff12")):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, 1, F5)
        assert str(err.value) == f"unexpected character {char!r} (position {pos})"
    # Unicode whitespace is still whitespace, and a lone x is still refused at itself
    assert parse_poly("x1 +\u00a02", 1, F5) == parse_poly("x1 + 2", 1, F5)
    with pytest.raises(PolyParseError, match=r"unexpected character 'x' \(position 5\)"):
        parse_poly("x1 + x", 1, F5)


def test_parse_names_an_operator_where_an_operand_belongs():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 + *", 1, F5)
    assert str(err.value) == "unexpected '*' (position 5)" and err.value.position == 5


def test_parse_refuses_literals_past_the_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = "7" * (limit + 1)
    for text, pos, spec in ((f"x1 + {big}", 5, F5), (f"x1^{big}", 3, F5), (f"x{big}", 0, F5),
                            (f"1/{big}*x1", 2, Q)):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, 1, spec)
        assert str(err.value) == (
            f"literal of {limit + 1} digits exceeds Python's int/str digit limit of {limit} (position {pos})"
        )
    # a literal of exactly the limit is an ordinary integer
    assert parse_poly("7" * limit, 1, Q).terms == {(0,): int("7" * limit)}


def test_parser_matches_the_operator_route():
    rng = random.Random(2024)
    for spec in (F2, FieldSpec.prime(3), FieldSpec.prime(10007), Q):
        for _ in range(300):
            n = rng.randint(1, 3)
            text, want = operator_route_oracle(rng, spec, n, rng.randint(1, 7))
            got = parse_poly(text, n, spec)
            assert got == want and list(got.terms) == list(want.terms), text


def test_long_sums_parse_in_linear_time():
    # 30 000 distinct terms: a running sum copied at every '+' is quadratic,
    # about a minute here, while one accumulator takes a second or two
    F = FieldSpec.prime(10007)
    text = " + ".join(f"{i % 10006 + 1}*x1^{i // 150}*x2^{i % 150}" for i in range(30_000))
    start = time.process_time()
    f = parse_poly(text, 2, F)
    assert time.process_time() - start < 8
    assert len(f.terms) == 30_000 and f.terms[(199, 149)] == 29_999 % 10006 + 1 and f.terms[(0, 0)] == 1


def test_parse_rejects_deep_nesting():
    for text in ["(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1"]:
        with pytest.raises(PolyParseError, match="nested too deeply"):
            parse_poly(text, 1, F5)
    # nesting up to the limit of 200 still parses
    assert parse_poly("(" * 200 + "x1" + ")" * 200, 1, F5) == parse_poly("x1", 1, F5)
    assert parse_poly("-" * 200 + "x1", 1, F5) == parse_poly("x1", 1, F5)
    with pytest.raises(PolyParseError, match="nested too deeply"):
        parse_poly("-(" * 100 + "-x1" + ")" * 100, 1, F5)


def test_parse_caps_each_variables_degree():
    # the degrees are checked before multiplying, so none of these runs long
    for text in ["(x1^10000)^1000", "(x1^10000)^100", "*".join(["x1^10000"] * 100),
                 "(x1^5000)^3", "x1^10000*x1", "(x2 + x1^2)^5001"]:
        with pytest.raises(PolyParseError, match="degree .* exceeds the limit 10000"):
            parse_poly(text, 2, F5)
    # the cap is per variable, and a zero factor has no degree
    f = parse_poly("(x1^5000)^2*x2^10000", 2, F5)
    assert (f.degree_in(0), f.degree_in(1)) == (10000, 10000)
    assert parse_poly("(x1 - x1)^10000*x1^10000*x1", 2, F5).is_zero()
    # a product of monomials is refused at the '*' that takes a degree past the cap
    for text, message in [
        ("x1^6000*x1^5000", "degree 11000 in x1 exceeds the limit 10000 (position 7)"),
        ("x2^10000*x1*x2", "degree 10001 in x2 exceeds the limit 10000 (position 11)"),
        ("x1^0*x1^10000*x1", "degree 10001 in x1 exceeds the limit 10000 (position 13)"),
    ]:
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text, 2, F5)
        assert str(exc.value) == message, text
    assert parse_poly("x1^0*x1^10000", 2, F5).terms == {(10000, 0): 1}


def test_monomials_parse_without_the_product_kernel(monkeypatch):
    calls = []
    mul_raw, power = polynomials._mul_raw, MultiPoly.__pow__
    monkeypatch.setattr(polynomials, "_mul_raw", lambda *args: calls.append("_mul_raw") or mul_raw(*args))
    monkeypatch.setattr(MultiPoly, "__pow__", lambda f, e: calls.append("__pow__") or power(f, e))
    f = parse_poly("3*x1^2*x2 - x3^4 + 5*x1*x2*x3", 3, Q)
    assert list(f.terms.items()) == [((2, 1, 0), 3), ((0, 0, 4), -1), ((1, 1, 1), 5)] and calls == []
    # a factor of several terms goes through the product kernel, and a power
    # of a parenthesized factor through MultiPoly.__pow__
    assert parse_poly("(x1 + 1)*x2", 2, Q) == MultiPoly(2, Q, {(1, 1): 1, (0, 1): 1})
    assert calls == ["_mul_raw"]
    assert parse_poly("(x1 + x2)^2", 2, Q) == MultiPoly(2, Q, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert calls[1] == "__pow__" and "_mul_raw" in calls[2:]


def test_parse_rational_literals():
    f = parse_poly("1/2*x1 - 3/4", 1, Q)
    assert f.coefficient((1,)).value == Fraction(1, 2)
    assert f.coefficient((0,)).value == Fraction(-3, 4)


def test_print_parse_round_trip_random():
    rng = random.Random(31)
    for _ in range(60):
        spec = rand_spec(rng, rational_weight=0.4)
        n = rng.randint(1, 3)
        f = rand_poly(rng, spec, n, max_deg=5)
        assert parse_poly(str(f), n, spec) == f
    assert parse_poly(str(MultiPoly.zero(2, Q)), 2, Q) == MultiPoly.zero(2, Q)


def test_unary_minus_binds_looser_than_power():
    assert parse_poly("-x1^2", 1, Q) == MultiPoly(1, Q, {(2,): -1})
    assert parse_poly("-2^2", 1, Q) == MultiPoly.constant(1, Q, -4)
    assert parse_poly("-(x1 + 2)^2", 1, Q) == parse_poly("-x1^2 - 4*x1 - 4", 1, Q)
    assert parse_poly("--x1^2", 1, F5) == parse_poly("x1^2", 1, F5)
    assert parse_poly("x1 - -x1^3", 1, Q) == parse_poly("x1^3 + x1", 1, Q)
    assert parse_poly("-x1^4*x2^2 + 3*x2", 2, F5).terms == {(4, 2): 4, (0, 1): 3}
    with pytest.raises(PolyParseError, match="unexpected '\\^'"):
        parse_poly("-x1^2^3", 1, Q)  # a factor takes one '^', with or without '-'
    # printed polynomials led by -x^(even) read back as themselves
    rng = random.Random(71)
    for trial in range(60):
        spec = Q if trial % 2 else rand_spec(rng)
        n = rng.randint(1, 3)
        f = -rand_poly(rng, spec, n, max_deg=6)
        lead = (2 * rng.randint(1, 3),) + (0,) * (n - 1)
        f = f - MultiPoly.monomial(n, spec, lead) * rng.randint(1, 3)
        assert parse_poly(str(f), n, spec) == f, str(f)


def test_divmod_univariate():
    f = parse_poly("x1^3*x2 + x1*x2 + x2^2", 2, Q)
    d = parse_poly("x1^2 - 1", 2, Q)
    q, r = f.divmod_univariate(d, 0)
    assert q * d + r == f
    assert (r.degree_in(0) or 0) < 2
    exact = parse_poly("(x1^2 - 1)*(x1*x2 + 5)", 2, Q)
    q2, r2 = exact.divmod_univariate(d, 0)
    assert r2.is_zero() and q2 == parse_poly("x1*x2 + 5", 2, Q)
    with pytest.raises(ValueError):
        f.divmod_univariate(parse_poly("x1*x2", 2, Q), 0)
    with pytest.raises(ZeroDivisionError) as info:
        f.divmod_univariate(MultiPoly.zero(2, Q), 1)
    assert str(info.value) == "division by the zero polynomial"


def test_divmod_univariate_random_variable_and_leading_coefficient():
    rng = random.Random(41)
    for spec in (F7, FieldSpec.prime(10007), Q):
        for _ in range(30):
            n = rng.choice((2, 3))
            f = rand_poly(rng, spec, n, max_deg=6, max_terms=10)
            var = rng.randrange(n)
            coeffs = {}
            deg = rng.randint(0, 3)
            for e in range(deg):
                coeffs[tuple(e if i == var else 0 for i in range(n))] = rand_element(rng, spec)
            lead = rand_element(rng, spec)
            while lead.is_zero():
                lead = rand_element(rng, spec)
            coeffs[tuple(deg if i == var else 0 for i in range(n))] = lead
            d = MultiPoly(n, spec, coeffs)
            q, r = f.divmod_univariate(d, var)
            assert q * d + r == f
            assert r.is_zero() or r.degree_in(var) < deg
            assert all(q.terms.values()) and all(r.terms.values())


def test_divmod_univariate_checks_the_variable_index():
    f = parse_poly("x1*x2 + 3", 2, F7)
    for var, divisor in ((-1, MultiPoly.constant(2, F7, 2)), (5, MultiPoly.constant(2, F7, 2)),
                         (2, parse_poly("x1", 2, F7))):
        with pytest.raises(ArityMismatchError, match=f"variable index {var} out of range for arity 2"):
            f.divmod_univariate(divisor, var)


@pytest.mark.parametrize("spec", [F7, FieldSpec.prime(10007), Q], ids=str)
def test_divmod_kernel_matches_row_oracle(spec):
    """Every row of the kernel's output is the textbook division of that row
    of f; dense f mixes terms below and above the divisor's degree, so low
    terms meet the corrections of the high ones."""
    rng = random.Random(43)
    for _ in range(40):
        n = rng.choice((2, 3))
        var = rng.randrange(n)
        f = rand_poly(rng, spec, n, max_deg=7, max_terms=30)
        deg = rng.randint(0, 4)
        monic = [rand_element(rng, spec) for _ in range(deg)] + [spec.one]
        quot, rem = polynomials._divmod_raw(spec, f.terms, var, [c.value for c in monic])
        rows = {}
        for u, c in f.terms.items():
            rows.setdefault((u[:var], u[var + 1:]), {})[u[var]] = c
        want_q, want_r = {}, {}
        for (head, rest), sparse in rows.items():
            row = [spec.element(sparse.get(e, 0)) for e in range(max(sparse) + 1)]
            for want, part in zip((want_q, want_r), univariate_divmod_oracle(row, monic, spec)):
                want.update({head + (e,) + rest: c.value for e, c in enumerate(part) if not c.is_zero()})
        assert quot == want_q and rem == want_r
        assert all(quot.values()) and all(rem.values())


def test_divmod_kernel_drops_low_terms_that_cancel():
    f = parse_poly("(x1^2 - 1)*x2", 2, F7)
    quot, rem = polynomials._divmod_raw(F7, f.terms, 0, [F7.element(-1).value, 0, 1])
    assert rem == {} and quot == {(0, 1): 1}
    q, r = f.divmod_univariate(parse_poly("x1^2 - 1", 2, F7), 0)
    assert r.terms == {} and q == parse_poly("x2", 2, F7)


def test_divmod_kernel_by_a_constant_leaves_no_remainder():
    for spec in (F7, Q):
        f = parse_poly("3*x1^2*x2 + x1 + 5", 2, spec)
        quot, rem = polynomials._divmod_raw(spec, f.terms, 1, [2])
        assert rem == {}
        assert MultiPoly(2, spec, quot) * MultiPoly.constant(2, spec, 2) == f


@pytest.mark.parametrize("spec", [F7, FieldSpec.prime(10007), Q], ids=str)
def test_divmod_kernel_leaves_the_input_alone_and_keeps_its_order(spec):
    """The remainder is a new dict, the caller's terms are not changed, the
    terms below the divisor's degree that survive keep f's order, and terms
    the folding creates come after them."""
    rng = random.Random(47)
    for _ in range(60):
        n = rng.choice((1, 2, 3))
        var = rng.randrange(n)
        f = rand_poly(rng, spec, n, max_deg=7, max_terms=30)
        deg = rng.randint(0, 4)
        divisor = [rand_element(rng, spec).value for _ in range(deg)] + [rand_element(rng, spec).value or 1]
        before = list(f.terms.items())
        quot, rem = polynomials._divmod_raw(spec, f.terms, var, divisor)
        assert list(f.terms.items()) == before
        assert quot is not f.terms and rem is not f.terms
        low = [u for u in f.terms if u[var] < deg]
        kept = [u for u in low if u in rem]
        assert list(rem)[: len(kept)] == kept
        assert not set(list(rem)[len(kept):]) & set(f.terms)


def test_divmod_kernel_with_no_high_term_returns_its_input():
    for spec in (F7, Q):
        f = parse_poly("3*x1^2*x2 + x1 + 5 + x2^4*x1", 2, spec)
        quot, rem = polynomials._divmod_raw(spec, f.terms, 0, [1, 2, 0, 1])
        assert quot == {}
        assert rem == f.terms and list(rem.items()) == list(f.terms.items())
        assert rem is not f.terms
        rem[(9, 9)] = 1
        assert (9, 9) not in f.terms


@pytest.mark.parametrize("spec", [F2, FieldSpec.prime(3), FieldSpec.prime(10007), Q], ids=str)
def test_inv_series_times_its_input_is_one_below_y_to_the_n(spec):
    """b = _inv_series(a, n) must satisfy a * b = 1 mod y^n: checked by a
    schoolbook product in FieldElement arithmetic, with a[0] other than 1
    wherever the field has one, a shorter and a longer than n, and n = 0."""
    rng = random.Random(71)
    for trial in range(60):
        n = rng.randint(0, 12)
        a = [rand_element(rng, spec) for _ in range(rng.choice((1, 2, max(n, 1), n + 1, n + 5)))]
        while a[0] == 0 or (trial % 2 and spec.p != 2 and a[0] == 1):
            a[0] = rand_element(rng, spec)
        b = polynomials._inv_series(spec, [c.value for c in a], n)
        assert len(b) == n
        b = [spec.element(v) for v in b]
        for k in range(n):
            coeff = sum((a[j] * b[k - j] for j in range(min(k, len(a) - 1) + 1)), spec.zero)
            assert coeff == (spec.one if k == 0 else spec.zero), (a, n, k)


# -- packed row sets ------------------------------------------------------------

_MIN = polynomials._PACKED_MIN_ROWS
_WIDTH = array(polynomials._SLOT_CODE).itemsize


def _slot_prime(size: int, above: bool) -> int:
    """The largest prime p with size * (p - 1)^2 in a slot, or the next
    prime above it."""
    p = math.isqrt(((1 << 8 * _WIDTH) - 1) // size) + 1
    while not is_probable_prime(p) or (size * (p - 1) ** 2).bit_length() > 8 * _WIDTH:
        p -= 1
    if above:
        p += 1
        while not is_probable_prime(p):
            p += 1
    return p


def _row_set(rng, spec, count: int, size: int, arity: int = 3):
    """count rows of length size, keyed by random exponents of the other
    arity - 1 variables below 4, with some zero entries and a zero row; over
    F_p also rows of p - 1 only, the largest entries a slot can meet."""
    rows = {}
    while len(rows) < count:
        rest = tuple(rng.randrange(4) for _ in range(arity - 1))
        kind = rng.random()
        if kind < 0.1 and spec.p:
            row = [spec.p - 1] * size
        elif kind < 0.15:
            row = [0] * size
        else:
            row = [0 if rng.random() < 0.3 else rand_element(rng, spec).value for _ in range(size)]
        rows.setdefault(rest, row)
    return rows


def _both_shifts(spec, rows, var, cols, packed, size=0):
    """The per-row and the packed shift, as lists of items in insertion order."""
    per_row = polynomials._shift_raw(spec, rows, var, cols, None, size)
    together = polynomials._shift_raw(spec, rows, var, cols, packed, size)
    return list(per_row.items()), list(together.items())


_PACKED_FIELDS = [
    (F2, True),
    (FieldSpec.prime(3), True),
    (FieldSpec.prime(101), True),
    (FieldSpec.prime(10007), True),
    (FieldSpec.prime(_slot_prime(10, above=False)), True),
    (FieldSpec.prime(_slot_prime(10, above=True)), False),
    (FieldSpec.prime(2**61 - 1), False),
    (Q, False),
]


@pytest.mark.parametrize("spec, packs", _PACKED_FIELDS, ids=lambda v: str(v))
def test_packed_and_per_row_shifts_agree(spec, packs):
    """Both paths give the same terms in the same order, rows first, then j,
    and, asked for rows of the next variable, the same rows in the order
    _rows gives them.  Row sets of rows of length 10 shifted at two values
    or more pack from _PACKED_MIN_ROWS rows up over the largest p whose
    10 * (p - 1)^2 fits a slot, while the next prime above it, 2^61 - 1 and
    Q keep the per-row loop, as does a set shifted at one value.  Over F_2
    and F_3 the rows' degree reaches p."""
    rng = random.Random(89)
    size = 10
    for count in (1, _MIN - 1, _MIN, _MIN + 1, 3 * _MIN):
        for _ in range(6):
            rows = _row_set(rng, spec, count, size)
            assert polynomials._pack_rows(spec, rows, 1) is None
            packed = polynomials._pack_rows(spec, rows, 2)
            if not packs or count < _MIN:
                assert packed is None
            else:
                assert len(packed) == size
            # the rows are in x_{var+1}; var = 2 is the last of three variables
            for var in (0, 1, 2):
                s = rand_element(rng, spec).value if rng.random() < 0.8 else 0
                cols = polynomials._taylor_columns(spec, s, size - 1, rng.randint(1, size))
                per_row, together = _both_shifts(spec, rows, var, cols, packed)
                assert per_row == together, (spec, count, var, s)
                if var < 2:
                    want = polynomials._rows(dict(per_row), var + 1, 4)
                    per_row, together = _both_shifts(spec, rows, var, cols, packed, 4)
                    assert per_row == together == list(want.items()), (spec, count, var, s)


def test_packed_slots_hold_the_largest_dot_product():
    """At the largest p whose 10 * (p - 1)^2 fits a slot, a column of p - 1
    against rows of p - 1 fills each slot to 10 * (p - 1)^2 with no carry
    into the next; the next prime above it is not packed."""
    for p, packs in ((_slot_prime(10, above=False), True), (_slot_prime(10, above=True), False)):
        spec = FieldSpec.prime(p)
        rows = {(k,): [p - 1] * 10 for k in range(_MIN + 1)}
        packed = polynomials._pack_rows(spec, rows, 2)
        if not packs:
            assert packed is None
            continue
        (values,) = zip(*polynomials._packed_dots(spec, packed, len(rows), [[p - 1] * 10]))
        assert list(values) == [10 * (p - 1) ** 2 % p] * len(rows)
