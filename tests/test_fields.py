import copy
import pickle
import random
import sys
import threading
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from nullgrid import (
    FieldElement,
    FieldMismatchError,
    FieldSpec,
    MultiPoly,
    Multiset,
    find_witness,
    grid_expansions,
    is_probable_prime,
    parse_poly,
    reduce_poly,
    value_set,
    weight_table,
)
from nullgrid import fields
from nullgrid.fields import field_from_dict
from randgen import rand_element, rand_grid, rand_poly, rand_witness_instance


def xgcd(a, b):
    """Independent extended-Euclid oracle for inverse checks."""
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s


@st.composite
def spec_and_elements(draw, count=3):
    if draw(st.booleans()):
        p = draw(st.sampled_from([2, 3, 5, 7, 13, 101]))
        spec = FieldSpec.prime(p)
        elems = [spec.element(draw(st.integers(0, p - 1))) for _ in range(count)]
    else:
        spec = FieldSpec.rationals()
        elems = [
            spec.element(Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 12))))
            for _ in range(count)
        ]
    return spec, elems


def test_spec_construction(monkeypatch):
    assert FieldSpec.prime(2).characteristic == 2
    assert FieldSpec.prime(101).characteristic == 101
    assert FieldSpec.rationals().characteristic == 0
    with pytest.raises(ValueError):
        FieldSpec.prime(6)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)
    with pytest.raises(ValueError):
        FieldSpec("prime", None)
    with pytest.raises(ValueError):
        FieldSpec("weird")

    # one object per field, however it is built
    f7, q = FieldSpec.prime(7), FieldSpec.rationals()
    assert FieldSpec("prime", 7) is f7 is field_from_dict({"kind": "prime", "p": 7})
    assert FieldSpec("rational") is q is field_from_dict({"kind": "rational"})
    assert f7 is not FieldSpec.prime(5)
    for d, kind in (({"kind": "bogus", "p": 7}, "'bogus'"), ({"p": 7}, "None"), ({"kind": "Prime"}, "'Prime'")):
        with pytest.raises(ValueError) as info:
            field_from_dict(d)
        assert str(info.value) == f"unknown field kind {kind}"
    # every bad modulus is refused on every call: validation precedes the
    # lookup, so 7.0 and True never reach the entries for 7 and 1
    for bad in (4, 1, 7.0, True, "7", None, 0, -7):
        for _ in range(2):
            with pytest.raises(ValueError):
                FieldSpec("prime", bad)
    with pytest.raises(ValueError):
        FieldSpec("rational", 7)
    for spec in (f7, q):
        assert copy.copy(spec) is spec
        assert copy.deepcopy(spec) is spec
        assert pickle.loads(pickle.dumps(spec)) is spec
    # values built over a field keep that very field through copies
    for spec in (f7, q):
        elem = spec.element(3)
        poly = parse_poly("3*x1^2 + x2 + 1", 2, spec)
        ms = Multiset.of(spec, {1: 2, 3: 1})
        for obj in (elem, poly, ms):
            for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert clone == obj and clone.spec is spec
    # equality stays per field, and equal elements hash equal
    assert f7.element(3) != FieldSpec.prime(5).element(3)
    assert f7.element(10) == f7.element(3) and hash(f7.element(10)) == hash(f7.element(3))
    assert hash(q.element(Fraction(4, 2))) == hash(q.element(2))
    # threads that build one fresh field at once all get a single object; a
    # lookup that yields before returning lets every thread miss the table,
    # so a check-then-store in place of setdefault would hand out several
    class YieldingTable(dict):
        def get(self, key, default=None):
            value = super().get(key, default)
            time.sleep(0.001)
            return value

    monkeypatch.setattr(fields, "_FIELDS", YieldingTable(fields._FIELDS))
    fresh = 2**89 - 1  # a Mersenne prime no other test builds
    barrier = threading.Barrier(8)
    built = []

    def build():
        barrier.wait(timeout=10)
        built.append(FieldSpec.prime(fresh))

    threads = [threading.Thread(target=build) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)
    assert len(built) == 8 and all(spec is built[0] for spec in built)
    assert FieldSpec("prime", fresh) is built[0]


def test_an_interned_modulus_is_not_tested_again(monkeypatch):
    """A modulus already interned is a prime, so a second construction looks
    it up and runs no primality test; the type is still checked first,
    since 7.0, Fraction(7) and True hash like the ints 7 and 1."""
    calls = []
    inner = fields.is_probable_prime

    def counting(p):
        calls.append(p)
        return inner(p)

    monkeypatch.setattr(fields, "is_probable_prime", counting)
    fresh = 2**107 - 1  # a Mersenne prime no other test builds
    spec = FieldSpec.prime(fresh)
    assert calls == [fresh]
    assert FieldSpec.prime(fresh) is spec and FieldSpec("prime", fresh) is spec
    assert FieldSpec.prime(7) is FieldSpec.prime(7) and calls.count(fresh) == 1
    calls.clear()
    for _ in range(3):
        FieldSpec.prime(7)
        FieldSpec.rationals()
    assert calls == []
    for bad in (7.0, Fraction(7), True, 8):
        with pytest.raises(ValueError, match="modulus must be a prime integer"):
            FieldSpec("prime", bad)
    assert calls == [8]


def test_primality_check():
    assert is_probable_prime(2) and is_probable_prime(3) and is_probable_prime(97)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(2**61 + 1)
    # composites with no factor among the bases, refused by a base
    assert not is_probable_prime(43**2)
    assert not is_probable_prime(3215031751)  # 151 * 751 * 28351, strong pseudoprime to 2, 3, 5, 7
    # psi_12 passes the first twelve prime bases; base 41 refuses it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_probable_prime(psi12)
    with pytest.raises(ValueError, match="modulus must be a prime integer"):
        FieldSpec.prime(psi12)


def test_add_examples():
    f5 = FieldSpec.prime(5)
    assert (f5.element(3) + f5.element(4)).value == 2
    for x in range(5):
        assert (f5.zero + f5.element(x)) == f5.element(x)
    q = FieldSpec.rationals()
    assert (q.element(Fraction(1, 2)) * q.element(Fraction(2, 3))).value == Fraction(1, 3)


def test_inverse_examples():
    f7 = FieldSpec.prime(7)
    assert f7.element(3).inv().value == 5
    assert FieldSpec.prime(5).element(4).inv().value == 4
    for p in (2, 3, 5, 7, 13):
        spec = FieldSpec.prime(p)
        assert spec.one.inv() == spec.one
        for a in range(1, p):
            g, s = xgcd(a, p)
            assert g == 1
            assert spec.element(a).inv().value == s % p
    with pytest.raises(ZeroDivisionError):
        FieldSpec.prime(5).zero.inv()
    with pytest.raises(ZeroDivisionError):
        FieldSpec.rationals().zero.inv()


def test_pow_examples():
    f3 = FieldSpec.prime(3)
    assert (f3.element(2) ** 2).value == 1
    assert (f3.zero**0).value == 1  # empty product convention
    assert (FieldSpec.rationals().zero ** 0).value == 1
    f7 = FieldSpec.prime(7)
    assert (f7.element(3) ** 6).value == 1  # Fermat
    with pytest.raises(ValueError):
        f7.element(3) ** -1
    # modular exponentiation: a plain power of 3 this large would not finish
    assert FieldSpec.prime(10007).element(3) ** 10**18 == pow(3, 10**18, 10007)
    assert type((FieldSpec.rationals().element("1/2") ** 0).value) is int
    for e in (0.5, True, Fraction(1, 2), "2"):
        with pytest.raises(TypeError):
            FieldSpec.rationals().element(2) ** e
        with pytest.raises(TypeError):
            f7.element(3) ** e


def test_mismatched_specs():
    a = FieldSpec.prime(5).element(1)
    b = FieldSpec.prime(7).element(1)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * FieldSpec.rationals().element(1)
    # arithmetic coerces through the field's one rule, but a mismatch keeps
    # its own message naming both fields; plain ints and Fractions are
    # coerced, and other operand types are refused
    f5, f7, q = FieldSpec.prime(5), FieldSpec.prime(7), FieldSpec.rationals()
    a, b = f5.element(2), f7.element(3)
    ops = [
        lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
        lambda x, y: x / y, lambda x, y: x < y, lambda x, y: x <= y,
    ]
    for op in ops:
        for x, y, text in ((a, b, "F_5 and F_7"), (b, a, "F_7 and F_5"), (a, q.element(1), "F_5 and QQ")):
            with pytest.raises(FieldMismatchError) as info:
                op(x, y)
            assert str(info.value) == f"mixed fields {text}"
    assert (a + 4, 4 - a, a * Fraction(6, 2), a / 3) == (1, 2, 1, 4)
    assert type(a + 4) is FieldElement and (a + 4).spec is f5
    for other in (True, 1.5, "2", None):
        with pytest.raises(TypeError, match="unsupported operand"):
            a + other
    with pytest.raises(TypeError, match="non-integer rational 1/2 has no canonical image in F_5"):
        a * Fraction(1, 2)


def test_same_field_operands_skip_the_coercion_call(monkeypatch):
    f5, f7 = FieldSpec.prime(5), FieldSpec.prime(7)
    a, b = f5.element(2), f5.element(4)
    calls = []
    element = FieldSpec.element
    monkeypatch.setattr(FieldSpec, "element", lambda spec, v: calls.append(v) or element(spec, v))
    # an element of the same field is used as it is
    assert (a + b, a - b, b - a, a * b, a / b, a < b, b <= a) == (1, 3, 2, 3, 3, True, False)
    assert calls == []
    # ints and Fractions still take the field's one rule
    assert (a + 4, 4 - a, a * Fraction(6, 2)) == (1, 2, 1) and calls == [4, 4, Fraction(3)]
    for op in (lambda x, y: x + y, lambda x, y: x * y, lambda x, y: x < y):
        with pytest.raises(FieldMismatchError) as info:
            op(a, f7.element(3))
        assert str(info.value) == "mixed fields F_5 and F_7"
        with pytest.raises(TypeError, match="unsupported operand|not supported"):
            op(a, True)


def test_canonical_strings_round_trip():
    q = FieldSpec.rationals()
    for text in ("3/4", "-3/4", "7", "0"):
        assert str(q.element(text)) == text
    f11 = FieldSpec.prime(11)
    assert f11.element("-1").value == 10
    with pytest.raises(ValueError):
        f11.element("1/2")


def test_exponent_notation_is_rejected():
    q = FieldSpec.rationals()
    for text in ("1e3", "2E-1", "1.5e2"):
        with pytest.raises(ValueError, match=repr(text)):
            q.element(text)
        with pytest.raises(ValueError, match=repr(text)):
            FieldSpec.prime(11).element(text)
    assert q.element("1.5").value == Fraction(3, 2)
    assert q.element("-3/6").value == Fraction(-1, 2)
    assert q.element("12").value == 12


def test_integral_rationals_are_plain_ints():
    q = FieldSpec.rationals()
    for value in (4, "8/2", " 4 ", Fraction(8, 2)):
        raw = q.element(value).value
        assert type(raw) is int and raw == 4
    assert type(q.zero.value) is int and type(q.one.value) is int
    third = q.element("1/3")
    assert type(third.value) is Fraction
    assert type(third.inv().value) is int and third.inv().value == 3
    assert type(q.element(-2).inv().value) is Fraction


def test_int_and_fraction_forms_agree():
    q = FieldSpec.rationals()
    half = q.element("1/2")
    assert type((half + half).value) is int
    one = FieldElement(Fraction(1), q)  # a non-canonical form, built directly
    assert one == q.one and hash(one) == hash(q.one)
    assert one <= q.one and not one < q.one and str(one) == str(q.one) == "1"
    for pairs in ([("1", 1), ("2/2", 2)], [(q.one, 1), (one, 2)]):
        with pytest.raises(ValueError, match="duplicate"):
            Multiset(q, pairs)


def _assert_canonical(spec, raw):
    if spec.is_prime_field:
        assert type(raw) is int and 0 <= raw < spec.p, (spec, raw)
    else:
        assert type(raw) is int or (type(raw) is Fraction and raw.denominator != 1), raw


def _assert_raw_terms(spec, poly):
    """A polynomial stores raw canonical coefficients, never a zero."""
    for c in poly.terms.values():
        assert not isinstance(c, FieldElement) and c, (spec, c)
        _assert_canonical(spec, c)


def test_kernels_return_canonical_raw_values():
    """Over F_p a raw value is an int in [0, p); over the rationals an int,
    or a Fraction whose denominator is not 1.  Every polynomial operation
    leaves raw values in the result's terms and its operands' terms as they
    were; a coefficient leaves the library as a FieldElement."""
    rng = random.Random(61)
    for trial in range(60):
        spec = FieldSpec.prime(rng.choice([2, 3, 7, 101])) if trial % 2 else FieldSpec.rationals()
        n = rng.randint(1, 3)
        grid = rand_grid(rng, spec, n, max_size=4, integer_elements=trial % 4 == 0)
        f = rand_poly(rng, spec, n, max_deg=6)
        g = rand_poly(rng, spec, n, max_deg=3)
        before = (dict(f.terms), dict(g.terms))
        point = [rand_element(rng, spec) for _ in range(n)]
        a = rand_element(rng, spec)
        scalars = [a, 3, -2] + ([Fraction(-3, 4)] if not spec.is_prime_field else [])
        res = reduce_poly(f, grid)
        gen = grid.sets[0].generator_poly(0, n)
        polys = [f, g, f + g, f - g, -f, f * g, f**0, f**1, f**3, f.shift(point, [3] * n), f.shift(point)]
        polys += [f * c for c in scalars] + [c * f for c in scalars]
        polys += list(f.divmod_univariate(gen, 0)) + [res.remainder, *res.cofactors]
        walked = list(grid_expansions(f, grid))
        polys += [SimpleNamespace(terms=terms) for _, terms in walked] + list(grid.generators())
        polys += [parse_poly(str(f), n, spec), MultiPoly(n, spec, {(0,) * n: a, (1,) * n: "2"})]
        for poly in polys:
            _assert_raw_terms(spec, poly)
        assert (f**1).terms is not f.terms and (f**1).terms == f.terms
        assert (dict(f.terms), dict(g.terms)) == before
        out = [f.coefficient(u) for u in f.terms] + [f.coefficient((9,) * n), f.evaluate(point)]
        raws = [v for ms in grid.sets for v in ms._generator_raw()]
        raws += [w.value for w in weight_table(grid).weights.values()]
        raws += [e.value for e in value_set(f, grid).support]
        raws += [x for point, _ in walked for x in point]
        b = rand_element(rng, spec)
        values = [a + b, a - b, a * b, -a, a**3, a + 1, 1 - a, a * 2]
        out += values + ([a / b, b.inv()] if b else [])
        for x in out:
            assert type(x) is FieldElement and x.spec == spec
            _assert_canonical(spec, x.value)
        for raw in raws:
            _assert_canonical(spec, raw)
    for trial in range(20):
        spec = FieldSpec.prime(rng.choice([3, 7, 101])) if trial % 2 else FieldSpec.rationals()
        f, grid, t = rand_witness_instance(rng, spec, rng.randint(1, 2))
        for method in ("exhaustive", "divided_difference"):
            w = find_witness(f, grid, t, method)
            assert type(w.value) is FieldElement and not w.value.is_zero()
            _assert_canonical(spec, w.value.value)
    # the integral values that Fraction arithmetic produces come back as ints
    q = FieldSpec.rationals()
    assert Multiset(q, [("1/2", 2)])._generator_raw() == [Fraction(1, 4), -1, 1]
    for raw in Multiset(q, [("1/2", 2)])._generator_raw():
        _assert_canonical(q, raw)


def test_ordering_against_a_non_element_is_a_type_error():
    a = FieldSpec.prime(5).element(1)
    for compare in (lambda: a < "a", lambda: a <= "a", lambda: a > "a", lambda: a >= "a"):
        with pytest.raises(TypeError):
            compare()
    assert a < 2 and a <= 1


def test_ordering_against_an_int_on_either_side():
    f7 = FieldSpec.prime(7)
    three, five = f7.element(3), f7.element(5)
    # an int is ordered as it is, unreduced, whichever side it stands on
    assert three > 1 and three >= 1 and three >= 3 and not three > 3
    assert 1 < three and 1 <= three and 3 <= three and not 3 < three
    assert three < 10 and three <= 10 and not three > 10 and not three >= 10
    assert 10 > three and 10 >= three and not 10 < three and not 10 <= three
    # element against element, both ways round
    assert five > three and five >= three and three < five and three <= five
    assert not three > five and not three >= five and not five < three and not five <= three
    assert three >= f7.element(3) and three <= f7.element(10) and not three > f7.element(10)
    q = FieldSpec.rationals()
    half = q.element(Fraction(1, 2))
    assert half > 0 and 0 < half and half >= q.element(Fraction(1, 2)) and 1 > half and 1 >= half
    with pytest.raises(FieldMismatchError):
        three > FieldSpec.prime(5).element(1)


def test_an_int_equals_only_the_canonical_value_so_hashes_agree():
    f7 = FieldSpec.prime(7)
    three = f7.element(3)
    assert three == 3 and 3 == three and hash(three) == hash(3)
    # 10 reduces to 3 in F_7 but is not its canonical value
    assert three != 10 and f7.element(6) != -1
    assert 3 in {three} and three in {3: "x"} and {three: "x"}[3] == "x"
    assert 10 not in {three} and three not in {10: "x"}
    # order agrees with equality: 10 is above 3, not level with it
    assert three < 10 and 10 > three and three <= 3 and not three < 3
    q = FieldSpec.rationals()
    half, two = q.element(Fraction(1, 2)), q.element(2)
    assert two == 2 and 2 in {two} and two in {2: "x"}
    assert half != 0 and 0 not in {half}


def test_a_fraction_is_taken_where_an_int_is():
    q = FieldSpec.rationals()
    half = q.element("1/2")
    assert half == Fraction(1, 2) and Fraction(1, 2) == half and hash(half) == hash(Fraction(1, 2))
    assert half != Fraction(1, 3) and Fraction(1, 2) in {half}
    assert half + Fraction(1, 2) == 1 and Fraction(1, 2) + half == 1
    assert half * Fraction(2, 3) == Fraction(1, 3) and Fraction(4) * half == 2
    assert half - Fraction(1, 2) == 0 and Fraction(1, 2) - half == 0 and half / Fraction(1, 4) == 2
    assert half >= Fraction(1, 2) and not half >= Fraction(2, 3) and Fraction(1, 3) <= half < 1
    f7 = FieldSpec.prime(7)
    three = f7.element(3)
    # an integral Fraction is an int: equal at the canonical value only, and
    # ordered unreduced, as an int is
    assert three == Fraction(3) and Fraction(3) == three and hash(three) == hash(Fraction(3))
    assert three != Fraction(10) and three < Fraction(10) and three >= Fraction(3)
    assert three + Fraction(5) == 1 and three * Fraction(3) == 2 and Fraction(3) * three == 2
    # a non-integral one has no image in F_7: never equal, and refused in arithmetic
    assert three != Fraction(1, 2) and three >= Fraction(1, 2)
    for op in (lambda: three + Fraction(1, 2), lambda: three * Fraction(1, 2), lambda: Fraction(1, 2) + three):
        with pytest.raises(TypeError, match="no canonical image in F_7"):
            op()


def test_coercions_rejected():
    f5 = FieldSpec.prime(5)
    with pytest.raises(TypeError):
        f5.element(0.5)
    with pytest.raises(TypeError):
        f5.element(True)
    with pytest.raises(TypeError):
        f5.element(Fraction(1, 2))
    assert f5.element(Fraction(4, 1)).value == 4


@given(spec_and_elements())
def test_field_axioms(data):
    spec, (a, b, c) = data
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + spec.zero == a
    assert a * spec.one == a
    assert a + (-a) == spec.zero
    if not a.is_zero():
        assert a * a.inv() == spec.one


@given(spec_and_elements(count=1))
def test_unique_zero_representative(data):
    spec, (a,) = data
    z = a - a
    assert z == spec.zero
    assert z.value == spec.zero.value
    assert hash(z) == hash(spec.zero)


@given(spec_and_elements(count=2))
def test_sub_is_add_neg(data):
    _, (a, b) = data
    assert a - b == a + (-b)


def _decimal_len(n):
    """len(str(n)) with Python's int/str digit limit lifted, so the reference
    count does not depend on the limit the process runs under."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return len(str(n))
    finally:
        sys.set_int_max_str_digits(limit)


def test_short_repr_names_long_ints_by_their_digit_count():
    rng = random.Random(83)
    assert fields._short_repr(10**50 - 1) == "9" * 50
    assert fields._short_repr(-(10**50) + 1) == "-" + "9" * 50
    assert fields._short_repr(10**50) == "a number of 51 digits"
    assert fields._short_repr(-(10**50)) == "a negative number of 51 digits"
    assert fields._short_repr(10**5000) == "a number of 5001 digits"  # past the int/str limit
    assert fields._short_repr("x" * 3) == "'xxx'" and fields._short_repr(True) == "True"
    for _ in range(300):
        digits = rng.randint(51, 4000)
        n = rng.choice([10 ** (digits - 1), 10**digits - 1, rng.randrange(10 ** (digits - 1), 10**digits)])
        assert fields._short_repr(n) == f"a number of {_decimal_len(n)} digits"
    # inside lists and dicts too, and anything else is written as repr writes it
    nested = {"value": "1", "mlt": [10**60, {"k": -(10**4300)}], "x": [1.5, None, True, (2, 10**70), "9" * 60]}
    expected = (
        "{'value': '1', 'mlt': [a number of 61 digits, {'k': a negative number of 4301 digits}], "
        f"'x': [1.5, None, True, (2, {10**70}), '{'9' * 60}']}}"
    )
    assert fields._short_repr(nested) == expected
    looped = [1, {"k": [2]}]
    looped[1]["k"].append(looped)
    looped[1]["self"] = looped[1]
    for value in ([], {}, [[], {}], {"a": [1, {"b": "c"}], "": -(10**49)}, ["'\"", [[[0.25]]]], looped):
        assert fields._short_repr(value) == repr(value)
