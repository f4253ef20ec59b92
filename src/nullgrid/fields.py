"""Exact coefficient arithmetic: prime fields F_p and arbitrary-precision rationals.

A FieldSpec fixes the coefficient domain at runtime (the CLI must accept any
prime modulus, so the modulus is a value, not a type parameter).  Elements are
kept in canonical form -- an integer in [0, p) for prime fields; over the
rationals a plain int when the value is integral and a reduced Fraction
otherwise.  FieldSpec._reduce writes that rule and FieldSpec._raw_value
coerces inputs into it: kernels compute on raw values with native + - * and
reduce each result, and every layer hands raw values to the next.  A
FieldElement wraps one raw value where it leaves the library: a coefficient,
a value or a point; it defines __lt__ alone, and <=, > and >= follow from
__lt__ and __eq__.  All values are immutable.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction

from .errors import FieldMismatchError, PreconditionError

# Miller-Rabin witness set: the first 13 primes, deterministic for all
# inputs below psi_13 = 3 317 044 064 679 887 385 961 981 (about 3.3 * 10^24,
# in particular for every 64-bit modulus); probabilistic-but-overwhelming
# beyond that.  The first 12 alone pass the composite psi_12 =
# 318 665 857 834 031 151 167 461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_FRACTION_ONE = Fraction(1)
_FIELDS = {}  # p (None for the rationals) -> the one FieldSpec of that field


class FieldSpec:
    """Runtime description of the coefficient field.

    kind is "prime" (with modulus p) or "rational"; the characteristic is p,
    or 0 for the rationals (0 doubles as "unbounded" where a characteristic
    cap is consumed, e.g. in value-set bounds).  There is one object per
    field: the constructor validates its arguments and then returns the
    interned instance, and copies and unpickling go back through it, so two
    specs describe the same field exactly when they are the same object.
    """

    __slots__ = ("kind", "p")

    def __new__(cls, kind: str, p: int = None):
        if kind == "prime":
            # the type comes first, since 7.0, Fraction(7) and True hash like
            # ints; a modulus already interned is a prime, so only a new one
            # is tested
            if not isinstance(p, int) or isinstance(p, bool) or (p not in _FIELDS and not is_probable_prime(p)):
                raise ValueError(f"modulus must be a prime integer, got {_short_repr(p)}")
        elif kind == "rational":
            if p is not None:
                raise ValueError("the rational field takes no modulus")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        spec = _FIELDS.get(p)
        if spec is None:
            spec = object.__new__(cls)
            spec.kind, spec.p = kind, p
            spec = _FIELDS.setdefault(p, spec)  # of two racing threads, the first insert wins
        return spec

    def __reduce__(self):
        return (FieldSpec, (self.kind, self.p))

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime", p)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("rational")

    @property
    def characteristic(self) -> int:
        return self.p if self.p is not None else 0

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    def __repr__(self):
        return f"FieldSpec.prime({self.p})" if self.p else "FieldSpec.rationals()"

    def __str__(self):
        return f"F_{self.p}" if self.p else "QQ"

    # -- element construction ------------------------------------------------

    def element(self, value) -> "FieldElement":
        """A value _raw_value reads, as a FieldElement; one of this field as it is."""
        if isinstance(value, FieldElement) and value.spec is self:
            return value
        return FieldElement(self._raw_value(value), self)

    def _raw_value(self, value):
        """The canonical raw value of an int, Fraction, decimal string ("a/b"
        over the rationals) or FieldElement of this field: the one coercion
        rule, which element() and every reader of raw values share."""
        if isinstance(value, FieldElement):
            if value.spec is not self:
                raise FieldMismatchError(f"element of {value.spec} used in {self}")
            return value.value
        if isinstance(value, bool):
            raise TypeError("bool is not a field value")
        if isinstance(value, str):
            return self._raw_from_str(value)
        if isinstance(value, int):
            return self._reduce(value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return self._reduce(value.numerator)
            if self.p:
                raise TypeError(f"non-integer rational {value} has no canonical image in {self}")
            return value
        raise TypeError(f"cannot coerce {type(value).__name__} into {self}")

    def _raw_from_str(self, text: str):
        text = text.strip()
        try:
            # Fraction reads "1e5000000" by building 10**5000000, so exponent
            # notation is refused before it can run without limit; int and
            # Fraction also read "1_0" and non-ASCII digits, which the
            # polynomial grammar refuses, so they are refused here too
            if self.p is None and ("e" in text or "E" in text):
                raise ValueError("exponent notation is not accepted")
            if not text.isascii() or "_" in text:
                raise ValueError("only ASCII digits are accepted")
            return self._reduce(Fraction(text) if self.p is None else int(text))
        except (ValueError, ZeroDivisionError) as exc:
            limit = sys.get_int_max_str_digits()
            if 0 < limit < len(text):  # named by its length, not repeated
                raise ValueError(
                    f"invalid {self} value of {len(text)} characters, "
                    f"longer than Python's int/str digit limit of {limit}"
                ) from exc
            raise ValueError(f"invalid {self} value {text!r}") from exc

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    # -- raw canonical representatives ----------------------------------------

    def _reduce(self, v):
        """The canonical form of a raw value: v mod p over F_p; over the
        rationals the int when v is integral and v otherwise."""
        return v % self.p if self.p else (v.numerator if v.denominator == 1 else v)

    def _inv(self, a):
        """The canonical inverse of a raw value, reduced or not."""
        a = self._reduce(a)
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        if self.p:
            return pow(a, -1, self.p)
        return self._reduce(_FRACTION_ONE / a)  # never 1 / a: an int a gives a float


@functools.total_ordering
class FieldElement:
    """An element of a FieldSpec field, in canonical form.

    value is an int in [0, p) over a prime field.  Over the rationals it is
    an int when the value is integral and a reduced Fraction otherwise.
    Arithmetic with a mismatched FieldSpec raises; plain ints and Fractions
    are coerced for convenience.  An int or a Fraction equals an element
    only at the element's canonical value, so equal objects hash equal.
    """

    __slots__ = ("value", "spec")

    def __init__(self, value, spec: FieldSpec):
        self.value = value
        self.spec = spec

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec is not self.spec:
                raise FieldMismatchError(f"mixed fields {self.spec} and {other.spec}")
            return other  # as element() returns it, without the call
        if isinstance(other, bool) or not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.spec.element(other)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec._reduce(self.value + other.value), self.spec)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec._reduce(self.value - other.value), self.spec)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec._reduce(other.value - self.value), self.spec)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec._reduce(self.value * other.value), self.spec)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.spec._reduce(-self.value), self.spec)

    def __pow__(self, e: int):
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError(f"field exponent must be an int, got {type(e).__name__}")
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        spec = self.spec
        return FieldElement(spec._reduce(pow(self.value, e, spec.p)), spec)  # p is None over Q

    def inv(self) -> "FieldElement":
        return FieldElement(self.spec._inv(self.value), self.spec)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec is other.spec and self.value == other.value
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)  # equal elements share a field, so equal values

    def sort_key(self):
        """Canonical total order on one field's elements (by representative)."""
        return self.value

    def __lt__(self, other):
        """Order by raw value: an int or Fraction is taken unreduced, as
        __eq__ takes it, so that order agrees with equality."""
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.value < other
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self.value < other.value

    def __str__(self):
        return _value_text(self.value)

    def __repr__(self):
        return f"{self.value}:{self.spec}"


def _value_text(value) -> str:
    """str of a raw value, as FieldElement prints it: a value past Python's
    int/str digit limit raises the output-size error."""
    try:
        return str(value)
    except ValueError as exc:
        raise _output_size_error() from exc


def _output_size_error() -> PreconditionError:
    """The error for a value whose decimal text is past Python's int/str
    digit limit, which str() refuses with a bare ValueError: over the
    rationals a parsed expression such as 10^4000*10^400 has such a value."""
    return PreconditionError(
        "output-size",
        f"a value has more digits than Python's int/str digit limit of {sys.get_int_max_str_digits()}",
    )


def _short_repr(value) -> str:
    """repr(value) for an error message, but an int past 50 digits, bare or
    anywhere inside a list or dict, is named by its digit count, so the
    message stays one short line even when the number is past Python's
    int/str digit limit.  Lists and dicts are written out from a stack of
    pieces, not by recursion, so a value nested as deeply as the JSON reader
    accepts needs no deeper call stack than repr does; one that contains
    itself is cut short as repr cuts it, with [...] or {...}."""

    def piece(v):  # finished text, or a list or dict still to write out
        if type(v) is list or type(v) is dict:
            return v
        if not isinstance(v, int) or -10**50 < v < 10**50:
            return repr(v)
        a = abs(v)
        digits = (a.bit_length() - 1) * 30102 // 100000 + 1  # a lower bound: 0.30102 < log10(2)
        while a >= 10**digits:
            digits += 1
        return f"a {'negative ' if v < 0 else ''}number of {digits} digits"

    out, todo, open_ids = [], [piece(value)], set()
    while todo:
        v = todo.pop()
        if type(v) is str:
            out.append(v)
        elif type(v) is int:  # the id of a list or dict just closed
            open_ids.remove(v)
        elif id(v) in open_ids:
            out.append("[...]" if type(v) is list else "{...}")
        else:
            open_ids.add(id(v))
            if type(v) is list:
                ends, parts = "[]", [part for x in v for part in (", ", piece(x))]
            else:
                ends, parts = "{}", [part for k, x in v.items() for part in (", ", piece(k), ": ", piece(x))]
            todo += reversed([ends[0], *parts[1:], ends[1], id(v)])  # parts[1:]: no comma before the first
    return "".join(out)


def field_to_dict(spec: FieldSpec) -> dict:
    if spec.is_prime_field:
        return {"kind": "prime", "p": spec.p}
    return {"kind": "rational"}


def field_from_dict(d: dict) -> FieldSpec:
    if not isinstance(d, dict):
        raise ValueError(f"field must be an object with a 'kind', got {_short_repr(d)}")
    kind = d.get("kind")
    if kind == "prime":
        if "p" not in d:
            raise ValueError("prime field object needs 'p'")
        return FieldSpec.prime(d["p"])
    if kind == "rational":
        return FieldSpec.rationals()
    raise ValueError(f"unknown field kind {kind!r}")
