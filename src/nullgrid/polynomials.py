"""Sparse multivariate polynomials over an exact coefficient field.

A polynomial is a map from exponent tuples (one nonnegative integer per
variable) to nonzero coefficients; the zero polynomial has an empty term map.
Total degree of the zero polynomial is None, a real sentinel rather than -1,
so degree-bound checks stay honest when a cofactor vanishes.

Coordinate shifts f(x) -> f(x + s) are the workhorse: the coefficient of x^u
in the shifted polynomial is the expansion coefficient of f at s attached to
(x - s)^u.  Reading those coefficients off a shift is valid in every
characteristic, unlike the factorial-scaled derivative formula.  Callers
usually need only the exponents below a box (a multiplicity vector), so
shift takes an optional box and works one coordinate at a time, cutting
each coordinate to its bound before the next is shifted.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .errors import ArityMismatchError, FieldMismatchError, PolyParseError
from .fields import FieldElement, FieldSpec

ExponentVector = Tuple[int, ...]

_MAX_EXPONENT = 10_000  # parser guard against accidental blow-ups
_MAX_NESTING = 200  # parser guard: deeper '(' / unary '-' chains would exhaust the stack


def _grlex_key(u: ExponentVector):
    return (sum(u), u)


class TermOrder:
    """A monomial order: lex, graded lex, or graded reverse lex, composed
    with a permutation giving the variable priority (highest first)."""

    KINDS = ("lex", "grlex", "grevlex")

    def __init__(self, kind: str = "grlex", permutation: Sequence[int] = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown term order kind {kind!r}")
        perm = None
        if permutation is not None:
            perm = tuple(permutation)
            if sorted(perm) != list(range(len(perm))):
                raise ValueError(f"not a permutation of 0..{len(perm)-1}: {perm}")
        self.kind = kind
        self.permutation = perm

    def key(self, u: ExponentVector):
        """Sort key; monomials compare ascending under the order (1 is minimum)."""
        v = u if self.permutation is None else tuple(u[i] for i in self.permutation)
        if self.kind == "lex":
            return v
        if self.kind == "grlex":
            return (sum(v), v)
        return (sum(v), tuple(-e for e in reversed(v)))

    def __repr__(self):
        return f"TermOrder({self.kind!r}, {self.permutation!r})"


class MultiPoly:
    """Sparse polynomial in variables x1..xn with FieldElement coefficients."""

    __slots__ = ("arity", "spec", "terms")

    def __init__(self, arity: int, spec: FieldSpec, terms: Dict[ExponentVector, object] = None):
        self.arity = arity
        self.spec = spec
        canon: Dict[ExponentVector, FieldElement] = {}
        for u, c in (terms or {}).items():
            u = tuple(u)
            if len(u) != arity or any(e < 0 for e in u):
                raise ArityMismatchError(f"bad exponent vector {u} for arity {arity}")
            fe = spec.element(c)
            if fe.value:
                canon[u] = fe
        self.terms = canon

    @classmethod
    def _from_raw(cls, arity: int, spec: FieldSpec, raw: Dict[ExponentVector, object]) -> "MultiPoly":
        p = cls.__new__(cls)
        p.arity = arity
        p.spec = spec
        p.terms = {u: FieldElement(v, spec) for u, v in raw.items() if v}
        return p

    @classmethod
    def zero(cls, arity: int, spec: FieldSpec) -> "MultiPoly":
        return cls(arity, spec, {})

    @classmethod
    def constant(cls, arity: int, spec: FieldSpec, value) -> "MultiPoly":
        return cls(arity, spec, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, spec: FieldSpec, index: int) -> "MultiPoly":
        """The monomial x_{index+1} (index is 0-based)."""
        if not 0 <= index < arity:
            raise ArityMismatchError(f"variable index {index} out of range for arity {arity}")
        u = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, spec, {u: 1})

    @classmethod
    def monomial(cls, arity: int, spec: FieldSpec, exponents: Sequence[int], coeff=1) -> "MultiPoly":
        return cls(arity, spec, {tuple(exponents): coeff})

    # -- basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self):
        """Total degree, or None for the zero polynomial."""
        return max(sum(u) for u in self.terms) if self.terms else None

    def degree_in(self, i: int):
        """Degree in variable x_{i+1}, or None for the zero polynomial."""
        return max(u[i] for u in self.terms) if self.terms else None

    def coefficient(self, u: Sequence[int]) -> FieldElement:
        return self.terms.get(tuple(u), self.spec.zero)

    def leading_monomial(self, order: TermOrder) -> ExponentVector:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        key = order.key
        return max(self.terms, key=key)

    def _check_compatible(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise ArityMismatchError(f"arity {self.arity} vs {other.arity}")
        if self.spec != other.spec:
            raise FieldMismatchError(f"mixed fields {self.spec} and {other.spec}")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        spec = self.spec
        out = {u: c.value for u, c in self.terms.items()}
        for u, c in other.terms.items():
            v = spec._add(out.get(u, spec._zero_raw), c.value)
            if v:
                out[u] = v
            else:
                out.pop(u, None)
        return MultiPoly._from_raw(self.arity, spec, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        spec = self.spec
        out = {u: c.value for u, c in self.terms.items()}
        for u, c in other.terms.items():
            v = spec._sub(out.get(u, spec._zero_raw), c.value)
            if v:
                out[u] = v
            else:
                out.pop(u, None)
        return MultiPoly._from_raw(self.arity, spec, out)

    def __neg__(self) -> "MultiPoly":
        spec = self.spec
        return MultiPoly._from_raw(self.arity, spec, {u: spec._neg(c.value) for u, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            s = self.spec.element(other)
            if not s.value:
                return MultiPoly.zero(self.arity, self.spec)
            spec = self.spec
            return MultiPoly._from_raw(
                self.arity, spec, {u: spec._mul(c.value, s.value) for u, c in self.terms.items()}
            )
        self._check_compatible(other)
        spec = self.spec
        zero = spec._zero_raw
        out: Dict[ExponentVector, object] = {}
        for u, a in self.terms.items():
            av = a.value
            for w, b in other.terms.items():
                e = tuple(map(sum, zip(u, w)))
                v = spec._add(out.get(e, zero), spec._mul(av, b.value))
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return MultiPoly._from_raw(self.arity, spec, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise ValueError("polynomial exponent must be nonnegative")
        result = MultiPoly.constant(self.arity, self.spec, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.spec == other.spec and self.terms == other.terms

    # -- evaluation and shifts -------------------------------------------------

    def _point_raw(self, point: Sequence) -> list:
        if len(point) != self.arity:
            raise ArityMismatchError(f"point of length {len(point)} for arity {self.arity}")
        return [self.spec.element(x).value for x in point]

    def evaluate(self, point: Sequence) -> FieldElement:
        spec = self.spec
        s = self._point_raw(point)
        # per-variable power tables; exponents at desk scale are small
        maxes = [0] * self.arity
        for u in self.terms:
            for i, e in enumerate(u):
                if e > maxes[i]:
                    maxes[i] = e
        powers = []
        for i in range(self.arity):
            row = [spec._one_raw]
            for _ in range(maxes[i]):
                row.append(spec._mul(row[-1], s[i]))
            powers.append(row)
        acc = spec._zero_raw
        for u, c in self.terms.items():
            t = c.value
            for i, e in enumerate(u):
                if e:
                    t = spec._mul(t, powers[i][e])
            acc = spec._add(acc, t)
        return FieldElement(acc, spec)

    def shift(self, point: Sequence, box: Sequence[int] = None) -> "MultiPoly":
        """Substitute x_i -> x_i + s_i; the result's coefficient at x^u is the
        expansion coefficient of this polynomial at s attached to (x - s)^u.

        With a box, only the coefficients with u strictly below it in every
        component are computed and kept.  The shift runs one coordinate at a
        time, truncating as it goes, so later passes see only the rows that
        survive the earlier boxes."""
        if box is not None and (len(box) != self.arity or any(b < 1 for b in box)):
            raise ArityMismatchError(f"box {tuple(box)} must be >= 1 in every component")
        spec = self.spec
        s = self._point_raw(point)
        terms = {u: c.value for u, c in self.terms.items()}
        for i, si in enumerate(s):
            terms = _shift_raw(spec, terms, i, si, None if box is None else box[i])
        return MultiPoly._from_raw(self.arity, spec, terms)

    def expansion_coefficients(self, point: Sequence, box: Sequence[int]) -> Dict[ExponentVector, FieldElement]:
        """All expansion coefficients at the point for exponents strictly below
        box in every component (zeros included, so the domain is the full box)."""
        g = self.shift(point, box)
        return {u: g.coefficient(u) for u in itertools.product(*(range(b) for b in box))}

    # -- division by a univariate ----------------------------------------------

    def divmod_univariate(self, divisor: "MultiPoly", var: int) -> Tuple["MultiPoly", "MultiPoly"]:
        """Long division by a polynomial univariate in x_{var+1} with invertible
        leading coefficient; returns (quotient, remainder) with the remainder's
        degree in that variable below the divisor's."""
        self._check_compatible(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        for u in divisor.terms:
            if any(e and i != var for i, e in enumerate(u)):
                raise ValueError(f"divisor is not univariate in x{var + 1}")
        spec = self.spec
        coeffs = [spec._zero_raw] * (divisor.degree_in(var) + 1)
        for u, c in divisor.terms.items():
            coeffs[u[var]] = c.value
        quot, rem = _divmod_raw(spec, {u: c.value for u, c in self.terms.items()}, var, coeffs)
        return MultiPoly._from_raw(self.arity, spec, quot), MultiPoly._from_raw(self.arity, spec, rem)

    # -- printing ----------------------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for u, c in self._sorted_terms():
            value = c.value
            negative = value < 0  # only over the rationals; prime reps are in [0, p)
            mag = -value if negative else value
            factors = []
            for i, e in enumerate(u):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            chunks.append(("-" if negative else "+", body))
        sign, body = chunks[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"MultiPoly({self})"


def _divmod_raw(spec: FieldSpec, terms: Dict[ExponentVector, object], var: int, divisor: Sequence):
    """Long division of raw terms by a polynomial in x_{var+1} alone, given as
    its raw coefficient list, lowest degree first, with a nonzero last entry.

    Terms that share their exponents in the other variables form one dense
    row in x_{var+1}, and each row is divided textbook-style from the top
    down.  Returns raw (quotient, remainder) term maps; every remainder term
    has degree in x_{var+1} below the divisor's."""
    d = len(divisor) - 1
    lead_inv = spec._inv(divisor[d])
    tail = [(e, b) for e, b in enumerate(divisor[:d]) if b]
    zero = spec._zero_raw
    rows: Dict[ExponentVector, Dict[int, object]] = {}
    for u, c in terms.items():
        rows.setdefault(u[:var] + u[var + 1:], {})[u[var]] = c
    quot: Dict[ExponentVector, object] = {}
    rem: Dict[ExponentVector, object] = {}
    for rest, sparse in rows.items():
        row = [zero] * (max(sparse) + 1)
        for e, c in sparse.items():
            row[e] = c
        for k in range(len(row) - 1, d - 1, -1):
            if not row[k]:
                continue
            c = spec._mul(row[k], lead_inv)
            base = k - d
            quot[rest[:var] + (base,) + rest[var:]] = c
            for e, b in tail:
                row[base + e] = spec._sub(row[base + e], spec._mul(c, b))
        for e in range(min(d, len(row))):
            if row[e]:
                rem[rest[:var] + (e,) + rest[var:]] = row[e]
    return quot, rem


def _shift_raw(spec: FieldSpec, terms: Dict[ExponentVector, object], var: int, point, box=None):
    """Substitute x_{var+1} -> x_{var+1} + point in raw terms, keeping only
    exponents below box in that variable (all of them when box is None).

    Terms that share their exponents in the other variables form one row
    (a_e) in x_{var+1}; its shifted coefficient at j is the sum over e >= j
    of C(e, j) * point^(e - j) * a_e, read from one table built per call.
    Returns a new raw term map without zero coefficients."""
    if not point:
        return {u: c for u, c in terms.items() if box is None or u[var] < box}
    rows: Dict[ExponentVector, Dict[int, object]] = {}
    top = 0
    for u, c in terms.items():
        e = u[var]
        rows.setdefault(u[:var] + u[var + 1:], {})[e] = c
        if e > top:
            top = e
    width = top + 1 if box is None else min(box, top + 1)
    powers = [spec._one_raw]
    for _ in range(top):
        powers.append(spec._mul(powers[-1], point))
    # table[e][j] = C(e, j) * point^(e - j) for j < min(e + 1, width)
    table = [
        [spec._mul(spec._from_int(math.comb(e, j)), powers[e - j]) for j in range(min(e + 1, width))]
        for e in range(top + 1)
    ]
    p = spec.p
    zero = spec._zero_raw
    out: Dict[ExponentVector, object] = {}
    for rest, sparse in rows.items():
        acc = [zero] * width
        for e, c in sparse.items():
            for j, w in enumerate(table[e]):
                acc[j] += c * w  # reduced once per coefficient below
        for j, v in enumerate(acc):
            if p:
                v %= p
            if v:
                out[rest[:var] + (j,) + rest[var:]] = v
    return out


# -- expression parser ------------------------------------------------------------

_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<var>x\d+)|(?P<op>[-+*^()/])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := atom ['^' INT];
    atom := '-' atom | INT ['/' INT] | VAR | '(' expr ')'.
    Rational literals 'a/b' are accepted only over the rationals; there is no
    general division operator and no implicit multiplication.  Parentheses
    and unary minus nest at most _MAX_NESTING deep."""

    def __init__(self, text: str, arity: int, spec: FieldSpec):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0
        self.arity = arity
        self.spec = spec

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> MultiPoly:
        kind, val, pos = self.peek()
        if kind == "end":
            raise PolyParseError("empty expression", pos)
        poly = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {val!r}", pos)
        return poly

    def expr(self) -> MultiPoly:
        poly = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                poly = poly + rhs if val == "+" else poly - rhs
            else:
                return poly

    def term(self) -> MultiPoly:
        poly = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self) -> MultiPoly:
        poly = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "int":
                raise PolyParseError("exponent must be a nonnegative integer literal", pos)
            e = int(val)
            if e > _MAX_EXPONENT:
                raise PolyParseError(f"exponent {e} exceeds the limit {_MAX_EXPONENT}", pos)
            poly = poly**e
        return poly

    def atom(self) -> MultiPoly:
        kind, val, pos = self.next()
        if kind == "op" and val in "-(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise PolyParseError("expression nested too deeply", pos)
            if val == "-":
                poly = -self.atom()
            else:
                poly = self.expr()
                self.expect_op(")")
            self.depth -= 1
            return poly
        if kind == "int":
            num = int(val)
            kind2, val2, pos2 = self.peek()
            if kind2 == "op" and val2 == "/":
                if not self.spec.is_prime_field:
                    self.next()
                    kind3, val3, pos3 = self.next()
                    if kind3 != "int":
                        raise PolyParseError("expected denominator after '/'", pos3)
                    den = int(val3)
                    if den == 0:
                        raise PolyParseError("zero denominator", pos3)
                    return MultiPoly.constant(self.arity, self.spec, Fraction(num, den))
                raise PolyParseError("'/' literals are only valid over the rationals", pos2)
            return MultiPoly.constant(self.arity, self.spec, num)
        if kind == "var":
            index = int(val[1:])
            if not 1 <= index <= self.arity:
                raise PolyParseError(f"unknown variable {val!r} (arity {self.arity})", pos)
            return MultiPoly.variable(self.arity, self.spec, index - 1)
        raise PolyParseError(f"unexpected {val or 'end of input'!r}", pos)


def parse_poly(text: str, arity: int, spec: FieldSpec) -> MultiPoly:
    """Parse an expression in variables x1..xn over the given field."""
    return _Parser(text, arity, spec).parse()
