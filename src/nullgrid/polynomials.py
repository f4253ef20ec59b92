"""Sparse multivariate polynomials over an exact coefficient field.

A polynomial is a map from exponent tuples (one nonnegative integer per
variable) to nonzero coefficients; the zero polynomial has an empty term map.
Coefficients are stored as raw canonical values (fields.FieldSpec._reduce),
the form every kernel reads and returns, so no operation unwraps or wraps
them; a FieldElement is built only where a coefficient leaves the library,
in coefficient() and evaluate().  Total degree of the zero polynomial is
None, a real sentinel rather than -1, so degree-bound checks stay honest
when a cofactor vanishes.

A point is evaluated by one loop, _evaluate_raw, from one power row per
coordinate (_powers); evaluate() calls it, as do the value sets of
applications for their terms in two or more variables, and the same power
row is column 0 of the Taylor columns.

The parser caps every variable's degree and works on raw term maps, too: a
sum folds each summand into one accumulator, so a sum of T monomials parses
in O(T), and the result is wrapped as a MultiPoly once.  A monomial is
built in place: a product of two one-term factors adds their exponents, and
a variable's power writes its exponent.  Only products with a factor of
several terms go through _mul_raw, and only powers of literals and
parenthesized factors through MultiPoly.__pow__.

Coordinate shifts f(x) -> f(x + s) are the workhorse: the coefficient of x^u
in the shifted polynomial is the expansion coefficient of f at s attached to
(x - s)^u.  Reading those coefficients off a shift is valid in every
characteristic, unlike the factorial-scaled derivative formula.  Callers
usually need only the exponents below a box (a multiplicity vector), which
one walk, _expansions, computes at every point of a product of {value:
multiplicity} maps: one coordinate at a time, each cut to its bound before
the next is shifted, and once per prefix of the points.  MultiPoly.shift is
the walk at one point.  A coordinate's value and bound are all in one table,
the Taylor columns (_taylor_columns), built by Pascal's rule and only as
wide as the box; the kernel, _shift_raw, serves every value, 0 included,
where the columns make the shift a cut.  It reads dense rows in that
variable: f is grouped by _rows once, and each shift writes the next
variable's rows.  Over F_p a large enough row set shifted at several values
is packed once (_pack_rows), the small-field packing of Dumas, Fousse and
Salvy (J. Symbolic Comput. 46, 2011): every row's coefficient of x^k shares
one big integer, so one dot product per Taylor column shifts all the rows.

Products and powers go through one kernel, _mul_raw, with two routes.
Sparse operands, one-term ones among them, are multiplied term pair by term
pair.  Dense ones -- at least _KRONECKER_MIN_PAIRS term pairs, and a
product box with at most _KRONECKER_FACTOR slots per pair -- by Kronecker
substitution: each operand is packed into one big integer, exponents as
mixed-radix slot indices and coefficients as unsigned slots of one width,
each holding its coefficient plus a bias (0 over F_p; over Q, where the
operands are first cleared of denominators, a power of two above any
product coefficient's size), so the product is one big-integer
multiplication (Karatsuba in CPython at these sizes), read back at C
level through whole 8-byte limbs (_read_slots), less the bias, and reduced
once per coefficient; a square packs its operand once.  Power series are
inverted by one kernel, _inv_series, which the bracket rows and the
coordinate weights of divdiff share.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from array import array
from fractions import Fraction
from operator import add, lshift, mul, sub
from typing import Dict, Sequence, Tuple

from .errors import ArityMismatchError, FieldMismatchError, PolyParseError
from .fields import FieldElement, FieldSpec, _output_size_error

ExponentVector = Tuple[int, ...]

_MAX_EXPONENT = 10_000  # parser guard on exponent literals and on each variable's degree
_MAX_NESTING = 200  # parser guard: deeper '(' / unary '-' chains would exhaust the stack


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
    """Sparse polynomial in variables x1..xn: terms maps exponent vectors to
    nonzero raw canonical coefficients, which kernels read and never change."""

    __slots__ = ("arity", "spec", "terms")

    def __init__(self, arity: int, spec: FieldSpec, terms: Dict[ExponentVector, object] = None):
        self.arity = arity
        self.spec = spec
        canon: Dict[ExponentVector, object] = {}
        for u, c in (terms or {}).items():
            u = tuple(u)
            if len(u) != arity or any(
                isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in u
            ):
                raise ArityMismatchError(f"bad exponent vector {u} for arity {arity}")
            v = spec._raw_value(c)
            if v:
                canon[u] = v
        self.terms = canon

    @classmethod
    def _from_raw(cls, arity: int, spec: FieldSpec, raw: Dict[ExponentVector, object]) -> "MultiPoly":
        """A polynomial on a copy of raw canonical terms without their zeros,
        so a result never shares an operand's dict (f ** 1 returns f's)."""
        p = cls.__new__(cls)
        p.arity = arity
        p.spec = spec
        p.terms = {u: v for u, v in raw.items() if v}
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
        return FieldElement(self.terms.get(tuple(u), 0), self.spec)

    def leading_monomial(self, order: TermOrder) -> ExponentVector:
        if order.permutation is not None and len(order.permutation) != self.arity:
            raise ArityMismatchError(
                f"term order permutes {len(order.permutation)} variables, polynomial has {self.arity}"
            )
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def _check_compatible(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise ArityMismatchError(f"arity {self.arity} vs {other.arity}")
        if self.spec != other.spec:
            raise FieldMismatchError(f"mixed fields {self.spec} and {other.spec}")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        reduce = self.spec._reduce
        out = dict(self.terms)
        for u, c in other.terms.items():
            out[u] = reduce(out.get(u, 0) + c)
        return MultiPoly._from_raw(self.arity, self.spec, out)

    def __sub__(self, other):
        return self + -other if isinstance(other, MultiPoly) else NotImplemented

    def __neg__(self) -> "MultiPoly":
        return self * -1

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check_compatible(other)
            return MultiPoly._from_raw(self.arity, self.spec, _mul_raw(self.spec, self.terms, other.terms))
        if not isinstance(other, (FieldElement, int, Fraction)):
            return NotImplemented
        reduce = self.spec._reduce
        s = self.spec._raw_value(other)
        return MultiPoly._from_raw(self.arity, self.spec, {u: reduce(c * s) for u, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MultiPoly":
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError(f"polynomial exponent must be an int, got {type(e).__name__}")
        if e < 0:
            raise ValueError("polynomial exponent must be nonnegative")
        spec, n = self.spec, self.arity
        result = {(0,) * n: 1} if e == 0 else None
        base = self.terms
        while e:
            if e & 1:
                result = base if result is None else _mul_raw(spec, result, base)
            e >>= 1
            if e:
                base = _mul_raw(spec, base, base)
        return MultiPoly._from_raw(n, spec, result)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.spec == other.spec and self.terms == other.terms

    # -- evaluation and shifts -------------------------------------------------

    def _point_raw(self, point: Sequence) -> list:
        if len(point) != self.arity:
            raise ArityMismatchError(f"point of length {len(point)} for arity {self.arity}")
        return list(map(self.spec._raw_value, point))

    def evaluate(self, point: Sequence) -> FieldElement:
        spec = self.spec
        s = self._point_raw(point)
        rows = [_powers(spec, x, top) for x, top in zip(s, _degrees(self.terms, self.arity))]
        return FieldElement(spec._reduce(_evaluate_raw(self.terms, rows)), spec)

    def shift(self, point: Sequence, box: Sequence[int] = None) -> "MultiPoly":
        """Substitute x_i -> x_i + s_i; the result's coefficient at x^u is the
        expansion coefficient of this polynomial at s attached to (x - s)^u.

        With a box, only the coefficients with u strictly below it in every
        component are computed and kept.  The shift is the walk of
        _expansions at one point: one coordinate at a time, truncating as it
        goes, so later passes see only the rows that survive the earlier boxes."""
        if box is not None and (len(box) != self.arity or any(b < 1 for b in box)):
            raise ArityMismatchError(f"box {tuple(box)} must be >= 1 in every component")
        if box is None:
            box = [top + 1 for top in _degrees(self.terms, self.arity)]
        sets = [{s: b} for s, b in zip(self._point_raw(point), box)]
        ((_, terms),) = _expansions(self.spec, self.terms, sets)
        return MultiPoly._from_raw(self.arity, self.spec, terms)

    # -- division by a univariate ----------------------------------------------

    def divmod_univariate(self, divisor: "MultiPoly", var: int) -> Tuple["MultiPoly", "MultiPoly"]:
        """Long division by a polynomial univariate in x_{var+1} with invertible
        leading coefficient; returns (quotient, remainder) with the remainder's
        degree in that variable below the divisor's."""
        self._check_compatible(divisor)
        if not 0 <= var < self.arity:
            raise ArityMismatchError(f"variable index {var} out of range for arity {self.arity}")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        for u in divisor.terms:
            if any(e and i != var for i, e in enumerate(u)):
                raise ValueError(f"divisor is not univariate in x{var + 1}")
        spec = self.spec
        coeffs = [0] * (divisor.degree_in(var) + 1)
        for u, c in divisor.terms.items():
            coeffs[u[var]] = c
        quot, rem = _divmod_raw(spec, self.terms, var, coeffs)
        return MultiPoly._from_raw(self.arity, spec, quot), MultiPoly._from_raw(self.arity, spec, rem)

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        """The terms by total degree, then exponents, highest first, each
        written with its sign, which the first term drops when it is +."""
        if not self.terms:
            return "0"
        text = ""
        try:
            for u, value in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
                if value < 0:  # only over the rationals; prime reps are in [0, p)
                    text += " - "
                    value = -value
                else:
                    text += " + "
                sep = ""
                if value != 1 or not any(u):
                    text += str(value)
                    sep = "*"
                for i, e in enumerate(u, 1):
                    if e:
                        text += f"{sep}x{i}" if e == 1 else f"{sep}x{i}^{e}"
                        sep = "*"
        except ValueError as exc:  # only str(value) raises, past the digit limit
            raise _output_size_error() from exc
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self):
        return f"MultiPoly({self})"


# A product takes the packed route when it has at least _KRONECKER_MIN_PAIRS
# term pairs and its box holds at most _KRONECKER_FACTOR slots per pair.
# Both were chosen by timing the two routes on the same operands: powers of
# linear forms and random sparse polynomials in 1-3 variables over F_13,
# F_10007 and Q, about 850 pairs from 4 to 27 000 term pairs.
_KRONECKER_MIN_PAIRS = 32
_KRONECKER_FACTOR = 2


def _mul_raw(spec: FieldSpec, a: Dict[ExponentVector, object], b: Dict[ExponentVector, object]):
    """Product of two raw term maps of one arity, as a raw term map without
    zeros.

    Sparse operands are multiplied term pair by term pair, each coefficient
    summed unreduced and reduced once.  Dense ones, whose product box
    prod_i (deg_a,i + deg_b,i + 1) holds few slots per term pair, go
    through one big-integer product (_mul_packed).  The pair count is
    tested before the degree scan, so tiny products pay nothing for the
    choice."""
    if not a or not b:
        return {}
    pairs = len(a) * len(b)
    if pairs >= _KRONECKER_MIN_PAIRS:
        radix = [x + y + 1 for x, y in zip(map(max, zip(*a)), map(max, zip(*b)))]
        if math.prod(radix) <= _KRONECKER_FACTOR * pairs:
            return _mul_packed(spec, radix, a, b)
    out: Dict[ExponentVector, object] = {}
    for u, av in a.items():
        for w, bv in b.items():
            e = tuple(map(add, u, w))
            out[e] = out.get(e, 0) + av * bv
    return {e: v for e, v in zip(out, map(spec._reduce, out.values())) if v}


def _inv_series(spec: FieldSpec, a: Sequence, n: int) -> list:
    """The first n coefficients of the power series 1 / a, for a raw
    coefficient list a, lowest degree first, whose a[0] is invertible.  With
    b[0] = 1 / a[0], each later b[k] is -b[0] * sum_j a[j] * b[k - j], one
    reduced sum per coefficient, so the cost is O(n * len(a)); the terms of
    a from y^n up play no part, and n = 0 gives [].  The sum pairs a[1:n]
    with b read backwards from b[k - 1] and stops at the shorter, so no
    window is padded or sliced."""
    reduce = spec._reduce
    first = spec._inv(a[0])
    neg = reduce(-first)
    tail = a[1:n]
    b = [first][:n]
    for _ in range(1, n):
        b.append(reduce(neg * sum(map(mul, tail, reversed(b)))))
    return b


def _mul_packed(spec: FieldSpec, radix: Sequence[int], a, b):
    """The product of a and b by Kronecker substitution.  Exponent u maps to
    the mixed-radix index sum_i u_i * stride_i (the last variable varies
    fastest), so radix must exceed the product's degree in every variable.
    Every slot of one big integer per operand, width bytes each, holds the
    coefficient at its index plus a bias, 0 where there is no term; the
    operands are unbiased, multiplied, and the product rebiased, so each
    coefficient of the product sits in its own unsigned slot, read back
    (_read_slots) less the bias and reduced once.  A square, b is a, packs
    its operand once and multiplies the integer by itself.

    Over F_p the bias is 0, and a slot holds a sum of at most min(|a|, |b|)
    products of representatives in [0, p).  Over Q each operand is first
    scaled to integers by the lcm of its denominators, the bias is the
    smallest power of two above the bound on a product coefficient's size,
    and each slot is divided by the two scales once."""
    strides = [1] * len(radix)
    for i in range(len(radix) - 1, 0, -1):
        strides[i - 1] = strides[i] * radix[i]
    box = math.prod(radix)
    square = b is a
    if spec.p:
        scale, bias = 1, 0
        bound = min(len(a), len(b)) * (spec.p - 1) ** 2
    else:
        a, scale_a = _clear_denominators(a)
        b, scale_b = (a, scale_a) if square else _clear_denominators(b)
        scale = scale_a * scale_b
        bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
        bias = 1 << bound.bit_length()
    width = ((bias + bound).bit_length() + 7) // 8
    fill = bias.to_bytes(width, "little") * box
    offset = int.from_bytes(fill, "little")
    packed = _pack(a, strides, fill, width, bias) - offset
    prod = packed * (packed if square else _pack(b, strides, fill, width, bias) - offset)
    slots = _read_slots((prod + offset).to_bytes(box * width, "little"), width)
    if bias:
        slots = list(map(sub, slots, itertools.repeat(bias)))
    exponents = itertools.compress(itertools.product(*map(range, radix)), slots)
    reduce = spec._reduce
    values = filter(None, slots) if scale == 1 else (Fraction(v, scale) for v in filter(None, slots))
    return {e: v for e, v in zip(exponents, map(reduce, values)) if v}


def _clear_denominators(terms):
    """(terms times their scale, the scale): the lcm of the coefficients'
    denominators."""
    scale = math.lcm(*(c.denominator for c in terms.values()))
    if scale == 1:
        return terms, 1
    return {u: c.numerator * (scale // c.denominator) for u, c in terms.items()}, scale


def _pack(terms, strides, fill: bytes, width: int, bias: int) -> int:
    """The integer with fill's slots, width bytes each, but c + bias in the
    slot at index(u), the dot product of u and strides, for every term
    c * x^u; each c + bias must fit in width bytes unsigned."""
    data = bytearray(fill)
    for u, c in terms.items():
        k = sum(map(mul, u, strides)) * width
        data[k:k + width] = (c + bias).to_bytes(width, "little")
    return int.from_bytes(data, "little")


def _read_slots(data: bytes, width: int) -> list:
    """The unsigned integers in data's little-endian slots of width bytes
    each, read at C level: every slot is spread into whole 8-byte limbs by
    one extended-slice copy per byte position, the limbs are read as one
    array of unsigned 64-bit words, and a slot of several limbs adds its
    limbs up, each shifted to its place, by one map per limb."""
    limbs = (width + 7) // 8
    step = 8 * limbs
    wide = bytearray(len(data) // width * step)
    for k in range(width):
        wide[k::step] = data[k::width]
    words = array("Q", wide)
    if sys.byteorder == "big":
        words.byteswap()
    slots = words[::limbs].tolist()
    for j in range(1, limbs):
        slots = list(map(add, slots, map(lshift, words[j::limbs], itertools.repeat(64 * j))))
    return slots


def _divmod_raw(spec: FieldSpec, terms: Dict[ExponentVector, object], var: int, divisor: Sequence):
    """Long division of raw terms by a polynomial in x_{var+1} alone, given as
    its raw coefficient list, lowest degree first, with a nonzero last entry.

    The remainder starts as a copy of the terms, and the high terms, of degree
    d = deg(divisor) or more in x_{var+1}, are popped from it into one dense
    row per exponents in the other variables; the low terms keep their order.
    Each row is divided textbook-style from the top down; entries accumulate
    unreduced and each is reduced once, when the elimination reaches it.  Its
    corrections below x_{var+1}^d are folded into the remainder, one reduced
    sum per touched term: a new term is appended, and one that cancels is
    dropped.  Returns new raw (quotient, remainder) term maps; every
    remainder term has degree in x_{var+1} below d."""
    d = len(divisor) - 1
    lead_inv = spec._inv(divisor[d])
    tail = [(e, b) for e, b in enumerate(divisor[:d]) if b]
    reduce = spec._reduce
    rem: Dict[ExponentVector, object] = dict(terms)
    # rows of high terms are keyed by the exponents before and after x_{var+1}
    rows: Dict[Tuple[ExponentVector, ExponentVector], Dict[int, object]] = {}
    for u in [u for u in terms if u[var] >= d]:
        rows.setdefault((u[:var], u[var + 1:]), {})[u[var]] = rem.pop(u)
    quot: Dict[ExponentVector, object] = {}
    for (head, rest), sparse in rows.items():
        row = [0] * (max(sparse) + 1)
        for e, c in sparse.items():
            row[e] = c
        for k in range(len(row) - 1, d - 1, -1):
            c = reduce(row[k] * lead_inv)
            if not c:
                continue
            base = k - d
            quot[head + (base,) + rest] = c
            for e, b in tail:
                row[base + e] -= c * b
        for e in range(d):
            if row[e]:
                u = head + (e,) + rest
                v = reduce(rem.get(u, 0) + row[e])
                if v:
                    rem[u] = v
                else:
                    rem.pop(u, None)
    return quot, rem


def _powers(spec: FieldSpec, x, top: int) -> list:
    """The power row [x^0, x^1, ..., x^top] of a raw value, reduced."""
    reduce = spec._reduce
    row = [1]
    for _ in range(top):
        row.append(reduce(row[-1] * x))
    return row


def _evaluate_raw(terms: Dict[ExponentVector, object], rows: Sequence[list]):
    """f at a point, unreduced, from each coordinate's power row (_powers):
    the sum over the raw terms c*x^u of c * prod_i rows[i][u_i]."""
    acc = 0
    for u, t in terms.items():
        for i, e in enumerate(u):
            if e:
                t *= rows[i][e]
        acc += t
    return acc


def _taylor_columns(spec: FieldSpec, point, top: int, box: int) -> list:
    """The Taylor columns of the shift x -> x + point, for rows of degree at
    most top cut below box: cols[j][k] = C(j + k, j) * point^k, reduced, for
    j < min(box, top + 1) and j + k <= top.  The shifted coefficient at j of
    a row (a_e) is then the sum over k of cols[j][k] * a_(j + k).  Column 0
    is the power row of point, and column j starts at 1 and follows from
    column j - 1 by Pascal's rule, cols[j][k] = cols[j-1][k] + point *
    cols[j][k-1]: additions and products only, so the columns are right over
    F_p even when the degree reaches p, and no binomial is ever formed.  At
    point 0 every column is (1, 0, 0, ...), and a shift is a cut."""
    reduce = spec._reduce
    cols = [_powers(spec, point, top)]
    for j in range(1, min(box, top + 1)):
        col = [1]
        for v in cols[-1][1:top - j + 1]:
            col.append(reduce(v + point * col[-1]))
        cols.append(col)
    return cols


def _rows(terms: Dict[ExponentVector, object], var: int, size: int) -> Dict[ExponentVector, list]:
    """Raw terms grouped into dense rows in x_{var+1}: {rest: row}, where
    rest is an exponent vector without its var entry, and row[e] is the
    coefficient of the term with exponent e in x_{var+1} and rest in the
    others, 0 where there is none.  Rows come in the order of their first
    term, and each has length size, which must exceed the terms' degree in
    x_{var+1}.  _shift_raw reads these rows; the walk of _expansions, which
    every shift runs, groups only f here and has its shifts write the rest."""
    rows: Dict[ExponentVector, list] = {}
    for u, c in terms.items():
        rest = u[:var] + u[var + 1:]
        row = rows.get(rest)
        if row is None:
            row = rows[rest] = [0] * size
        row[u[var]] = c
    return rows


# A row set is shifted through its packed columns (_pack_rows) when it is
# over F_p, has at least _PACKED_MIN_ROWS rows, is shifted at two values or
# more, and a 4-byte slot (array typecode _SLOT_CODE) holds L * (p - 1)^2
# for rows of length L, the largest dot product of a Taylor column with a
# row.  Other row sets, larger p and Q keep the per-row loop.  The minimum
# was chosen by timing both paths on the same row sets over F_101, F_10007
# and F_1000003, and on the grid walk.
_PACKED_MIN_ROWS = 4
_SLOT_CODE = "I"


def _pack_rows(spec: FieldSpec, rows: Dict[ExponentVector, list], shifts: int):
    """The rows of a row set (_rows) packed for _shift_raw, when they will
    be shifted at shifts values, or None when the per-row loop serves them.
    Packed, the set is a list of columns: column k is one big integer
    holding every row's x^k coefficient in its own 4-byte slot, in row
    order, so one dot product of a Taylor column with the packed columns
    shifts every row at once, each slot holding its row's unreduced sum.  A
    caller packs a row set where it is built and passes the packing to
    every shift of it."""
    p = spec.p
    if not p or shifts < 2 or len(rows) < _PACKED_MIN_ROWS:
        return None
    if (len(next(iter(rows.values()))) * (p - 1) ** 2).bit_length() > 8 * array(_SLOT_CODE).itemsize:
        return None
    return [int.from_bytes(array(_SLOT_CODE, column).tobytes(), sys.byteorder) for column in zip(*rows.values())]


def _shift_raw(spec: FieldSpec, rows: Dict[ExponentVector, list], var: int, cols, packed=None, size: int = 0):
    """Substitute x_{var+1} -> x_{var+1} + s in raw terms given as their
    _rows in x_{var+1}, keeping only exponents below a box in that variable.

    cols is _taylor_columns(spec, s, len(row) - 1, box), which holds the
    box, so callers that shift many polynomials by one value build it once;
    a row's shifted coefficient at j is sum(cols[j][k] * row[j + k]),
    reduced once.  Every value, 0 among them, takes this one kernel.  With
    packed, the rows' _pack_rows, each column costs one big-integer dot
    product for all rows (_packed_dots); without it each row pays its own.
    Either way the terms come row by row, then by j.

    Returns a new raw term map without zero coefficients, or, given size,
    the same terms grouped into rows of that length in x_{var+2}, as _rows
    would group them: the grid walk writes each level's rows this way."""
    reduce = spec._reduce
    out: Dict[ExponentVector, object] = {}
    if packed is None:
        # its own loop: the many small row sets of the walk's deeper levels
        # run here, and handing their values to the packed loop's writer
        # below, a list per row, cost them more than one writer saves
        for rest, row in rows.items():
            head, tail = rest[:var], rest[var:]
            if size:
                e, tail = tail[0], tail[1:]
            for j, col in enumerate(cols):
                v = reduce(sum(map(mul, col, row[j:])))
                if v:
                    key = head + (j,) + tail
                    if not size:
                        out[key] = v
                        continue
                    nxt = out.get(key)
                    if nxt is None:
                        nxt = out[key] = [0] * size
                    nxt[e] = v
        return out
    for rest, values in zip(rows, _packed_dots(spec, packed, len(rows), cols)):
        head, tail = rest[:var], rest[var:]
        if size:
            e, tail = tail[0], tail[1:]
        for j, v in enumerate(values):
            if v:
                key = head + (j,) + tail
                if not size:
                    out[key] = v
                    continue
                nxt = out.get(key)
                if nxt is None:
                    nxt = out[key] = [0] * size
                nxt[e] = v
    return out


def _packed_dots(spec: FieldSpec, packed: list, count: int, cols):
    """The shifted values of a packed row set of count rows, row by row:
    for each Taylor column j, one dot product with the packed columns from
    j on, whose slots are read back and reduced once each."""
    reduce = spec._reduce
    per_column = []
    for j, col in enumerate(cols):
        slots = array(_SLOT_CODE)
        slots.frombytes(sum(map(mul, col, packed[j:])).to_bytes(count * slots.itemsize, sys.byteorder))
        per_column.append(map(reduce, slots))
    return zip(*per_column)


def _expansions(spec: FieldSpec, terms: Dict[ExponentVector, object], sets: Sequence[Dict]):
    """Yield (point, terms) for every point of the product of sets, raw
    {value: multiplicity} maps, lazily and in product order: the raw point
    and f, the raw terms given, shifted there and cut below its
    multiplicities, terms the walk never touches again once yielded.

    The box bound m_i(s_i) depends on s_i alone, so the grid is walked as a
    tree: x_{i+1} is shifted and cut once per prefix (s_1, ..., s_{i+1}), and
    every point below that prefix shares the result.  f is grouped into
    rows in x_1 once; each prefix's shift writes its shifted polynomial
    straight into rows in the next variable, and those rows are shifted at
    every value of the next coordinate.  A row set shifted at two values
    or more is packed where it is built (_pack_rows), which over F_p gives
    a set of enough rows one big-integer dot product per Taylor column at
    each value; other sets, larger p and Q keep the per-row loop.  The Taylor
    columns of each support value of S_i, 0 included, are built once per
    walk, up to deg_{x_i} f and cut below m_i(s), when the walk first
    reaches that value, and shared by every later prefix that shifts there,
    so a scan that stops early builds only the columns it used; a value of
    S_1 is its own prefix, so its columns are freed when the walk moves on.
    The walk is a loop, not a recursion, so the arity is not bounded by the
    recursion limit; with no variables, f is its one point's expansion."""
    n = len(sets)
    if not n:
        yield (), dict(terms)
        return
    tops = _degrees(terms, n)
    # a cell [value, m, its Taylor columns] per support value, read by every
    # prefix that shifts there; the columns are built when the walk first
    # reaches the value and kept, but S_1's cells keep None, since each of
    # its values is one prefix
    cells_per_set = [[[v, m, None] for v, m in s.items()] for s in sets]
    # rows[i] is f shifted in x_1..x_i at the current point's prefix,
    # grouped into rows in x_{i+1}, and packs[i] its packing or None;
    # shifting never raises a degree, so f's degrees size every row
    rows = [_rows(terms, 0, tops[0] + 1)] + [None] * (n - 1)
    packs = [_pack_rows(spec, rows[0], len(sets[0]))] + [None] * (n - 1)
    prev = (None,) * n
    for point, cells in zip(itertools.product(*sets), itertools.product(*cells_per_set)):
        # product changes a suffix of the cells, the last one at least:
        # reshift from its first new cell
        depth = 0
        while cells[depth] is prev[depth]:
            depth += 1
        for i in range(depth, n):
            cell = cells[i]
            v, m, cols = cell
            if cols is None:
                cols = _taylor_columns(spec, v, tops[i], m)
                if i:
                    cell[2] = cols
            if i + 1 < n:
                rows[i + 1] = _shift_raw(spec, rows[i], i, cols, packs[i], tops[i + 1] + 1)
                packs[i + 1] = _pack_rows(spec, rows[i + 1], len(sets[i + 1]))
            else:
                out = _shift_raw(spec, rows[i], i, cols, packs[i])
        prev = cells
        yield point, out


# -- expression parser ------------------------------------------------------------

# Digits are ASCII only: int() would read any Unicode decimal digit.  A var's
# x followed by a non-ASCII digit is matched alone, so the refusal names the
# digit; bad is the catch-all, one character that starts no token.
_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<int>[0-9]+)|(?P<var>x(?=\d)[0-9]*)|(?P<op>[-+*^()/])|(?P<bad>.)", re.DOTALL
)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise PolyParseError(f"unexpected character {m.group()!r}", m.start())
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _int_literal(digits: str, pos: int) -> int:
    """The value of a run of ASCII digits; a run longer than Python's int/str
    digit limit is refused at its position, as a parse error."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError(
            f"literal of {len(digits)} digits exceeds Python's int/str digit limit "
            f"of {sys.get_int_max_str_digits()}",
            pos,
        ) from None


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := '-' factor | atom ['^' INT];
    atom := INT ['/' INT] | VAR | '(' expr ')'.  '^' binds tighter than
    unary minus, so -x1^2 is -(x1^2), and a factor takes one '^' at most.
    Rational literals 'a/b' are accepted only over the rationals; there is no
    general division operator and no implicit multiplication.  Parentheses
    and unary minus nest at most _MAX_NESTING deep, and no product or power
    may take a variable's degree above _MAX_EXPONENT: the degrees are read
    off the operands before any multiplying is done.

    Every rule returns a raw term map that it owns, and parse() wraps the
    result once.  A sum folds each summand into one accumulator, dropping a
    term the moment it cancels, so a sum of T terms costs O(T).  A product of
    two one-term factors adds their exponents and multiplies their
    coefficients once, and x_i^e is read as one term with e at i, so a
    monomial such as 3*x1^2*x2 reaches neither _mul_raw nor
    MultiPoly.__pow__; other products go through _mul_raw, and powers of
    literals and parenthesized factors through MultiPoly.__pow__."""

    def __init__(self, text: str, arity: int, spec: FieldSpec):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0
        self.arity = arity
        self.spec = spec
        self.zero = (0,) * arity

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

    def descend(self, pos: int):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise PolyParseError("expression nested too deeply", pos)

    def parse(self) -> MultiPoly:
        kind, val, pos = self.peek()
        if kind == "end":
            raise PolyParseError("empty expression", pos)
        terms = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {val!r}", pos)
        return MultiPoly._from_raw(self.arity, self.spec, terms)

    def expr(self) -> dict:
        acc = self.term()
        reduce = self.spec._reduce
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return acc
            self.next()
            plus = val == "+"
            for u, c in self.term().items():
                v = reduce(acc.get(u, 0) + c if plus else acc.get(u, 0) - c)
                if v:
                    acc[u] = v
                else:
                    del acc[u]

    def term(self) -> dict:
        tokens = self.tokens
        terms = self.factor()
        while True:
            kind, val, pos = tokens[self.idx]
            if kind != "op" or val != "*":
                return terms
            self.idx += 1
            rhs = self.factor()
            if len(terms) == 1 == len(rhs):
                # two monomials: one exponent sum and one product of two
                # nonzero coefficients, which is nonzero
                ((u, c),) = terms.items()
                ((w, d),) = rhs.items()
                u = tuple(map(add, u, w))
                _check_degrees(u, pos)
                terms = {u: self.spec._reduce(c * d)}
            else:
                _check_degrees(map(add, _degrees(terms, self.arity), _degrees(rhs, self.arity)), pos)
                terms = _mul_raw(self.spec, terms, rhs)

    def factor(self) -> dict:
        kind, val, pos = self.tokens[self.idx]
        if kind == "op" and val == "-":
            self.idx += 1
            self.descend(pos)
            reduce = self.spec._reduce
            terms = {u: reduce(-c) for u, c in self.factor().items()}
            self.depth -= 1
            return terms
        if kind == "var":
            # x_i^e is one term: e written at i in the exponents, with no power taken
            self.idx += 1
            index = _int_literal(val[1:], pos)
            if not 1 <= index <= self.arity:
                raise PolyParseError(f"unknown variable {val!r} (arity {self.arity})", pos)
            e, _ = self.exponent()
            return {self.zero[:index - 1] + (e,) + self.zero[index:]: 1}
        terms = self.atom()
        e, pos = self.exponent()
        if pos is not None:
            _check_degrees((d * e for d in _degrees(terms, self.arity)), pos)
            terms = (MultiPoly._from_raw(self.arity, self.spec, terms) ** e).terms
        return terms

    def exponent(self):
        """The literal after a factor's '^' and its position, or (1, None)
        when no '^' follows."""
        kind, val, _ = self.tokens[self.idx]
        if kind != "op" or val != "^":
            return 1, None
        kind, val, pos = self.tokens[self.idx + 1]
        self.idx += 2
        if kind != "int":
            raise PolyParseError("exponent must be a nonnegative integer literal", pos)
        e = _int_literal(val, pos)
        if e > _MAX_EXPONENT:
            raise PolyParseError(f"exponent {e} exceeds the limit {_MAX_EXPONENT}", pos)
        return e, pos

    def atom(self) -> dict:
        kind, val, pos = self.next()
        if kind == "op" and val == "(":
            self.descend(pos)
            terms = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return terms
        if kind == "int":
            num = _int_literal(val, pos)
            kind2, val2, pos2 = self.peek()
            if kind2 == "op" and val2 == "/":
                if self.spec.is_prime_field:
                    raise PolyParseError("'/' literals are only valid over the rationals", pos2)
                self.next()
                kind3, val3, pos3 = self.next()
                if kind3 != "int":
                    raise PolyParseError("expected denominator after '/'", pos3)
                den = _int_literal(val3, pos3)
                if den == 0:
                    raise PolyParseError("zero denominator", pos3)
                num = Fraction(num, den)
            v = self.spec._reduce(num)
            return {self.zero: v} if v else {}
        raise PolyParseError(f"unexpected {val or 'end of input'!r}", pos)


def _degrees(terms, arity: int) -> list:
    """The degree in each variable of a term map, by one C-level pass over
    the exponents (degree_in per variable costs the small parses of the CLI
    several percent); all zeros for the zero polynomial."""
    return list(map(max, zip(*terms))) if terms else [0] * arity


def _check_degrees(degrees, pos: int):
    for i, d in enumerate(degrees):
        if d > _MAX_EXPONENT:
            raise PolyParseError(f"degree {d} in x{i + 1} exceeds the limit {_MAX_EXPONENT}", pos)


def parse_poly(text: str, arity: int, spec: FieldSpec) -> MultiPoly:
    """Parse an expression in variables x1..xn over the given field."""
    return _Parser(text, arity, spec).parse()
