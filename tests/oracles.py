"""Independent oracles shared by the test modules.

Each function computes an expected value by a route different from the
implementation it checks: textbook long division on coefficient lists, the
classical Newton table, the residue form of the weights, the two-point
recursion for the weights expanded symbolically, the two-point recursion
for the bracket with random pivots, big-integer binomials, term-by-term
binomial expansion, Hermite interpolation through confluent Vandermonde
systems, products of linear factors on coefficient lists, schoolbook
products in field arithmetic, plane-by-plane evaluation, term-by-term
evaluation with no power table, and direct enumeration.  No product or
generator here goes through MultiPoly's * or ** or through Multiset's
generator, except in operator_route_oracle, which checks the parser
against those operators.
"""

import functools
import itertools
import math
from fractions import Fraction

from nullgrid import CoverReport, MultiPoly, Multiset, MultisetGrid
from randgen import rand_grid, rand_poly


def univariate_divmod_oracle(coeffs, divisor, spec):
    """Textbook long division on coefficient lists (low-to-high), monic divisor."""
    rem = list(coeffs)
    quo = [spec.zero] * max(len(rem) - len(divisor) + 1, 0)
    for k in range(len(rem) - len(divisor), -1, -1):
        c = rem[k + len(divisor) - 1]
        quo[k] = c
        for j, d in enumerate(divisor):
            rem[k + j] = rem[k + j] - c * d
    while rem and rem[-1].is_zero():
        rem.pop()
    return quo, rem


def poly_to_coeff_list(f, spec):
    deg = f.total_degree()
    if deg is None:
        return []
    return [f.coefficient((e,)) for e in range(deg + 1)]


def newton_table_oracle(nodes, values):
    """Classical divided-difference table over distinct nodes; returns the
    top-order coefficient."""
    coef = list(values)
    n = len(nodes)
    for j in range(1, n):
        for i in range(n - 1 - j, -1, -1):
            coef[i + j] = (coef[i + j] - coef[i + j - 1]) / (nodes[i + j] - nodes[i])
    return coef[-1]


def hopf_stiefel_oracle(p, r, s):
    """Direct search with big-integer binomials."""
    n = 1
    while True:
        if all(math.comb(n, k) % p == 0 for k in range(max(n - r + 1, 0), s) if k <= n):
            return n
        n += 1


def expansion_coefficient_oracle(f, point, u):
    """Coefficient of (x - point)^u in f, term by term: the sum over the terms
    c * x^e of c * prod_i C(e_i, u_i) * point_i^(e_i - u_i).  Uses field
    operations only, never MultiPoly.shift."""
    spec = f.spec
    total = spec.zero
    for e, c in f.terms.items():
        if any(ei < ui for ei, ui in zip(e, u)):
            continue
        term = spec.element(c)
        for ei, ui, si in zip(e, u, point):
            term = term * math.comb(ei, ui) * spec.element(si) ** (ei - ui)
        total = total + term
    return total


def confluent_vandermonde(ms, spec):
    """The matrix taking a polynomial of degree below ms.size, as its
    coefficients of x^0, x^1, ..., to its expansion coefficients at the
    multiset: one row per (s, j) with j < mult(s), in entry order, holding
    the coefficient of (x - s)^j in x^e, C(e, j) * s^(e - j)."""
    return [
        [spec.element(math.comb(e, j)) * s ** (e - j) if e >= j else spec.zero for e in range(ms.size)]
        for s, mult in ms.entries.items()
        for j in range(mult)
    ]


def gauss_jordan_inverse(matrix, spec):
    """Inverse of an invertible square matrix of field elements, by
    Gauss-Jordan elimination on [matrix | identity]."""
    n = len(matrix)
    rows = [list(row) + [spec.one if i == j else spec.zero for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if not rows[r][col].is_zero())
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inv()
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and not factor.is_zero():
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def hermite_remainder_oracle(f, grid):
    """The remainder of f modulo the grid ideal without division: the unique
    polynomial with degree below d_i in x_i whose expansion coefficients below
    the multiplicity vector match f's at every grid point.  The coefficients
    are tabulated term by term with expansion_coefficient_oracle, and the
    tensor-product confluent Vandermonde system is solved one axis at a time
    by applying the inverse of each axis's matrix."""
    spec = grid.spec
    n = grid.arity
    slots = [[(s, j) for s, mult in ms.entries.items() for j in range(mult)] for ms in grid.sets]
    # values is keyed by one index per axis: a slot (s_i, j_i) before that
    # axis is solved, an exponent of x_i after
    values = {}
    for idx in itertools.product(*(range(len(row)) for row in slots)):
        cells = [slots[i][k] for i, k in enumerate(idx)]
        values[idx] = expansion_coefficient_oracle(f, [s for s, _ in cells], [j for _, j in cells])
    for i, ms in enumerate(grid.sets):
        inverse = gauss_jordan_inverse(confluent_vandermonde(ms, spec), spec)
        values = {
            idx: sum(
                (inverse[idx[i]][k] * values[idx[:i] + (k,) + idx[i + 1:]] for k in range(ms.size)),
                spec.zero,
            )
            for idx in values
        }
    return MultiPoly(n, spec, values)


def brute_first_witness(f, grid):
    """First (point, exponent) in lexicographic order with a nonzero expansion
    coefficient, by direct enumeration over the term-by-term oracle."""
    for point in grid.points():
        mv = grid.multiplicity_vector(point)
        for u in itertools.product(*(range(m) for m in mv)):
            c = expansion_coefficient_oracle(f, point, u)
            if not c.is_zero():
                return tuple(point), u, c
    return None


def cover_report_oracle(hyperplanes, grid):
    """verify_cover's report by evaluating every plane at every nonzero grid
    point in field arithmetic, with the required count read from
    grid.multiplicity_vector.  Two planes are proportional when every 2x2
    minor of their coefficient vectors vanishes; direction keys are not used."""
    spec = grid.spec
    n = grid.arity
    origin = (spec.zero,) * n

    def vanishes(h, point):
        total = h.coeffs[0]
        for c, x in zip(h.coeffs[1:], point):
            total = total + c * x
        return total.is_zero()

    per_point = {}
    for point in grid.points():
        if point != origin:
            required = sum(grid.multiplicity_vector(point)) - n + 1
            per_point[point] = (required, sum(1 for h in hyperplanes if vanishes(h, point)))
    undercovered = [point for point, (required, achieved) in per_point.items() if achieved < required]
    origin_covered = any(vanishes(h, origin) for h in hyperplanes)
    if origin_covered:
        verdict = "origin_violated"
    elif undercovered:
        verdict = "undercovered"
    else:
        verdict = "valid_cover"
    proportional = [
        (i, j)
        for (i, g), (j, h) in itertools.combinations(enumerate(hyperplanes), 2)
        if all(
            g.coeffs[a] * h.coeffs[b] == g.coeffs[b] * h.coeffs[a]
            for a, b in itertools.combinations(range(n + 1), 2)
        )
    ]
    return CoverReport(
        verdict=verdict,
        k=len(hyperplanes),
        bound=sum(grid.sizes) - n,
        origin_covered=origin_covered,
        per_point=per_point,
        undercovered_points=undercovered,
        proportional_pairs=proportional,
    )


def evaluate_oracle(f, point):
    """f at a point, term by term in FieldElement arithmetic: each term's
    coefficient times its coordinates' powers, taken with ** one by one."""
    spec = f.spec
    total = spec.zero
    for u, c in f.terms.items():
        term = spec.element(c)
        for x, e in zip(point, u):
            term = term * spec.element(x) ** e
        total = total + term
    return total


def value_set_oracle(f, grid):
    """The value set of f on the grid by enumeration: every point evaluated
    by evaluate_oracle, and each value given the largest sum(m_i) - n + 1
    over the points where f takes it."""
    best = {}
    for point in grid.points():
        value = evaluate_oracle(f, point)
        m = sum(grid.multiplicity_vector(point)) - grid.arity + 1
        best[value] = max(best.get(value, 0), m)
    return Multiset(grid.spec, best.items())


def poly_product_oracle(a, b):
    """a * b term pair by term pair, adding FieldElement products into a
    {exponent: FieldElement} dict."""
    spec = a.spec
    out = {}
    for u, x in a.terms.items():
        for w, y in b.terms.items():
            e = tuple(i + j for i, j in zip(u, w))
            out[e] = out.get(e, spec.zero) + spec.element(x) * spec.element(y)
    return MultiPoly(a.arity, spec, out)


def dual_basis_poly(grid, point, u):
    """Nonzero exactly at the (point, u) slot of the weight-table domain: the
    product of (x_i - point_i)^{u_i} and the full factors at the other nodes."""
    spec = grid.spec
    n = grid.arity
    f = MultiPoly.constant(n, spec, 1)
    for i, ms in enumerate(grid.sets):
        xi = MultiPoly.variable(n, spec, i)
        factors = [(point[i], u[i])] + [(elem, mult) for elem, mult in ms.entries.items() if elem != point[i]]
        for value, power in factors:
            for _ in range(power):
                f = poly_product_oracle(f, xi - MultiPoly.constant(n, spec, value))
    return f


def residue_weight_oracle(grid, point, u):
    """Weight-table entry in residue form.  Per coordinate, with y = x - s,
    the weight of (s, e) is the coefficient of y^(m_s - 1 - e) in the product
    over the other elements s' of (y + s - s')^(-m_s'), expanded as a power
    series truncated below y^(m_s); the full weight is the product over the
    coordinates.  Uses field operations only."""
    spec = grid.spec
    weight = spec.one
    for ms, s, e in zip(grid.sets, point, u):
        s = spec.element(s)
        weight = weight * _residue_series(ms, s)[ms.multiplicity(s) - 1 - e]
    return weight


@functools.lru_cache(maxsize=64)
def _residue_series(ms, s):
    """The series of the weights of (s, e) in coordinate multiset ms, by
    repeated geometric series, kept so that the entries of one element share
    it."""
    spec = ms.spec
    m = ms.multiplicity(s)
    series = [spec.one] + [spec.zero] * (m - 1)
    for other, mult in ms.entries.items():
        if other == s:
            continue
        # (y + c)^(-1) = sum over k of (-1)^k c^(-k-1) y^k
        c_inv = (s - other).inv()
        geometric = [(-c_inv) ** k * c_inv for k in range(m)]
        for _ in range(mult):
            series = [
                sum((series[i] * geometric[k - i] for i in range(k + 1)), spec.zero)
                for k in range(m)
            ]
    return series


def _drop_one(row, value):
    """A row of (element, multiplicity) pairs with one copy of value taken out."""
    return tuple((s, m - (s == value)) for s, m in row if s != value or m > 1)


def two_point_weight_oracle(grid, point, u):
    """Weight-table entry from the two-point recursion expanded symbolically.
    Per coordinate, the bracket of a multiset is (bracket without a -
    bracket without b) / (b - a) for two distinct elements a and b of it,
    down to single elements s of multiplicity m, whose bracket is the
    coefficient of (x - s)^(m - 1); the weights of a multiset are collected
    as a {(s, e): FieldElement} map over the sub-multisets the recursion
    visits, splitting at the two smallest elements.  The full weight is the
    product over the coordinates.  Uses field operations only."""
    spec = grid.spec

    def weights(row, memo):
        if row not in memo:
            if len(row) == 1:
                (s, m), = row
                memo[row] = {(s, m - 1): spec.one}
            else:
                a, b = row[0][0], row[1][0]
                inv = (b - a).inv()
                res = {k: w * inv for k, w in weights(_drop_one(row, a), memo).items()}
                for k, w in weights(_drop_one(row, b), memo).items():
                    res[k] = res.get(k, spec.zero) - w * inv
                memo[row] = res
        return memo[row]

    weight = spec.one
    for ms, s, e in zip(grid.sets, point, u):
        table = weights(tuple(ms.entries.items()), {})
        weight = weight * table.get((spec.element(s), e), spec.zero)
    return weight


def two_point_bracket_oracle(f, grid, rng):
    """The bracket by the two-point recursion with random pivots: for a
    random coordinate holding two distinct elements and a random pair a, b
    of them, the bracket is (bracket without a - bracket without b) / (b - a),
    down to single points, whose bracket is the expansion coefficient one
    below the multiplicities, read term by term with
    expansion_coefficient_oracle.  Sub-grids are memoized as tuples of rows
    of (element, multiplicity) pairs.  Uses field operations only."""
    memo = {}

    def go(state):
        if state not in memo:
            eligible = [i for i, row in enumerate(state) if len(row) >= 2]
            if eligible:
                i = rng.choice(eligible)
                a, b = rng.sample([s for s, _ in state[i]], 2)
                left = state[:i] + (_drop_one(state[i], a),) + state[i + 1:]
                right = state[:i] + (_drop_one(state[i], b),) + state[i + 1:]
                memo[state] = (go(left) - go(right)) * (b - a).inv()
            else:
                point = [row[0][0] for row in state]
                memo[state] = expansion_coefficient_oracle(f, point, [row[0][1] - 1 for row in state])
        return memo[state]

    return go(tuple(tuple(ms.entries.items()) for ms in grid.sets))


def generator_oracle(ms, var, arity):
    """The generator of one grid coordinate, multiplied out on a FieldElement
    coefficient list one linear factor x_{var+1} - s at a time, one factor
    per unit of multiplicity, and wrapped in a MultiPoly at the end."""
    spec = ms.spec
    g = [spec.one]
    for elem, mult in ms.entries.items():
        for _ in range(mult):
            # g * (x - s): the new coefficient at k is g[k-1] - s * g[k]
            g = [a - elem * b for a, b in zip([spec.zero] + g, g + [spec.zero])]
    head, tail = (0,) * var, (0,) * (arity - var - 1)
    return MultiPoly(arity, spec, {head + (k,) + tail: c for k, c in enumerate(g)})


def ideal_member_oracle(rng, grid, max_cof_deg=2, max_terms=4):
    """randgen.rand_ideal_member with the same draws, so the same polynomial,
    built from generator_oracle and poly_product_oracle."""
    spec, n = grid.spec, grid.arity
    f = MultiPoly.zero(n, spec)
    for i, ms in enumerate(grid.sets):
        if rng.random() < 0.75:
            f = f + poly_product_oracle(rand_poly(rng, spec, n, max_cof_deg, max_terms), generator_oracle(ms, i, n))
    return f


def build_punctured_instance(rng, spec, n, max_size=3):
    """A (polynomial, grid, sub-grid) triple for the punctured decomposition:
    f is a random multiple of the generator quotients plus ideal noise, so it
    vanishes fully outside the sub-grid; the caller must still check that at
    least one sub-grid point is actually punctured."""
    grid = rand_grid(rng, spec, n, max_size=max_size)
    d_sets = []
    for ms in grid.sets:
        support = list(ms.entries.items())
        keep = rng.sample(support, rng.randint(1, len(support)))
        d_sets.append(Multiset(spec, keep))
    d_grid = MultisetGrid(d_sets)
    quotient = MultiPoly.constant(n, spec, 1)
    for i, (big, small) in enumerate(zip(grid.sets, d_grid.sets)):
        outside = [(e, m) for e, m in big.entries.items() if small.multiplicity(e) == 0]
        if outside:
            quotient = poly_product_oracle(quotient, generator_oracle(Multiset(spec, outside), i, n))
    h = rand_poly(rng, spec, n, max_deg=1, max_terms=2)
    f = poly_product_oracle(h, quotient) + ideal_member_oracle(rng, grid)
    return f, grid, d_grid, quotient


def operator_route_oracle(rng, spec, arity, depth):
    """A random expression tree as (text, polynomial).  The text renders the
    tree with only the parentheses the grammar needs, and the polynomial is
    the tree evaluated with MultiPoly's +, -, *, unary - and **, so
    parse_poly(text) must equal it, term order included.  Nodes carry their
    grammar level: 0 a sum, 1 a product, 2 a negation, 3 a power, 4 an atom;
    an operand below the level its place needs is parenthesized, so a - (b - c)
    and a*(b*c) keep their shape, and a power's base is always an atom."""

    def at(node, level):
        text, own, poly = node
        return (text if own >= level else f"({text})"), poly

    def draw(depth):
        kind = rng.choice(("+", "-", "*", "+", "*", "neg", "^", "()")) if depth and rng.random() < 0.85 else "atom"
        if kind == "atom":
            r = rng.random()
            if r < 0.55:
                i = rng.randrange(arity)
                return f"x{i + 1}", 4, MultiPoly.variable(arity, spec, i)
            if not spec.is_prime_field and r < 0.7:
                a, b = rng.randint(0, 9), rng.randint(1, 9)
                return f"{a}/{b}", 4, MultiPoly.constant(arity, spec, Fraction(a, b))
            c = rng.choice((0, 1, 2, 3, 5, 6, 7, 10006, 10**20 + 1))
            return str(c), 4, MultiPoly.constant(arity, spec, c)
        if kind == "neg":
            text, poly = at(draw(depth - 1), 2)
            return "-" + text, 2, -poly
        if kind == "^":
            text, poly = at(draw(depth - 1), 4)
            e = rng.choice((0, 1, 2, 2, 3))
            while e > 1 and len(poly.terms) ** e > 300:
                e -= 1
            return f"{text}^{e}", 3, poly**e
        if kind == "()":
            text, _, poly = draw(depth - 1)
            return f"({text})", 4, poly
        sep = rng.choice(("", " "))
        if kind == "*":
            (lt, lp), (rt, rp) = at(draw(depth - 1), 1), at(draw(depth - 1), 2)
            return f"{lt}{sep}*{sep}{rt}", 1, lp * rp
        (lt, lp), (rt, rp) = at(draw(depth - 1), 0), at(draw(depth - 1), 1)
        return f"{lt}{sep}{kind}{sep}{rt}", 0, (lp + rp if kind == "+" else lp - rp)

    text, _, poly = draw(depth)
    return text, poly
