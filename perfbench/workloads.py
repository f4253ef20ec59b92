"""Seeded workloads for the nullgrid benchmark.

A workload is a pool of ops.  ``generate(name, seed)`` returns the pool as
plain data, a list of ``(kind, params)`` pairs drawn with stdlib ``random``;
``build(name, spec, ng)`` turns one pair into an ``Op``: it constructs the
inputs through the library, and the op's ``run()`` makes the timed call,
``check()`` verifies the output and ``render()`` gives the bytes that the
committed digests cover.

Shapes (arity, multiplicities, degrees, term counts) come from a schedule that
is the same for every seed, drawn from ``random.Random("shape:<workload>")``.
So every seed puts the same load on the program and the run-to-run spread
stays small.  The seed draws field values, coefficients, exponents and the
op order.  Inputs are generated here, never with ``nullgrid.randgen``, so a
change to that module cannot change the load.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("cli_small", "reduce_dense", "expand_dense", "combinatorics")

KINDS = {
    "cli_small": (
        "reduce", "member", "divdiff", "witness-exhaustive", "witness-dd", "punctured",
        "alpha", "valueset", "sumset", "cd-check", "cover-check",
    ),
    "reduce_dense": ("reduce", "reduce_anchor", "divdiff_def", "weight_table", "weight_table_anchor"),
    "expand_dense": (
        "witness_exhaustive", "witness_dd", "member_pointwise", "divdiff_rec", "top_identity",
        "punctured",
    ),
    "combinatorics": ("cd_check", "sun_check", "cover", "ek_check"),
}

# Drawn values are nonzero and, over Q, small integers: shifts and products at
# 0 are cheaper, and rational heights change the cost of rational arithmetic,
# so either would make an op's cost depend on the seed.
_Q_VALUES = [v for v in range(-6, 7) if v]


class CheckFailed(Exception):
    """An op returned a wrong output."""


def expect(cond, message: str):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    render: Callable[[object], str]


# -- plain-data helpers ----------------------------------------------------------


def _values(rng, p: int, k: int, exclude=()) -> list:
    """k distinct nonzero field values as canonical strings, sorted by
    representative."""
    pool = [v for v in (range(1, p) if p else _Q_VALUES) if v not in exclude]
    return [str(v) for v in sorted(rng.sample(pool, k))]


def _coeff(rng, p: int) -> str:
    if p:
        return str(rng.randrange(1, p))
    return str(rng.choice([-1, 1]) * rng.randint(1, 9))


def _split(srng, size: int, parts: int) -> list:
    """Multiplicities: `parts` positive integers summing to `size`."""
    mults = [1] * parts
    for _ in range(size - parts):
        mults[srng.randrange(parts)] += 1
    return mults


def _mono(u) -> str:
    return "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(u) if e)


def _poly(terms: dict) -> str:
    """Expression text of {exponent tuple: coefficient text}."""
    if not terms:
        return "0"
    return " + ".join(f"{c}*{_mono(u)}" if any(u) else c for u, c in terms.items())


def _rand_terms(srng, rng, p: int, n: int, count: int, max_deg: int) -> dict:
    """Exponents from the shape schedule, coefficients from the seed."""
    count = min(count, math.comb(max_deg + n, n))
    terms = {}
    while len(terms) < count:
        deg = srng.randint(0, max_deg)
        cut = sorted(srng.randint(0, deg) for _ in range(n - 1))
        u = tuple(b - a for a, b in zip([0] + cut, cut + [deg]))
        terms[u] = _coeff(rng, p)
    return terms


def _lin(i: int, v: str) -> str:
    return f"(x{i + 1} + {v[1:]})" if v.startswith("-") else f"(x{i + 1} - {v})"


def _factor(i: int, entries) -> str:
    """Product of (x_i - v)^m over (v, m) entries, as expression text."""
    return "*".join(_lin(i, v) + (f"^{m}" if m > 1 else "") for v, m in entries) or "1"


def _grid(p: int, sets) -> dict:
    field = {"kind": "prime", "p": p} if p else {"kind": "rational"}
    return {"field": field, "sets": [[{"value": v, "mult": m} for v, m in row] for row in sets]}


def _rand_sets(rng, p: int, shape) -> list:
    """One row of (value, mult) per coordinate; shape holds the mult lists."""
    return [list(zip(_values(rng, p, len(mults)), mults)) for mults in shape]


def _mult_shape(srng, n: int, max_support: int, max_mult: int, min_support: int = 1) -> list:
    return [
        [srng.randint(1, max_mult) for _ in range(srng.randint(min_support, max_support))]
        for _ in range(n)
    ]


# -- cli_small -------------------------------------------------------------------

_CLI_FIELDS = (2, 3, 5, 7, 11, 13, 0)
_CLI_REPS = 24


def _gen_cli_small(srng, rng):
    specs = []
    for rep in range(_CLI_REPS):
        for kind in KINDS["cli_small"]:
            argv = _cli_argv(srng, rng, kind)
            specs.append((kind, argv + ["--json"] if rep % 2 else argv))
    return specs


def _cli_argv(srng, rng, kind):
    if kind in ("sumset", "cd-check"):
        p = srng.choice(_CLI_FIELDS[:-1])
        pair = []
        for _ in range(2):
            size = srng.randint(1, 4)
            support = srng.randint(1, min(size, p - 1))
            pair.append([{"value": v, "mult": m} for v, m in zip(_values(rng, p, support), _split(srng, size, support))])
        return [kind, "--field", f"prime:{p}", "--a", json.dumps(pair[0]), "--b", json.dumps(pair[1])]

    p = srng.choice(_CLI_FIELDS)
    n = srng.randint(1, 3)
    room = p - 1 if p else 4
    shape = []
    for _ in range(n):
        size = srng.randint(1, 4)
        support = srng.randint(1, min(size, room))
        shape.append(_split(srng, size, support))
    if kind == "cover-check":
        # every coordinate holds 0 with multiplicity exactly 1
        sets = []
        for mults in shape:
            others = _values(rng, p, len(mults) - 1)
            sets.append([("0", 1)] + list(zip(others, mults[1:])))
        planes = []
        for i, row in enumerate(sets):
            for v, m in row[1:]:
                neg = str(-int(v) % p if p else -int(v))
                planes += [[neg] + ["1" if j == i else "0" for j in range(n)]] * m
        return ["cover-check", "--grid-inline", json.dumps(_grid(p, sets)),
                "--hyperplanes-inline", json.dumps(planes)]

    sets = _rand_sets(rng, p, shape)
    argv = [kind.split("-")[0] if kind.startswith("witness") else kind,
            "--grid-inline", json.dumps(_grid(p, sets))]
    if kind in ("reduce", "member", "divdiff", "valueset"):
        if kind == "member" and srng.random() < 0.5:
            # a member: one generator times a small factor
            i = srng.randrange(n)
            poly = f"{_factor(i, sets[i])}*({_poly(_rand_terms(srng, rng, p, n, 2, 1))})"
        else:
            poly = _poly(_rand_terms(srng, rng, p, n, srng.randint(1, 10), srng.randint(0, 8)))
        argv.append(f"--poly={poly}")  # a leading "-" must not read as an option
        if kind in ("member", "divdiff"):
            argv += ["--method", "both"]
    elif kind.startswith("witness"):
        d = [sum(m for _, m in row) for row in sets]
        t = [srng.randint(0, di - 1) for di in d]
        while sum(t) > 8:
            t[t.index(max(t))] -= 1
        terms = _rand_terms(srng, rng, p, n, srng.randint(0, 9), max(sum(t) - 1, 0)) if sum(t) else {}
        terms.pop(tuple(t), None)
        terms[tuple(t)] = _coeff(rng, p)
        argv += [f"--poly={_poly(terms)}", "--t", ",".join(map(str, t)),
                 "--method", "exhaustive" if kind == "witness-exhaustive" else "divided-difference"]
    elif kind == "punctured":
        keep = [srng.randint(1, len(row)) for row in sets]
        sub = [row[:k] for row, k in zip(sets, keep)]
        poly = "*".join([_coeff(rng, p)] + [_factor(i, row[k:]) for i, (row, k) in enumerate(zip(sets, keep))])
        argv += [f"--poly={poly}", "--sub-grid-inline", json.dumps(_grid(p, sub))]
    return argv


def _build_cli_small(kind, argv, ng):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = ng.cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv
                code = f"exit {exc.code}"
        return code, out.getvalue(), err.getvalue()

    def check(res):
        code, out, err = res
        expect(code == 0, f"exit code {code}: {err.strip()}")
        expect(err == "" and out.endswith("\n"), "unexpected stderr or empty stdout")
        if "--json" in argv:
            expect(json.loads(out)["schema"] == "nullgrid.v1", "bad JSON schema")

    return Op(kind, run, check, lambda res: f"{res[0]}\n{res[1]}\0{res[2]}")


# -- reduce_dense ----------------------------------------------------------------

_DENSE_FIELDS = (10007, 10007, 13, 0)


def _gen_reduce_dense(srng, rng):
    specs = [
        ("reduce_anchor", {"p": 10007, "poly": "(x1 + x2 + x3 + 1)^18",
                           "sets": _rand_sets(rng, 10007, [[1] * 9] * 3)}),
        ("weight_table_anchor", {"p": 10007, "sets": _rand_sets(rng, 10007, [[1] * 9] * 3)}),
    ]
    for kind, count in (("reduce", 48), ("divdiff_def", 32)):
        for _ in range(count):
            n = srng.choice((2, 3))
            p = srng.choice(_DENSE_FIELDS)
            # the degree drives the elimination count: 105-496 terms for n = 2
            # and 120-816 for n = 3, fewer over Q; the anchor has 1330
            k = srng.randint(*{(2, True): (13, 30), (3, True): (7, 15), (2, False): (13, 16),
                               (3, False): (7, 9)}[n, bool(p)])
            shape = _mult_shape(srng, n, 9, 3, min_support=2)
            coeffs = [_coeff(rng, p) for _ in range(n + 1)]
            linear = " + ".join([coeffs[0]] + [f"{c}*x{i + 1}" for i, c in enumerate(coeffs[1:])])
            specs.append((kind, {"p": p, "poly": f"({linear})^{k}", "sets": _rand_sets(rng, p, shape)}))
    for _ in range(20):
        n = srng.choice((2, 3))
        p = srng.choice(_DENSE_FIELDS)
        while True:
            shape = _mult_shape(srng, n, 9, 3, min_support=2)
            if 100 <= math.prod(sum(row) for row in shape) <= (400 if p else 150):
                break
        specs.append(("weight_table", {"p": p, "sets": _rand_sets(rng, p, shape)}))
    return specs


def _check_certificate(f, grid, res):
    total = res.remainder
    for h, g in zip(res.cofactors, grid.generators()):
        total = total + h * g
    expect(total == f, "f != r + sum h_i * g_i")
    d = grid.sizes
    expect(all(u[i] < d[i] for u in res.remainder.terms for i in range(grid.arity)),
           "remainder degree reaches a multiset size")
    deg_f = f.total_degree()
    for i, h in enumerate(res.cofactors):
        expect(h.is_zero() or h.total_degree() <= deg_f - d[i], f"deg h{i + 1} too large")


def _render_reduce(res):
    return "\n".join([str(res.remainder)] + [str(h) for h in res.cofactors])


def _build_reduce_dense(kind, params, ng):
    grid = ng.ideals.grid_from_dict(_grid(params["p"], params["sets"]))
    if kind.startswith("weight_table"):
        def check_table(table):
            expect(len(table.weights) == math.prod(grid.sizes), "weight table domain size")
            for point in grid.points():
                top = tuple(m - 1 for m in grid.multiplicity_vector(point))
                expect(table.weight(point, top) == ng.divdiff.top_weight_closed_form(grid, point),
                       "top weight differs from the closed form")

        return Op(kind, lambda: ng.divdiff.weight_table(grid), check_table,
                  lambda t: "\n".join(f"{p} {u} {w}" for (p, u), w in t.sorted_items()))

    f = ng.polynomials.parse_poly(params["poly"], grid.arity, grid.spec)
    if kind == "divdiff_def":
        def check_value(value):
            res = ng.ideals.reduce_poly(f, grid)
            _check_certificate(f, grid, res)
            expect(value == res.remainder.coefficient(grid.top_exponent), "bracket differs from remainder")

        return Op(kind, lambda: ng.divdiff.divided_difference(f, grid), check_value, str)
    return Op(kind, lambda: ng.ideals.reduce_poly(f, grid),
              lambda res: _check_certificate(f, grid, res), _render_reduce)


# -- expand_dense ----------------------------------------------------------------

_EXPAND_FIELDS = (10007, 101, 10007, 101, 0)


def _points_shape(srng, n, lo, hi, max_mult, max_support=9):
    while True:
        shape = _mult_shape(srng, n, max_support, max_mult, min_support=2 if n == 2 else 1)
        if lo <= math.prod(len(row) for row in shape) <= hi:
            return shape


def _gen_expand_dense(srng, rng):
    specs = []
    plan = (("witness_exhaustive", 40), ("witness_dd", 40), ("member_pointwise", 36),
            ("divdiff_rec", 28), ("top_identity", 28), ("punctured", 32))
    for kind, count in plan:
        for _ in range(count):
            n = srng.choice((2, 3))
            p = srng.choice(_EXPAND_FIELDS)
            specs.append((kind, _expand_params(srng, rng, kind, n, p)))
    return specs


def _expand_params(srng, rng, kind, n, p):
    most = 30 if p else 10  # rational arithmetic is far slower: fewer points over Q
    if kind.startswith("witness"):
        sets = _rand_sets(rng, p, _points_shape(srng, n, 4, most, 3 if p else 2))
        poly = "*".join([_coeff(rng, p)] + [_factor(i, row[:-1]) for i, row in enumerate(sets)])
        t = [sum(m for _, m in row[:-1]) for row in sets]
        return {"p": p, "sets": sets, "poly": poly, "t": t}
    if kind == "member_pointwise":
        sets = _rand_sets(rng, p, _points_shape(srng, n, 4, most, 3))
        parts = [f"({_factor(i, row)})*({_poly(_rand_terms(srng, rng, p, n, srng.randint(1, 4), 2))})"
                 for i, row in enumerate(sets)]
        return {"p": p, "sets": sets, "poly": " + ".join(parts)}
    if kind == "divdiff_rec":
        sets = _rand_sets(rng, p, _points_shape(srng, n, 4, min(most, 16), 2, max_support=5))
        deg = sum(m for row in sets for _, m in row) + 2
        count = srng.randint(20, 150 if p else 60)
        return {"p": p, "sets": sets, "poly": _poly(_rand_terms(srng, rng, p, n, count, deg))}
    if kind == "top_identity":
        sets = _rand_sets(rng, p, _points_shape(srng, n, 4, min(most, 30), 2, max_support=6))
        deg = sum(sum(m for _, m in row) - 1 for row in sets)
        return {"p": p, "sets": sets, "poly": _poly(_rand_terms(srng, rng, p, n, srng.randint(20, 100), deg))}
    # punctured: f vanishes fully off the tight sub-grid and is nonzero on it
    sets = _rand_sets(rng, p, _points_shape(srng, n, 4, min(most, 30), 2, max_support=6))
    keep = [srng.randint(1, len(row)) for row in sets]
    extra = []
    for i, row in enumerate(sets):
        (z,) = _values(rng, p, 1, exclude={int(v) for v, _ in row})
        extra.append(_lin(i, z) + f"^{srng.randint(1, 2)}")
    poly = "*".join([_coeff(rng, p)] + [_factor(i, row[k:]) for i, (row, k) in enumerate(zip(sets, keep))] + extra)
    return {"p": p, "sets": sets, "sub": [row[:k] for row, k in zip(sets, keep)], "poly": poly}


def _render_witness(w):
    return f"{tuple(str(x) for x in w.point)} {w.exponent} {w.value}"


def _build_expand_dense(kind, params, ng):
    grid = ng.ideals.grid_from_dict(_grid(params["p"], params["sets"]))
    f = ng.polynomials.parse_poly(params["poly"], grid.arity, grid.spec)
    cert = ng.certificates
    if kind.startswith("witness"):
        t = tuple(params["t"])
        method = "exhaustive" if kind == "witness_exhaustive" else "divided_difference"
        last = tuple(ms.support[-1] for ms in grid.sets)

        def check_witness(w):
            expect(not w.value.is_zero(), "zero witness value")
            mv = grid.multiplicity_vector(w.point)
            expect(all(e < m for e, m in zip(w.exponent, mv)), "exponent not below multiplicity")
            expect(w.point == last and not any(w.exponent), "witness is not at the last point")
            expect(w.value == f.evaluate(last), "witness value is not f(last)")
            if method == "divided_difference":
                ref = cert.find_witness(f, cert.trim_grid(grid, t), t, method="exhaustive")
                expect((w.point, w.exponent, w.value) == (ref.point, ref.exponent, ref.value),
                       "methods disagree after trimming")

        return Op(kind, lambda: cert.find_witness(f, grid, t, method=method), check_witness, _render_witness)
    if kind == "member_pointwise":
        def check_member(member):
            expect(member is True, "constructed member reported outside the ideal")
            expect(ng.ideals.in_grid_ideal(f, grid, "remainder") is True, "remainder route disagrees")

        return Op(kind, lambda: ng.ideals.in_grid_ideal(f, grid, "pointwise"), check_member, str)
    if kind == "divdiff_rec":
        return Op(kind, lambda: ng.divdiff.divided_difference_recursive(f, grid),
                  lambda v: expect(v == ng.divdiff.divided_difference(f, grid), "bracket routes disagree"),
                  str)
    if kind == "top_identity":
        return Op(kind, lambda: ng.divdiff.top_coefficient_identity_holds(f, grid),
                  lambda holds: expect(holds is True, "top-coefficient identity fails"), str)
    sub = ng.ideals.grid_from_dict(_grid(params["p"], params["sub"]))

    def check_punctured(res):
        expect(res.remainder == ng.ideals.reduce_poly(f, grid).remainder, "remainder differs")
        expect(not res.quotient.is_zero(), "zero cofactor")
        prod = res.quotient
        for i, (big, small) in enumerate(zip(grid.sets, sub.sets)):
            outside = [(e, m) for e, m in big.entries.items() if small.multiplicity(e) == 0]
            if outside:
                prod = prod * ng.ideals.Multiset(grid.spec, outside).generator_poly(i, grid.arity)
        expect(prod == res.remainder, "r != h * prod(g_i / l_i)")
        expect(f.total_degree() >= res.degree_bound, "degree below the punctured bound")

    return Op(kind, lambda: cert.punctured_decompose(f, grid, sub), check_punctured,
              lambda res: f"{res.remainder}\n{res.quotient}\n{res.degree_bound}")


# -- combinatorics ---------------------------------------------------------------

_CD_MAX_SIZE = {5: 5, 7: 5, 11: 4, 13: 4}


def _gen_combinatorics(srng, rng):
    # 100 of 240 ops are the tens-of-microseconds cd and ek checks, so the
    # median falls inside the continuous sun/cover range, not between clusters
    specs = []
    for _ in range(60):
        p = srng.choice(tuple(_CD_MAX_SIZE))
        pair = []
        for _ in range(2):
            # iter_multisets yields by size: pick the size by shape, the multiset by seed
            size = srng.randint(1, _CD_MAX_SIZE[p])
            start = sum(math.comb(p + s - 1, s) for s in range(1, size))
            pair.append(start + rng.randrange(math.comb(p + size - 1, size)))
        specs.append(("cd_check", {"p": p, "pair": pair}))
    for _ in range(70):
        p = srng.choice((5, 7, 11, 13, 0))
        n = srng.randint(1, 3)
        if n == 1:
            shape = _mult_shape(srng, 1, min(p - 1 if p else 9, 9), 3)
        else:
            shape = _points_shape(srng, n, 1, 80, 3, max_support=min(p - 1 if p else 6, 6))
        k = srng.randint(1, 3)
        sets = _rand_sets(rng, p, shape)
        coeffs = [_coeff(rng, p) for _ in range(n)]
        g = _poly(_rand_terms(srng, rng, p, n, srng.randint(0, 3), k - 1)) if k > 1 else ""
        specs.append(("sun_check", {"p": p, "sets": sets, "coeffs": coeffs, "k": k, "g": g}))
    for _ in range(70):
        p = srng.choice((5, 7, 11, 13, 0))
        n = srng.randint(1, 3)
        if n == 1:
            shape = _mult_shape(srng, 1, min(p - 1 if p else 9, 9), 3)
        else:
            shape = _points_shape(srng, n, 1, 60, 3, max_support=min(p - 1 if p else 6, 6))
        sets = []
        for mults in shape:
            others = _values(rng, p, len(mults) - 1)
            sets.append([("0", 1)] + list(zip(others, mults[1:])))
        specs.append(("cover", {"p": p, "sets": sets}))
    for _ in range(40):
        p = srng.choice((2, 3, 5))
        dim = srng.randint(1, 2)
        pair = []
        for _ in range(2):
            size = srng.randint(1, 4)
            support = srng.randint(1, min(size, p**dim))
            vectors = rng.sample(list(itertools.product(range(p), repeat=dim)), support)
            pair.append([{"value": list(v), "mult": m} for v, m in zip(vectors, _split(srng, size, support))])
        specs.append(("ek_check", {"p": p, "dim": dim, "pair": pair}))
    return specs


def _check_bound(chk):
    expect(chk.holds, f"bound fails: {chk.lhs} < {chk.rhs}")


def _build_combinatorics(kind, params, ng, cache):
    app = ng.applications
    render = lambda chk: f"{chk.lhs} {chk.rhs}"  # noqa: E731
    if kind == "cd_check":
        p = params["p"]
        if p not in cache:
            cache[p] = list(app.iter_multisets(ng.fields.FieldSpec.prime(p), _CD_MAX_SIZE[p]))
        a, b = (cache[p][i] for i in params["pair"])
        return Op(kind, lambda: app.cauchy_davenport_check(a, b), _check_bound, render)
    if kind == "ek_check":
        a, b = (app.vector_multiset_from_list(params["p"], params["dim"], items) for items in params["pair"])
        return Op(kind, lambda: app.eliahou_kervaire_check(a, b), _check_bound, render)
    grid = ng.ideals.grid_from_dict(_grid(params["p"], params["sets"]))
    if kind == "sun_check":
        n, spec, k = grid.arity, grid.spec, params["k"]
        g = ng.polynomials.parse_poly(params["g"], n, spec) if params["g"] else ng.polynomials.MultiPoly.zero(n, spec)
        return Op(kind, lambda: app.sun_value_set_check(params["coeffs"], k, g, grid), _check_bound, render)

    def check_cover(rep):
        expect(rep.verdict == "valid_cover", f"verdict {rep.verdict}")
        expect(rep.k == rep.bound, f"k = {rep.k} but the bound is {rep.bound}")

    return Op(kind, lambda: app.verify_cover(app.extremal_cover(grid), grid), check_cover,
              lambda rep: f"{rep.verdict} {rep.k} {rep.bound} {sorted(rep.per_point.values())}")


# -- entry points ------------------------------------------------------------------

_GENERATORS = {
    "cli_small": _gen_cli_small,
    "reduce_dense": _gen_reduce_dense,
    "expand_dense": _gen_expand_dense,
    "combinatorics": _gen_combinatorics,
}


def generate(name: str, seed: int) -> list:
    """The op pool of a workload as (kind, params) data, in run order."""
    srng = random.Random(f"shape:{name}")
    rng = random.Random(f"{name}:{seed}")
    specs = _GENERATORS[name](srng, rng)
    rng.shuffle(specs)
    return specs


def build(name: str, specs: list, ng, tick=None) -> list:
    """Construct the inputs of every op through the library, calling
    tick() after each op."""
    builder = {
        "cli_small": _build_cli_small,
        "reduce_dense": _build_reduce_dense,
        "expand_dense": _build_expand_dense,
        "combinatorics": functools.partial(_build_combinatorics, cache={}),
    }[name]
    ops = []
    for kind, params in specs:
        ops.append(builder(kind, params, ng))
        if tick is not None:
            tick()
    return ops
