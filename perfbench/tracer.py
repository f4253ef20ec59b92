"""Span tracer for the traced benchmark run.

It measures each layer from outside: every listed public function of
nullgrid is rebound, in this process only, to a wrapper that records a span
(name, start, end, parent span, op id, phase) and the counts named below.
Class methods are rebound on the class (``__mul__`` and ``__rmul__``
together); module functions are rebound in every ``nullgrid.*`` module that
holds them, since callers reach them through those module-level aliases.
``uninstall()`` restores every attribute it rebound.

A span's self time is its duration minus the time its child spans cover.
The wrapper's own bookkeeping (counting terms, finding a caller's box) runs
outside the span and is not charged to the span or to its parent.
``fields`` is not wrapped: it makes millions of per-element calls per run and
a wrapper would swamp them; its cost shows in its callers' self time.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter_ns

SPAN_LIMIT = 200_000  # spans kept for the trace file; aggregates count every span


def _count_mul(tracer, context, args, kwargs, result):
    self, other = args[0], args[1]
    return {"term_pairs": len(self.terms) * (len(other.terms) if hasattr(other, "terms") else 1)}


def _count_shift(tracer, context, args, kwargs, result):
    poly, point = args[0], args[1]
    counts = {"terms_in": len(poly.terms), "terms_out": len(result.terms)}
    box = tracer.caller_box(point)
    if box is not None:
        in_box = sum(1 for u in result.terms if all(e < b for e, b in zip(u, box)))
        counts.update(boxed_terms_out=len(result.terms), in_box_terms=in_box)
    return counts


def _count_reduce(tracer, context, args, kwargs, result):
    out = len(result.remainder.terms) + sum(len(h.terms) for h in result.cofactors)
    return {"terms_in": len(args[0].terms), "terms_out": out}


def _count_weight_table(tracer, context, args, kwargs, result):
    return {"entries": len(result.weights)}


def _witness_grid(tracer, args, kwargs):
    """The grid whose points find_witness scans: trimmed for the
    divided-difference method."""
    grid, t = args[1], args[2]
    method = kwargs.get("method", args[3] if len(args) > 3 else "exhaustive")
    if method != "divided_difference":
        return grid
    with tracer.paused():
        return tracer.ng.certificates.trim_grid(grid, t)


def _count_witness(tracer, context, args, kwargs, result):
    grid = context
    if grid is not args[1]:  # trimmed: the whole trimmed grid is scanned
        return {"points_scanned": grid.point_count()}
    for index, point in enumerate(grid.points(), 1):
        if point == result.point:
            return {"points_scanned": index}
    return {}


def _count_value_set(tracer, context, args, kwargs, result):
    return {"points": args[1].point_count()}


def _grid_arg(tracer, args, kwargs):
    return args[1]


def _box_arg(tracer, args, kwargs):
    return tuple(args[2])


# metric prefix, module, attribute (Class.method for methods), counter, box context
TARGETS = (
    ("cli.main", "cli", "main", None, None),
    ("cli.build_parser", "cli", "build_parser", None, None),
    ("polynomials.parse_poly", "polynomials", "parse_poly", None, None),
    ("polynomials.MultiPoly.add", "polynomials", "MultiPoly.__add__", None, None),
    ("polynomials.MultiPoly.pow", "polynomials", "MultiPoly.__pow__", None, None),
    ("polynomials.MultiPoly.divmod_univariate", "polynomials", "MultiPoly.divmod_univariate", None, None),
    ("polynomials.MultiPoly.str", "polynomials", "MultiPoly.__str__", None, None),
    ("polynomials.MultiPoly.mul", "polynomials", "MultiPoly.__mul__", _count_mul, None),
    ("polynomials.MultiPoly.shift", "polynomials", "MultiPoly.shift", _count_shift, None),
    ("ideals.reduce_poly", "ideals", "reduce_poly", _count_reduce, None),
    ("ideals.MultisetGrid.generators", "ideals", "MultisetGrid.generators", None, None),
    ("ideals.in_grid_ideal", "ideals", "in_grid_ideal", None, None),
    ("ideals.in_local_ideal", "ideals", "in_local_ideal", None, _box_arg),
    ("ideals.Multiset.init", "ideals", "Multiset.__init__", None, None),
    ("ideals.grid_from_dict", "ideals", "grid_from_dict", None, None),
    ("divdiff.weight_table", "divdiff", "weight_table", _count_weight_table, None),
    ("divdiff.divided_difference", "divdiff", "divided_difference", None, None),
    ("divdiff.divided_difference_recursive", "divdiff", "divided_difference_recursive", None, _grid_arg),
    ("divdiff.top_coefficient_identity_holds", "divdiff", "top_coefficient_identity_holds", None, _grid_arg),
    ("certificates.find_witness", "certificates", "find_witness", _count_witness, _witness_grid),
    ("certificates.punctured_decompose", "certificates", "punctured_decompose", None, None),
    ("applications.sumset", "applications", "sumset", None, None),
    ("applications.cauchy_davenport_check", "applications", "cauchy_davenport_check", None, None),
    ("applications.sun_value_set_check", "applications", "sun_value_set_check", None, None),
    ("applications.verify_cover", "applications", "verify_cover", None, None),
    ("applications.extremal_cover", "applications", "extremal_cover", None, None),
    ("applications.eliahou_kervaire_check", "applications", "eliahou_kervaire_check", None, None),
    ("applications.value_set", "applications", "value_set", _count_value_set, None),
)

# counts reported per target besides calls and self_ms, with their units
EXTRA_METRICS = {
    "polynomials.MultiPoly.mul": (("term_pairs", "count"),),
    "polynomials.MultiPoly.shift": (
        ("terms_in", "count"), ("terms_out", "count"),
        ("box_read_ratio", "ratio"), ("boxed_terms_out", "count"),
    ),
    "ideals.reduce_poly": (("terms_in", "count"), ("terms_out", "count")),
    "divdiff.weight_table": (("entries", "count"),),
    "certificates.find_witness": (("points_scanned", "count"),),
    "applications.value_set": (("points", "count"),),
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, *_ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        for extra, unit in EXTRA_METRICS.get(name, ()):
            units[f"{name}.{extra}"] = unit
    units["trace.overhead_ratio"] = "ratio"
    return units


class _Span:
    __slots__ = ("id", "context", "child_ns")

    def __init__(self, span_id, context):
        self.id = span_id
        self.context = context
        self.child_ns = 0


class Tracer:
    """Records spans while installed; ``phase`` labels set-up apart from ops
    and ``op_id`` names the op in flight."""

    def __init__(self, ng):
        self.ng = ng
        self.phase = "setup"
        self.op_id = None
        self.stats = {}  # (phase, name) -> [calls, self_ns, {count: total}]
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._next_id = 0
        self._paused = 0
        self._saved = []  # (owner, attribute, original)

    @contextmanager
    def paused(self):
        """Let wrapped calls made by the tracer's own bookkeeping pass through."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def caller_box(self, point):
        """Box of the nearest enclosing span that reads expansion
        coefficients below one, or None."""
        for span in reversed(self._stack):
            ctx = span.context
            if ctx is None:
                continue
            if isinstance(ctx, tuple):
                return ctx
            with self.paused():
                return ctx.multiplicity_vector(point)
        return None

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "nullgrid" or key.startswith("nullgrid.")]
        for name, module, attr, count, context in TARGETS:
            owner = getattr(self.ng, module)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                holders = [(cls, key) for key, val in vars(cls).items() if val is original]
            else:
                original = getattr(owner, attr)
                holders = [(m, key) for m in modules for key, val in vars(m).items() if val is original]
            wrapper = self._wrap(name, original, count, context)
            for holder, key in holders:
                self._saved.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self):
        while self._saved:
            holder, key, original = self._saved.pop()
            setattr(holder, key, original)

    def _wrap(self, name, fn, count, context):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            pre = perf_counter_ns()
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            span = _Span(tracer._next_id, context(tracer, args, kwargs) if context else None)
            stack.append(span)
            returned = False
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                counts = {}
                if returned and count:
                    with tracer.paused():
                        counts = count(tracer, span.context, args, kwargs, result)
                tracer._record(name, span, parent, t0, t1, counts)
                if parent is not None:
                    parent.child_ns += perf_counter_ns() - pre
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _record(self, name, span, parent, t0, t1, counts):
        key = (self.phase, name)
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0, {}]
        entry[0] += 1
        entry[1] += t1 - t0 - span.child_ns
        totals = entry[2]
        for k, v in counts.items():
            totals[k] = totals.get(k, 0) + v
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(
                (span.id, name, self.phase, self.op_id, parent.id if parent else None, t0, t1, counts)
            )
        else:
            self.dropped += 1

    def layer_metrics(self, phase: str, passes: int, time_scale: float = 1.0) -> dict:
        """Per-layer figures of one phase, each divided by `passes`; self
        times are multiplied by `time_scale`."""
        values = {}
        for name, *_ in TARGETS:
            calls, self_ns, totals = self.stats.get((phase, name), (0, 0, {}))
            values[f"{name}.calls"] = calls / passes
            values[f"{name}.self_ms"] = self_ns / 1e6 / passes * time_scale
            for extra, _unit in EXTRA_METRICS.get(name, ()):
                if extra == "box_read_ratio":
                    base = totals.get("boxed_terms_out", 0)
                    values[f"{name}.{extra}"] = totals.get("in_box_terms", 0) / base if base else 0.0
                else:
                    values[f"{name}.{extra}"] = totals.get(extra, 0) / passes
        return values
