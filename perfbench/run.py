#!/usr/bin/env python3
"""Benchmark for nullgrid: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports nullgrid from ``src/`` there and
fails, printing no result, when that tree is missing.  The client has one
thread and starts the next op only after the previous one returns.

``--trace 0`` reports the end-to-end metrics.  Set-up (import, instance
generation, input construction) is done at least SETUP_MIN_REPEATS times and
for at least SETUP_MIN_SECONDS, and ``setup_s`` is the median.  The timed phase then runs the op pool in order, wrapping
around, until ``--seconds`` have passed and at least one pass and MIN_OPS
ops are done.  Times are in reference-speed seconds (see speed.py); the
latency figures are per pool entry (see entry_latencies).

``--trace 1`` reports per-layer metrics from a separate traced run with the
same seed.  It runs whole passes over the pool under the tracer until
``--seconds`` have passed, then the same ops again untraced to give
``trace.overhead_ratio``; per-layer figures are per pass over the pool.
Spans and a per-op-kind breakdown are written under ``.perfbench/``.

Both modes check every op's output untimed after the timed phase and compare
the output digests of the default-seed pool with ``digests.json``; each
failure counts in ``failed``.  The last line of stdout is one JSON object.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads
from speed import SpeedLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
MIN_OPS = 100
MODULES = ("fields", "polynomials", "ideals", "divdiff", "certificates", "applications", "cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def import_nullgrid():
    """Import nullgrid afresh from SRC (earlier imports are dropped, so every
    set-up repeat pays the import)."""
    for key in [k for k in sys.modules if k == "nullgrid" or k.startswith("nullgrid.")]:
        del sys.modules[key]
    ng = SimpleNamespace(**{m: importlib.import_module(f"nullgrid.{m}") for m in MODULES})
    if Path(ng.cli.__file__).resolve().parent != SRC / "nullgrid":
        raise RuntimeError(f"imported nullgrid from {ng.cli.__file__}, not from {SRC}")
    return ng


def setup(workload: str, seed: int):
    ng = import_nullgrid()
    return ng, workloads.build(workload, workloads.generate(workload, seed), ng)


class Loop:
    """Outcome of running ops in a closed loop."""

    def __init__(self):
        self.starts = []  # wall clock at each op's start
        self.latencies = []  # wall seconds, one per executed op
        self.indices = []  # pool index, one per executed op
        self.first = {}  # pool index -> result (or exception) of its first run
        self.raised_later = set()  # pool indices that raised on a later run
        self.elapsed = 0.0
        self.speed = SpeedLog()

    @property
    def count(self) -> int:
        return len(self.latencies)

    def ref_latencies(self) -> list:
        """Latencies in reference-speed seconds (see speed.py)."""
        scale = self.speed.scale
        return [lat * scale(t0, t0 + lat) for t0, lat in zip(self.starts, self.latencies)]

    def ref_elapsed(self) -> float:
        return sum(self.ref_latencies())


def run_loop(ops, seconds=None, count=None, whole_passes=False, tracer=None) -> Loop:
    """Run ops[0], ops[1], ... (wrapping around) until `count` ops are done,
    or until `seconds` have passed and at least one pass and MIN_OPS ops
    (or, with whole_passes, a whole number of passes) are done."""
    loop = Loop()
    clock = time.perf_counter
    loop.speed.probe()
    deadline = clock() + (seconds or 0.0)
    start = clock()
    i = 0
    while True:
        idx = i % len(ops)
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            result = ops[idx].run()
        except Exception as exc:  # counted as a failed op
            result = exc
        t1 = clock()
        loop.speed.maybe_probe(t1)
        loop.starts.append(t0)
        loop.latencies.append(t1 - t0)
        loop.indices.append(idx)
        if idx not in loop.first:
            loop.first[idx] = result
        elif isinstance(result, Exception):
            loop.raised_later.add(idx)
        i += 1
        if count is not None:
            if i >= count:
                break
        elif t1 >= deadline and (i % len(ops) == 0 if whole_passes else i >= max(MIN_OPS, len(ops))):
            break
    loop.elapsed = clock() - start
    loop.speed.probe()
    return loop


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_outputs(ops, loop: Loop):
    """Check the first result of every executed pool entry.  Returns
    (failed executions, digests by pool index, failure messages)."""
    bad = {}
    digests = {}
    for idx, result in loop.first.items():
        op = ops[idx]
        try:
            if isinstance(result, Exception):
                raise result
            op.check(result)
            digests[idx] = digest(op.render(result))
        except Exception as exc:
            bad[idx] = f"op {idx} ({op.kind}): {type(exc).__name__}: {exc}"
    for idx in loop.raised_later - set(bad):
        bad[idx] = f"op {idx} ({ops[idx].kind}): raised on a later run"
    failed = sum(1 for idx in loop.indices if idx in bad)
    return failed, digests, list(bad.values())


def default_seed_digests(workload: str, seed: int, ops, digests: dict) -> list:
    """Digests of the whole default-seed pool, reusing this run's outputs
    when the run used the default seed."""
    if seed != DEFAULT_SEED:
        _, ops = setup(workload, DEFAULT_SEED)
        digests = {}
    out = []
    for idx, op in enumerate(ops):
        if idx not in digests:
            try:
                digests[idx] = digest(op.render(op.run()))
            except Exception as exc:
                digests[idx] = f"raised {type(exc).__name__}"
        out.append(digests[idx])
    return out


def digest_mismatches(workload: str, got: list) -> list:
    want = json.loads(DIGESTS.read_text())["workloads"].get(workload)
    if want is None:
        return [f"no committed digests for {workload}"]
    if len(want) != len(got):
        return [f"pool has {len(got)} ops, digests.json lists {len(want)}"]
    return [f"default-seed op {i}: digest {g} != {w}" for i, (g, w) in enumerate(zip(got, want)) if g != w]


def verify(workload: str, seed: int, ops, loop: Loop):
    """Output checks plus the default-seed digest comparison; returns
    (failed ops, problem messages)."""
    failed, digests, problems = check_outputs(ops, loop)
    mismatches = digest_mismatches(workload, default_seed_digests(workload, seed, ops, digests))
    return min(loop.count, failed + len(mismatches)), problems + mismatches


def write_digests():
    """Record the default-seed output digests of every workload, after
    checking every op."""
    table = {}
    for workload in workloads.WORKLOADS:
        _, ops = setup(workload, DEFAULT_SEED)
        loop = run_loop(ops, count=len(ops))
        _, digests, problems = check_outputs(ops, loop)
        if problems:
            raise SystemExit("\n".join(problems))
        table[workload] = [digests[i] for i in range(len(ops))]
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": table}, indent=1) + "\n")


def kind_breakdown(ops, loop: Loop) -> dict:
    by_kind = {}
    for idx, lat in zip(loop.indices, loop.ref_latencies()):
        by_kind.setdefault(ops[idx].kind, []).append(lat)
    return {
        kind: {"count": len(lats), "median_ms": statistics.median(lats) * 1e3}
        for kind, lats in sorted(by_kind.items())
    }


def entry_latencies(loop: Loop) -> list:
    """Each pool entry's median latency over its runs, in reference seconds.

    Every entry runs several times, spread over the timed phase, so one
    stall does not decide an entry's figure.  The quantiles are taken over
    the entries: a pool of at least MIN_OPS entries leaves ten beyond p90.
    """
    runs = {}
    for idx, lat in zip(loop.indices, loop.ref_latencies()):
        runs.setdefault(idx, []).append(lat)
    return [statistics.median(lats) for lats in runs.values()]


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by the Beta(q(n+1), (1-q)(n+1)) density.  One or two
    order statistics carry the noise of one or two entries; this averages
    the entries near the quantile."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = [
        density(i / n) + 4 * density((i + 0.5) / n) + density((i + 1) / n)  # Simpson on [i/n, (i+1)/n]
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def timed_setup(workload: str, seed: int, speed: SpeedLog):
    """Set up once, from a collected heap; returns (ops, reference seconds
    taken).  Probes run between the inputs of successive ops, outside the
    timed segments, so each segment is rescaled by the host speed around it,
    as ops are in the timed phase."""
    gc.collect()
    clock = time.perf_counter
    segments = []
    speed.probe(10)
    start = clock()

    def tick():
        nonlocal start
        now = clock()
        if speed.maybe_probe(now):
            segments.append((start, now))
            start = clock()

    ops = workloads.build(workload, workloads.generate(workload, seed), import_nullgrid(), tick)
    segments.append((start, clock()))
    speed.probe(10)
    return ops, sum((t1 - t0) * speed.scale(t0, t1) for t0, t1 in segments)


def run_plain(workload: str, seed: int, seconds: float):
    speed = SpeedLog()
    times = []
    begun = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() - begun < SETUP_MIN_SECONDS:
        ops = None  # the previous repeat's inputs are not alive during this one
        ops, took = timed_setup(workload, seed, speed)
        times.append(took)
    loop = run_loop(ops, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = verify(workload, seed, ops, loop)
    lats = entry_latencies(loop)
    metrics = {
        "setup_s": statistics.median(times),
        "ops_per_s": len(lats) / sum(lats),
        "op_p50_ms": hd_quantile(lats, 0.5) * 1e3,
        "op_p90_ms": hd_quantile(lats, 0.9) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1 - failed / loop.count,
    }
    print(f"{workload} seed={seed}: {loop.count} ops, {loop.count / len(ops):.1f} per pool entry "
          f"({len(lats)} entries), in {loop.elapsed:.2f} s wall = {loop.ref_elapsed():.2f} s at "
          f"reference speed; set-up median of {len(times)}: {statistics.median(times):.4f} s "
          f"(range {min(times):.4f}-{max(times):.4f})", file=sys.stderr)
    return loop.count, failed, problems, metrics, END_TO_END_UNITS


def run_traced(workload: str, seed: int, seconds: float):
    ng = import_nullgrid()
    tracer = tracing.Tracer(ng)
    tracer.install()
    try:
        ops = workloads.build(workload, workloads.generate(workload, seed), ng)
        tracer.phase = "op"
        traced = run_loop(ops, seconds=seconds, whole_passes=True, tracer=tracer)
    finally:
        tracer.uninstall()
    plain = run_loop(ops, count=traced.count)
    failed, problems = verify(workload, seed, ops, traced)
    passes = traced.count // len(ops)
    # the traced phase's mean speed factor puts self times in reference-speed ms
    metrics = tracer.layer_metrics("op", passes, traced.ref_elapsed() / sum(traced.latencies))
    metrics["trace.overhead_ratio"] = plain.ref_elapsed() / traced.ref_elapsed()
    breakdown = {
        kind: dict(row, traced_median_ms=traced_row["median_ms"])
        for (kind, row), traced_row in zip(
            kind_breakdown(ops, plain).items(), kind_breakdown(ops, traced).values()
        )
    }
    write_trace(workload, seed, tracer, passes, breakdown)
    print(f"{workload} seed={seed}: {passes} traced passes of {len(ops)} ops, "
          f"{traced.elapsed:.2f} s traced, {plain.elapsed:.2f} s untraced", file=sys.stderr)
    for kind, row in breakdown.items():
        print(f"  {kind:22s} n={row['count']:6d} median {row['median_ms']:9.3f} ms "
              f"(traced {row['traced_median_ms']:9.3f} ms)", file=sys.stderr)
    return traced.count, failed, problems, metrics, tracing.per_layer_units()


def write_trace(workload: str, seed: int, tracer, passes: int, breakdown: dict):
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace-{workload}-seed{seed}"
    with open(f"{stem}.jsonl", "w") as fh:
        for span_id, name, phase, op_id, parent, t0, t1, counts in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "phase": phase, "op": op_id,
                                 "parent": parent, "start_ns": t0, "end_ns": t1, "counts": counts}) + "\n")
    summary = {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "op_kinds": breakdown,
        "setup_layers": {k: v for k, v in tracer.layer_metrics("setup", 1).items() if v},
    }
    Path(f"{stem}.summary.json").write_text(json.dumps(summary, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record digests.json from the default seed, then exit")
    args = parser.parse_args(argv)
    if not (SRC / "nullgrid" / "__init__.py").is_file():
        print(f"error: no nullgrid source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    run = run_traced if args.trace else run_plain
    attempted, failed, problems, values, units = run(args.workload, args.seed, args.seconds)
    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
