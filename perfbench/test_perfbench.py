"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import sys
import threading

import pytest

import run
import tracer as tracing
import workloads

sys.path.insert(0, str(run.SRC))

CHEAP = ("cli_small", "combinatorics")


@pytest.fixture(scope="module")
def ng():
    return run.import_nullgrid()


def _digests(ops, count):
    return [run.digest(op.render(op.run())) for op in ops[:count]]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_determines_ops_and_digests(name, ng):
    specs = workloads.generate(name, 5)
    assert specs == workloads.generate(name, 5)
    assert specs != workloads.generate(name, 6)
    first = _digests(workloads.build(name, specs, ng), 12)
    again = _digests(workloads.build(name, workloads.generate(name, 5), ng), 12)
    assert first == again


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_kind_appears_and_pool_is_large_enough(name):
    for seed in (1, 2):
        specs = workloads.generate(name, seed)
        assert {kind for kind, _ in specs} == set(workloads.KINDS[name])
        assert len(specs) >= run.MIN_OPS


def test_loop_runs_at_least_min_ops_and_one_pass():
    op = workloads.Op("noop", lambda: None, lambda res: None, str)
    assert run.run_loop([op] * 3, seconds=0).count >= run.MIN_OPS
    assert run.run_loop([op] * 150, seconds=0).count >= 150
    assert run.run_loop([op] * 7, seconds=0, whole_passes=True).count == 7


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_thread_throughout(name, ng):
    ops = workloads.build(name, workloads.generate(name, 3), ng)
    if name not in CHEAP:
        ops = ops[:15]

    def guarded(op):
        def call():
            assert threading.active_count() == 1
            result = op.run()
            assert threading.active_count() == 1
            return result

        return workloads.Op(op.kind, call, op.check, op.render)

    loop = run.run_loop([guarded(op) for op in ops], count=len(ops))
    failed, _, problems = run.check_outputs(ops, loop)
    assert failed == 0, problems
    assert threading.active_count() == 1


def _attributes(ng):
    classes = (ng.polynomials.MultiPoly, ng.ideals.Multiset, ng.ideals.MultisetGrid)
    owners = [m for k, m in sys.modules.items() if k == "nullgrid" or k.startswith("nullgrid.")]
    return {(id(o), k): v for o in owners + list(classes) for k, v in list(vars(o).items())}


def test_tracer_restores_every_attribute(ng):
    before = _attributes(ng)
    tracer = tracing.Tracer(ng)
    tracer.install()
    try:
        changed = {key for key, value in _attributes(ng).items() if value is not before[key]}
        assert len(changed) > len(tracing.TARGETS)  # module aliases were rebound too
        assert ng.polynomials.MultiPoly.__rmul__ is ng.polynomials.MultiPoly.__mul__
    finally:
        tracer.uninstall()
    after = _attributes(ng)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_ops_report_every_layer_metric(ng):
    tracer = tracing.Tracer(ng)
    tracer.install()
    try:
        tracer.phase = "op"
        for name in workloads.WORKLOADS:
            specs = workloads.generate(name, 4)
            kinds = {}
            for spec in specs:
                kinds.setdefault(spec[0], spec)
            for op in workloads.build(name, list(kinds.values()), ng):
                op.check(op.run())
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics("op", 1)
    assert set(metrics) | {"trace.overhead_ratio"} == set(tracing.per_layer_units())
    for name, *_ in tracing.TARGETS:
        assert metrics[f"{name}.calls"] > 0, name
    assert 0 < metrics["polynomials.MultiPoly.shift.box_read_ratio"] <= 1


def test_corrupted_result_counts_as_failed(ng):
    ops = workloads.build("combinatorics", workloads.generate("combinatorics", 2), ng)
    bad_check = ng.applications.BoundCheck(lhs=0, rhs=5)
    ops[3] = workloads.Op(ops[3].kind, lambda: bad_check, ops[3].check, ops[3].render)
    loop = run.run_loop(ops, count=2 * len(ops) + 1)
    failed, _, problems = run.check_outputs(ops, loop)
    assert failed == 2 and len(problems) == 1

    def boom():
        raise ZeroDivisionError("corrupted")

    ops[5] = workloads.Op(ops[5].kind, boom, ops[5].check, ops[5].render)
    loop = run.run_loop(ops, count=len(ops))
    failed, _, problems = run.check_outputs(ops, loop)
    assert failed == 2 and len(problems) == 2


def test_digest_change_is_a_failure():
    want = run.json.loads(run.DIGESTS.read_text())["workloads"]["combinatorics"]
    assert run.digest_mismatches("combinatorics", list(want)) == []
    assert len(run.digest_mismatches("combinatorics", ["0" * 16] + want[1:])) == 1


def test_missing_source_tree_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "combinatorics", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
