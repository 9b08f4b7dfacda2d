"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import layers  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from stats import tail_percentile  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- self time -------------------------------------------------------------


def offline_self_times(spans, names):
    """Reference: self time from complete spans (duration minus the
    durations of the spans whose parent it is)."""
    duration = {sid: end - start for sid, _, start, end, _ in spans}
    out = {name: 0.0 for name in names}
    for sid, index, _start, _end, _parent in spans:
        children = sum(
            duration[c] for c, _, _, _, parent in spans if parent == sid
        )
        out[names[index]] += duration[sid] - children
    return out


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(["outer", "inner", "leaf"], clock=clock,
                            keep_spans_over=0.0)

    def leaf():
        clock.now += 0.5

    def inner():
        clock.now += 1.0
        traced_leaf()
        clock.now += 2.0

    def outer():
        clock.now += 3.0
        traced_inner()
        traced_inner()
        traced_leaf()
        clock.now += 4.0

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()

    totals = tracer.totals()
    assert totals["outer"] == (7.0, 1)
    assert totals["inner"] == (6.0, 2)
    assert totals["leaf"] == (1.5, 3)
    # Self times add up to the outermost span's duration.
    assert sum(s for s, _ in totals.values()) == clock.now == 14.5
    assert offline_self_times(tracer.spans, tracer.names) == {
        name: seconds for name, (seconds, _) in totals.items()
    }


def test_short_spans_are_dropped_but_tree_stays_closed():
    clock = FakeClock()
    tracer = tracing.Tracer(["outer", "inner"], clock=clock,
                            keep_spans_over=1.0)

    def inner(seconds):
        clock.now += seconds

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        traced_inner(0.25)
        traced_inner(2.0)

    tracer.wrap("outer", outer)()
    kept = {sid: parent for sid, _, _, _, parent in tracer.spans}
    assert len(kept) == 2
    assert all(parent == -1 or parent in kept for parent in kept.values())
    # Dropped spans still count towards self time and calls.
    assert tracer.totals()["inner"] == (2.25, 2)
    assert tracer.totals()["outer"] == (0.0, 1)


def test_exception_still_closes_span():
    tracer = tracing.Tracer(["boom"])

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.totals()["boom"][1] == 1
    assert tracer._stack == []


def test_install_rebinds_imported_function_and_undoes():
    from repro.analysis import trees
    from repro.experiments import fig4

    original = trees.compare_trees
    tracer = tracing.Tracer(["analysis.compare_trees"])
    uninstall = tracing.install(
        tracer,
        [("analysis.compare_trees", "repro.analysis.trees", "compare_trees")],
    )
    try:
        assert fig4.compare_trees is trees.compare_trees
        assert trees.compare_trees is not original
    finally:
        uninstall()
    assert fig4.compare_trees is original
    assert trees.compare_trees is original


def test_every_target_resolves():
    for _name, module, qualname in layers.TARGETS:
        tracing._resolve(module, qualname)
    assert set(layers.PER_LAYER) >= {
        "trace.coverage", "trace.overhead_ratio", "bgp.decide_useful_ratio",
    }


# -- host-speed scaling ---------------------------------------------------------


def test_speed_probe_scales_each_stretch_by_the_passes_around_it(
    monkeypatch,
):
    monkeypatch.setattr(speed, "REFERENCE_S", 1.0)
    monkeypatch.setattr(speed, "NEAREST", 2)
    clock = FakeClock()
    timed = iter([1.0, 1.0, 2.0, 2.0])

    def reference(events):
        if events == speed._EVENTS:  # the warm-up pass takes no time
            clock.now += next(timed)

    probe = speed.SpeedProbe(clock=clock, reference=reference)
    probe.sample(2)  # passes at 0-1 and 1-2
    clock.now += 10.0  # work from 2 to 12
    probe.sample(2)  # passes at 12-14 and 14-16, twice as slow
    clock.now += 4.0  # work from 16 to 20
    assert probe.spent(2.0, 20.0) == 4.0
    assert probe.scale_at(5.0) == pytest.approx(1 / 1.5)
    assert probe.scale_at(18.0) == pytest.approx(0.5)
    # 10 s between a fast and a slow pass, then 4 s after two slow ones.
    assert probe.scaled(2.0, 20.0) == pytest.approx(10 / 1.5 + 4 * 0.5)


def test_op_timer_samples_a_long_op_in_proportion(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(workloads.time, "perf_counter", clock)
    passes = []

    class Probe:
        def sample(self, count=1):
            passes.append(count)

    timer = workloads.OpTimer(Probe())  # first passes due at 0.25 s
    for end in (0.1, 1.2, 9.0):
        token = timer.begin()
        clock.now = end
        timer.record(None, token, 0)
    # None after 0.1 s; 1.2 s since the start: 4; then capped.
    assert passes == [4, speed.MAX_PASSES]
    assert timer.seconds == pytest.approx([0.1, 1.1, 7.8])


def test_reference_pass_is_fixed_work_and_restores_the_collector():
    assert speed.reference_pass(500) == 500
    assert gc.isenabled()


# -- tail percentile ----------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 421))  # 420 samples
    value, fraction = tail_percentile(values)
    assert value == 410
    assert sum(v > value for v in values) == 10
    assert fraction == pytest.approx(410 / 420)


def test_tail_percentile_is_p99_when_samples_allow():
    values = list(range(1, 2001))
    value, fraction = tail_percentile(values)
    assert (value, fraction) == (1980, 0.99)
    assert sum(v > value for v in values) == 20


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile(list(range(11)))[0] == 0
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


# -- correctness accounting -----------------------------------------------------


def _rep(fingerprint, attempted=50, failed=0, error=None):
    return {"fingerprint": fingerprint, "attempted": attempted,
            "failed": failed, "error": error, "setup_s": 1.0, "run_s": 2.0,
            "op_s": [0.001] * attempted, "peak_rss_mb": 10.0}


def test_fingerprint_mismatch_fails_every_op_of_that_rep():
    reps = [_rep("good"), _rep("bad")]
    run.check_reps(reps, {"fingerprint": "good", "ops": 50})
    assert [r["failed"] for r in reps] == [0, 50]
    metrics = run.end_to_end(reps)
    assert metrics["op_success_ratio"] == 0.5


def test_op_count_mismatch_and_crash_fail():
    reps = [_rep("good", attempted=49), {"error": "exited with 1"}]
    run.check_reps(reps, {"fingerprint": "good", "ops": 50})
    assert [(r["attempted"], r["failed"]) for r in reps] == [(50, 50),
                                                             (50, 50)]


def test_time_metrics_are_medians_of_repetition_figures():
    reps = [_rep("good") for _ in range(3)]
    for rep, (run_s, op_s) in zip(reps, [(2.0, 0.001), (9.0, 0.004),
                                         (3.0, 0.002)]):
        rep["run_s"] = run_s
        rep["op_s"] = [op_s] * 40 + [op_s * 10] * 10
    run.check_reps(reps, {"fingerprint": "good", "ops": 50})
    metrics = run.end_to_end(reps)
    assert metrics["run_s"] == 3.0
    assert metrics["op_p50_ms"] == pytest.approx(2.0)
    # 50 ops per repetition: rank 40, the largest op of the fast cluster.
    assert metrics["op_p99_ms"] == pytest.approx(2.0)


def test_unknown_seed_requires_agreeing_reps():
    agreeing = [_rep("a"), _rep("a")]
    run.check_reps(agreeing, None)
    assert [r["failed"] for r in agreeing] == [0, 0]
    disagreeing = [_rep("a"), _rep("b")]
    run.check_reps(disagreeing, None)
    assert [r["failed"] for r in disagreeing] == [0, 50]


# -- the wrappers do not change results -----------------------------------------


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a traced and an untraced repetition of
    each run in seconds."""
    for name, value in {
        "DOMAINS": 120, "GROUP_DOMAINS": 6, "GROUPS_PER_DOMAIN": 4,
        "CHURN_PER_PHASE": 30, "MEMBERSHIP_OPS": 120, "MASC_TOPS": 2,
        "MASC_CHILDREN": 6, "MASC_DAYS": 20.0, "SWEEP_NODES": 300,
        "SWEEP_GROUP_SIZE": 10, "SWEEP_TRIALS": 12,
    }.items():
        monkeypatch.setattr(workloads, name, value)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_fingerprints_match(small, workload):
    untraced = rep.run_rep(workload, 3, trace=False)
    traced = rep.run_rep(workload, 3, trace=True)
    assert untraced["error"] is None and traced["error"] is None
    assert untraced["failed"] == traced["failed"] == 0
    assert untraced["fingerprint"] == traced["fingerprint"]
    assert untraced["attempted"] == traced["attempted"] >= 10
    assert untraced["counters"] == traced["counters"]
    metrics = run.per_layer(untraced, traced)
    assert set(metrics) == set(layers.PER_LAYER)
    assert 0.0 < metrics["trace.coverage"] <= 1.0 + 1e-9
    if workload != "masc_alloc":
        assert traced["loop_totals"]["bench.op"][1] == traced["attempted"]
        assert metrics["topology.build_s"] > 0.0


def test_coverage_leaves_out_harness_spans():
    loop = {"bgmp.join": (6.0, 3), "sim.run": (1.0, 1), "bench.op": (2.0, 3)}
    metrics = layers.per_layer_metrics({}, loop, {}, 10.0, 8.0)
    assert metrics["trace.coverage"] == pytest.approx(0.7)
    assert metrics["bgmp.self_s"] == 6.0
    assert metrics["trace.overhead_ratio"] == pytest.approx(1.25)


# -- the command ----------------------------------------------------------------


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "masc_alloc",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(run.WORKLOADS)


def test_repetitions_fill_the_run_seconds():
    assert run.another_rep(100.0, 10.0, [60.0])  # MIN_REPS first
    assert run.another_rep(20.0, 25.0, [8.0, 8.0])  # ends at 28 <= 29
    assert not run.another_rep(22.0, 25.0, [8.0, 8.0])  # 30 > 29
