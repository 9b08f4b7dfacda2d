"""One repetition of one workload, in the interpreter that runs this file.

``run.py`` starts a fresh interpreter per repetition, so interned
prefixes, shared topologies and BFS caches never carry over from one
repetition to the next, and the peak resident memory read here belongs
to this repetition alone. Prints one JSON object as its last line.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 \
        [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import layers  # noqa: E402
import repro  # noqa: E402
import tracer as tracing  # noqa: E402
from speed import PASSES_AT_EDGES, SpeedProbe  # noqa: E402
from workloads import WORKLOADS, OpTimer  # noqa: E402


def _diff(end: Dict[str, Any], start: Dict[str, Any]) -> Dict[str, Any]:
    out = {}
    for name, value in end.items():
        if isinstance(value, tuple):
            out[name] = tuple(a - b for a, b in zip(value, start[name]))
        else:
            out[name] = value - start[name]
    return out


def run_rep(
    workload_name: str, seed: int, trace: bool, spans: Optional[Path] = None
) -> Dict[str, Any]:
    """Generate the inputs, set up, run the timed loop, fingerprint."""
    workload = WORKLOADS[workload_name](seed)
    if not trace:
        return _measure(workload)
    span_tracer = tracing.Tracer(layers.SPAN_NAMES)
    result_counts = layers.ResultCounters()
    uninstall = tracing.install(
        span_tracer, layers.TARGETS, result_counts.hooks()
    )
    try:
        out = _measure(workload, span_tracer, result_counts)
    finally:
        uninstall()
    if spans is not None:
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(
            json.dumps(
                {
                    "names": span_tracer.names,
                    "fields": ["id", "name", "start", "end", "parent"],
                    "min_duration_s": span_tracer.keep_spans_over,
                    "spans": span_tracer.spans,
                }
            )
        )
    return out


def _measure(workload, span_tracer=None, result_counts=None) -> Dict:
    """Set up and run the loop. Untraced, reference passes interleave
    with the work (``speed.py``) and ``setup_s``, ``run_s`` and
    ``op_s`` are scaled to the reference speed; ``host_setup_s`` and
    ``host_run_s`` are the raw host seconds, passes left out. Traced,
    no pass runs and every figure is raw host time."""
    trace = span_tracer is not None
    probe = None if trace else SpeedProbe()
    if probe is not None:
        probe.sample(PASSES_AT_EDGES)
    setup_start = time.perf_counter()
    workload.setup()
    setup_end = time.perf_counter()

    if trace:
        setup_totals = span_tracer.totals()
        setup_counts = dict(result_counts.values)
    else:
        probe.sample(PASSES_AT_EDGES)
    timer = OpTimer(probe)
    error = None
    loop_start = time.perf_counter()
    try:
        workload.loop(timer)
    except Exception:
        error = traceback.format_exc()
    loop_end = time.perf_counter()
    if trace:
        loop_totals = _diff(span_tracer.totals(), setup_totals)
        loop_counts = _diff(result_counts.values, setup_counts)
        host_setup_s = setup_s = setup_end - setup_start
        host_run_s = run_s = loop_end - loop_start
        op_s = timer.seconds
    else:
        probe.sample(PASSES_AT_EDGES)
        host_setup_s = setup_end - setup_start
        host_run_s = loop_end - loop_start - probe.spent(loop_start, loop_end)
        setup_s = probe.scaled(setup_start, setup_end)
        run_s = probe.scaled(loop_start, loop_end)
        op_s = [
            seconds * probe.scale_at(start)
            for start, seconds in zip(timer.starts, timer.seconds)
        ]

    fingerprint = None
    counters: Dict[str, int] = {}
    if error is None:
        try:
            fingerprint = workload.fingerprint()
            counters = workload.counters()
        except Exception:
            error = traceback.format_exc()
    out: Dict[str, Any] = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": trace,
        "setup_s": setup_s,
        "run_s": run_s,
        "op_s": op_s,
        "host_setup_s": host_setup_s,
        "host_run_s": host_run_s,
        "speed_scale": run_s / host_run_s if host_run_s > 0 else 1.0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "error": error,
        "fingerprint": fingerprint,
        "counters": counters,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if trace:
        out["setup_totals"] = setup_totals
        out["loop_totals"] = loop_totals
        out["result_counts"] = loop_counts
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = run_rep(args.workload, args.seed, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
