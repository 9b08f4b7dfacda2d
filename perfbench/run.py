"""The repository's benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` measures: it runs repetitions of the workload for
``--seconds`` (at least ``MIN_REPS``), each in a fresh interpreter
(``rep.py``), and reports the end-to-end metrics.
Their times are scaled to a fixed reference host speed (``speed.py``).
``--trace 1`` runs one untraced and one traced repetition of the same
seed and reports the per-layer metrics of the traced one; both must
give the same fingerprint.
Every repetition's fingerprint is checked against ``expected.json``; a
mismatch counts every op of that repetition as failed.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``. Each run is also
appended, with the commit, a digest of ``src/``, ``nproc`` and the
Python version, to ``.perfbench-out/results.jsonl`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from stats import tail_percentile  # noqa: E402

WORKLOADS = ("internet_churn", "membership_churn", "masc_alloc",
             "tree_sweep")
MIN_REPS = 2
#: A run must end within 180 s; no repetition may start past this.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "op_success_ratio": "ratio",
}


def another_rep(elapsed: float, seconds: float, walls: List[float]) -> bool:
    """Whether to start another repetition: always up to ``MIN_REPS``,
    then while it would end no more than half a repetition past
    ``seconds``. The count follows the host's speed, so a run lasts
    about ``seconds`` whatever that speed."""
    if len(walls) < MIN_REPS:
        return True
    return elapsed + walls[-1] / 2 <= seconds


def load_expected() -> Dict[str, Dict[str, Dict[str, Any]]]:
    return json.loads(EXPECTED.read_text())


def run_child(
    workload: str, seed: int, trace: bool, timeout: float
) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; a crash, a timeout or
    unreadable output comes back as an ``error``."""
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if trace else "0",
    ]
    if trace:
        command += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"repetition exited with {done.returncode}"}
    try:
        rep = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": "repetition printed no result"}
    rep["wall_s"] = wall
    return rep


def check_reps(
    reps: List[Dict[str, Any]], expected: Optional[Dict[str, Any]]
) -> None:
    """Set each repetition's ``attempted``/``failed`` after the checks.

    Against a stored (workload, seed) entry, the fingerprint and the op
    count must match. For a seed with no stored entry, every repetition
    of the run must agree with the first one.
    """
    reference = expected or {}
    if not reference:
        first = next((r for r in reps if not r.get("error")), {})
        reference = {"fingerprint": first.get("fingerprint"),
                     "ops": first.get("attempted")}
    for rep in reps:
        ops = max(rep.get("attempted", 0), reference.get("ops") or 0, 1)
        wrong = (
            rep.get("error")
            or rep.get("fingerprint") != reference["fingerprint"]
            or rep.get("attempted") != reference["ops"]
        )
        rep["attempted"] = ops
        if wrong:
            rep["failed"] = ops
            print(f"# repetition failed: {rep.get('error') or 'fingerprint'}"
                  f" mismatch", file=sys.stderr)


def rep_figures(rep: Dict[str, Any]) -> Dict[str, float]:
    """One repetition's time figures; the tail needs more than ten ops."""
    op_ms = [seconds * 1000.0 for seconds in rep.get("op_s", [])]
    return {
        "setup_s": rep.get("setup_s", 0.0),
        "run_s": rep.get("run_s", 0.0),
        "op_p50_ms": statistics.median(op_ms) if op_ms else 0.0,
        "op_p99_ms": tail_percentile(op_ms)[0] if len(op_ms) > 10 else 0.0,
    }


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """The run's end-to-end metrics from its repetitions.

    Each time metric is the median over repetitions of that
    repetition's own figure, and so is ``peak_rss_mb``.
    """
    measured = [r for r in reps if not r.get("error")] or [{}]
    figures = [rep_figures(r) for r in measured]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    out = {
        name: statistics.median(f[name] for f in figures)
        for name in ("setup_s", "run_s", "op_p50_ms", "op_p99_ms")
    }
    out["peak_rss_mb"] = statistics.median(
        r.get("peak_rss_mb", 0.0) for r in measured
    )
    out["op_success_ratio"] = (attempted - failed) / attempted
    return out


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict:
    if traced.get("error") or untraced.get("error"):
        return {name: 0.0 for name in layers.PER_LAYER}
    counts = dict(traced["result_counts"])
    counts.update(traced["counters"])
    return layers.per_layer_metrics(
        {k: tuple(v) for k, v in traced["setup_totals"].items()},
        {k: tuple(v) for k, v in traced["loop_totals"].items()},
        counts,
        traced["run_s"],
        untraced["host_run_s"],
    )


def host_record() -> Dict[str, Any]:
    """What ran: commit (when the checkout is a git repository), a
    digest of the program's sources, the core count and Python."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # waits for the repetition it is running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    expected = load_expected().get(args.workload, {}).get(str(args.seed))
    if expected is None:
        print(f"# no stored fingerprint for {args.workload} seed "
              f"{args.seed}: checking repetitions agree", file=sys.stderr)
    started = time.perf_counter()

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - started)

    if args.trace:
        untraced = run_child(args.workload, args.seed, False, remaining())
        traced = run_child(args.workload, args.seed, True, remaining())
        reps = [untraced, traced]
    else:
        reps = []
        while another_rep(
            time.perf_counter() - started, args.seconds,
            [r.get("wall_s", 0.0) for r in reps],
        ):
            if reps and remaining() < max(r.get("wall_s", 0.0) for r in reps):
                print("# stopping early: the run would pass its deadline",
                      file=sys.stderr)
                break
            reps.append(
                run_child(args.workload, args.seed, False, remaining())
            )
    check_reps(reps, expected)
    if args.trace:
        metrics = per_layer(untraced, traced)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        metrics = end_to_end(reps)
        units = END_TO_END
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    host = host_record()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "reps": [
            {
                **{k: r.get(k) for k in ("wall_s", "host_setup_s",
                                         "host_run_s", "speed_scale",
                                         "peak_rss_mb",
                                         "attempted", "failed",
                                         "fingerprint", "error")},
                **rep_figures(r),
            }
            for r in reps
        ],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print("# host " + json.dumps(host))
    for name, value in metrics.items():
        print(f"# {name} {value} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
