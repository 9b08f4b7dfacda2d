"""Record the expected fingerprint and op count per (workload, seed).

    python3 perfbench/record_expected.py --seeds 0-31 [--jobs 2]

Runs one untraced repetition per pair (``rep.py``, a fresh interpreter
each) and merges the results into ``perfbench/expected.json``. A pair
already stored must reproduce its stored values; a different value is
reported and the file is left unchanged, since the simulator's results
are deterministic and a change means the program's behaviour changed.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import EXPECTED, WORKLOADS, load_expected, run_child  # noqa: E402


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="N or FIRST-LAST")
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    pairs = [(w, s) for w in args.workloads for s in parse_seeds(args.seeds)]
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        reps = list(pool.map(lambda p: run_child(*p, False, 600.0), pairs))
    expected = load_expected()
    mismatches = 0
    for (workload, seed), rep in zip(pairs, reps):
        if rep.get("error") or rep["failed"]:
            print(f"{workload} seed {seed}: {rep.get('error') or 'failed ops'}",
                  file=sys.stderr)
            mismatches += 1
            continue
        entry = {"fingerprint": rep["fingerprint"], "ops": rep["attempted"]}
        stored = expected.setdefault(workload, {}).setdefault(str(seed), entry)
        if stored != entry:
            print(f"{workload} seed {seed}: stored {stored}, got {entry}",
                  file=sys.stderr)
            mismatches += 1
    if mismatches:
        return 1
    ordered = {
        workload: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
        for workload, seeds in sorted(expected.items())
    }
    EXPECTED.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
