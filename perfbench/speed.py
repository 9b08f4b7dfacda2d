"""Host-speed calibration: every reported time is scaled to one fixed
reference speed.

The benchmark is built for a small shared host whose speed drifts: a
fixed pure-Python loop runs up to 1.8x slower in some stretches than in
others, and a stretch lasts from seconds to minutes, longer than one
run. Medians inside a run cannot remove a drift that outlasts the run,
so two runs of the same code minutes apart read 20-30% apart.

A repetition therefore interleaves short reference passes with its own
work: a few before and after set-up, one per ``PROBE_EVERY_S`` seconds
of the timed loop (taken between two ops, never inside one) and a few
after the loop. Every stretch of host time the repetition measured is
multiplied by ``REFERENCE_S`` divided by the mean duration of the
``NEAREST`` passes around it. A time reported in seconds is thus the
time the work would have taken on a host that runs one pass in
``REFERENCE_S``. The passes around a stretch, not all of the
repetition's, set its scale because the host's speed changes within
seconds: ``internet_churn`` runs its 400 small ops in the first 0.2 s
of a 3 s loop.

One pass is noisy: passes a second apart can differ 2x. The mean pass
duration follows the program's own slowdown more closely than the
median or the minimum does. Over ten fresh-process repetitions of
``masc_alloc`` seed 3, scaled by one figure per repetition, the
coefficient of variation of ``run_s`` was 0.093 raw, 0.084 scaled by
the median pass and 0.052 scaled by the mean; for ``tree_sweep`` 0.22,
0.14 and 0.078.
The passes' own time is left out of every figure, and the raw host
times are kept beside the scaled ones.

The pass is the benchmark's own code and calls nothing of the program,
so a change to the program cannot change the scale.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import random
import statistics
import time
from typing import Callable, Dict, List

#: Seconds one reference pass is scaled to: about its duration on the
#: 2-core, 2.1 GHz host the benchmark was built on, in its fast state.
REFERENCE_S = 0.013
#: Host seconds of timed loop per reference pass.
PROBE_EVERY_S = 0.25
#: Most passes taken after one op, however long it ran.
MAX_PASSES = 8
#: A stretch of host time is scaled by the mean of this many passes
#: around it.
NEAREST = 6
#: Passes taken before set-up, between set-up and loop, and after loop.
PASSES_AT_EDGES = 3
_EVENTS = 12_000
_WARM_UP_EVENTS = 2_000
_KEYS = 50


class _Event:
    __slots__ = ("time", "key", "hops")

    def __init__(self, time: float, key: int, hops: int) -> None:
        self.time = time
        self.key = key
        self.hops = hops


def reference_pass(events: int = _EVENTS) -> int:
    """A fixed amount of interpreter work shaped like the program's own:
    a heap-ordered event loop over small objects, dict lookups and list
    updates. On this host such code slows with the host as the program
    does (a tight dict-and-str loop slowed 30% less than the program);
    the cyclic garbage collector is off while it runs, so the size of
    the program's heap cannot change its duration."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(7)
        queue = [(rng.random(), index, _Event(0.0, index % _KEYS, 0))
                 for index in range(200)]
        heapq.heapify(queue)
        history: Dict[int, List[int]] = {}
        done = 0
        while done < events:
            at, _, event = heapq.heappop(queue)
            done += 1
            seen = history.get(event.key)
            if seen is None:
                seen = history[event.key] = []
            seen.append(event.hops)
            if len(seen) > 8:
                del seen[:4]
            heapq.heappush(queue, (
                at + rng.random(), done + 200,
                _Event(at, (event.key * 31 + done) % _KEYS, event.hops + 1),
            ))
        return done
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """The reference passes of one repetition and the scaling they give.

    ``clock`` and ``reference`` are replaceable for tests.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        reference: Callable[[int], object] = reference_pass,
    ) -> None:
        self.clock = clock
        self.reference = reference
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._scales: List[float] = []

    def sample(self, passes: int = 1) -> None:
        """Time ``passes`` passes after a short untimed one: the first
        pass after the program's own work runs on cold caches, up to 2x
        slower than the next, whatever the host's speed."""
        self.reference(_WARM_UP_EVENTS)
        for _ in range(passes):
            start = self.clock()
            self.reference(_EVENTS)
            self.starts.append(start)
            self.ends.append(self.clock())

    def spent(self, begin: float, end: float) -> float:
        """Host seconds of the passes that ran inside [begin, end)."""
        return sum(
            stop - start
            for start, stop in zip(self.starts, self.ends)
            if begin <= start < end
        )

    def scale_at(self, moment: float) -> float:
        """REFERENCE_S over the mean duration of the ``NEAREST`` passes
        around ``moment``."""
        if len(self._scales) != len(self.starts) + 1:
            durations = [e - s for s, e in zip(self.starts, self.ends)]
            count = len(durations)
            width = min(NEAREST, count)
            # _scales[i] serves the moments between pass i-1 and pass i.
            self._scales = []
            for index in range(count + 1):
                low = min(max(index - width // 2, 0), count - width)
                window = durations[low : low + width]
                self._scales.append(REFERENCE_S / statistics.fmean(window))
        return self._scales[bisect.bisect_right(self.starts, moment)]

    def scaled(self, begin: float, end: float) -> float:
        """Host seconds of [begin, end) with the passes inside left out,
        each stretch between two passes scaled at its middle."""
        edges = [begin]
        for start, stop in zip(self.starts, self.ends):
            if begin <= start < end:
                edges += [start, stop]
        edges.append(end)
        return sum(
            (stop - start) * self.scale_at((start + stop) / 2)
            for start, stop in zip(edges[::2], edges[1::2])
        )
