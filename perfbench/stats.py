"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def tail_percentile(
    values: Sequence[float],
    fraction: float = 0.99,
    beyond: int = TAIL_SAMPLES_BEYOND,
) -> Tuple[float, float]:
    """The nearest-rank ``fraction`` percentile, lowered until at least
    ``beyond`` samples lie above it; returns (value, percentile used).

    With 420 samples the 99th percentile would have only 4 samples
    beyond it, so the 97.6th (rank 410 of 420) is reported instead.
    """
    count = len(values)
    if count <= beyond:
        raise ValueError(
            f"need more than {beyond} samples for a tail percentile, "
            f"got {count}"
        )
    ordered = sorted(values)
    rank = min(math.ceil(fraction * count), count - beyond)
    return ordered[rank - 1], rank / count

