"""Summary arithmetic of the benchmark: the tail rule, the failure ratio and
the run-to-run spread."""

from __future__ import annotations

import statistics

import numpy as np

#: Percentile levels the tail rule picks from, lowest first.
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie strictly above a percentile for it to count as a tail.
MIN_BEYOND = 10


def tail(values) -> dict | None:
    """Highest of TAIL_LEVELS with at least MIN_BEYOND samples strictly above
    it (NumPy's linear percentile).

    Returns {"level", "value", "beyond", "samples"}, or None when even the
    lowest level has fewer samples beyond it (too few samples for a tail).
    """
    xs = np.asarray(values, dtype=float)
    best = None
    for level in TAIL_LEVELS:
        if not xs.size:
            break
        value = float(np.percentile(xs, level))
        beyond = int(np.count_nonzero(xs > value))
        if beyond >= MIN_BEYOND:
            best = {"level": level, "value": value, "beyond": beyond, "samples": int(xs.size)}
    return best


def fail_ratio(failed: int, attempted: int) -> dict:
    """Failed over attempted operations; the base is stated with the value."""
    if attempted < 1:
        raise ValueError("fail ratio needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return {"value": failed / attempted, "failed": failed, "attempted": attempted}


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as `statistics.quantiles(values, n=4)` gives them:
    the steadiness measure applied to repeated runs of one workload."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
