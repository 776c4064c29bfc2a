"""Percentiles that carry their sample count, and run-to-run quartiles."""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it: p90 needs 100 samples, p95 needs 200.
SAMPLES_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank percentile ``q`` in (0, 100) as ``(value, n)``.

    ``value`` is None when there are no samples, or when ``q`` is a tail
    percentile (above the median) with fewer than SAMPLES_BEYOND samples
    beyond it. ``n`` is always the sample count.
    """
    n = len(samples)
    if n == 0:
        return None, 0
    if q > 50 and n * (100 - q) < SAMPLES_BEYOND * 100:
        return None, n
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1], n


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
