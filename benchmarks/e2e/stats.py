"""Pure helpers: the percentile rule, spreads and digests.

Nothing here imports the program under test, so ``test_smoke.py`` can
unit-test the rules the numbers rest on without building a deployment.
"""

from __future__ import annotations

import hashlib
import math
import statistics

#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics: "the highest percentile that has at
#: least ten samples beyond it").
TAIL_SAMPLES = 10


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (``0 <= q <= 1``) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(n: int, cap: float = 0.99) -> float:
    """Highest quantile of ``n`` samples with ``TAIL_SAMPLES`` beyond it.

    Floored to a whole percent so the label is stable (``p85``), capped
    at ``cap``, and never below the median: with fewer than twenty
    samples the tail *is* the median and says so.
    """
    if n <= 0:
        raise ValueError("no samples")
    q = math.floor((1.0 - TAIL_SAMPLES / n) * 100.0) / 100.0
    return min(max(q, 0.5), cap)


def tail(values: list[float], cap: float = 0.99) -> tuple[float, float]:
    """``(quantile, value)`` of the tail percentile ``values`` supports."""
    q = tail_quantile(len(values), cap)
    return q, percentile(values, q)


def iqr_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median — the driver's
    steadiness measure (``statistics.quantiles(values, n=4)``)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def digest(parts: list[object]) -> str:
    """Short hex digest over ``repr`` of exact counts and float vectors.

    ``repr`` of a Python float round-trips, so two runs agree on the
    digest only if every value is bit-equal.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]
