"""PromQL function implementations: every value rule, written once.

Both evaluators — the walk at one timestamp and the columnar grid —
call the tables below, so the two can never compute one value two ways.
Functions fall into three families the engine dispatches on:

* **range functions** (``rate``, ``increase``, ``*_over_time``…):
  one window kernel each (:data:`WINDOW_FUNCTIONS`), evaluating every
  window of a matrix selector or subquery at once.  Counter semantics
  (reset detection, boundary extrapolation) follow Prometheus's
  ``extrapolatedRate`` so recorded power series behave like the real
  system's.
* **element-wise functions** (``abs``, ``clamp_min``…) and **binary
  operators**: numpy ufuncs (:data:`ELEMENT_FUNCTIONS`,
  :data:`BINARY_OPERATORS`) over every value of an instant vector at
  once, with Prometheus's IEEE semantics — a domain error, a division
  by zero or an overflow is NaN or ±Inf, never an exception.  The
  evaluators silence numpy's floating-point warnings once per
  evaluation.
* **special forms** (``scalar``, ``vector``, ``time``, ``timestamp``,
  ``label_replace``, ``label_join``, ``absent``, ``sort``…): need
  evaluation context and are implemented inside the engine; they are
  listed here so the parser recognises the names.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.common.errors import QueryError

RangeFunc = Callable[[np.ndarray, np.ndarray, float, float], float | None]


def _counter_corrected(values: np.ndarray) -> np.ndarray:
    """Undo counter resets: add the pre-reset value at each drop."""
    if len(values) < 2:
        return values
    # At a reset from v_prev to v_new the counter really advanced by
    # v_new, so v_prev is added to everything after the reset point.
    resets = np.where(np.diff(values) < 0)[0]
    if len(resets) == 0:
        return values
    corrected = values.astype(np.float64).copy()
    for idx in resets:
        corrected[idx + 1 :] += values[idx]
    return corrected


def _extrapolated_delta(
    ts: np.ndarray,
    vs: np.ndarray,
    start: float,
    end: float,
    *,
    is_counter: bool,
) -> float | None:
    """Prometheus ``extrapolatedRate`` core.

    Computes the increase over the window with boundary extrapolation:
    the sampled delta is scaled up to cover the gaps between the first/
    last samples and the window edges, but by no more than half an
    average sample interval (and, for counters, never extrapolating
    below zero).
    """
    if len(ts) < 2:
        return None
    values = _counter_corrected(vs) if is_counter else vs
    sampled_delta = float(values[-1] - values[0])
    sampled_interval = float(ts[-1] - ts[0])
    if sampled_interval <= 0:
        return None
    average_interval = sampled_interval / (len(ts) - 1)
    # Gap to each boundary.
    start_gap = float(ts[0] - start)
    end_gap = float(end - ts[-1])
    extension_threshold = average_interval * 1.1
    extend_start = start_gap if start_gap < extension_threshold else average_interval / 2
    extend_end = end_gap if end_gap < extension_threshold else average_interval / 2
    if is_counter and sampled_delta > 0 and float(values[0]) >= 0:
        # Never extrapolate a counter below zero at the window start.
        zero_point = sampled_interval * float(values[0]) / sampled_delta
        extend_start = min(extend_start, zero_point)
    extrapolated_interval = sampled_interval + extend_start + extend_end
    return sampled_delta * extrapolated_interval / sampled_interval


def _deriv(ts: np.ndarray, vs: np.ndarray, start: float, end: float) -> float | None:
    """Least-squares slope, as Prometheus's deriv()."""
    if len(ts) < 2:
        return None
    x = ts - ts[0]
    n = len(x)
    sx = float(x.sum())
    sy = float(vs.sum())
    sxy = float((x * vs).sum())
    sxx = float((x * x).sum())
    denom = n * sxx - sx * sx
    if denom == 0:
        return None
    return (n * sxy - sx * sy) / denom


# -- window kernels --------------------------------------------------
#
# A *window kernel* evaluates one range function over every window of
# one AST node at once.  ``ts``/``vs`` are one flat pair of sample
# arrays holding every series' samples back to back; ``los``/``his``
# are integer index arrays of any shape — ``(S, T)`` for a grid,
# ``(S,)`` for the walk's one step — giving each window's ``[lo, hi)``
# bounds into that flat pair (a window never crosses from one series'
# samples into the next); ``starts``/``ends`` hold the windows'
# ``[start, end]`` time bounds and broadcast against ``los``.  A kernel
# returns one value per window, shaped like ``los``, NaN marking "no
# result" (an absent element in both evaluators).
#
# Functions whose value depends only on window endpoints, exact integer
# counts, or the extrapolation formula are vectorized outright (prefix
# counts over the flat array are exact integers, and a window's count
# only spans pairs inside the window, never the seam between two
# series); counter windows that contain resets run the scalar
# ``_extrapolated_delta`` per window, because the reset-correction
# accumulation order cannot be reproduced with prefix sums.  The rest
# (``deriv``, the reducing ``*_over_time``) run a per-window function
# on views of the flat arrays (``_windowed_fallback``).  The scalar
# forms of the vectorized kernels are the oracle they are checked
# against, bit for bit (``tests/reference/promql.py``).

WindowFunc = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    np.ndarray,
]


def _each_window(mask, los, his, starts, ends):
    """``(flat position, lo, hi, start, end)`` of every window in
    ``mask``, as Python scalars, in row-major order."""
    if not np.count_nonzero(mask):
        return ()
    where = np.nonzero(mask)
    return zip(
        np.flatnonzero(mask).tolist(),
        los[where].tolist(),
        his[where].tolist(),
        np.broadcast_to(starts, mask.shape)[where].tolist(),
        np.broadcast_to(ends, mask.shape)[where].tolist(),
    )


def _windowed_fallback(impl: RangeFunc) -> WindowFunc:
    """A kernel calling ``impl`` on every non-empty window."""

    def kernel(ts, vs, los, his, starts, ends):
        out = np.full(los.shape, np.nan)
        flat = out.reshape(-1)
        for k, lo, hi, start, end in _each_window(his > los, los, his, starts, ends):
            value = impl(ts[lo:hi], vs[lo:hi], start, end)
            if value is not None:
                flat[k] = value
        return out

    return kernel


def _over_time(reducer: Callable[[np.ndarray], float]) -> WindowFunc:
    """A kernel reducing every non-empty window's values."""
    return _windowed_fallback(lambda ts, vs, start, end: float(reducer(vs)))


def _extrapolated_delta_kernel(ts, vs, los, his, starts, ends, *, is_counter: bool):
    if not len(ts):
        return np.full(los.shape, np.nan)
    # In bounds for every window (``ts`` is not empty).  A window of
    # fewer than two samples gathers one sample as both ends, so its
    # sampled interval is 0 and it is masked out with the windows whose
    # ends share a timestamp: ``_extrapolated_delta``'s two ``None``s.
    last = his - 1
    lo = np.minimum(los, last)
    first_t, last_t = ts[lo], ts[last]
    first_v, last_v = vs[lo], vs[last]
    sampled_interval = last_t - first_t
    sampled_delta = last_v - first_v
    average_interval = sampled_interval / (last - lo)  # n - 1 where n >= 1
    half_interval = average_interval / 2
    threshold = average_interval * 1.1
    start_gap = first_t - starts
    end_gap = ends - last_t
    extend_start = np.where(start_gap < threshold, start_gap, half_interval)
    extend_end = np.where(end_gap < threshold, end_gap, half_interval)
    if is_counter:
        clamp = (sampled_delta > 0) & (first_v >= 0)
        zero_point = sampled_interval * first_v / sampled_delta
        np.minimum(extend_start, zero_point, out=extend_start, where=clamp)
    extrapolated_interval = (sampled_interval + extend_start) + extend_end
    out = np.where(sampled_interval > 0, sampled_delta * extrapolated_interval / sampled_interval, np.nan)
    if not is_counter:
        return out
    # Exact integer prefix count of reset positions: window [lo, hi)
    # contains a reset iff some i in [lo, hi-2] drops.  Such a window is
    # computed again, per window.
    reset_count = np.zeros(len(vs), dtype=np.intp)
    (vs[1:] < vs[:-1]).cumsum(out=reset_count[1:])
    if reset_count[-1]:
        flat = out.reshape(-1)
        for k, lo, hi, start, end in _each_window(reset_count[last] > reset_count[lo], los, his, starts, ends):
            value = _extrapolated_delta(ts[lo:hi], vs[lo:hi], start, end, is_counter=True)
            if value is not None:
                flat[k] = value
    return out


def _rate_kernel(ts, vs, los, his, starts, ends):
    delta = _extrapolated_delta_kernel(ts, vs, los, his, starts, ends, is_counter=True)
    return delta / (ends - starts)


def _increase_kernel(ts, vs, los, his, starts, ends):
    return _extrapolated_delta_kernel(ts, vs, los, his, starts, ends, is_counter=True)


def _delta_kernel(ts, vs, los, his, starts, ends):
    return _extrapolated_delta_kernel(ts, vs, los, his, starts, ends, is_counter=False)


def _irate_kernel(ts, vs, los, his, starts, ends):
    out = np.full(los.shape, np.nan)
    ok = his - los >= 2
    if not ok.any():
        return out
    hi = np.where(ok, his, 2)
    dv = vs[hi - 1] - vs[hi - 2]
    dv = np.where(dv < 0, vs[hi - 1], dv)  # counter reset at the tail
    dt = ts[hi - 1] - ts[hi - 2]
    ok &= dt > 0
    result = dv / dt
    out[ok] = result[ok]
    return out


def _idelta_kernel(ts, vs, los, his, starts, ends):
    out = np.full(los.shape, np.nan)
    ok = his - los >= 2
    if not ok.any():
        return out
    hi = np.where(ok, his, 2)
    result = vs[hi - 1] - vs[hi - 2]
    out[ok] = result[ok]
    return out


def _diff_count(predicate_diffs: np.ndarray, los, his):
    """Count predicate hits between consecutive window samples (exact)."""
    counts = np.concatenate(([0], np.cumsum(predicate_diffs)))
    top = len(counts) - 1
    lo = np.minimum(los, top)
    hi = np.minimum(np.maximum(his - 1, lo), top)
    return (counts[hi] - counts[lo]).astype(np.float64)


def _changes_kernel(ts, vs, los, his, starts, ends):
    out = np.full(los.shape, np.nan)
    ok = his > los
    if not ok.any():
        return out
    result = _diff_count(np.diff(vs) != 0, los, his)
    out[ok] = result[ok]
    return out


def _resets_kernel(ts, vs, los, his, starts, ends):
    out = np.full(los.shape, np.nan)
    ok = his > los
    if not ok.any():
        return out
    result = _diff_count(np.diff(vs) < 0, los, his)
    out[ok] = result[ok]
    return out


def _count_kernel(ts, vs, los, his, starts, ends):
    n = (his - los).astype(np.float64)
    return np.where(n > 0, n, np.nan)


def _last_kernel(ts, vs, los, his, starts, ends):
    out = np.full(los.shape, np.nan)
    ok = his > los
    if ok.any():
        out[ok] = vs[np.where(ok, his, 1) - 1][ok]
    return out


def _present_kernel(ts, vs, los, his, starts, ends):
    return np.where(his > los, 1.0, np.nan)


#: Range functions: name -> window kernel.
WINDOW_FUNCTIONS: dict[str, WindowFunc] = {
    "rate": _rate_kernel,
    "irate": _irate_kernel,
    "increase": _increase_kernel,
    "delta": _delta_kernel,
    "idelta": _idelta_kernel,
    "deriv": _windowed_fallback(_deriv),
    "changes": _changes_kernel,
    "resets": _resets_kernel,
    "avg_over_time": _over_time(np.mean),
    "sum_over_time": _over_time(np.sum),
    "min_over_time": _over_time(np.min),
    "max_over_time": _over_time(np.max),
    "count_over_time": _count_kernel,
    "stddev_over_time": _over_time(np.std),
    "stdvar_over_time": _over_time(np.var),
    "last_over_time": _last_kernel,
    "present_over_time": _present_kernel,
}


def quantile(q: float, vs) -> float:
    """Prometheus ``quantile``: the ``quantile`` aggregation's and
    ``quantile_over_time``'s value over ``vs``.

    ``q`` outside ``[0, 1]`` is ``-Inf``/``+Inf`` and a NaN ``q`` is NaN
    (never clamped to the extreme member, never an error).
    """
    if len(vs) == 0 or math.isnan(q):
        return math.nan
    if q < 0:
        return -math.inf
    if q > 1:
        return math.inf
    return float(np.quantile(vs, q))


#: The floats an int64 holds (Go's ``convertibleToInt64``): 2**63 - 1024
#: is the largest float64 below 2**63.
_INT64_MIN = -9223372036854775808.0
_INT64_MAX = 9223372036854774784.0

#: Go's ``%v`` of the non-finite floats Python writes ``nan`` / ``inf``.
_GO_NON_FINITE = {"nan": "NaN", "inf": "+Inf", "-inf": "-Inf"}


def topk_counts(params) -> np.ndarray:
    """``topk``/``bottomk``'s ``k`` per step (a float or an array of
    them) as int64, negative counts as 0.  A ``k`` no int64 holds —
    NaN, ±Inf or out of range — is Prometheus's error, raised whether
    or not there is anything to rank."""
    params = np.asarray(params, dtype=np.float64)
    fits = (params >= _INT64_MIN) & (params <= _INT64_MAX)
    if not fits.all():
        text = repr(float(params[~fits][0]))
        raise QueryError(f"Scalar value {_GO_NON_FINITE.get(text, text)} overflows int64")
    return np.maximum(params.astype(np.int64), 0)


def histogram_bucket_quantile(q: float, buckets: list[tuple[float, float]]) -> float:
    """Prometheus ``bucketQuantile`` over cumulative ``(le, count)`` pairs.

    ``buckets`` must be sorted by ``le``; the list must end in a
    ``+Inf`` bucket to be usable (otherwise NaN, matching Prometheus).
    As in Prometheus, buckets with the same bound (``le="1"`` beside
    ``le="1.0"``) are first coalesced into one, their counts added in
    list order, and a cumulative count below an earlier one is raised
    to it — a histogram whose buckets were scraped or rated a little
    apart is still searched as monotonic.  Both evaluators call this
    one helper, keeping their ``histogram_quantile`` results
    bit-identical.
    """
    if math.isnan(q):
        return math.nan
    if q < 0:
        return -math.inf
    if q > 1:
        return math.inf
    if not buckets or not math.isinf(buckets[-1][0]):
        return math.nan
    # One pass: a bucket is kept once the next bound differs (equal
    # bounds coalesce first), its count raised to the highest kept
    # before it — Prometheus's coalesceBuckets then ensureMonotonic.
    bounds: list[float] = []
    counts: list[float] = []
    highest = -math.inf
    bound, count = buckets[0]
    for le, c in buckets[1:]:
        if le == bound:
            count += c
            continue
        if count > highest:
            highest = count
        elif count < highest:
            count = highest
        bounds.append(bound)
        counts.append(count)
        bound, count = le, c
    if count < highest:
        count = highest
    bounds.append(bound)
    counts.append(count)
    if len(bounds) < 2:
        return math.nan
    total = counts[-1]
    if total == 0 or math.isnan(total):
        return math.nan
    rank = q * total
    b = 0
    while b < len(bounds) - 1 and counts[b] < rank:
        b += 1
    if b == len(bounds) - 1:
        # The quantile falls in the +Inf bucket: the best available
        # answer is the highest finite bound.
        return bounds[-2]
    bucket_end = bounds[b]
    bucket_count = counts[b]
    if b == 0:
        if bucket_end <= 0:
            return bucket_end
        bucket_start, prev_count = 0.0, 0.0
    else:
        bucket_start, prev_count = bounds[b - 1], counts[b - 1]
    in_bucket = bucket_count - prev_count
    if in_bucket <= 0:
        return bucket_end
    return bucket_start + (bucket_end - bucket_start) * ((rank - prev_count) / in_bucket)


def _round(v, to=1.0):
    """Prometheus ``round``: half up, to the nearest multiple of ``to``."""
    inverse = np.divide(1.0, to)
    return np.floor(v * inverse + 0.5) / inverse


#: Element-wise functions: each maps the values of an instant vector —
#: a float64 array of any shape — at once; extra scalar arguments
#: broadcast against it along its last axis.
ELEMENT_FUNCTIONS: dict[str, Callable[..., np.ndarray]] = {
    "abs": np.abs,
    "ceil": np.ceil,
    "floor": np.floor,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "ln": np.log,
    "log2": np.log2,
    "log10": np.log10,
    "sgn": np.sign,
    "round": _round,
    "clamp": lambda v, lo, hi: np.minimum(np.maximum(v, lo), hi),
    "clamp_min": np.maximum,
    "clamp_max": np.minimum,
}

def _power(a, b) -> np.ndarray:
    """``a ^ b`` by ``pow``, as Go's ``math.Pow``.  Both sides are
    copied out to their common shape first: numpy computes a power
    whose exponent repeats (a scalar, or broadcast) as ``sqrt`` when it
    is 0.5, and ``sqrt`` differs from ``pow`` at -0.0 and -Inf."""
    a, b = np.broadcast_arrays(a, b)
    return np.power(np.array(a), np.array(b))


#: Binary operators over float64 arrays (either side may be a scalar).
#: A comparison gives booleans: a filter keeps the elements where it
#: holds, and ``bool`` makes it 1.0 or 0.0.
BINARY_OPERATORS: dict[str, Callable[..., np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.fmod,
    "^": _power,
    "==": np.equal,
    "!=": np.not_equal,
    ">": np.greater,
    "<": np.less,
    ">=": np.greater_equal,
    "<=": np.less_equal,
}

#: Special forms implemented inside the engine.
SPECIAL_FUNCTIONS = (
    "scalar",
    "vector",
    "time",
    "timestamp",
    "absent",
    "sort",
    "sort_desc",
    "label_replace",
    "label_join",
    "quantile_over_time",
    "histogram_quantile",
)

#: Every callable name the parser should accept.
FUNCTIONS = frozenset(WINDOW_FUNCTIONS) | frozenset(ELEMENT_FUNCTIONS) | frozenset(SPECIAL_FUNCTIONS)
