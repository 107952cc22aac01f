"""PromQL function implementations.

Functions fall into three families the engine dispatches on:

* **range functions** (``rate``, ``increase``, ``*_over_time``…):
  consume one matrix selector window per series and produce one value.
  Counter semantics (reset detection, boundary extrapolation) follow
  Prometheus's ``extrapolatedRate`` so recorded power series behave
  like the real system's.
* **element-wise functions** (``abs``, ``clamp_min``…): map over the
  values of an instant vector.
* **special forms** (``scalar``, ``vector``, ``time``, ``timestamp``,
  ``label_replace``, ``label_join``, ``absent``, ``sort``…): need
  evaluation context and are implemented inside the engine; they are
  listed here so the parser recognises the names.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

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


def _rate(ts: np.ndarray, vs: np.ndarray, start: float, end: float) -> float | None:
    delta = _extrapolated_delta(ts, vs, start, end, is_counter=True)
    if delta is None:
        return None
    return delta / (end - start)


def _increase(ts: np.ndarray, vs: np.ndarray, start: float, end: float) -> float | None:
    return _extrapolated_delta(ts, vs, start, end, is_counter=True)


def _delta(ts: np.ndarray, vs: np.ndarray, start: float, end: float) -> float | None:
    return _extrapolated_delta(ts, vs, start, end, is_counter=False)


def _irate(ts: np.ndarray, vs: np.ndarray, start: float, end: float) -> float | None:
    if len(ts) < 2:
        return None
    dv = float(vs[-1] - vs[-2])
    if dv < 0:  # counter reset between the last two samples
        dv = float(vs[-1])
    dt = float(ts[-1] - ts[-2])
    return dv / dt if dt > 0 else None


def _idelta(ts: np.ndarray, vs: np.ndarray, start: float, end: float) -> float | None:
    if len(ts) < 2:
        return None
    return float(vs[-1] - vs[-2])


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


def _changes(ts: np.ndarray, vs: np.ndarray, start: float, end: float) -> float | None:
    if len(vs) == 0:
        return None
    return float(np.count_nonzero(np.diff(vs) != 0))


def _resets(ts: np.ndarray, vs: np.ndarray, start: float, end: float) -> float | None:
    if len(vs) == 0:
        return None
    return float(np.count_nonzero(np.diff(vs) < 0))


def _over_time(reducer: Callable[[np.ndarray], float]) -> RangeFunc:
    def func(ts: np.ndarray, vs: np.ndarray, start: float, end: float) -> float | None:
        if len(vs) == 0:
            return None
        return float(reducer(vs))

    return func


def _last_over_time(ts: np.ndarray, vs: np.ndarray, start: float, end: float) -> float | None:
    return float(vs[-1]) if len(vs) else None


def _present_over_time(ts: np.ndarray, vs: np.ndarray, start: float, end: float) -> float | None:
    return 1.0 if len(vs) else None


#: Range functions: name -> implementation.
RANGE_FUNCTIONS: dict[str, RangeFunc] = {
    "rate": _rate,
    "irate": _irate,
    "increase": _increase,
    "delta": _delta,
    "idelta": _idelta,
    "deriv": _deriv,
    "changes": _changes,
    "resets": _resets,
    "avg_over_time": _over_time(np.mean),
    "sum_over_time": _over_time(np.sum),
    "min_over_time": _over_time(np.min),
    "max_over_time": _over_time(np.max),
    "count_over_time": _over_time(len),
    "stddev_over_time": _over_time(lambda v: float(np.std(v))),
    "stdvar_over_time": _over_time(lambda v: float(np.var(v))),
    "last_over_time": _last_over_time,
    "present_over_time": _present_over_time,
}

# -- windowed (columnar) kernels ----------------------------------------
#
# A *window kernel* evaluates one range function over every window of
# one AST node at once.  ``ts``/``vs`` are one flat pair of sample
# arrays holding every series' samples back to back; ``los``/``his``
# are integer index arrays of any shape — ``(S, T)`` for a node, ``(T,)``
# for one series — giving each window's ``[lo, hi)`` bounds into that
# flat pair (a window never crosses from one series' samples into the
# next); ``starts``/``ends`` hold the windows' ``[start, end]`` time
# bounds and broadcast against ``los``.  A kernel returns one value per
# window, shaped like ``los``, NaN marking "no result" (the columnar
# engine treats NaN kernel output as an absent element, mirroring the
# per-step engine dropping None/NaN results).
#
# Kernels must be *bit-identical* to the scalar implementations above
# — the differential test harness asserts it.  Functions whose value
# depends only on window endpoints, exact integer counts, or the
# extrapolation formula are vectorized outright (the elementwise IEEE
# ops match the scalar code's operation order; prefix counts over the
# flat array are exact integers, and a window's count only spans pairs
# inside the window, never the seam between two series); counter
# windows that contain resets fall back to the scalar implementation
# per window, because the reset-correction accumulation order cannot
# be reproduced with prefix sums.  Everything else (``avg_over_time``,
# ``deriv``…) uses a generic fallback that slices views of the flat
# arrays and calls the scalar implementation once per non-empty
# window — still a large win, since the columnar engine has already
# amortised selection, snapshotting and searchsorted.

WindowFunc = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    np.ndarray,
]


def _each_window(mask, los, his, starts, ends):
    """``(flat position, lo, hi, start, end)`` of every window in
    ``mask``, as Python scalars, in row-major order."""
    if not mask.any():
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
    def kernel(ts, vs, los, his, starts, ends):
        out = np.full(los.shape, np.nan)
        flat = out.reshape(-1)
        for k, lo, hi, start, end in _each_window(his > los, los, his, starts, ends):
            value = impl(ts[lo:hi], vs[lo:hi], start, end)
            if value is not None:
                flat[k] = value
        return out

    return kernel


def _w_extrapolated_delta(ts, vs, los, his, starts, ends, *, is_counter: bool):
    out = np.full(los.shape, np.nan)
    n = his - los
    ok = n >= 2
    if not ok.any():
        return out
    lo = np.where(ok, los, 0)
    hi = np.where(ok, his, 2)
    first_t, last_t = ts[lo], ts[hi - 1]
    first_v, last_v = vs[lo], vs[hi - 1]
    sampled_interval = last_t - first_t
    ok &= sampled_interval > 0
    if is_counter:
        # Exact integer prefix count of reset positions: window
        # [lo, hi) contains a reset iff some i in [lo, hi-2] drops.
        reset_count = np.concatenate(([0], np.cumsum(np.diff(vs) < 0)))
        has_reset = ok & (reset_count[hi - 1] - reset_count[lo] > 0)
    else:
        has_reset = np.zeros(los.shape, dtype=bool)
    easy = ok & ~has_reset
    with np.errstate(divide="ignore", invalid="ignore"):
        sampled_delta = last_v - first_v
        average_interval = sampled_interval / (n - 1)
        start_gap = first_t - starts
        end_gap = ends - last_t
        threshold = average_interval * 1.1
        extend_start = np.where(start_gap < threshold, start_gap, average_interval / 2)
        extend_end = np.where(end_gap < threshold, end_gap, average_interval / 2)
        if is_counter:
            clamp = (sampled_delta > 0) & (first_v >= 0)
            zero_point = sampled_interval * first_v / sampled_delta
            extend_start = np.where(
                clamp, np.minimum(extend_start, zero_point), extend_start
            )
        extrapolated_interval = (sampled_interval + extend_start) + extend_end
        result = sampled_delta * extrapolated_interval / sampled_interval
    out[easy] = result[easy]
    flat = out.reshape(-1)
    for k, lo, hi, start, end in _each_window(has_reset, los, his, starts, ends):
        value = _extrapolated_delta(ts[lo:hi], vs[lo:hi], start, end, is_counter=is_counter)
        if value is not None:
            flat[k] = value
    return out


def _w_rate(ts, vs, los, his, starts, ends):
    delta = _w_extrapolated_delta(ts, vs, los, his, starts, ends, is_counter=True)
    return delta / (ends - starts)


def _w_increase(ts, vs, los, his, starts, ends):
    return _w_extrapolated_delta(ts, vs, los, his, starts, ends, is_counter=True)


def _w_delta(ts, vs, los, his, starts, ends):
    return _w_extrapolated_delta(ts, vs, los, his, starts, ends, is_counter=False)


def _w_irate(ts, vs, los, his, starts, ends):
    out = np.full(los.shape, np.nan)
    ok = his - los >= 2
    if not ok.any():
        return out
    hi = np.where(ok, his, 2)
    dv = vs[hi - 1] - vs[hi - 2]
    dv = np.where(dv < 0, vs[hi - 1], dv)  # counter reset at the tail
    dt = ts[hi - 1] - ts[hi - 2]
    ok &= dt > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        result = dv / dt
    out[ok] = result[ok]
    return out


def _w_idelta(ts, vs, los, his, starts, ends):
    out = np.full(los.shape, np.nan)
    ok = his - los >= 2
    if not ok.any():
        return out
    hi = np.where(ok, his, 2)
    result = vs[hi - 1] - vs[hi - 2]
    out[ok] = result[ok]
    return out


def _w_diff_count(predicate_diffs: np.ndarray, los, his):
    """Count predicate hits between consecutive window samples (exact)."""
    counts = np.concatenate(([0], np.cumsum(predicate_diffs)))
    top = len(counts) - 1
    lo = np.minimum(los, top)
    hi = np.minimum(np.maximum(his - 1, lo), top)
    return (counts[hi] - counts[lo]).astype(np.float64)


def _w_changes(ts, vs, los, his, starts, ends):
    out = np.full(los.shape, np.nan)
    ok = his > los
    if not ok.any():
        return out
    with np.errstate(invalid="ignore"):
        result = _w_diff_count(np.diff(vs) != 0, los, his)
    out[ok] = result[ok]
    return out


def _w_resets(ts, vs, los, his, starts, ends):
    out = np.full(los.shape, np.nan)
    ok = his > los
    if not ok.any():
        return out
    with np.errstate(invalid="ignore"):
        result = _w_diff_count(np.diff(vs) < 0, los, his)
    out[ok] = result[ok]
    return out


def _w_count(ts, vs, los, his, starts, ends):
    n = (his - los).astype(np.float64)
    return np.where(n > 0, n, np.nan)


def _w_last(ts, vs, los, his, starts, ends):
    out = np.full(los.shape, np.nan)
    ok = his > los
    if ok.any():
        out[ok] = vs[np.where(ok, his, 1) - 1][ok]
    return out


def _w_present(ts, vs, los, his, starts, ends):
    return np.where(his > los, 1.0, np.nan)


#: Window kernels for every range function; non-vectorizable ones get
#: the scalar-fallback wrapper so semantics stay bit-identical.
WINDOW_FUNCTIONS: dict[str, WindowFunc] = {
    name: _windowed_fallback(impl) for name, impl in RANGE_FUNCTIONS.items()
}
WINDOW_FUNCTIONS.update(
    {
        "rate": _w_rate,
        "irate": _w_irate,
        "increase": _w_increase,
        "delta": _w_delta,
        "idelta": _w_idelta,
        "changes": _w_changes,
        "resets": _w_resets,
        "count_over_time": _w_count,
        "last_over_time": _w_last,
        "present_over_time": _w_present,
    }
)


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


ElementFunc = Callable[..., float]

#: Element-wise functions over instant vectors; extra scalar args allowed.
ELEMENT_FUNCTIONS: dict[str, ElementFunc] = {
    "abs": abs,
    "ceil": math.ceil,
    "floor": math.floor,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "ln": lambda v: math.log(v) if v > 0 else (-math.inf if v == 0 else math.nan),
    "log2": lambda v: math.log2(v) if v > 0 else (-math.inf if v == 0 else math.nan),
    "log10": lambda v: math.log10(v) if v > 0 else (-math.inf if v == 0 else math.nan),
    "sgn": lambda v: float((v > 0) - (v < 0)),
    "round": lambda v, to=1.0: round(v / to) * to if to else math.nan,
    "clamp": lambda v, lo, hi: min(max(v, lo), hi),
    "clamp_min": lambda v, lo: max(v, lo),
    "clamp_max": lambda v, hi: min(v, hi),
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
FUNCTIONS = frozenset(RANGE_FUNCTIONS) | frozenset(ELEMENT_FUNCTIONS) | frozenset(SPECIAL_FUNCTIONS)
