"""The list-backed head series, kept as a differential-test oracle.

:class:`Series` is the original Python-list head series the columnar
ring-buffer head (:class:`repro.tsdb.storage.ColumnarSeries`) replaced;
:class:`ListHeadTSDB` is a TSDB whose series are all of that kind.  The
head-layout differentials drive one of these in lockstep with a
production :class:`~repro.tsdb.storage.TSDB` and require bit-identical
reads.  Import-only: nothing in ``src/`` can select it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import StorageError
from repro.tsdb.model import Labels
from repro.tsdb.persist.head import PersistentTSDB
from repro.tsdb.storage import TSDB


@dataclass
class Series:
    """One time series: immutable identity + growing sample arrays."""

    labels: Labels
    #: Storage-assigned series reference (see :meth:`TSDB.get_ref`).
    #: Monotonic and never reused, so a ref held after the series is
    #: dropped can only dangle — it can never alias another series.
    ref: int = 0
    timestamps: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    #: Cached ndarray snapshot of (timestamps, values); rebuilt lazily
    #: after any mutation.  See :meth:`arrays`.
    _snapshot: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def append(self, timestamp: float, value: float) -> None:
        if self.timestamps:
            last = self.timestamps[-1]
            if timestamp < last:
                raise StorageError(
                    f"out-of-order sample for {self.labels}: {timestamp} < {last}"
                )
            if timestamp == last:
                self.values[-1] = value  # idempotent re-ingest
                self._snapshot = None
                return
        self.timestamps.append(timestamp)
        self.values.append(value)
        self._snapshot = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole series as ``(timestamps, values)`` float64 arrays.

        The snapshot is cached until the next append/overwrite/
        truncation, so repeated columnar reads (one per selector per
        range query) cost one list conversion, not one per step.
        Callers must treat the returned arrays as read-only.
        """
        snap = self._snapshot
        if snap is None:
            snap = (
                np.asarray(self.timestamps, dtype=np.float64),
                np.asarray(self.values, dtype=np.float64),
            )
            self._snapshot = snap
        return snap

    def window(self, start: float, end: float) -> tuple[np.ndarray, np.ndarray]:
        """Samples with ``start <= t <= end`` as zero-copy numpy views."""
        ts, vs = self.arrays()
        lo = np.searchsorted(ts, start, side="left")
        hi = np.searchsorted(ts, end, side="right")
        return ts[lo:hi], vs[lo:hi]

    def window_half_open(self, start: float, end: float) -> tuple[np.ndarray, np.ndarray]:
        """Samples with ``start <= t < end`` (block-window semantics).

        Block boundaries are half-open in Prometheus/Thanos; callers
        cutting ``[lo, hi)`` windows use this instead of shrinking the
        right edge by an epsilon.
        """
        ts, vs = self.arrays()
        lo = np.searchsorted(ts, start, side="left")
        hi = np.searchsorted(ts, end, side="left")
        return ts[lo:hi], vs[lo:hi]

    def query_window_arrays(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Pruned columnar read: a contiguous superset of ``[lo, hi]``.

        The head lives in memory, so the whole snapshot *is* the
        cheapest superset — this method exists so the engine can use
        one protocol for head series and chunk-backed series (where
        pruning skips decoding non-overlapping chunks).
        """
        return self.arrays()

    def _extend(self, ts_list: list[float], vs_list: list[float]) -> None:
        """Bulk tail extension; caller guarantees strictly-increasing
        timestamps landing after the current tail (see
        :meth:`TSDB.append_array`)."""
        self.timestamps.extend(ts_list)
        self.values.extend(vs_list)
        self._snapshot = None

    def at_or_before(self, ts: float, lookback: float) -> tuple[float, float] | None:
        """Most recent sample in ``(ts - lookback, ts]`` (instant read).

        A staleness marker (NaN sample) as the most recent point means
        the series has disappeared: instant reads return nothing, with
        no lookback grace — Prometheus staleness semantics.
        """
        idx = bisect.bisect_right(self.timestamps, ts) - 1
        if idx < 0:
            return None
        t = self.timestamps[idx]
        if t <= ts - lookback:
            return None
        value = self.values[idx]
        if value != value:  # NaN: stale marker
            return None
        return t, self.values[idx]

    def truncate_before(self, cutoff: float) -> int:
        """Drop samples with ``t < cutoff``; returns how many."""
        lo = bisect.bisect_left(self.timestamps, cutoff)
        if lo:
            del self.timestamps[:lo]
            del self.values[:lo]
            self._snapshot = None
        return lo

    @property
    def nsamples(self) -> int:
        return len(self.timestamps)

    @property
    def min_time(self) -> float | None:
        return self.timestamps[0] if self.timestamps else None

    @property
    def max_time(self) -> float | None:
        return self.timestamps[-1] if self.timestamps else None


class ListHeadTSDB(TSDB):
    """A :class:`TSDB` whose head series are list :class:`Series`."""

    def _create_series(self, labels: Labels, ref: int) -> Series:
        # Swap the columnar series for a list one under the same ref
        # before anything has been appended.
        super()._create_series(labels, ref)
        series = self._series[labels] = self._series_by_ref[ref] = Series(labels=labels, ref=ref)
        return series

    def append_refs(self, timestamp, pairs):
        """By labels through ``append_many``: the production loop
        inlines ``ColumnarSeries.append`` and cannot serve a list
        series."""
        batch, dead = [], []
        for ref, value in pairs:
            series = self.resolve_ref(ref)
            if series is None:
                dead.append((ref, value))
            else:
                batch.append((series.labels, timestamp, value))
        # The base method on purpose: a persistent head's append_refs
        # journals the batch itself.
        return TSDB.append_many(self, batch), dead


class ListHeadPersistentTSDB(PersistentTSDB, ListHeadTSDB):
    """The WAL-backed head over list series (replay parity tests)."""
