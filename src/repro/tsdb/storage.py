"""Append-optimised in-memory TSDB with an inverted label index.

Design points, mirroring what matters about Prometheus for this stack:

* **Appends are cheap**: a :class:`ColumnarSeries` stages fresh
  samples in Python lists and flushes them vectorised into growable
  numpy ring buffers on the first read (amortised O(1), no numpy
  scalar boxing on the comparison path).  A scrape of 1400 nodes
  appends tens of thousands of samples per interval, so this is the
  throughput-critical path (bench E7).
* **One read contract for every series kind**: a series provides
  ``arrays()`` and ``query_window_arrays(lo, hi)``, and
  :class:`SeriesReads` derives the window, lookback and list reads
  from them, so head series and the chunk-backed and merged series of
  ``persist/chunkio.py`` answer every read the same way.
* **Selection uses an inverted index**: label name/value → set of
  series ids, intersected across equality matchers before any regex
  work, the same trick Prometheus's head block uses
  (:func:`~repro.tsdb.model.select_labels`, shared with the persisted
  blocks' :class:`~repro.tsdb.persist.chunkio.ChunkIndex`).
* **Range reads are vectorized**: a window read binary-searches the
  timestamp array and returns numpy views for the PromQL engine.
* **Columnar reads are cached**: :meth:`ColumnarSeries.arrays` hands
  out the same pair of zero-copy views between mutations, so the
  columnar range evaluator can ``searchsorted`` thousands of step
  timestamps against one snapshot.  :meth:`TSDB.select` memoises
  selector results keyed by the matcher tuple — the memo survives
  appends (series objects mutate in place), and a series created or
  deleted forgets only the entries whose matchers it satisfies, so a
  dashboard burst or a rule group touching the same selectors pays
  the index intersection once, job churn elsewhere notwithstanding.
* **Retention** drops samples older than the horizon; **series
  deletion** implements the API server's cardinality cleanup (paper
  §II.C: *"remove metrics of workloads that did not last more than
  the configured cutoff"*).
* Out-of-order appends within a series are rejected, as Prometheus
  rejects them; duplicate timestamps overwrite (last-write-wins) to
  keep recording-rule re-evaluation idempotent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.common.errors import StorageError
from repro.tsdb.exposition import Exemplar
from repro.tsdb.model import BY_LABELS, METRIC_NAME_LABEL, Labels, Matcher, MatchOp, match_all, select_labels

#: Process-wide snapshot-cache counters for
#: :meth:`ColumnarSeries.arrays` — per-instance bookkeeping would bloat
#: every series object for a number only the self-telemetry endpoint
#: reads.
SNAPSHOT_STATS = {"hits": 0, "builds": 0}


class SeriesReads:
    """The read side every series kind shares.

    A series provides ``labels``, :meth:`arrays` (all its samples as
    sorted ``(timestamps, values)`` float64 arrays) and, where it can
    read less than all of them, :meth:`query_window_arrays`; the window,
    lookback and list reads here derive from those.  Slotted and
    stateless, so a slotted subclass stays free of a ``__dict__``.
    """

    __slots__ = ()

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def query_window_arrays(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Sorted samples holding every sample in ``[lo, hi]`` unchanged.

        What lies outside the window may be partial: chunk-backed
        series return the chunks the window overlaps, merged series
        merge only within it.  The whole series always qualifies.
        """
        return self.arrays()

    @property
    def timestamps(self) -> list[float]:
        return self.arrays()[0].tolist()

    @property
    def values(self) -> list[float]:
        return self.arrays()[1].tolist()

    def _slice(self, start: float, end: float, end_side: str) -> tuple[np.ndarray, np.ndarray]:
        ts, vs = self.query_window_arrays(start, end)
        lo = np.searchsorted(ts, start, side="left")
        hi = np.searchsorted(ts, end, side=end_side)
        return ts[lo:hi], vs[lo:hi]

    def window(self, start: float, end: float) -> tuple[np.ndarray, np.ndarray]:
        """Samples with ``start <= t <= end``."""
        return self._slice(start, end, "right")

    def window_half_open(self, start: float, end: float) -> tuple[np.ndarray, np.ndarray]:
        """Samples with ``start <= t < end`` (block-window semantics).

        Block boundaries are half-open in Prometheus/Thanos; callers
        cutting ``[lo, hi)`` windows use this instead of shrinking the
        right edge by an epsilon.
        """
        return self._slice(start, end, "left")

    def at_or_before(self, ts: float, lookback: float) -> tuple[float, float] | None:
        """Most recent sample in ``(ts - lookback, ts]`` (instant read).

        A staleness marker (NaN sample) as the most recent point means
        the series has disappeared: instant reads return nothing, with
        no lookback grace — Prometheus staleness semantics.
        """
        t_arr, v_arr = self.query_window_arrays(ts - lookback, ts)
        idx = int(np.searchsorted(t_arr, ts, side="right")) - 1
        if idx < 0:
            return None
        t = float(t_arr[idx])
        if t <= ts - lookback:
            return None
        value = float(v_arr[idx])
        if value != value:  # NaN: stale marker
            return None
        return t, value


class ColumnarSeries(SeriesReads):
    """Columnar head series: samples live in growable numpy buffers.

    Layout::

        _ts/_vs:  [ dead | live region ................ | free ]
                         ^_start                        ^_start+_len

    * The live region is ``_ts[_start : _start + _len]``; retention
      advances ``_start`` (O(1)) instead of shifting elements.  When
      the tail runs out of room the buffer compacts in place if at
      least half of it is dead space, otherwise it doubles — amortised
      O(1) appends either way.
    * ``_last`` caches the newest timestamp as the *raw Python value*
      passed in, so the ordering check on the hot ingest path never
      reads (and boxes) a numpy scalar.
    * **Appends are staged.**  Fresh samples land in plain Python
      lists (``_stage_ts``/``_stage_vs``) — a CPython list append is
      ~2x cheaper than a numpy scalar store — and :meth:`_flush`
      moves them into the ring buffers with one vectorised slice
      assignment on the first read; every read path flushes first.
    * :meth:`arrays` and the windows derived from it return zero-copy
      views of the live region; callers must treat them as read-only
      snapshots and consume them before the next mutation.
    * :meth:`at_or_before` is the one read overridden here: the instant
      read of rules and dashboards nearly always asks for the newest
      sample, which ``_last`` and the stage hold at hand — no flush,
      no bisection.
    """

    __slots__ = (
        "labels",
        "ref",
        "_ts",
        "_vs",
        "_start",
        "_len",
        "_last",
        "_stage_ts",
        "_stage_vs",
        "_snapshot",
    )

    MIN_CAPACITY = 64
    #: Staged samples a retention pass that drops nothing from the
    #: series leaves staged.  A series some reader flushes every few
    #: scrapes (a rule's ``rate`` input) holds fewer; one nobody reads
    #: holds all since the last pass, and staged they cost about twice
    #: the ring's memory (a list slot and a float object each), so the
    #: pass flushes it.
    STAGE_KEPT = 16

    def __init__(self, labels: Labels, ref: int = 0):
        self.labels = labels
        self.ref = ref
        self._ts = np.empty(self.MIN_CAPACITY, dtype=np.float64)
        self._vs = np.empty(self.MIN_CAPACITY, dtype=np.float64)
        self._start = 0
        self._len = 0
        self._last: float | None = None
        # Append staging: fresh samples land in plain Python lists
        # (a CPython list append beats a numpy scalar store ~2x) and
        # are flushed into the ring buffers *vectorised* on the first
        # read, so reads keep columnar snapshots incremental.
        self._stage_ts: list[float] = []
        self._stage_vs: list[float] = []
        self._snapshot: tuple[np.ndarray, np.ndarray] | None = None

    # -- ingest ----------------------------------------------------------
    def _make_room(self, extra: int) -> int:
        """Compact or grow so ``extra`` slots follow the live region.

        Returns the new end index of the live region (== ``_len``
        afterwards, since the region is re-anchored at 0).  A grown
        ring is twice the old one, doubled again only while the live
        region plus ``extra`` does not fit: an append-only ring holds
        at most twice its samples, and appends stay amortised O(1)
        with or without retention sliding the region.
        """
        n = self._len
        cap = len(self._ts)
        if n + extra <= cap // 2:
            new_cap = cap  # enough dead space: compact within the buffer
        else:
            new_cap = max(self.MIN_CAPACITY, cap * 2)
            while new_cap < n + extra:
                new_cap *= 2
        ts = np.empty(new_cap, dtype=np.float64)
        vs = np.empty(new_cap, dtype=np.float64)
        start = self._start
        ts[:n] = self._ts[start : start + n]
        vs[:n] = self._vs[start : start + n]
        self._ts = ts
        self._vs = vs
        self._start = 0
        self._snapshot = None
        return n

    def append(self, timestamp: float, value: float) -> None:
        last = self._last
        if last is not None:
            if timestamp < last:
                raise StorageError(
                    f"out-of-order sample for {self.labels}: {timestamp} < {last}"
                )
            if timestamp == last:
                # idempotent re-ingest: the tail is the newest staged
                # sample when any are pending, else the ring tail
                if self._stage_vs:
                    self._stage_vs[-1] = value
                else:
                    self._vs[self._start + self._len - 1] = value
                self._snapshot = None
                return
        self._stage_ts.append(timestamp)
        self._stage_vs.append(value)
        self._last = timestamp
        self._snapshot = None

    def _extend(self, ts_list: list[float], vs_list: list[float]) -> None:
        """Bulk tail extension; caller guarantees strictly-increasing
        timestamps landing after the current tail (see
        :meth:`TSDB.append_array`)."""
        self._stage_ts.extend(ts_list)
        self._stage_vs.extend(vs_list)
        self._last = ts_list[-1]
        self._snapshot = None

    def _flush(self) -> None:
        """Move staged samples into the ring buffers, vectorised."""
        stage = self._stage_ts
        if not stage:
            return
        n = len(stage)
        end = self._start + self._len
        if end + n > len(self._ts):
            end = self._make_room(n)
        self._ts[end : end + n] = stage
        self._vs[end : end + n] = self._stage_vs
        self._len += n
        stage.clear()
        self._stage_vs.clear()

    # -- reads -----------------------------------------------------------
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The live region as zero-copy ``(timestamps, values)`` views."""
        self._flush()
        snap = self._snapshot
        if snap is None:
            SNAPSHOT_STATS["builds"] += 1
            end = self._start + self._len
            snap = (self._ts[self._start : end], self._vs[self._start : end])
            self._snapshot = snap
        else:
            SNAPSHOT_STATS["hits"] += 1
        return snap

    def at_or_before(self, ts: float, lookback: float) -> tuple[float, float] | None:
        """Most recent sample in ``(ts - lookback, ts]`` (instant read).

        A staleness marker (NaN sample) as the most recent point means
        the series has disappeared: instant reads return nothing, with
        no lookback grace — Prometheus staleness semantics.
        """
        last = self._last
        if last is not None and ts >= last:
            # The newest sample answers — the usual instant read — and
            # it is at hand: no flush, no bisection.
            t = float(last)
            if self._stage_vs:
                value = float(self._stage_vs[-1])
            else:
                value = float(self._vs[self._start + self._len - 1])
        else:
            t_arr, v_arr = self.arrays()
            idx = int(np.searchsorted(t_arr, ts, side="right")) - 1
            if idx < 0:
                return None
            t = float(t_arr[idx])
            value = float(v_arr[idx])
        if t <= ts - lookback:
            return None
        if value != value:  # NaN: stale marker
            return None
        return t, value

    # -- maintenance -----------------------------------------------------
    def truncate_before(self, cutoff: float) -> int:
        """Drop samples with ``t < cutoff``; returns how many."""
        self._flush()
        end = self._start + self._len
        live = self._ts[self._start : end]
        lo = int(np.searchsorted(live, cutoff, side="left"))
        if lo:
            self._start += lo
            self._len -= lo
            if not self._len:
                self._last = None
            self._snapshot = None
        return lo

    @property
    def nsamples(self) -> int:
        return self._len + len(self._stage_ts)

    @property
    def min_time(self) -> float | None:
        if self._len:
            return float(self._ts[self._start])
        if self._stage_ts:
            return self._stage_ts[0]
        return None

    @property
    def max_time(self) -> float | None:
        # `_last` is None exactly when the series is empty (appends
        # set it; the drop paths reset it on emptying).
        return self._last


@dataclass(slots=True)
class ExemplarRecord:
    """One stored exemplar plus the series identity it rides on.

    The series labels are snapshotted at append time so a stored
    exemplar stays resolvable (and selectable by matchers) even after
    retention or cardinality cleanup drops the series itself.
    """

    series_labels: Labels
    labels: dict[str, str]
    value: float
    #: Exemplar timestamp in seconds — the exposition timestamp when
    #: the exporter supplied one, else the scrape timestamp.
    timestamp: float
    #: Logical scrape time this exemplar was ingested at.
    scrape_ts: float
    #: Series ref the exemplar was keyed under (eviction bookkeeping).
    ref: int = 0
    #: Whether ``timestamp`` came with the exemplar (else it is the
    #: time of the scrape that first showed it).
    own_timestamp: bool = False


class CircularExemplarStorage:
    """Bounded exemplar store keyed by series ref (Prometheus analogue).

    Two caps bound memory: a global FIFO (``capacity``) and a
    per-series ring (``per_series``), both evicting oldest-first.
    Sequence numbers are monotonic and assigned in append order, so
    the global FIFO order is exactly ingest order; per-series eviction
    leaves a tombstone in the FIFO that the global eviction pass skips
    lazily.  A re-appended exemplar identical to the newest one of its
    series is dropped (Prometheus's duplicate rule — one exemplar per
    distinct observation, however many scrapes re-expose it).
    Identical means the same labels and value and, where the exemplar
    brings a timestamp, the same timestamp; one that brings none — it
    would be stamped with the scrape time, which differs every scrape —
    repeats the newest record when that one brought none either.
    """

    def __init__(self, capacity: int = 4096, per_series: int = 10) -> None:
        if capacity <= 0 or per_series <= 0:
            raise StorageError("exemplar storage caps must be positive")
        self.capacity = capacity
        self.per_series = per_series
        self._records: dict[int, ExemplarRecord] = {}
        self._order: deque[int] = deque()
        self._by_ref: dict[int, deque[int]] = {}
        self._next_seq = 1
        self.appended_total = 0
        self.dropped_total = 0

    def add(
        self,
        ref: int,
        series_labels: Labels,
        exemplar: Exemplar,
        scrape_ts: float,
    ) -> bool:
        """Store one exemplar; returns ``False`` when dropped as a dup."""
        own_timestamp = exemplar.timestamp is not None
        timestamp = exemplar.timestamp if own_timestamp else scrape_ts
        ring = self._by_ref.get(ref)
        if ring is None:
            ring = self._by_ref[ref] = deque()
        elif ring:
            newest = self._records[ring[-1]]
            if (
                newest.labels == exemplar.labels
                and (newest.value == exemplar.value
                     or repr(newest.value) == repr(exemplar.value))  # NaN-safe
                and (newest.timestamp == timestamp if own_timestamp else not newest.own_timestamp)
            ):
                self.dropped_total += 1
                return False
        seq = self._next_seq
        self._next_seq = seq + 1
        self._records[seq] = ExemplarRecord(
            series_labels=series_labels,
            labels=dict(exemplar.labels),
            value=exemplar.value,
            timestamp=timestamp,
            scrape_ts=scrape_ts,
            ref=ref,
            own_timestamp=own_timestamp,
        )
        self._order.append(seq)
        ring.append(seq)
        self.appended_total += 1
        if len(ring) > self.per_series:
            doomed = ring.popleft()
            del self._records[doomed]  # tombstone: stays in _order
            self.dropped_total += 1
        while len(self._records) > self.capacity:
            doomed = self._order.popleft()
            record = self._records.pop(doomed, None)
            if record is None:
                continue  # per-series tombstone
            # Seqs are monotonic, so the globally-oldest live seq is
            # also its own series' oldest.
            doomed_ring = self._by_ref.get(record.ref)
            if doomed_ring and doomed_ring[0] == doomed:
                doomed_ring.popleft()
                if not doomed_ring:
                    del self._by_ref[record.ref]
            self.dropped_total += 1
        return True

    def select(
        self,
        matchers: Sequence[Matcher],
        start: float = float("-inf"),
        end: float = float("inf"),
    ) -> list[tuple[Labels, list[ExemplarRecord]]]:
        """Exemplars of matching series within ``[start, end]``.

        Matches against the snapshotted series labels, so exemplars of
        since-deleted series still resolve.  Results are grouped by
        series (label-sorted) with exemplars in ingest order.
        """
        grouped: dict[Labels, list[ExemplarRecord]] = {}
        for seq in self._order:
            record = self._records.get(seq)
            if record is None:
                continue
            if not (start <= record.timestamp <= end):
                continue
            if all(m.matches(record.series_labels) for m in matchers):
                grouped.setdefault(record.series_labels, []).append(record)
        return sorted(grouped.items(), key=lambda kv: tuple(kv[0]))

    def __len__(self) -> int:
        return len(self._records)


class TSDB:
    """The time-series database.

    Parameters
    ----------
    retention:
        Sample retention horizon in seconds (enforced by
        :meth:`apply_retention`, which the scrape loop calls
        periodically).  ``0`` disables retention.
    name:
        Instance name, used by the LB and the Thanos fan-out.

    Epoch / cache invalidation contract
    -----------------------------------
    * ``data_epoch`` bumps on every sample mutation (append, bulk
      append, retention truncation, series deletion).
    * ``_select_cache`` maps matcher tuples to lists of live
      :class:`ColumnarSeries` objects, and the contract is that a
      cached list is exactly what an uncached select would return
      (same objects, same order).  Because series mutate in place,
      entries stay correct across *sample* mutations — retention that
      drops samples but no series deliberately leaves the memo
      populated (it only bumps ``data_epoch``).  When the population
      changes, the entries whose matchers the created or dropped
      series satisfies are forgotten (``_forget_selects_matching``)
      and every other entry stays: it cannot contain that series, and
      a rule group's selects over other metrics keep hitting while
      jobs — and the rules' own outputs — come and go.  A downstream
      memo built on the list a select returned stays valid while
      :meth:`memoised_select` returns that very list; one that
      **copies** sample data out of a series (e.g. a read Thanos
      fan-out merge) must also validate against ``data_epoch``, since
      an in-place mutation silently outdates its copies.
    * ``min_time``/``max_time`` are recomputed via
      :meth:`_recompute_time_bounds` on every drop path; before the
      audit ``max_time`` survived a fully-emptied store and
      :meth:`delete_series` never refreshed either bound, which could
      leave the sidecar watermark pointing at vanished data.
    """

    #: Upper bound on memoised selector results before wholesale reset.
    SELECT_CACHE_MAX = 512

    def __init__(self, retention: float = 0.0, name: str = "tsdb") -> None:
        self.name = name
        self.retention = retention
        self._series: dict[Labels, ColumnarSeries] = {}
        # inverted index: (label_name, label_value) -> set of Labels keys
        self._index: dict[tuple[str, str], set[Labels]] = {}
        # series refs: small-integer handles the scrape fast lane uses
        # to append without hashing a Labels key.  Monotonic, never
        # reused; dropped series leave a hole so stale refs dangle
        # instead of aliasing (see append_refs).
        self._series_by_ref: dict[int, ColumnarSeries] = {}
        self._next_ref = 1
        self.samples_ingested = 0
        self.min_time: float | None = None
        self.max_time: float | None = None
        # selector memo: matcher tuple -> selected series (in label
        # order).  Valid across appends (series mutate in place); a
        # series created or dropped forgets the entries it matches.
        self._select_cache: dict[tuple[Matcher, ...], list[ColumnarSeries]] = {}
        # the memo's keys by the metric name they ask for (None: no
        # `__name__=` matcher) — the only ones a series can be part of
        self._select_keys: dict[str | None, set[tuple[Matcher, ...]]] = {}
        self.select_cache_hits = 0
        self.select_cache_misses = 0
        #: bumps on any sample mutation (append, retention, delete)
        self.data_epoch = 0
        #: Optional :class:`repro.obs.telemetry.Telemetry` sink; when
        #: set, selects inside an active trace record child spans.
        self.telemetry = None
        #: Bounded exemplar store fed by the scrape path.
        self.exemplars = CircularExemplarStorage()

    # -- ingest ----------------------------------------------------------
    def _get_or_create_series(self, labels: Labels) -> ColumnarSeries:
        series = self._series.get(labels)
        if series is None:
            if not labels.metric_name:
                raise StorageError(f"series without a metric name: {labels!r}")
            ref = self._next_ref
            self._next_ref = ref + 1
            series = self._create_series(labels, ref)
        return series

    def _create_series(self, labels: Labels, ref: int) -> ColumnarSeries:
        """Register a new series under ``ref``; a persistent head journals it."""
        series = ColumnarSeries(labels, ref=ref)
        self._series[labels] = series
        self._series_by_ref[ref] = series
        for pair in labels:
            self._index.setdefault(pair, set()).add(labels)
        self._forget_selects_matching(labels)
        return series

    def _committed(self, count: int, lo: float, hi: float) -> None:
        """Account ``count`` applied samples spanning ``[lo, hi]``."""
        self.samples_ingested += count
        self.data_epoch += 1
        if self.min_time is None or lo < self.min_time:
            self.min_time = lo
        if self.max_time is None or hi > self.max_time:
            self.max_time = hi

    def append(self, labels: Labels, timestamp: float, value: float) -> None:
        """Append one sample, creating the series on first sight."""
        self.append_many([(labels, timestamp, value)])

    def append_many(self, batch: Iterable[tuple[Labels, float, float]]) -> int:
        """Append ``(labels, timestamp, value)`` samples in batch order.

        Each sample has :meth:`ColumnarSeries.append` semantics, but a batch
        holding a sample that would land before its series' newest one
        (counting the batch's own earlier samples) raises before any is
        applied.  Rule groups, the prober and WAL replay commit through
        here; a persistent head journals the whole batch as one record.
        """
        batch = batch if isinstance(batch, list) else list(batch)
        if not batch:
            return 0
        stamps = [sample[1] for sample in batch]
        lo, hi = min(stamps), max(stamps)
        # Series by series only when a sample is older than the store's
        # newest or the batch's own timestamps go backwards.
        if (self.max_time is not None and lo < self.max_time) or (lo != hi and stamps != sorted(stamps)):
            self._check_order((labels, ts) for labels, ts, _value in batch)
        series_of = self._series
        for labels, ts, value in batch:
            series = series_of.get(labels)
            if series is None:
                series = self._get_or_create_series(labels)
            series.append(ts, value)
        self._committed(len(batch), lo, hi)
        return len(batch)

    def _check_order(self, samples: Iterable[tuple[Labels, float]]) -> None:
        """Raise if a ``(labels, timestamp)`` of ``samples``, taken in
        order, lands before its series' newest sample."""
        newest: dict[Labels, float] = {}
        for labels, ts in samples:
            last = newest.get(labels)
            if last is None:
                series = self._series.get(labels)
                last = None if series is None else series.max_time
            if last is not None and ts < last:
                raise StorageError(f"out-of-order sample for {labels}: {ts} < {last}")
            newest[labels] = ts

    def append_array(self, labels: Labels, timestamps, values) -> int:
        """Bulk-append a sorted run of samples to one series.

        The sidecar's block copies and WAL replay ingest whole window
        slices; a strictly increasing run landing after the series'
        current tail extends the sample lists in one slice operation
        (one epoch bump, one snapshot invalidation) instead of a
        per-sample Python loop.  Runs that overlap the tail fall back
        to :meth:`ColumnarSeries.append` semantics sample by sample
        (last-write-wins on duplicates, out-of-order rejected).

        The batch is **all-or-nothing**: ordering is validated before
        any sample is applied, so an out-of-order run raises
        :class:`StorageError` without mutating the store — callers
        that journal after the in-memory apply (the persistent head)
        never diverge from memory on a rejected batch.
        """
        n = len(timestamps)
        if n != len(values):
            raise StorageError("timestamp/value length mismatch")
        if n == 0:
            return 0
        ts_list = [float(t) for t in timestamps]
        vs_list = [float(v) for v in values]
        existing = self._series.get(labels)
        last = existing.max_time if existing is not None else None
        increasing = all(a < b for a, b in zip(ts_list, ts_list[1:]))
        fast_path = increasing and (last is None or ts_list[0] > last)
        if not fast_path:
            # Validate the whole run against series.append semantics
            # (equal-to-tail overwrites, regressions reject) before
            # touching the store, so a bad batch applies nothing.
            run_last = last
            for ts in ts_list:
                if run_last is not None and ts < run_last:
                    raise StorageError(
                        f"out-of-order sample for {labels}: {ts} < {run_last}"
                    )
                run_last = ts
        series = self._get_or_create_series(labels)
        if fast_path:
            series._extend(ts_list, vs_list)
        else:
            for ts, value in zip(ts_list, vs_list):
                series.append(ts, value)
        lo, hi = (ts_list[0], ts_list[-1]) if increasing else (min(ts_list), max(ts_list))
        self._committed(n, lo, hi)
        return n

    # -- append-by-ref (scrape fast lane) ---------------------------------
    def get_ref(self, labels: Labels) -> int:
        """Resolve labels to a stable series ref, creating the series.

        The ref is the scrape cache's handle: resolving once per
        *distinct series text* lets every later sample of that series
        skip label parsing, ``Labels`` hashing and the series-map
        lookup.  Refs stay valid until the series is dropped
        (retention, :meth:`delete_series`); they are never reused, so
        a stale ref is reported dead instead of appending elsewhere.
        """
        return self._get_or_create_series(labels).ref

    def resolve_ref(self, ref: int) -> ColumnarSeries | None:
        """The live series behind ``ref``, or ``None`` if it was dropped."""
        return self._series_by_ref.get(ref)

    def append_refs(
        self, timestamp: float, pairs: Iterable[tuple[int, float]]
    ) -> tuple[int, list[tuple[int, float]]]:
        """Batched same-timestamp append by ref — the scrape hot loop.

        ``pairs`` is read once, so the scrape lane passes a ``zip`` of
        its ref and value columns instead of building a list.

        One scrape cycle appends every sample of a target at the same
        logical instant, so the timestamp comparison, epoch bump and
        time-bound updates are hoisted out of the per-sample loop and
        :meth:`ColumnarSeries.append` is inlined (call overhead matters
        at ~25k samples per Jean-Zay cycle).  Semantics per sample are
        exactly ``ColumnarSeries.append``: later-than-tail extends,
        equal-to-tail overwrites (idempotent re-ingest),
        earlier-than-tail raises.

        Returns ``(appended, dead)`` where ``dead`` holds the
        ``(ref, value)`` pairs whose ref no longer resolves; the
        caller re-resolves those through labels.  A batch with an
        out-of-order sample raises before any sample is applied.
        """
        by_ref = self._series_by_ref
        if self.max_time is not None and timestamp < self.max_time:
            # Some series may end after `timestamp`; at or past the
            # store's newest sample none can, so the hot path skips this.
            pairs = list(pairs)
            live = (by_ref.get(ref) for ref, _value in pairs)
            self._check_order((series.labels, timestamp) for series in live if series is not None)
        dead: list[tuple[int, float]] = []
        count = 0
        # `_last` is a cached Python float, so the ordering check costs
        # one comparison — no numpy scalar boxing per sample — and
        # fresh samples go to the staging lists (flushed vectorised on
        # the next read), so the hot loop never touches a numpy buffer.
        for ref, value in pairs:
            series = by_ref.get(ref)
            if series is None:
                dead.append((ref, value))
                continue
            last = series._last
            if last is not None and last >= timestamp:
                if last > timestamp:
                    raise StorageError(
                        f"out-of-order sample for {series.labels}: {timestamp} < {last}"
                    )
                if series._stage_vs:
                    series._stage_vs[-1] = value
                else:
                    series._vs[series._start + series._len - 1] = value
                series._snapshot = None
                count += 1
                continue
            series._stage_ts.append(timestamp)
            series._stage_vs.append(value)
            series._last = timestamp
            series._snapshot = None
            count += 1
        if count:
            self._committed(count, timestamp, timestamp)
        return count, dead

    # -- exemplars ---------------------------------------------------------
    def append_exemplar(self, labels: Labels, exemplar: Exemplar, scrape_ts: float) -> bool:
        """Store an exemplar for the series identified by ``labels``.

        Callers append the sample first, so the series normally
        exists; creating it here keeps the call safe either way
        (matching Prometheus, where an exemplar append always follows
        a sample append for the same series ref).
        """
        series = self._get_or_create_series(labels)
        return self.exemplars.add(series.ref, series.labels, exemplar, scrape_ts)

    def append_exemplar_ref(
        self, ref: int, labels: Labels, exemplar: Exemplar, scrape_ts: float
    ) -> bool:
        """:meth:`append_exemplar` keyed by ref (the scrape path); a
        dead ref falls back to the labels."""
        series = self._series_by_ref.get(ref)
        if series is None:
            return self.append_exemplar(labels, exemplar, scrape_ts)
        return self.exemplars.add(series.ref, series.labels, exemplar, scrape_ts)

    def select_exemplars(
        self,
        matchers: Sequence[Matcher],
        start: float = float("-inf"),
        end: float = float("inf"),
    ) -> list[tuple[Labels, list[ExemplarRecord]]]:
        return self.exemplars.select(matchers, start, end)

    # -- selection ---------------------------------------------------------
    def select(self, matchers: Sequence[Matcher]) -> list[ColumnarSeries]:
        """All series whose labels satisfy every matcher.

        Equality matchers with non-empty values are resolved through
        the inverted index first; remaining matchers filter the
        candidate set.
        """
        if not matchers:
            raise StorageError("select requires at least one matcher")
        if self.telemetry is not None:
            # child_span is free (yields None) outside a trace, so
            # rule-manager evaluations never mint junk traces.
            with self.telemetry.child_span("tsdb.select", db=self.name) as span:
                result = self._select(matchers)
                if span is not None:
                    span.attrs["series"] = len(result)
                return result
        return self._select(matchers)

    def _select(self, matchers: Sequence[Matcher]) -> list[ColumnarSeries]:
        key = tuple(matchers)
        cached = self._select_cache.get(key)
        if cached is not None:
            self.select_cache_hits += 1
            return cached
        self.select_cache_misses += 1
        series = self._series
        out = [series[k] for k in select_labels(self._index, series, matchers)]
        out.sort(key=BY_LABELS)
        if len(self._select_cache) >= self.SELECT_CACHE_MAX:
            self._select_cache.clear()
            self._select_keys.clear()
        self._select_cache[key] = out
        name = next((m.value for m in key if m.name == METRIC_NAME_LABEL and m.op is MatchOp.EQ), None)
        self._select_keys.setdefault(name, set()).add(key)
        return out

    def memoised_select(self, key: tuple[Matcher, ...]) -> list[ColumnarSeries] | None:
        """The memo's list for matcher tuple ``key``, if it holds one.

        A downstream memo built on the list a select returned may serve
        while this returns that very list: the memo keeps it exactly as
        long as no series it would select comes or goes.  Counts and
        traces nothing.
        """
        return self._select_cache.get(key)

    def _forget_selects_matching(self, labels: Labels) -> None:
        """Drop the memoised selects a created or dropped series would
        be part of; every other cached list is still what an uncached
        select returns."""
        for name in (labels.metric_name, None):
            keys = self._select_keys.get(name)
            # a copy: serving threads may insert meanwhile
            for key in list(keys) if keys else ():
                if match_all(key, labels):
                    keys.discard(key)
                    self._select_cache.pop(key, None)

    def selector_cache_stats(self) -> dict[str, float]:
        """Hit/miss counters of the selector memo (bench observability)."""
        total = self.select_cache_hits + self.select_cache_misses
        return {
            "hits": float(self.select_cache_hits),
            "misses": float(self.select_cache_misses),
            "hit_rate": self.select_cache_hits / total if total else 0.0,
        }

    def has_series(self, labels: Labels) -> bool:
        """Whether a series with exactly these labels exists."""
        return labels in self._series

    def label_values(self, label_name: str) -> list[str]:
        values = {value for (name, value) in self._index if name == label_name and self._index[(name, value)]}
        return sorted(values)

    def metric_names(self) -> list[str]:
        return self.label_values(METRIC_NAME_LABEL)

    # -- maintenance ---------------------------------------------------------
    @property
    def num_series(self) -> int:
        return len(self._series)

    @property
    def num_samples(self) -> int:
        return sum(s.nsamples for s in self._series.values())

    def apply_retention(self, now: float) -> tuple[int, int]:
        """Enforce the retention horizon.

        Returns ``(samples_dropped, series_dropped)``.  Series left
        empty are removed from the index entirely.  A series whose
        oldest sample is inside the horizon has nothing to drop and is
        not searched: most passes drop nothing from most series.  Its
        staged samples stay staged unless there are more than
        :attr:`ColumnarSeries.STAGE_KEPT` — a series no reader flushes
        — so staging stays as bounded as when every pass flushed.
        That flush runs without a horizon too (``retention <= 0``).
        """
        kept = ColumnarSeries.STAGE_KEPT
        if self.retention <= 0:
            for series in self._series.values():
                if len(series._stage_ts) > kept:
                    series._flush()
            return (0, 0)
        cutoff = now - self.retention
        samples_dropped = 0
        empty: list[Labels] = []
        for key, series in self._series.items():
            oldest = series.min_time
            if oldest is not None and oldest >= cutoff:
                if len(series._stage_ts) > kept:
                    series._flush()
                continue
            samples_dropped += series.truncate_before(cutoff)
            if not series.nsamples:
                empty.append(key)
        for key in empty:
            self._drop_series(key)
        if samples_dropped:
            self.data_epoch += 1
            self._recompute_time_bounds()
        return samples_dropped, len(empty)

    def delete_series(self, matchers: Sequence[Matcher]) -> int:
        """Delete whole series matching the matchers (cardinality cleanup).

        Returns the number of series removed.  This is the operation
        behind the paper's TSDB cleanup of short-lived workloads.
        """
        doomed = [s.labels for s in self.select(matchers)]
        for key in doomed:
            self._drop_series(key)
        if doomed:
            self._recompute_time_bounds()
        return len(doomed)

    def _recompute_time_bounds(self) -> None:
        """Refresh ``min_time``/``max_time`` after samples were dropped."""
        self.min_time = min(
            (s.min_time for s in self._series.values() if s.min_time is not None),
            default=None,
        )
        self.max_time = max(
            (s.max_time for s in self._series.values() if s.max_time is not None),
            default=None,
        )

    def _drop_series(self, key: Labels) -> None:
        series = self._series[key]
        del self._series[key]
        # Refs are never reused, so dropping the mapping is enough to
        # invalidate every cached ref to this series: a later
        # append_refs call sees a miss, not a different series.
        self._series_by_ref.pop(series.ref, None)
        for pair in key:
            postings = self._index.get(pair)
            if postings is not None:
                postings.discard(key)
                if not postings:
                    del self._index[pair]
        self.data_epoch += 1
        self._forget_selects_matching(key)

    # -- introspection ----------------------------------------------------
    def cardinality_by_metric(self) -> dict[str, int]:
        """Series count per metric name (the paper's cardinality lens)."""
        out: dict[str, int] = {}
        for key in self._series:
            out[key.metric_name] = out.get(key.metric_name, 0) + 1
        return out

    def all_series(self) -> list[ColumnarSeries]:
        return sorted(self._series.values(), key=BY_LABELS)
