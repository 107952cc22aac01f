"""Disk-backed TSDB head: journal every mutation, replay on open.

:class:`PersistentTSDB` subclasses the in-memory
:class:`~repro.tsdb.storage.TSDB` and adds a write-ahead log:

* a series has one ref, in memory and in the log (Prometheus's
  ``HeadSeriesRef``): it gets a SERIES record (ref -> labels) when it
  is created, and every committed batch — a scrape target's body with
  its staleness markers and ``up`` sample, a recording rule's outputs,
  a probe round, a bulk array — is **one** SAMPLES record referencing
  series by that ref, so sample records stay small::

      [u8 kind][u32 n][u32 nt][nt x f64 t][n x u32 ref][n x f64 value]

  ``nt`` is 1 for a batch sharing one timestamp and ``n`` otherwise;
  each record is packed and unpacked with one ``struct`` call.  The
  per-sample layout of earlier versions (kind 2) still replays;
* series deletions write TOMBSTONE records, so cardinality cleanup
  survives a restart;
* opening a head replays its WAL up to the first torn frame and
  resumes appending into a *fresh* segment (a torn tail is never
  extended);
* :meth:`checkpoint` — called by the Thanos sidecar after it cuts a
  block at time ``t`` — re-states every live series in a CHECKPOINT
  record at the head of a new segment, then deletes the contiguous
  prefix of segments whose samples are all older than ``t`` (they are
  durable in blocks).  The WAL therefore holds exactly the
  not-yet-blocked tail plus one series snapshot.  Because that
  snapshot lands *after* the kept tail in segment order, replay
  buffers samples whose ref is not yet defined and flushes them when
  the restating CHECKPOINT record arrives (see :meth:`_replay`).  A
  series the head dropped (deletion, retention) is not live, so no
  checkpoint restates it and its buffered tail samples are counted in
  ``replay_dropped`` instead of bringing it back; its ref is never
  handed out again, not even after a reopen.

Recovery invariant: after a crash, ``replayed samples == every sample
whose WAL record was fully framed before the crash``; with
``fsync="always"`` that is every acknowledged append, with the
default ``"batch"`` policy at most the unsynced OS-buffer tail is
lost.  A batch the in-memory head rejects is not journaled, so memory
and log never disagree about it.  Samples older than the last
checkpoint live in blocks and are served through the Thanos fan-out,
not the head.
"""

from __future__ import annotations

import json
import struct
import time
from typing import Iterable, Iterator, Sequence

from repro.common.errors import StorageError
from repro.obs import prof
from repro.obs.registry import Histogram
from repro.tsdb.model import Labels, MatchOp, Matcher
from repro.tsdb.persist.wal import WAL, ReplayResult
from repro.tsdb.storage import TSDB, ColumnarSeries

_REC_SERIES = 1
#: Samples as ``[u32 ref][f64 t][f64 value]`` triples (earlier versions).
_REC_SAMPLES_V1 = 2
_REC_CHECKPOINT = 3
_REC_TOMBSTONE = 4
_REC_SAMPLES = 5

_HDR = struct.Struct("<BI")
_SAMPLES_HDR = struct.Struct("<BII")
_V1_SAMPLE = struct.Struct("<Idd")
_CKPT_ENTRY = struct.Struct("<II")


def encode_samples(refs: Sequence[int], stamps: Sequence[float], values: Sequence[float]) -> bytes:
    """One SAMPLES record; ``stamps`` holds the batch's one timestamp
    or one timestamp per sample."""
    n, nt = len(refs), len(stamps)
    return struct.pack(f"<BII{nt}d{n}I{n}d", _REC_SAMPLES, n, nt, *stamps, *refs, *values)


def decode_samples(payload: bytes) -> tuple[Sequence[int], Sequence[float], Sequence[float]]:
    """``(refs, timestamps, values)`` of a SAMPLES record of either
    layout, one timestamp per sample."""
    if payload[0] == _REC_SAMPLES_V1:
        return tuple(zip(*_V1_SAMPLE.iter_unpack(payload[_HDR.size :])))
    _, n, nt = _SAMPLES_HDR.unpack_from(payload)
    offset = _SAMPLES_HDR.size + 8 * nt
    stamps = struct.unpack_from(f"<{nt}d", payload, _SAMPLES_HDR.size)
    refs = struct.unpack_from(f"<{n}I", payload, offset)
    values = struct.unpack_from(f"<{n}d", payload, offset + 4 * n)
    return refs, stamps * n if nt == 1 else stamps, values


def _series_entries(payload: bytes) -> Iterator[tuple[int, Labels]]:
    """``(ref, labels)`` defined by a SERIES or CHECKPOINT record."""
    kind, n = _HDR.unpack_from(payload)
    if kind == _REC_SERIES:
        yield n, Labels(json.loads(payload[_HDR.size :]))
        return
    offset = _HDR.size
    for _ in range(n):
        ref, length = _CKPT_ENTRY.unpack_from(payload, offset)
        offset += _CKPT_ENTRY.size
        yield ref, Labels(json.loads(payload[offset : offset + length]))
        offset += length


class PersistentTSDB(TSDB):
    """A TSDB whose head state is recoverable from a segmented WAL."""

    def __init__(
        self,
        persist_dir: str,
        *,
        retention: float = 0.0,
        name: str = "tsdb",
        fsync: str = "batch",
        segment_bytes: int = 4 << 20,
    ) -> None:
        super().__init__(retention=retention, name=name)
        self.persist_dir = persist_dir
        self.wal = WAL(f"{persist_dir}/wal", segment_bytes=segment_bytes, fsync=fsync)
        #: max sample timestamp seen per segment (checkpoint eligibility)
        self._segment_max_time: dict[int, float] = {}
        self.checkpoints = 0
        self.replay_result = ReplayResult()
        self.replayed_samples = 0
        self.replayed_series = 0
        self.replayed_tombstones = 0
        self.replay_dropped = 0
        self.checkpoint_seconds = Histogram(
            "ceems_tsdb_checkpoint_seconds",
            help="Wall seconds per WAL checkpoint/truncation pass.",
        )
        started = time.perf_counter()
        with prof.profile("head.replay"):
            self._replay()
        #: How long opening this head spent replaying its WAL.
        self.replay_seconds = time.perf_counter() - started

    # -- WAL replay -----------------------------------------------------------
    def _replay(self) -> None:
        """Rebuild head state from the WAL.

        Replay applies records through the in-memory base class, so
        nothing it does is journaled again, and a series comes back
        under the ref the log names it by.  Checkpoints restate live
        series in a segment *after* the kept tail, so a SAMPLES record
        may legitimately precede the only surviving definition of its
        ref.  Samples with unknown refs are therefore buffered (per
        ref, in log order) and flushed the moment a SERIES/CHECKPOINT
        record defines that ref; whatever is still buffered when the
        log ends referenced a series that was never restated (dropped,
        or lost to a torn frame) and is counted in ``replay_dropped``.
        """
        ref_labels: dict[int, Labels] = {}
        pending: dict[int, list[tuple[float, float]]] = {}
        unborn: set[int] = set()  # defined refs with no series yet
        for segment, payload in self.wal.replay():
            kind = payload[0]
            if kind in (_REC_SERIES, _REC_CHECKPOINT):
                for ref, labels in _series_entries(payload):
                    ref_labels[ref] = labels
                    self.replayed_series += 1
                    buffered = pending.pop(ref, None)
                    if buffered:
                        self._flush_pending(ref, labels, buffered)
                    elif ref not in self._series_by_ref:
                        unborn.add(ref)
            elif kind in (_REC_SAMPLES, _REC_SAMPLES_V1):
                self._replay_samples(segment, payload, ref_labels, pending, unborn)
            elif kind == _REC_TOMBSTONE:
                self._replay_tombstone(payload)
            else:
                self.replay_dropped += 1
        self.replay_dropped += sum(len(buffered) for buffered in pending.values())
        self.replay_result = self.wal.last_replay
        # Past the orphans too: their samples stay in the kept tail, and
        # a new series under one of their refs would inherit them.
        self._next_ref = max((*ref_labels, *pending), default=0) + 1

    def _replay_samples(
        self,
        segment: int,
        payload: bytes,
        ref_labels: dict[int, Labels],
        pending: dict[int, list[tuple[float, float]]],
        unborn: set[int],
    ) -> None:
        refs, stamps, values = decode_samples(payload)
        self._note_segment_time(segment, max(stamps))
        if unborn and not unborn.isdisjoint(refs):
            for ref in unborn.intersection(refs):
                self._live_under(ref, ref_labels[ref])
            unborn.difference_update(refs)
        labels = list(map(ref_labels.get, refs))
        if None not in labels:
            self._apply_replayed(list(zip(labels, stamps, values)))
            return
        batch = []
        for ref, series_labels, ts, value in zip(refs, labels, stamps, values):
            if series_labels is None:
                # The series definition may still be ahead of us (a
                # checkpoint restated after the kept tail).
                pending.setdefault(ref, []).append((ts, value))
            else:
                batch.append((series_labels, ts, value))
        self._apply_replayed(batch)

    def _live_under(self, ref: int, labels: Labels) -> None:
        """Make the series ``labels`` live under its logged ``ref``."""
        series = self._series.get(labels)
        if series is None:
            super()._create_series(labels, ref)
        elif series.ref != ref:
            # Retention dropped the series (unjournaled) and the log
            # created it again: the newer ref names it from now on.
            del self._series_by_ref[series.ref]
            series.ref = ref
            self._series_by_ref[ref] = series

    def _flush_pending(self, ref: int, labels: Labels, buffered: list[tuple[float, float]]) -> None:
        """Apply the samples held for a ref its definition just named —
        one series' run in log order, so usually one array append."""
        self._live_under(ref, labels)
        stamps, values = zip(*buffered)
        try:
            self.replayed_samples += super().append_array(labels, stamps, values)
        except StorageError:
            self._apply_replayed([(labels, ts, value) for ts, value in buffered])

    def _apply_replayed(self, batch: list[tuple[Labels, float, float]]) -> None:
        """Apply replayed samples as one batch or, when one of them is
        an out-of-order relic, one by one, counting the relics."""
        try:
            self.replayed_samples += super().append_many(batch)
        except StorageError:
            for sample in batch:
                try:
                    self.replayed_samples += super().append_many([sample])
                except StorageError:
                    self.replay_dropped += 1

    def _replay_tombstone(self, payload: bytes) -> None:
        matchers = [
            Matcher(m["name"], MatchOp(m["op"]), m["value"])
            for m in json.loads(payload[1:].decode("utf-8"))
        ]
        super().delete_series(matchers)
        self.replayed_tombstones += 1

    # -- journaling helpers ------------------------------------------------
    def _note_segment_time(self, segment: int, ts: float) -> None:
        prev = self._segment_max_time.get(segment)
        if prev is None or ts > prev:
            self._segment_max_time[segment] = ts

    def _log_samples(self, refs: Sequence[int], stamps: Sequence[float], values: Sequence[float]) -> None:
        # append() reports the segment that actually holds the frame;
        # reading current_segment afterwards would mis-attribute the
        # record to the fresh segment when the write triggers an eager
        # cut, letting checkpoint() truncate un-blocked samples.
        segment = self.wal.append(encode_samples(refs, stamps, values))
        self._note_segment_time(segment, max(stamps))

    # -- mutations (journal after the in-memory change validates) ---------
    def _create_series(self, labels: Labels, ref: int) -> ColumnarSeries:
        series = super()._create_series(labels, ref)
        self.wal.append(_HDR.pack(_REC_SERIES, ref) + json.dumps(labels.as_dict()).encode("utf-8"))
        return series

    def append_many(self, batch: Iterable[tuple[Labels, float, float]]) -> int:
        batch = list(batch)
        count = super().append_many(batch)
        if count:
            keys, stamps, values = zip(*batch)
            series = self._series
            refs = [series[labels].ref for labels in keys]
            self._log_samples(refs, stamps[:1] if stamps.count(stamps[0]) == count else stamps, values)
        return count

    def append_array(self, labels: Labels, timestamps, values) -> int:
        count = super().append_array(labels, timestamps, values)
        if count:
            self._log_samples((self._series[labels].ref,) * count, timestamps, values)
        return count

    def append_refs(
        self, timestamp: float, pairs: Iterable[tuple[int, float]]
    ) -> tuple[int, list[tuple[int, float]]]:
        pairs = list(pairs)
        count, dead = super().append_refs(timestamp, pairs)
        if count:
            if dead:
                # Not applied: the caller re-resolves them by labels.
                live = self._series_by_ref
                pairs = [pair for pair in pairs if pair[0] in live]
            refs, values = zip(*pairs)
            self._log_samples(refs, (timestamp,), values)
        return count, dead

    def delete_series(self, matchers: Sequence[Matcher]) -> int:
        deleted = super().delete_series(matchers)
        if deleted:
            doc = [{"name": m.name, "op": m.op.value, "value": m.value} for m in matchers]
            self.wal.append(bytes([_REC_TOMBSTONE]) + json.dumps(doc).encode("utf-8"))
        return deleted

    # -- checkpointing -----------------------------------------------------
    def checkpoint(self, before_time: float) -> int:
        """Truncate WAL history older than ``before_time``.

        The sidecar calls this after cutting a block at
        ``before_time``: every sample with ``t < before_time`` is now
        durable in a block.  A CHECKPOINT record restating all live
        series opens a fresh segment, then the contiguous prefix of
        segments whose max sample time is below the horizon is
        deleted.  Returns the number of segments removed.
        """
        started = time.perf_counter()
        with prof.profile("head.checkpoint"):
            entries = bytearray()
            live = sorted((ref, series.labels) for ref, series in self._series_by_ref.items())
            for ref, labels in live:
                encoded = json.dumps(labels.as_dict()).encode("utf-8")
                entries += _CKPT_ENTRY.pack(ref, len(encoded)) + encoded
            fresh = self.wal.cut_segment()
            self.wal.append(_HDR.pack(_REC_CHECKPOINT, len(live)) + bytes(entries))
            self.wal.sync()
            keep_from = fresh
            for index in self.wal.segment_indices():
                if index >= fresh:
                    break
                max_time = self._segment_max_time.get(index)
                if max_time is not None and max_time >= before_time:
                    keep_from = index
                    break
            removed = self.wal.truncate_before(keep_from)
            for index in list(self._segment_max_time):
                if index < keep_from:
                    del self._segment_max_time[index]
            self.checkpoints += 1
        self.checkpoint_seconds.observe(time.perf_counter() - started)
        return removed

    def close(self) -> None:
        self.wal.close()

    # -- observability -----------------------------------------------------
    def register_metrics(self, registry) -> None:
        """Expose WAL/persistence counters on a component's registry."""
        wal = self.wal
        registry.gauge_func(
            "ceems_tsdb_wal_records_total",
            lambda: float(wal.records_written),
            help="Records framed into the head WAL.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_tsdb_wal_bytes_written_total",
            lambda: float(wal.bytes_written),
            help="Bytes framed into the head WAL.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_tsdb_wal_fsyncs_total",
            lambda: float(wal.fsyncs),
            help="fsync calls issued by the head WAL.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_tsdb_wal_checkpoints_total",
            lambda: float(self.checkpoints),
            help="WAL checkpoint/truncation passes (one per block cut).",
            type="counter",
        )
        registry.gauge_func(
            "ceems_tsdb_wal_segments",
            lambda: float(len(wal.segment_indices())),
            help="Live WAL segment files.",
        )
        registry.gauge_func(
            "ceems_tsdb_wal_replayed_records_total",
            lambda: float(self.replay_result.records),
            help="WAL records replayed when this head opened.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_tsdb_wal_replayed_samples_total",
            lambda: float(self.replayed_samples),
            help="Samples recovered into the head at open.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_tsdb_wal_replay_torn",
            lambda: 1.0 if self.replay_result.torn else 0.0,
            help="Whether the last replay stopped at a torn frame.",
        )
        registry.gauge_func(
            "ceems_tsdb_wal_replay_seconds",
            lambda: float(self.replay_seconds),
            help="Wall seconds this head spent replaying its WAL at open.",
        )
        registry.collector(wal.fsync_seconds.collect)
        registry.collector(self.checkpoint_seconds.collect)
