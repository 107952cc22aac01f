"""Disk-backed TSDB head: journal every mutation, replay on open.

:class:`PersistentTSDB` subclasses the in-memory
:class:`~repro.tsdb.storage.TSDB` and adds a write-ahead log:

* every new series writes a SERIES record (ref -> labels), every
  append a SAMPLES record referencing series by ref — the same
  ref-indirection Prometheus's WAL uses so sample records stay small;
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
  the restating CHECKPOINT record arrives (see :meth:`_replay`).

Recovery invariant: after a crash, ``replayed samples == every sample
whose WAL record was fully framed before the crash``; with
``fsync="always"`` that is every acknowledged append, with the
default ``"batch"`` policy at most the unsynced OS-buffer tail is
lost.  Samples older than the last checkpoint live in blocks and are
served through the Thanos fan-out, not the head.
"""

from __future__ import annotations

import json
import struct
import time
from typing import Iterable, Sequence

from repro.common.errors import StorageError
from repro.obs import prof
from repro.obs.registry import Histogram
from repro.tsdb.model import Labels, MatchOp, Matcher
from repro.tsdb.persist.wal import WAL, ReplayResult
from repro.tsdb.storage import TSDB

_REC_SERIES = 1
_REC_SAMPLES = 2
_REC_CHECKPOINT = 3
_REC_TOMBSTONE = 4

_HDR = struct.Struct("<BI")
_SAMPLE = struct.Struct("<Idd")
_CKPT_ENTRY = struct.Struct("<II")


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
        # WAL ref space — distinct from the base class's in-memory
        # series refs (``_next_ref``): WAL refs must survive replay
        # with the exact numbering the log recorded, while series refs
        # restart fresh per process.
        self._refs: dict[Labels, int] = {}
        self._next_wal_ref = 1
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
        self._replaying = False
        started = time.perf_counter()
        with prof.profile("head.replay"):
            self._replay()
        #: How long opening this head spent replaying its WAL.
        self.replay_seconds = time.perf_counter() - started

    # -- WAL replay -----------------------------------------------------------
    def _replay(self) -> None:
        """Rebuild head state from the WAL.

        Checkpoints restate live series in a segment *after* the kept
        tail, so a SAMPLES record may legitimately precede the only
        surviving definition of its ref.  Samples with unknown refs
        are therefore buffered (per ref, in log order) and flushed the
        moment a SERIES/CHECKPOINT record defines that ref; whatever
        is still buffered when the log ends referenced a series that
        was never restated (deleted, or lost to a torn frame) and is
        counted in ``replay_dropped``.
        """
        self._replaying = True
        ref_labels: dict[int, Labels] = {}
        pending: dict[int, list[tuple[int, float, float]]] = {}
        try:
            for segment, payload in self.wal.replay():
                kind = payload[0]
                if kind in (_REC_SERIES, _REC_CHECKPOINT):
                    self._replay_series(payload, ref_labels, pending)
                elif kind == _REC_SAMPLES:
                    self._replay_samples(segment, payload, ref_labels, pending)
                elif kind == _REC_TOMBSTONE:
                    self._replay_tombstone(payload)
                else:
                    self.replay_dropped += 1
        finally:
            self._replaying = False
        self.replay_dropped += sum(len(buffered) for buffered in pending.values())
        self.replay_result = self.wal.last_replay
        self._refs = {labels: ref for ref, labels in ref_labels.items()}
        self._next_wal_ref = max(ref_labels, default=0) + 1

    def _replay_series(
        self,
        payload: bytes,
        ref_labels: dict[int, Labels],
        pending: dict[int, list[tuple[int, float, float]]],
    ) -> None:
        kind, n = _HDR.unpack_from(payload)
        offset = _HDR.size
        if kind == _REC_SERIES:
            labels = Labels(json.loads(payload[offset:].decode("utf-8")))
            ref_labels[n] = labels
            self.replayed_series += 1
            self._flush_pending(n, labels, pending)
            return
        for _ in range(n):
            ref, length = _CKPT_ENTRY.unpack_from(payload, offset)
            offset += _CKPT_ENTRY.size
            labels = Labels(json.loads(payload[offset : offset + length].decode("utf-8")))
            offset += length
            ref_labels[ref] = labels
            self.replayed_series += 1
            self._flush_pending(ref, labels, pending)

    def _flush_pending(
        self,
        ref: int,
        labels: Labels,
        pending: dict[int, list[tuple[int, float, float]]],
    ) -> None:
        """Apply samples that arrived before ``ref``'s definition."""
        for segment, ts, value in pending.pop(ref, ()):
            self._apply_replayed_sample(segment, labels, ts, value)

    def _apply_replayed_sample(
        self, segment: int, labels: Labels, ts: float, value: float
    ) -> None:
        try:
            super().append(labels, ts, value)
        except StorageError:
            self.replay_dropped += 1  # out-of-order relic; skip
            return
        self.replayed_samples += 1
        self._note_segment_time(segment, ts)

    def _replay_samples(
        self,
        segment: int,
        payload: bytes,
        ref_labels: dict[int, Labels],
        pending: dict[int, list[tuple[int, float, float]]],
    ) -> None:
        _, count = _HDR.unpack_from(payload)
        offset = _HDR.size
        for _ in range(count):
            ref, ts, value = _SAMPLE.unpack_from(payload, offset)
            offset += _SAMPLE.size
            labels = ref_labels.get(ref)
            if labels is None:
                # The series definition may still be ahead of us (a
                # checkpoint restated after the kept tail); hold the
                # sample until the ref is defined or the log ends.
                pending.setdefault(ref, []).append((segment, ts, value))
                continue
            self._apply_replayed_sample(segment, labels, ts, value)

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

    def _ref_for(self, labels: Labels) -> int:
        ref = self._refs.get(labels)
        if ref is None:
            ref = self._next_wal_ref
            self._next_wal_ref += 1
            self._refs[labels] = ref
            self.wal.append(
                _HDR.pack(_REC_SERIES, ref) + json.dumps(labels.as_dict()).encode("utf-8")
            )
        return ref

    def _log_samples(self, entries: list[tuple[int, float, float]]) -> None:
        payload = bytearray(_HDR.pack(_REC_SAMPLES, len(entries)))
        for ref, ts, value in entries:
            payload += _SAMPLE.pack(ref, ts, value)
        # append() reports the segment that actually holds the frame;
        # reading current_segment afterwards would mis-attribute the
        # record to the fresh segment when the write triggers an eager
        # cut, letting checkpoint() truncate un-blocked samples.
        segment = self.wal.append(bytes(payload))
        for _ref, ts, _value in entries:
            self._note_segment_time(segment, ts)

    # -- mutations (journal after the in-memory append validates) ---------
    def append(self, labels: Labels, timestamp: float, value: float) -> None:
        super().append(labels, timestamp, value)
        if not self._replaying:
            self._log_samples([(self._ref_for(labels), timestamp, value)])

    def append_array(self, labels: Labels, timestamps, values) -> int:
        count = super().append_array(labels, timestamps, values)
        if count and not self._replaying:
            ref = self._ref_for(labels)
            self._log_samples(
                [(ref, float(t), float(v)) for t, v in zip(timestamps, values)]
            )
        return count

    def append_ref(self, ref: int, timestamp: float, value: float) -> None:
        series = self.resolve_ref(ref)
        if series is None:
            raise StorageError(f"unknown series ref {ref}")
        # Route through append() so the sample is journaled; the extra
        # Labels lookup is the price of durability on this head.
        self.append(series.labels, timestamp, value)

    def append_refs(
        self, timestamp: float, pairs: Iterable[tuple[int, float]]
    ) -> tuple[int, list[tuple[int, float]]]:
        pairs = list(pairs)  # read twice: the head, then the journal
        count, dead = super().append_refs(timestamp, pairs)
        if count and not self._replaying:
            live = self._series_by_ref  # a dead ref is one not in here
            self._log_samples(
                [
                    (self._ref_for(live[ref].labels), timestamp, value)
                    for ref, value in pairs
                    if ref in live
                ]
            )
        return count, dead

    def delete_series(self, matchers: Sequence[Matcher]) -> int:
        deleted = super().delete_series(matchers)
        if deleted and not self._replaying:
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
            live = sorted(self._refs.items(), key=lambda kv: kv[1])
            for labels, ref in live:
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
