"""Durable storage engine: codec, WAL, blocks, crash recovery.

Covers the four layers of :mod:`repro.tsdb.persist` plus the wiring
through the Thanos sidecar/store/compactor and the full simulation:

* Gorilla chunk codec — bit-identical roundtrips for adversarial
  inputs (NaN payloads, ±inf, signed zeros, counter wraps, irregular
  and non-monotone timestamps);
* segmented WAL — CRC framing, segment cuts, and a property-style
  torn-frame test that truncates the log at seeded random byte
  offsets and asserts recovery is exactly the fully-framed prefix;
* on-disk blocks — write/read roundtrip, CRC detection, atomic
  staging;
* :class:`PersistentTSDB` — replay on open, checkpoint truncation,
  tombstones, one SAMPLES record per committed batch (torn tails
  recover whole batches, records of the per-sample layout still
  replay, rejected batches leave memory and log alone), a reopen
  differential against the in-memory TSDB, and the kill-and-reopen
  simulation with WAL replay surfaced in ``/metrics``.
"""

from __future__ import annotations

import json
import os
import random
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.common.httpx import App, Request, Response
from repro.tsdb import exposition
from repro.tsdb.model import Labels, MatchOp, Matcher
from repro.tsdb.persist import (
    WAL,
    BlockReader,
    PersistentTSDB,
    decode_chunk,
    encode_chunk,
    list_block_ulids,
    write_block,
)
from repro.tsdb.persist.bits import BitReader, BitWriter
from repro.tsdb.persist.head import _series_entries, decode_samples
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.scrape import ScrapeManager, ScrapeTarget
from repro.tsdb.storage import TSDB
from repro.thanos.compact import Compactor, _downsample_series
from repro.thanos.query import FanoutStorage
from repro.thanos.sidecar import Sidecar
from repro.thanos.store import RESOLUTIONS, ObjectStore
from tests.reference.list_head import ListHeadPersistentTSDB, ListHeadTSDB


def bits_of(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def contents(db: TSDB) -> dict:
    """Every series holding samples, as bit patterns by labels."""
    return {s.labels: (bits_of(s.timestamps), bits_of(s.values)) for s in db.all_series() if s.nsamples}


def assert_bit_identical(expected_ts, expected_vs, got_ts, got_vs):
    assert bits_of(expected_ts) == bits_of(got_ts)
    assert bits_of(expected_vs) == bits_of(got_vs)


class TestBitIO:
    def test_roundtrip_mixed_widths(self):
        writer = BitWriter()
        fields = [(1, 1), (0b101, 3), (0xDEADBEEF, 32), (0, 7), ((1 << 66) - 3, 66)]
        for value, width in fields:
            writer.write_bits(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in fields:
            assert reader.read_bits(width) == value

    def test_exhausted_stream_raises(self):
        reader = BitReader(b"\xff")
        reader.read_bits(8)
        with pytest.raises(StorageError):
            reader.read_bit()


class TestChunkCodec:
    def test_regular_cadence_roundtrip_and_compression(self):
        ts = [1.7e9 + 15.0 * i for i in range(120)]
        vs = [42.0] * 120
        encoded = encode_chunk(ts, vs)
        assert_bit_identical(ts, vs, *decode_chunk(encoded))
        # constant value + steady cadence ≈ 1 bit/sample each way
        assert len(encoded) < 16 * 120 / 10

    def test_counter_wrap(self):
        ts = [1.7e9 + 15.0 * i for i in range(200)]
        vs = [float((1 << 32) - 100 + i * 7) % float(1 << 32) for i in range(200)]
        assert_bit_identical(ts, vs, *decode_chunk(encode_chunk(ts, vs)))

    def test_adversarial_values(self):
        quiet_nan = struct.unpack(">d", struct.pack(">Q", 0x7FF8000000000123))[0]
        ts = [0.0, 1e-300, 1.0, 1e300, 1.7e9]
        vs = [float("nan"), float("inf"), float("-inf"), -0.0, quiet_nan]
        got_ts, got_vs = decode_chunk(encode_chunk(ts, vs))
        assert_bit_identical(ts, vs, got_ts, got_vs)
        # the NaN payload survived, not just "some NaN"
        assert bits_of(got_vs)[4] == 0x7FF8000000000123

    def test_irregular_and_negative_timestamps(self):
        rng = random.Random(11)
        ts = [rng.uniform(-1e9, 1e9) for _ in range(300)]
        vs = [rng.uniform(-1e12, 1e12) for _ in range(300)]
        assert_bit_identical(ts, vs, *decode_chunk(encode_chunk(ts, vs)))

    def test_empty_and_single(self):
        assert decode_chunk(encode_chunk([], []))[0].size == 0
        assert_bit_identical([5.5], [float("nan")], *decode_chunk(encode_chunk([5.5], [float("nan")])))

    def test_length_mismatch_and_overflow(self):
        with pytest.raises(StorageError):
            encode_chunk([1.0], [])
        with pytest.raises(StorageError):
            encode_chunk(list(range(70000)), list(range(70000)))


class TestWAL:
    def test_replay_roundtrip_across_segments(self, tmp_path):
        wal = WAL(str(tmp_path / "wal"), segment_bytes=64)
        payloads = [f"record-{i}".encode() for i in range(20)]
        for p in payloads:
            wal.append(p)
        wal.close()
        assert len(wal.segment_indices()) > 1
        replayed = [p for _seg, p in WAL(str(tmp_path / "wal")).replay()]
        assert replayed == payloads

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            WAL(str(tmp_path / "wal"), fsync="sometimes")

    def test_fresh_segment_after_reopen(self, tmp_path):
        wal = WAL(str(tmp_path / "wal"))
        wal.append(b"one")
        wal.close()
        wal2 = WAL(str(tmp_path / "wal"))
        wal2.append(b"two")
        wal2.close()
        assert len(wal2.segment_indices()) == 2

    def test_truncate_before_keeps_open_segment(self, tmp_path):
        wal = WAL(str(tmp_path / "wal"), segment_bytes=16)
        for i in range(8):
            wal.append(b"x" * 10)
        wal.close()
        indices = wal.segment_indices()
        removed = wal.truncate_before(indices[-1])
        assert removed == len(indices) - 1
        assert wal.segment_indices() == [indices[-1]]

    def test_torn_frame_property(self, tmp_path):
        """Truncate at random byte offsets: recovery is exactly the
        fully-framed prefix, never garbage, never an exception."""
        rng = random.Random(1234)
        payloads = [bytes([i]) * rng.randint(1, 40) for i in range(30)]
        frame_ends = []
        offset = 0
        for p in payloads:
            offset += 8 + len(p)
            frame_ends.append(offset)
        for _trial in range(12):
            path = tmp_path / f"wal-{_trial}"
            wal = WAL(str(path), segment_bytes=1 << 20, fsync="never")
            for p in payloads:
                wal.append(p)
            wal.close()
            segment = os.path.join(str(path), "00000001.wal")
            cut = rng.randint(1, os.path.getsize(segment) - 1)
            with open(segment, "r+b") as fh:
                fh.truncate(cut)
            reader = WAL(str(path))
            survivors = [p for _seg, p in reader.replay()]
            expected = sum(1 for end in frame_ends if end <= cut)
            assert survivors == payloads[:expected]
            assert reader.last_replay.torn == (cut not in frame_ends)

    def test_append_reports_segment_holding_frame(self, tmp_path):
        wal = WAL(str(tmp_path / "wal"), segment_bytes=16)
        # The frame overflows the segment, so append cuts eagerly —
        # but the record lives in segment 1, not the fresh segment.
        assert wal.append(b"x" * 32) == 1
        assert wal.current_segment == 2
        wal.close()

    def test_crc_corruption_stops_replay(self, tmp_path):
        wal = WAL(str(tmp_path / "wal"))
        for i in range(5):
            wal.append(f"rec{i}".encode())
        wal.close()
        segment = os.path.join(str(tmp_path / "wal"), "00000001.wal")
        with open(segment, "r+b") as fh:
            fh.seek(8 + 4 + 8 + 2)  # inside the second record's payload
            fh.write(b"\xff")
        reader = WAL(str(tmp_path / "wal"))
        assert [p for _seg, p in reader.replay()] == [b"rec0"]
        assert reader.last_replay.torn


def series_labels(i: int) -> Labels:
    return Labels({"__name__": "metric", "idx": str(i)})


class TestBlock:
    def _series(self):
        ts = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        vs = np.array([1.0, float("nan"), float("inf"), -0.0, 99.0])
        return [(series_labels(0), ts, vs), (series_labels(1), ts + 10.0, vs * 2)]

    def test_write_read_roundtrip_multichunk(self, tmp_path):
        meta = write_block(
            str(tmp_path), "B1", self._series(), min_time=0.0, max_time=20.0, chunk_samples=2
        )
        assert meta["stats"]["numSeries"] == 2
        assert meta["stats"]["numChunks"] == 6  # ceil(5/2) per series
        reader = BlockReader(str(tmp_path), "B1")
        got = list(reader.series())
        for (labels, ts, vs), (glabels, gts, gvs) in zip(self._series(), got):
            assert labels == glabels
            assert_bit_identical(ts, vs, gts, gvs)

    def test_chunk_corruption_detected(self, tmp_path):
        write_block(str(tmp_path), "B2", self._series(), min_time=0.0, max_time=20.0)
        chunk_file = tmp_path / "B2" / "chunks" / "000001"
        data = bytearray(chunk_file.read_bytes())
        data[12] ^= 0xFF
        chunk_file.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="CRC"):
            list(BlockReader(str(tmp_path), "B2").series())

    def test_staged_write_is_atomic(self, tmp_path):
        write_block(str(tmp_path), "B3", self._series(), min_time=0.0, max_time=20.0)
        assert list_block_ulids(str(tmp_path)) == ["B3"]
        os.makedirs(tmp_path / "B9.tmp")  # a crashed half-write
        assert list_block_ulids(str(tmp_path)) == ["B3"]

    def test_duplicate_ulid_rejected(self, tmp_path):
        write_block(str(tmp_path), "B4", self._series(), min_time=0.0, max_time=20.0)
        with pytest.raises(StorageError, match="already exists"):
            write_block(str(tmp_path), "B4", self._series(), min_time=0.0, max_time=20.0)


class TestPersistentTSDB:
    def test_reopen_recovers_everything(self, tmp_path):
        head = PersistentTSDB(str(tmp_path / "hot"), name="hot")
        for i in range(3):
            for t in range(50):
                head.append(series_labels(i), 100.0 + t, float(i * 1000 + t))
        head.append(series_labels(0), 200.0, float("nan"))  # stale marker survives
        head.close()

        reopened = PersistentTSDB(str(tmp_path / "hot"), name="hot")
        assert reopened.num_series == 3
        assert reopened.num_samples == head.num_samples
        for orig, got in zip(head.all_series(), reopened.all_series()):
            assert orig.labels == got.labels
            assert_bit_identical(orig.timestamps, orig.values, got.timestamps, got.values)
        assert reopened.replay_result.records > 0
        assert not reopened.replay_result.torn

    def test_append_array_journaled(self, tmp_path):
        head = PersistentTSDB(str(tmp_path / "hot"))
        ts = np.arange(10, dtype=np.float64)
        vs = np.linspace(0.0, 1.0, 10)
        assert head.append_array(series_labels(0), ts, vs) == 10
        head.close()
        reopened = PersistentTSDB(str(tmp_path / "hot"))
        got = reopened.all_series()[0]
        assert_bit_identical(ts, vs, got.timestamps, got.values)

    def test_tombstone_survives_reopen(self, tmp_path):
        head = PersistentTSDB(str(tmp_path / "hot"))
        head.append(series_labels(0), 1.0, 1.0)
        head.append(series_labels(1), 1.0, 2.0)
        assert head.delete_series([Matcher.eq("idx", "0")]) == 1
        head.close()
        reopened = PersistentTSDB(str(tmp_path / "hot"))
        assert reopened.num_series == 1
        assert reopened.all_series()[0].labels.get("idx") == "1"

    def test_torn_wal_loses_only_unflushed_tail(self, tmp_path):
        """Property-style crash test: truncate the WAL at a seeded
        random byte offset mid-write, reopen, and assert the recovered
        samples are exactly a prefix of what was appended."""
        rng = random.Random(4242)
        appended = []
        head = PersistentTSDB(str(tmp_path / "hot"), fsync="never")
        for t in range(400):
            value = rng.choice([rng.uniform(-1e6, 1e6), float("nan"), float("inf")])
            head.append(series_labels(t % 4), float(t), value)
            appended.append((t % 4, float(t), value))
        head.close()
        wal_dir = str(tmp_path / "hot" / "wal")
        segment = os.path.join(wal_dir, sorted(os.listdir(wal_dir))[-1])
        size = os.path.getsize(segment)
        with open(segment, "r+b") as fh:
            fh.truncate(rng.randint(size // 2, size - 1))

        reopened = PersistentTSDB(str(tmp_path / "hot"))
        assert reopened.replay_result.torn
        recovered = []
        for series in reopened.all_series():
            idx = int(series.labels.get("idx"))
            for t, v in zip(series.timestamps, series.values):
                recovered.append((idx, t, v))
        recovered.sort(key=lambda r: r[1])
        prefix = appended[: len(recovered)]
        assert len(recovered) < len(appended)
        assert bits_of([r[2] for r in recovered]) == bits_of([p[2] for p in prefix])
        assert [(r[0], r[1]) for r in recovered] == [(p[0], p[1]) for p in prefix]

    def test_checkpoint_truncates_wal(self, tmp_path):
        head = PersistentTSDB(str(tmp_path / "hot"), segment_bytes=256)
        for t in range(200):
            head.append(series_labels(0), float(t), float(t))
        before = len(head.wal.segment_indices())
        removed = head.checkpoint(150.0)
        assert removed > 0
        assert len(head.wal.segment_indices()) < before
        head.append(series_labels(0), 500.0, 1.0)
        head.close()
        # Only the tail beyond the checkpoint horizon (plus the
        # boundary segment) replays; the series itself survives via
        # the checkpoint record even though its early segments are gone.
        reopened = PersistentTSDB(str(tmp_path / "hot"))
        assert reopened.num_series == 1
        assert reopened.all_series()[0].max_time == 500.0
        assert min(reopened.all_series()[0].timestamps) >= 150.0 - 256 / 29  # boundary slack

    def test_checkpoint_preserves_unblocked_tail(self, tmp_path):
        """Samples newer than the horizon survive reopen even though
        their SERIES record was truncated with the early segments: the
        restating CHECKPOINT record replays *after* the kept tail, so
        replay buffers the tail samples until their ref is defined."""
        head = PersistentTSDB(str(tmp_path / "hot"), segment_bytes=256)
        for t in range(100):
            head.append(series_labels(0), float(t), float(t))
        assert head.checkpoint(90.0) > 0
        head.close()
        reopened = PersistentTSDB(str(tmp_path / "hot"))
        assert reopened.num_series == 1
        assert reopened.replay_dropped == 0
        got = reopened.all_series()[0].timestamps
        assert [t for t in got if t >= 90.0] == [float(t) for t in range(90, 100)]

    def test_segment_time_attributed_to_holding_segment(self, tmp_path):
        head = PersistentTSDB(str(tmp_path / "hot"), segment_bytes=64)
        head.append(series_labels(0), 1000.0, 1.0)
        # SERIES + SAMPLES frames overflow the tiny segment, so the
        # WAL cut eagerly after the write; the sample must still be
        # tracked under the segment holding its record, or a later
        # checkpoint could truncate un-blocked data.
        [(segment, max_time)] = head._segment_max_time.items()
        assert max_time == 1000.0
        assert segment < head.wal.current_segment
        head.close()

    def test_append_array_out_of_order_is_all_or_nothing(self, tmp_path):
        head = PersistentTSDB(str(tmp_path / "hot"))
        head.append(series_labels(0), 10.0, 1.0)
        with pytest.raises(StorageError, match="out-of-order"):
            head.append_array(series_labels(0), [11.0, 12.0, 5.0], [1.0, 2.0, 3.0])
        # Nothing from the rejected batch was applied in memory...
        assert head.all_series()[0].timestamps == [10.0]
        head.close()
        # ...so memory and WAL agree after a restart.
        reopened = PersistentTSDB(str(tmp_path / "hot"))
        assert reopened.num_samples == 1
        assert reopened.all_series()[0].timestamps == [10.0]

    def test_fsync_always_counts(self, tmp_path):
        head = PersistentTSDB(str(tmp_path / "hot"), fsync="always")
        head.append(series_labels(0), 1.0, 1.0)
        head.append(series_labels(0), 2.0, 2.0)
        assert head.wal.fsyncs >= 3  # series record + two sample records
        head.close()

    def test_each_batch_is_one_record(self, tmp_path):
        head = PersistentTSDB(str(tmp_path / "hot"))
        refs = [head.get_ref(series_labels(i)) for i in range(64)]
        head.append_refs(0.0, [(ref, 1.0) for ref in refs])  # 64 SERIES + 1 SAMPLES
        records, written = head.wal.records_written, head.wal.bytes_written
        head.append_refs(15.0, [(ref, 2.0) for ref in refs])
        # frame header 8 + [kind][n][nt] 9 + one timestamp 8 + 64 x (4 + 8)
        assert head.wal.records_written - records == 1
        assert head.wal.bytes_written - written == 8 + 9 + 8 + 64 * 12
        records = head.wal.records_written
        head.append_many([(series_labels(i), 30.0 + i % 2, float(i)) for i in range(5)])
        head.append_array(series_labels(0), [40.0, 41.0], [1.0, 2.0])
        head.append(series_labels(1), 50.0, 3.0)
        assert head.wal.records_written - records == 3
        head.close()
        reopened = PersistentTSDB(str(tmp_path / "hot"))
        assert contents(reopened) == contents(head)
        assert reopened.replay_result.records == records + 3

    def test_rejected_append_refs_batch_applies_nothing(self, tmp_path):
        head = PersistentTSDB(str(tmp_path / "hot"))
        r1, r2 = head.get_ref(series_labels(1)), head.get_ref(series_labels(2))
        head.append_refs(10.0, [(r1, 1.0)])
        head.append_refs(20.0, [(r2, 2.0)])
        records = head.wal.records_written
        with pytest.raises(StorageError, match="out-of-order"):
            head.append_refs(15.0, [(r1, 5.0), (r2, 6.0)])
        assert head.resolve_ref(r1).timestamps == [10.0]
        assert head.samples_ingested == head.num_samples == 2
        assert head.max_time == 20.0
        assert head.wal.records_written == records
        head.close()
        assert contents(PersistentTSDB(str(tmp_path / "hot"))) == contents(head)

    def test_rejected_append_many_batch_applies_nothing(self, tmp_path):
        head = PersistentTSDB(str(tmp_path / "hot"))
        head.append(series_labels(2), 20.0, 2.0)
        before = contents(head)
        records = head.wal.records_written
        for batch in (
            [(series_labels(1), 15.0, 5.0), (series_labels(2), 15.0, 6.0)],  # behind a series' tail
            [(series_labels(3), 30.0, 5.0), (series_labels(3), 25.0, 6.0)],  # behind the batch's own sample
        ):
            with pytest.raises(StorageError, match="out-of-order"):
                head.append_many(batch)
        assert contents(head) == before
        assert head.num_series == 1 and head.samples_ingested == 1
        assert head.wal.records_written == records

    def test_deleted_series_stays_deleted_after_checkpoint_and_reopen(self, tmp_path):
        """A checkpoint restates live series only: the kept-tail samples
        of a deleted series are counted as dropped on replay instead of
        bringing the series back."""
        head = PersistentTSDB(str(tmp_path / "hot"), segment_bytes=256)
        x, y = Labels({"__name__": "m", "idx": "x"}), Labels({"__name__": "m", "idx": "y"})
        for t in range(100):
            head.append(x, float(t), float(t))
            head.append(y, float(t), float(t))
        head.delete_series([Matcher.eq("idx", "x")])
        for t in range(100, 150):
            head.append(y, float(t), float(t))
        assert head.checkpoint(90.0) > 0
        head.close()
        reopened = PersistentTSDB(str(tmp_path / "hot"))
        assert not reopened.has_series(x)
        assert reopened.replay_dropped > 0  # x's samples in the kept tail
        (series,) = reopened.all_series()
        assert [t for t in series.timestamps if t >= 90.0] == [float(t) for t in range(90, 150)]

    def test_orphaned_wal_ref_is_not_reused_after_reopen(self, tmp_path):
        """The deleted series holds the highest WAL ref and its SERIES
        record is truncated while its samples stay in the kept tail: a
        series created after a reopen must not take that ref, or the
        next reopen hands it the orphaned samples."""
        head = PersistentTSDB(str(tmp_path / "hot"), segment_bytes=256)
        y, x, w = (Labels({"__name__": "m", "idx": idx}) for idx in "yxw")
        for t in range(100):
            head.append(y, float(t), float(t))
            head.append(x, float(t), float(t))
        y_ref, x_ref = head.get_ref(y), head.get_ref(x)
        head.delete_series([Matcher.eq("idx", "x")])
        for t in range(100, 150):
            head.append(y, float(t), float(t))
        assert head.checkpoint(90.0) > 0
        head.close()
        logged = set()
        for _segment, payload in WAL(head.wal.path).replay():
            if payload[0] in (1, 3):
                logged.update(ref for ref, _labels in _series_entries(payload))
            elif payload[0] == 5:
                logged.update(decode_samples(payload)[0])
        reopened = PersistentTSDB(str(tmp_path / "hot"))
        # The head's ref is the log's: y comes back under it, and a new
        # series gets a ref above every logged one, x's orphans included.
        assert x_ref in logged and x_ref > y_ref
        assert reopened.get_ref(y) == y_ref
        assert reopened.get_ref(w) > max(logged)
        reopened.append(w, 150.0, 1.0)
        reopened.close()
        again = PersistentTSDB(str(tmp_path / "hot"))
        assert again.get_ref(y) == y_ref and again.get_ref(w) == reopened.get_ref(w)
        assert again.resolve_ref(again.get_ref(w)).timestamps == [150.0]
        assert not again.has_series(x)
        assert again.replay_dropped == reopened.replay_dropped > 0

    def test_stale_markers_ride_in_the_scrape_record(self, tmp_path, monkeypatch):
        """A scrape whose layout rebuild stale-marks N series — one of
        them recreated because its ref died — journals its body, the N
        markers and ``up`` as one SAMPLES record, not 1 + N."""
        head = PersistentTSDB(str(tmp_path / "hot"))
        jobs = [f"job-{i}" for i in range(5)]

        def body(_request):
            family = exposition.MetricFamily("power_watts", type="gauge")
            family.add(100.0, hostname="n0")
            for uuid in jobs:
                family.add(50.0, hostname="n0", uuid=uuid)
            return Response.text(exposition.render([family]))

        app = App("fake")
        app.router.get("/metrics", body)
        manager = ScrapeManager(head)
        manager.add_target(ScrapeTarget(app=app, instance="n0:9010"))
        manager.scrape_all(15.0)
        manager.scrape_all(30.0)
        head.delete_series([Matcher.eq("uuid", "job-0")])
        kinds = []
        append = head.wal.append
        monkeypatch.setattr(head.wal, "append", lambda payload: kinds.append(payload[0]) or append(payload))
        identity = {"__name__": "power_watts", "hostname": "n0", "instance": "n0:9010", "job": "ceems"}
        gone = [Labels({**identity, "uuid": uuid}) for uuid in jobs]
        jobs.clear()
        manager.scrape_all(45.0)
        assert kinds == [1, 5]  # job-0's SERIES record, then the scrape's batch
        for labels in gone:
            ts, vs = head._series[labels].arrays()
            assert ts[-1] == 45.0 and np.isnan(vs[-1])
        head.close()
        assert contents(PersistentTSDB(str(tmp_path / "hot"))) == contents(head)

    def test_retention_forgets_the_wal_ref(self, tmp_path):
        head = PersistentTSDB(str(tmp_path / "hot"), retention=50.0, segment_bytes=256)
        head.append(series_labels(0), 0.0, 1.0)
        for t in range(1, 120):
            head.append(series_labels(1), float(t), float(t))
        head.apply_retention(now=119.0)
        assert not head.has_series(series_labels(0))
        head.checkpoint(69.0)
        checkpoint = [p for _s, p in WAL(head.wal.path).replay() if p[0] == 3]
        assert b'"idx": "0"' not in checkpoint[-1] and b'"idx": "1"' in checkpoint[-1]
        head.close()

    def test_retention_dropped_series_replays_under_its_newest_ref(self, tmp_path):
        """Retention is not journaled: a series it dropped that came
        back under a new ref replays as one series under the newer ref,
        so a later checkpoint restates the ref its kept-tail samples
        carry instead of orphaning them."""
        path = str(tmp_path / "hot")
        head = PersistentTSDB(path, retention=50.0, segment_bytes=256)
        x, y = series_labels(0), series_labels(1)
        head.append(x, 0.0, 0.0)
        for t in range(1, 100):
            head.append(y, float(t), float(t))
        head.apply_retention(99.0)
        assert not head.has_series(x)
        for t in range(100, 200):
            head.append(x, float(t), float(t))
        x_ref = head.get_ref(x)
        head.close()
        reopened = PersistentTSDB(path, retention=50.0, segment_bytes=256)
        assert reopened.get_ref(x) == x_ref
        reopened.apply_retention(199.0)
        assert reopened.checkpoint(150.0) > 0
        reopened.close()
        again = PersistentTSDB(path, retention=50.0, segment_bytes=256)
        kept = again.resolve_ref(again.get_ref(x)).timestamps
        assert [t for t in kept if t >= 150.0] == [float(t) for t in range(150, 200)]

    def test_per_sample_records_still_replay(self, tmp_path):
        """A WAL of the earlier per-sample SAMPLES layout (kind 2) opens,
        and new batches append after it."""
        wal = WAL(str(tmp_path / "hot" / "wal"))
        for ref, idx in ((1, 0), (2, 1)):
            wal.append(struct.pack("<BI", 1, ref) + json.dumps(series_labels(idx).as_dict()).encode())
        triples = [(1, 10.0, 1.5), (2, 10.0, float("nan")), (1, 20.0, -0.0), (2, 20.0, float("inf"))]
        wal.append(struct.pack("<BI", 2, len(triples)) + b"".join(struct.pack("<Idd", *t) for t in triples))
        wal.append(struct.pack("<BI", 2, 1) + struct.pack("<Idd", 1, 30.0, 7.0))
        wal.close()
        head = PersistentTSDB(str(tmp_path / "hot"))
        assert head.replayed_samples == 5 and head.replay_dropped == 0
        assert contents(head) == {
            series_labels(0): (bits_of([10.0, 20.0, 30.0]), bits_of([1.5, -0.0, 7.0])),
            series_labels(1): (bits_of([10.0, 20.0]), bits_of([float("nan"), float("inf")])),
        }
        head.append_refs(40.0, [(head.get_ref(series_labels(i)), 8.0) for i in (0, 1)])
        head.close()
        assert contents(PersistentTSDB(str(tmp_path / "hot"))) == contents(head)

    def test_torn_wal_recovers_whole_batches(self, tmp_path):
        """Every batch — ``append_refs`` with dead and duplicate refs,
        ``append_many`` over several timestamps, ``append_array``, one
        ``append`` — is one record: a log cut at any byte recovers the
        state after exactly the batches whose record is whole."""
        rng = random.Random(2929)
        head = PersistentTSDB(str(tmp_path / "hot"), fsync="never")
        values = [0.5, -0.0, float("nan"), float("inf"), -1e300, 42.0]
        states, ends = [contents(head)], [0]
        dead: list[int] = []
        for step in range(1, 150):
            t = float(step)
            kind = rng.choice(("refs", "refs", "many", "array", "append", "delete"))
            idx = rng.sample(range(6), 3)
            if kind == "refs":
                refs = [head.get_ref(series_labels(i)) for i in idx]
                pairs = [(ref, rng.choice(values)) for ref in refs + refs[:1] + dead[-2:]]
                rng.shuffle(pairs)
                head.append_refs(t, pairs)
            elif kind == "many":
                head.append_many([(series_labels(i), t + k / 4, rng.choice(values)) for k, i in enumerate(idx)])
            elif kind == "array":
                head.append_array(series_labels(idx[0]), [t, t + 0.25, t + 0.5], [rng.choice(values) for _ in range(3)])
            elif kind == "append":
                head.append(series_labels(idx[0]), t, rng.choice(values))
            else:
                dead.append(head.get_ref(series_labels(idx[0])))
                head.delete_series([Matcher.eq("idx", str(idx[0]))])
            states.append(contents(head))
            ends.append(head.wal.bytes_written)
        head.close()
        (segment,) = head.wal.segment_indices()
        with open(os.path.join(head.wal.path, f"{segment:08d}.wal"), "rb") as fh:
            log = fh.read()
        assert len(log) == ends[-1]
        for trial in range(25):
            cut = rng.randint(1, len(log) - 1)
            wal_dir = tmp_path / f"cut{trial}" / "wal"
            wal_dir.mkdir(parents=True)
            (wal_dir / "00000001.wal").write_bytes(log[:cut])
            reopened = PersistentTSDB(str(tmp_path / f"cut{trial}"))
            whole = max(i for i, end in enumerate(ends) if end <= cut)
            assert contents(reopened) == states[whole], cut
            reopened.close()


_VALUES = st.floats(width=64) | st.sampled_from([-0.0, float("nan"), float("inf")])
_IDX = st.integers(0, 2)
_REFS = st.tuples(
    st.just("refs"),
    st.integers(-2, 3),
    # False: the ref held since the labels were last resolved
    st.lists(st.tuples(_IDX, st.sampled_from([False, False, True]), _VALUES), min_size=1, max_size=5),
)
#: One operation on both stores; time only moves forward, except the
#: small negative offsets that make some batches out of order.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _IDX, st.integers(0, 3), _VALUES),
        st.tuples(st.just("many"), st.lists(st.tuples(_IDX, st.integers(-2, 3), _VALUES), min_size=1, max_size=4)),
        st.tuples(st.just("array"), _IDX, st.integers(1, 6), _VALUES),
        _REFS,
        _REFS,
        st.tuples(st.just("delete"), _IDX),
        st.tuples(st.just("retention")),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("reopen")),
    ),
    min_size=20,
    max_size=60,
)


class TestReopenDifferential:
    """A :class:`PersistentTSDB` closed and reopened at random points
    must hold, bit for bit, what an in-memory :class:`TSDB` fed the same
    operations holds.

    Retention is not journaled (a restarted Prometheus re-applies it
    too), so a reopened head re-applies the last retention horizon; a
    checkpoint first applies retention on both sides and then truncates
    at that horizon, as the sidecar does once the older samples are in
    blocks.  ``refs`` appends by ref, each ref either freshly resolved
    or the one held since the labels were last resolved — dead once
    their series was dropped, and forgotten, like a scrape layout, by a
    reopen.

    Mutation checks made while writing this (each fails
    ``test_reopen_matches_memory``): replay creating a series through
    the journaling ``_create_series`` instead of the base class's, so
    each reopen defines its replayed refs again at the log's end;
    ``append_many`` writing
    ``nt=1`` for a batch over several timestamps.
    """

    RETENTION = 8.0

    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS)
    def test_reopen_matches_memory(self, ops):
        with tempfile.TemporaryDirectory() as root:
            self._run(ops, root)

    def _open(self, root: str) -> PersistentTSDB:
        return PersistentTSDB(root, retention=self.RETENTION, fsync="never", segment_bytes=160)

    def _run(self, ops, root: str) -> None:
        memory, head = TSDB(retention=self.RETENTION), self._open(root)
        held: dict[int, dict[int, int]] = {id(memory): {}, id(head): {}}
        now, retained_at = 0.0, None

        def both(apply):
            """Run ``apply(db)`` on the two stores; they must agree on
            whether it raised."""
            outcomes = []
            for db in (memory, head):
                try:
                    apply(db)
                    outcomes.append(None)
                except StorageError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]

        def ref(db, idx: int, fresh: bool) -> int:
            refs = held[id(db)]
            if fresh or idx not in refs:
                refs[idx] = db.get_ref(series_labels(idx))
            return refs[idx]

        for op in ops:
            kind = op[0]
            if kind == "append":
                _, idx, step, value = op
                now += step
                both(lambda db: db.append(series_labels(idx), now, value))
            elif kind == "many":
                batch = [(series_labels(idx), now + offset, value) for idx, offset, value in op[1]]
                now = max(now, max(ts for _labels, ts, _value in batch))
                both(lambda db: db.append_many(batch))
            elif kind == "array":
                _, idx, n, value = op
                stamps = [now + 1 + k for k in range(n)]
                now = stamps[-1]
                both(lambda db: db.append_array(series_labels(idx), stamps, [value + k for k in range(n)]))
            elif kind == "refs":
                _, offset, entries = op
                at = now + offset
                now = max(now, at)
                both(lambda db: db.append_refs(at, [(ref(db, idx, fresh), value) for idx, fresh, value in entries]))
            elif kind == "delete":
                both(lambda db: db.delete_series([Matcher.eq("idx", str(op[1]))]))
            elif kind in ("retention", "checkpoint"):
                retained_at = now
                both(lambda db: db.apply_retention(now))
                if kind == "checkpoint":
                    head.checkpoint(now - self.RETENTION)
            else:
                head.close()
                head = self._open(root)
                if retained_at is not None:
                    head.apply_retention(retained_at)
                held = {id(memory): {}, id(head): {}}
            assert contents(head) == contents(memory), op
        head.close()
        reopened = self._open(root)
        if retained_at is not None:
            reopened.apply_retention(retained_at)
        assert contents(reopened) == contents(memory)
        reopened.close()


class TestStorePersistence:
    def _fill(self, store: ObjectStore, hot: TSDB, hours: float = 4.5):
        for i in range(3):
            for t in range(int(hours * 4)):
                hot.append(series_labels(i), t * 900.0, float(i + t))

    def test_sidecar_writes_real_blocks(self, tmp_path):
        hot = TSDB(name="hot")
        store = ObjectStore(persist_dir=str(tmp_path / "store"))
        self._fill(store, hot)
        sidecar = Sidecar(hot, store)
        uploaded = sidecar.upload(now=4.5 * 3600.0)
        assert uploaded == 2
        ulids = list_block_ulids(str(tmp_path / "store"))
        assert len(ulids) == 2
        meta = BlockReader(str(tmp_path / "store"), ulids[0]).meta
        assert meta["resolution"] == "raw"
        assert meta["stats"]["numSeries"] == 3
        assert store.persisted_blocks == 2
        assert store.compression_ratio() > 1.0

    def test_half_open_window_boundaries(self, tmp_path):
        hot = TSDB(name="hot")
        # one sample exactly on each boundary of the first 2 h window
        hot.append(series_labels(0), 0.0, 1.0)
        hot.append(series_labels(0), 7200.0, 2.0)
        hot.append(series_labels(0), 7205.0, 3.0)
        store = ObjectStore()
        Sidecar(hot, store).upload(now=2 * 3600.0)
        (series,) = store.select_at("raw", [])
        # t=0 included (closed left), t=7200 excluded (open right)
        assert series.timestamps == [0.0]

    def test_store_reload_roundtrip(self, tmp_path):
        hot = TSDB(name="hot")
        store = ObjectStore(persist_dir=str(tmp_path / "store"))
        self._fill(store, hot)
        Sidecar(hot, store).upload(now=4.5 * 3600.0)

        reloaded = ObjectStore(persist_dir=str(tmp_path / "store"))
        assert reloaded.loaded_blocks == 2
        assert len(reloaded.blocks_at("raw")) == 2
        # the oracle: the hot TSDB's own samples of the two shipped windows
        orig = sorted(hot.all_series(), key=lambda s: tuple(s.labels))
        assert len(orig) == 3
        for got in (store.window_series("raw", 0.0, 1e9), reloaded.window_series("raw", 0.0, 1e9)):
            got = list(got)
            assert [labels for labels, _ts, _vs in got] == [a.labels for a in orig]
            for a, (_labels, ts, vs) in zip(orig, got):
                assert_bit_identical(*a.window_half_open(0.0, 4 * 3600.0), ts, vs)
        # ULID sequence resumes past the loaded blocks
        assert reloaded.new_ulid() not in {b.ulid for b in reloaded.blocks}

    def test_drop_block_removes_directory(self, tmp_path):
        hot = TSDB(name="hot")
        store = ObjectStore(persist_dir=str(tmp_path / "store"))
        self._fill(store, hot)
        Sidecar(hot, store).upload(now=4.5 * 3600.0)
        ulid = store.blocks_at("raw")[0].ulid
        store.drop_block(ulid)
        assert ulid not in list_block_ulids(str(tmp_path / "store"))

    def test_compactor_rewrites_blocks_on_disk(self, tmp_path):
        hot = TSDB(name="hot")
        store = ObjectStore(persist_dir=str(tmp_path / "store"))
        for i in range(2):
            for t in range(17 * 4):
                hot.append(series_labels(i), t * 900.0, float(t))
        Sidecar(hot, store).upload(now=17 * 3600.0)
        compactor = Compactor(store)
        merged = compactor.compact_blocks()
        assert merged > 0
        merged_blocks = [b for b in store.blocks_at("raw") if b.level == 2]
        assert merged_blocks
        on_disk = set(list_block_ulids(str(tmp_path / "store")))
        assert {b.ulid for b in store.blocks_at("raw")} <= on_disk
        for block in merged_blocks:
            for source in block.source_ulids:
                assert source not in on_disk
            meta = BlockReader(str(tmp_path / "store"), block.ulid).meta
            assert meta["compaction"]["level"] == 2
            assert tuple(meta["compaction"]["sources"]) == block.source_ulids

    def test_downsample_persists_and_resumes(self, tmp_path):
        hot = TSDB(name="hot")
        store = ObjectStore(persist_dir=str(tmp_path / "store"))
        for t in range(8 * 240):
            hot.append(series_labels(0), t * 30.0, float(t % 7))
        Sidecar(hot, store).upload(now=8 * 3600.0)
        compactor = Compactor(store, downsample_5m_after=3600.0)
        now = 8 * 3600.0
        compactor.downsample(now)
        five_m = store.blocks_at("5m")
        assert len(five_m) == 1
        reloaded = ObjectStore(persist_dir=str(tmp_path / "store"))
        produced = {
            labels: (ts.tobytes(), vs.tobytes())
            for labels, ts, vs in store.window_series("5m", 0.0, 1e9)
        }
        assert len(produced) == 3  # mean, :min, :max
        assert produced == {
            labels: (ts.tobytes(), vs.tobytes())
            for labels, ts, vs in reloaded.window_series("5m", 0.0, 1e9)
        }
        # a reopened compactor resumes after the persisted 5m block
        compactor2 = Compactor(reloaded, downsample_5m_after=3600.0)
        assert compactor2._downsampled_until["5m"] == five_m[0].max_time
        compactor2.downsample(now)
        assert len(reloaded.blocks_at("5m")) == 1  # nothing re-produced

    def test_crash_mid_compaction_does_not_double_history(self, tmp_path, monkeypatch):
        """Killed after the merged block is on disk but before its
        sources are gone: the reopened store serves every sample once
        and deletes the leftover sources (Thanos's sources rule)."""
        root = str(tmp_path / "store")
        hot = TSDB(name="hot")
        for t in range(0, 8 * 3600, 120):
            hot.append(series_labels(0), float(t), float(t))
        store = ObjectStore(persist_dir=root)
        Sidecar(hot, store).upload(now=8 * 3600.0)
        sources = {b.ulid for b in store.blocks}
        assert len(sources) == 4

        def killed(_ulid):
            raise RuntimeError("killed mid-compaction")

        monkeypatch.setattr(store, "drop_block", killed)
        with pytest.raises(RuntimeError):
            Compactor(store).compact_blocks()
        on_disk = set(list_block_ulids(root))
        assert sources < on_disk and len(on_disk) == 5

        reopened = ObjectStore(persist_dir=root)
        (merged,) = reopened.blocks
        assert merged.level == 2 and set(merged.source_ulids) == sources
        assert set(list_block_ulids(root)) == {merged.ulid}
        (series,) = reopened.select_at("raw", [])
        (orig,) = hot.all_series()
        assert_bit_identical(*orig.arrays(), *series.arrays())
        engine = PromQLEngine(FanoutStorage(TSDB(), reopened))
        (sample,) = engine.query("count_over_time(metric[1h])", at=4 * 3600.0).vector
        assert sample.value == 31.0  # what a clean compaction serves
        # the next pass has nothing left to merge twice
        Compactor(reopened).compact_blocks()
        assert [b.ulid for b in reopened.blocks] == [merged.ulid]


class TestSimulationCrashRecovery:
    @pytest.fixture()
    def persist_dir(self, tmp_path):
        return str(tmp_path / "persist")

    def _simulation(self, persist_dir):
        from repro.cluster import StackSimulation, small_topology
        from repro.cluster.simulation import SimulationConfig

        return StackSimulation(
            small_topology(cpu_nodes=1, gpu_nodes=0),
            SimulationConfig(
                persist_dir=persist_dir,
                with_workload=False,
                n_prom_backends=1,
            ),
        )

    def test_kill_and_reopen_preserves_flushed_samples(self, persist_dir):
        sim = self._simulation(persist_dir)
        sim.run(2.5 * 3600.0)  # past one 2 h block cut
        assert sim.object_store.persisted_blocks >= 1
        matcher = [Matcher.name_eq("ceems_cpu_seconds_total")]
        original = {
            tuple(s.labels): (list(s.timestamps), list(s.values))
            for s in sim.engine.storage.select(matcher)
        }
        assert original
        sim.hot_tsdb.wal.sync()  # flush the tail, then "kill" (no close)

        revived = self._simulation(persist_dir)
        assert revived.hot_tsdb.replay_result.records > 0
        fanout = FanoutStorage(revived.hot_tsdb, revived.object_store)
        for key, (ts, vs) in original.items():
            got = [s for s in fanout.select(matcher) if tuple(s.labels) == key]
            assert len(got) == 1
            assert_bit_identical(ts, vs, got[0].timestamps, got[0].values)

    def test_wal_replay_surfaced_in_metrics(self, persist_dir):
        sim = self._simulation(persist_dir)
        sim.run(1800.0)
        resp = sim.prom_apis[0].app.handle(Request(method="GET", path="/metrics"))
        body = resp.body if isinstance(resp.body, str) else resp.body.decode()
        assert "ceems_tsdb_wal_records_total" in body
        assert "ceems_tsdb_wal_fsyncs_total" in body
        assert "ceems_thanos_block_compression_ratio" in body
        sim.hot_tsdb.wal.sync()

        revived = self._simulation(persist_dir)
        revived.run(60.0)
        resp = revived.prom_apis[0].app.handle(Request(method="GET", path="/metrics"))
        body = resp.body if isinstance(resp.body, str) else resp.body.decode()
        replayed = [
            line
            for line in body.splitlines()
            if line.startswith("ceems_tsdb_wal_replayed_records_total")
        ]
        assert replayed and float(replayed[0].split()[-1]) > 0

    def test_clock_resumes_after_recovered_tail(self, persist_dir):
        sim = self._simulation(persist_dir)
        sim.run(1800.0)
        last = sim.hot_tsdb.max_time
        sim.hot_tsdb.wal.sync()
        revived = self._simulation(persist_dir)
        assert revived.now > last


class TestConfigWiring:
    def test_stack_config_carries_persist_dir(self, tmp_path):
        from repro.common.config import StackConfig
        from repro.cluster.simulation import SimulationConfig

        path = tmp_path / "stack.yml"
        path.write_text("tsdb:\n  persist_dir: /data/ceems\n")
        stack = StackConfig.load_file(str(path))
        assert stack.tsdb.persist_dir == "/data/ceems"
        cfg = SimulationConfig.from_stack_config(stack)
        assert cfg.persist_dir == "/data/ceems"

    def test_cli_persist_info(self, tmp_path):
        import io

        from repro.cli import main

        head = PersistentTSDB(str(tmp_path / "hot"))
        head.append(series_labels(0), 1.0, 2.0)
        head.close()
        out = io.StringIO()
        assert main(["persist-info", str(tmp_path)], out=out) == 0
        assert "samples recovered: 1" in out.getvalue()

    def test_cli_persist_info_reports_replay_drops_and_bytes(self, tmp_path):
        import io

        from repro.cli import main

        head = PersistentTSDB(str(tmp_path / "hot"), segment_bytes=256)
        for t in range(100):
            head.append_many([(series_labels(0), float(t), 1.0), (series_labels(1), float(t), 2.0)])
        head.delete_series([Matcher.eq("idx", "0")])
        head.checkpoint(90.0)
        head.close()
        reopened = PersistentTSDB(str(tmp_path / "hot"))
        assert reopened.replay_dropped > 0
        per_sample = reopened.replay_result.bytes_read / reopened.replayed_samples
        reopened.close()
        out = io.StringIO()
        assert main(["persist-info", str(tmp_path)], out=out) == 0
        assert f"samples dropped at replay: {reopened.replay_dropped}\n" in out.getvalue()
        assert f"wal bytes per recovered sample: {per_sample:.2f}\n" in out.getvalue()

    def test_cli_persist_info_missing(self, tmp_path):
        import io

        from repro.cli import main

        assert main(["persist-info", str(tmp_path / "nope")], out=io.StringIO()) == 1


class TestHeadLayoutParity:
    """Columnar ring-buffer head vs list head, driven in lockstep.

    Every mutation the TSDB supports runs against the production head
    and the list-head oracle (``tests/reference/list_head.py``); after
    each phase the two heads must hold bit-identical ``arrays()`` and
    answer windows identically.  The WAL test extends the lockstep
    across a restart: both layouts replay the same journal and must
    converge on the same state.
    """

    @staticmethod
    def _both(**kwargs) -> dict[str, TSDB]:
        return {
            "list": ListHeadTSDB(name="list", **kwargs),
            "columnar": TSDB(name="columnar", **kwargs),
        }

    @staticmethod
    def _assert_identical(dbs):
        listed = {hl: sorted(db.all_series(), key=lambda s: tuple(s.labels)) for hl, db in dbs.items()}
        assert len(listed["list"]) == len(listed["columnar"])
        for a, b in zip(listed["list"], listed["columnar"]):
            assert a.labels == b.labels
            assert_bit_identical(*a.arrays(), *b.arrays())
            for win in ((-1e9, 1e9), (1000.0, 5000.0), (1515.0, 1515.0)):
                aw, bw = a.window(*win), b.window(*win)
                assert_bit_identical(aw[0], aw[1], bw[0], bw[1])
                ah, bh = a.window_half_open(*win), b.window_half_open(*win)
                assert_bit_identical(ah[0], ah[1], bh[0], bh[1])
            assert a.at_or_before(4321.0, 300.0) == b.at_or_before(4321.0, 300.0)
            assert (a.nsamples, a.min_time, a.max_time) == (b.nsamples, b.min_time, b.max_time)

    def test_lockstep_mutation_sequence(self):
        dbs = self._both()
        rng = np.random.default_rng(11)
        labels = [series_labels(i) for i in range(4)]
        # phase 1: interleaved appends (forces ring growth past 64)
        for t in range(300):
            for i, lb in enumerate(labels):
                v = float(rng.standard_normal()) + i
                for db in dbs.values():
                    db.append(lb, 15.0 * t, v)
        self._assert_identical(dbs)
        # phase 2: equal-timestamp overwrite of the tail
        for db in dbs.values():
            db.append(labels[0], 15.0 * 299, 123.456)
        self._assert_identical(dbs)
        # phase 3: out-of-order rejected with the identical message
        errors = {}
        for hl, db in dbs.items():
            with pytest.raises(StorageError) as exc:
                db.append(labels[0], 10.0, 1.0)
            errors[hl] = str(exc.value)
        assert errors["list"] == errors["columnar"]
        self._assert_identical(dbs)  # failed append mutated nothing
        # phase 4: bulk append_array + ref-based scrape appends
        bulk_ts = [15.0 * t for t in range(300, 420)]
        bulk_vs = [float(v) for v in rng.standard_normal(120)]
        refs = {}
        for hl, db in dbs.items():
            db.append_array(labels[1], bulk_ts, bulk_vs)
            refs[hl] = [db.get_ref(lb) for lb in labels]
        for t in range(420, 480):
            for hl, db in dbs.items():
                db.append_refs(15.0 * t, [(r, float(t % 17)) for r in refs[hl]])
        self._assert_identical(dbs)
        # phase 5: retention trim
        for db in dbs.values():
            db.retention = 3600.0
            db.apply_retention(now=15.0 * 480)
        self._assert_identical(dbs)
        # phase 6: delete one series
        for db in dbs.values():
            db.delete_series([Matcher("idx", MatchOp.EQ, "2")])
        assert {tuple(s.labels) for s in dbs["list"].all_series()} == {
            tuple(s.labels) for s in dbs["columnar"].all_series()
        }
        self._assert_identical(dbs)
        assert dbs["list"].num_samples == dbs["columnar"].num_samples

    def test_wal_restart_parity(self, tmp_path):
        classes = {"list": ListHeadPersistentTSDB, "columnar": PersistentTSDB}
        dbs = {hl: cls(str(tmp_path / hl)) for hl, cls in classes.items()}
        for t in range(150):
            for i in range(3):
                for db in dbs.values():
                    db.append(series_labels(i), 30.0 * t, float(i * 1000 + t))
        for db in dbs.values():
            db.close()
        reopened = {hl: cls(str(tmp_path / hl)) for hl, cls in classes.items()}
        self._assert_identical(reopened)
        # replayed samples landed in the series kind each head creates
        from repro.tsdb.storage import ColumnarSeries

        assert all(isinstance(s, ColumnarSeries) for s in reopened["columnar"].all_series())
        assert not any(isinstance(s, ColumnarSeries) for s in reopened["list"].all_series())
        for db in reopened.values():
            db.close()


class _CountingMatcher(Matcher):
    """A regex matcher that counts how many label sets it is asked about."""

    calls = 0

    def matches(self, labels) -> bool:
        type(self).calls += 1
        return super().matches(labels)


class TestChunkIndexPostings:
    """``ChunkIndex.select`` narrows through equality postings before
    any residual (regex / negation) matcher runs."""

    @staticmethod
    def _index(nseries: int = 2000):
        from repro.tsdb.persist.chunkio import ChunkIndex, TailChunk

        def chunk(t0: float):
            return TailChunk(np.array([t0, t0 + 15.0]), np.array([1.0, 2.0]))

        # 4 metrics x 50 uuids x 10 hosts: __name__ postings hold 500
        # series, uuid postings 40, their intersection 10.
        labels = [
            Labels({"__name__": f"m{i % 4}", "uuid": str(i // 4 % 50), "host": f"n{i // 200}"})
            for i in range(nseries)
        ]
        index = ChunkIndex(name="t")
        index.add_block("old", [(lb, [chunk(0.0)]) for lb in labels[: nseries // 2 + 100]])
        index.add_block("new", [(lb, [chunk(7200.0)]) for lb in labels[nseries // 2 - 100 :]])
        return index, labels

    def test_cold_select_tests_residuals_on_narrowed_candidates_only(self):
        index, labels = self._index()
        assert index.num_series == 2000
        _CountingMatcher.calls = 0
        # The regex comes FIRST: a linear scan would ask it about
        # every one of the 2000 block series.
        matchers = [
            _CountingMatcher("host", MatchOp.RE, "n[0-4]"),
            Matcher.name_eq("m3"),
            Matcher.eq("uuid", "7"),
        ]
        got = index.select(matchers)
        smaller_posting = sum(1 for lb in labels if lb.get("uuid") == "7")
        assert smaller_posting == 40
        assert 0 < _CountingMatcher.calls <= smaller_posting
        expected = sorted(
            (lb for lb in labels if all(m.matches(lb) for m in matchers)), key=tuple
        )
        assert [s.labels for s in got] == expected and expected
        # a repeat is a memo hit: no matcher runs at all
        _CountingMatcher.calls = 0
        assert index.select(matchers) is got
        assert _CountingMatcher.calls == 0

    def test_series_spanning_blocks_collect_every_blocks_chunks(self):
        index, labels = self._index()
        straddler = labels[1000]  # registered under both blocks
        (series,) = index.select([Matcher.eq(k, v) for k, v in straddler])
        assert series.timestamps == [0.0, 15.0, 7200.0, 7215.0]
        assert len(index.all_series()) == 2000

    def test_remove_block_retracts_postings(self):
        index, labels = self._index()
        generation = index.generation
        assert index.remove_block("old") and not index.remove_block("old")
        assert index.generation > generation
        assert index.num_series == 1100  # what "new" alone holds
        only_old, straddler = labels[0], labels[1000]
        assert index.select([Matcher.eq(k, v) for k, v in only_old]) == []
        (series,) = index.select([Matcher.eq(k, v) for k, v in straddler])
        assert series.timestamps == [7200.0, 7215.0]
        assert index.label_values("host") == {f"n{i}" for i in range(4, 10)}
        index.remove_block("new")
        assert index.num_series == 0 and index.all_series() == []
        assert index.label_values("host") == set()
        assert index._postings == {}


class TestLazyStore:
    """Decode-on-demand store: mmap chunk files, LRU, query parity.

    A ``persist_dir`` makes the store chunk-backed ("lazy"); the
    oracle ("eager") is the store without one, whose blocks hold the
    same windows fully decoded in memory.
    """

    def _build(self, tmp_path, lazy: bool = True) -> ObjectStore:
        hot = TSDB(name="hot")
        for i in range(3):
            for t in range(18 * 4):
                hot.append(series_labels(i), t * 900.0, float(i * 100 + t))
        store = ObjectStore(persist_dir=str(tmp_path / "store")) if lazy else ObjectStore()
        Sidecar(hot, store).upload(now=18 * 3600.0)
        return store

    def test_open_decodes_nothing_then_only_overlapping_chunks(self, tmp_path):
        """Opening a populated directory reads indexes only, and a
        window query then decodes just the chunks overlapping it."""
        from repro.tsdb.persist.chunk import DEFAULT_CHUNK_SAMPLES
        from repro.tsdb.persist.chunkio import DECODE_CACHE, DECODE_CACHE_STATS

        self._build(tmp_path)
        DECODE_CACHE.clear()
        before = dict(DECODE_CACHE_STATS)
        reopened = ObjectStore(persist_dir=str(tmp_path / "store"))
        assert reopened.loaded_blocks == 9
        assert DECODE_CACHE_STATS == before  # no chunk touched by open
        (series,) = reopened.select_at("raw", [Matcher("idx", MatchOp.EQ, "1")])
        assert DECODE_CACHE_STATS == before  # nor by select
        lo, hi = 5 * 3600.0, 5.5 * 3600.0
        # `_build` ships 2 h blocks of one sample per 900 s: each block
        # holds one chunk per series, so a window decodes one chunk per
        # block it overlaps.
        assert 7200.0 / 900.0 <= DEFAULT_CHUNK_SAMPLES
        blocks = reopened.blocks_at("raw")
        overlapping = sum(1 for b in blocks if b.min_time <= hi and lo < b.max_time)
        assert 1 <= overlapping < len(blocks)
        ts, _vs = series.window(lo, hi)
        assert ts.tolist() == [lo, lo + 900.0, hi]
        assert DECODE_CACHE_STATS["misses"] - before["misses"] == overlapping

    def test_lazy_select_matches_eager(self, tmp_path):
        eager = self._build(tmp_path / "eager", lazy=False)
        lazy = self._build(tmp_path / "lazy")
        all_m = [Matcher("__name__", MatchOp.EQ, "metric")]
        for matchers in (all_m, [Matcher("idx", MatchOp.EQ, "1")]):
            e = {s.labels: s for s in eager.select_at("raw", matchers)}
            l = {s.labels: s for s in lazy.select_at("raw", matchers)}
            assert set(e) == set(l)
            for k in e:
                assert_bit_identical(*e[k].arrays(), *l[k].arrays())

    def test_window_series_matches_eager(self, tmp_path):
        eager = self._build(tmp_path / "eager", lazy=False)
        lazy = self._build(tmp_path / "lazy")
        lo, hi = 4 * 3600.0, 9 * 3600.0
        e = {k: (ts.tobytes(), vs.tobytes()) for k, ts, vs in eager.window_series("raw", lo, hi)}
        l = {k: (ts.tobytes(), vs.tobytes()) for k, ts, vs in lazy.window_series("raw", lo, hi)}
        assert e == l

    def test_lazy_reopen_matches_original(self, tmp_path):
        store = self._build(tmp_path)
        reloaded = ObjectStore(persist_dir=str(tmp_path / "store"))
        orig = {s.labels: s for s in store.select_at("raw", [Matcher("__name__", MatchOp.EQ, "metric")])}
        got = {s.labels: s for s in reloaded.select_at("raw", [Matcher("__name__", MatchOp.EQ, "metric")])}
        assert set(orig) == set(got)
        for k in orig:
            assert_bit_identical(*orig[k].arrays(), *got[k].arrays())

    def test_pruned_read_decodes_only_overlapping_chunks(self, tmp_path):
        from repro.tsdb.persist.chunkio import DECODE_CACHE, DECODE_CACHE_STATS

        store = self._build(tmp_path)
        DECODE_CACHE.clear()
        before = dict(DECODE_CACHE_STATS)
        series = {s.labels: s for s in store.select_at("raw", [Matcher("__name__", MatchOp.EQ, "metric")])}
        target = series[series_labels(0)]
        ts, vs = target.query_window_arrays(5 * 3600.0, 5.5 * 3600.0)
        decoded = DECODE_CACHE_STATS["misses"] - before["misses"]
        # 72 samples/block-window never spans more than 2 block chunks
        assert decoded <= 2
        lo = np.searchsorted(ts, 5 * 3600.0, side="left")
        hi = np.searchsorted(ts, 5.5 * 3600.0, side="right")
        assert ts[lo:hi].size  # the pruned superset covers the window
        # a repeat read hits the LRU, no fresh decodes
        before = dict(DECODE_CACHE_STATS)
        target.query_window_arrays(5 * 3600.0, 5.5 * 3600.0)
        assert DECODE_CACHE_STATS["misses"] == before["misses"]

    def test_drop_block_unregisters_chunks_and_closes_reader(self, tmp_path):
        store = self._build(tmp_path)
        ulid = store.blocks_at("raw")[0].ulid
        total_before = sum(
            len(s.timestamps) for s in store.select_at("raw", [Matcher("__name__", MatchOp.EQ, "metric")])
        )
        store.drop_block(ulid)
        assert ulid not in list_block_ulids(str(tmp_path / "store"))
        total_after = sum(len(s.timestamps) for s in store.select_at("raw", [Matcher("__name__", MatchOp.EQ, "metric")]))
        assert total_after < total_before

    def test_chunk_file_crc_detected_on_read(self, tmp_path):
        from repro.tsdb.persist.block import ChunkFile

        store = self._build(tmp_path)
        ulid = store.blocks_at("raw")[0].ulid
        block_dir = os.path.join(str(tmp_path / "store"), ulid)
        chunk_path = os.path.join(block_dir, "chunks", "000001")
        with open(chunk_path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        cf = ChunkFile(chunk_path)
        with pytest.raises(StorageError, match="CRC mismatch"):
            # the flipped bit lives in the last frame; walk frames to it
            offset = 0
            while True:
                header = cf._mm[offset : offset + 8]
                if len(header) < 8:
                    raise AssertionError("corrupt frame not reached")
                (length,) = struct.unpack_from("<I", header, 0)
                cf.payload(offset, length)
                offset += 8 + length
        cf.close()

    def test_decode_cache_eviction_counter(self, tmp_path, monkeypatch):
        from repro.tsdb.persist.chunkio import DECODE_CACHE, DECODE_CACHE_STATS

        store = self._build(tmp_path)
        # restored after the test: the cache is process-wide
        monkeypatch.setattr(DECODE_CACHE, "max_chunks", 1)
        DECODE_CACHE.clear()
        before = dict(DECODE_CACHE_STATS)
        for s in store.select_at("raw", [Matcher("__name__", MatchOp.EQ, "metric")]):
            s.arrays()
        assert DECODE_CACHE_STATS["evictions"] > before["evictions"]
        assert len(DECODE_CACHE._entries) <= 1


class TestStoreDifferential:
    """One hot TSDB shipped through sidecar, compaction, downsampling
    and retention into a store without a ``persist_dir``, a store with
    one, and that store reopened.  All three hold the same ledger and
    serve bit-identical reads at every resolution; the oracle outside
    the stores is the hot TSDB's own ``window_half_open``."""

    HOUR = 3600.0
    END = 30 * HOUR
    RAW_RETENTION = 20 * HOUR

    def _hot(self) -> TSDB:
        rng = np.random.default_rng(7)
        hot = TSDB(name="hot")
        for t in np.arange(0.0, self.END, 60.0):
            t = float(t)
            for i in range(4):
                if (i == 1 and 11 * self.HOUR <= t < 12 * self.HOUR) or (i == 2 and t < 5 * self.HOUR):
                    continue  # a gap; a series born mid-history
                if i == 3 and t >= 9 * self.HOUR:
                    continue  # a series that ends
                hot.append(series_labels(i), t, float(rng.normal(100.0 * i, 7.0)))
            if t == 13 * self.HOUR:
                hot.append(series_labels(0), t + 30.0, float("nan"))  # stale marker
        return hot

    def _ship(self, hot: TSDB, store: ObjectStore) -> ObjectStore:
        sidecar = Sidecar(hot, store)
        compactor = Compactor(store, downsample_5m_after=2 * self.HOUR, downsample_1h_after=6 * self.HOUR)
        for hour in range(2, 31, 2):
            sidecar.upload(hour * self.HOUR)
            compactor.run(hour * self.HOUR)  # compact, downsample, retention
        return store

    @staticmethod
    def _bits(series_list) -> dict:
        return {s.labels: (bits_of(s.arrays()[0]), bits_of(s.arrays()[1])) for s in series_list}

    def _reads(self, store: ObjectStore, resolution: str) -> tuple:
        one = [Matcher("idx", MatchOp.EQ, "1")]
        windows = [
            [(labels, bits_of(ts), bits_of(vs)) for labels, ts, vs in store.window_series(resolution, lo, hi)]
            for lo, hi in ((-np.inf, np.inf), (9.5 * self.HOUR, 17.25 * self.HOUR))
        ]
        return (
            [s.labels for s in store.select_at(resolution, [])],
            self._bits(store.select_at(resolution, [])),
            self._bits(store.select_at(resolution, one)),
            windows,
        )

    @staticmethod
    def _downsampled(source: dict, until: float, bucket: float) -> dict:
        """The compactor's bucketing applied to ``(ts, vs)`` arrays of
        mean series, keyed by labels, up to ``until``."""
        out = {}
        for labels, (ts, vs) in source.items():
            if labels.metric_name.endswith((":min", ":max")):
                continue
            keep = (ts < until) & ~np.isnan(vs)
            b_ts, means, mins, maxs = _downsample_series(ts[keep], vs[keep], bucket)
            if len(b_ts):
                base = labels.metric_name
                out[labels] = (b_ts, means)
                out[labels.with_name(base + ":min")] = (b_ts, mins)
                out[labels.with_name(base + ":max")] = (b_ts, maxs)
        return out

    def test_three_stores_agree_with_hot_oracle(self, tmp_path):
        hot = self._hot()
        root = str(tmp_path / "store")
        memory = self._ship(hot, ObjectStore(raw_retention=self.RAW_RETENTION))
        disk = self._ship(hot, ObjectStore(raw_retention=self.RAW_RETENTION, persist_dir=root))
        reopened = ObjectStore(raw_retention=self.RAW_RETENTION, persist_dir=root)
        stores = (memory, disk, reopened)

        ledger = sorted(memory.blocks, key=lambda b: b.ulid)
        assert ledger == sorted(disk.blocks, key=lambda b: b.ulid) == sorted(reopened.blocks, key=lambda b: b.ulid)
        assert {b.resolution for b in ledger} == {"raw", "5m", "1h"}
        assert {b.level for b in memory.blocks_at("raw")} == {1, 2}
        # retention dropped the first merged block whole
        raw_lo = memory.blocks_at("raw")[0].min_time
        assert raw_lo == 8 * self.HOUR
        for resolution in RESOLUTIONS:
            reads = [self._reads(store, resolution) for store in stores]
            assert reads[0][0], resolution
            assert reads[0] == reads[1] == reads[2], resolution

        hot_arrays = {s.labels: s.window_half_open(-np.inf, self.END) for s in hot.all_series()}
        raw = {s.labels: s.window_half_open(raw_lo, self.END) for s in hot.all_series()}
        assert self._bits(memory.select_at("raw", [])) == {
            labels: (bits_of(ts), bits_of(vs)) for labels, (ts, vs) in raw.items() if len(ts)
        }
        five_m = self._downsampled(hot_arrays, 28 * self.HOUR, 300.0)
        assert self._bits(memory.select_at("5m", [])) == {
            labels: (bits_of(ts), bits_of(vs)) for labels, (ts, vs) in five_m.items()
        }
        one_h = self._downsampled(five_m, 24 * self.HOUR, 3600.0)
        assert self._bits(memory.select_at("1h", [])) == {
            labels: (bits_of(ts), bits_of(vs)) for labels, (ts, vs) in one_h.items()
        }


class TestBlockRegistration:
    """A stored block is registered from the chunk refs its write
    produced, under the caller's label objects, and no reader keeps a
    parsed index: what a reopened store builds from ``index.json`` is
    the same registration, serving the same bits."""

    HOUR = 3600.0

    def _hot(self) -> TSDB:
        hot = TSDB(name="hot")
        for t in np.arange(0.0, 9 * self.HOUR, 60.0).tolist():
            for i in range(5):
                if i == 4 and t >= 3 * self.HOUR:
                    continue  # a series that ends
                hot.append(series_labels(i), t, float(i * 1000.0 + t / 60.0))
        return hot

    def _ship(self, hot: TSDB, root: str) -> ObjectStore:
        store = ObjectStore(persist_dir=root)
        sidecar = Sidecar(hot, store)
        compactor = Compactor(store, downsample_5m_after=2 * self.HOUR, downsample_1h_after=6 * self.HOUR)
        for hour in (2, 4, 6, 8):
            sidecar.upload(hour * self.HOUR)
            compactor.run(hour * self.HOUR)
        return store

    @staticmethod
    def _registration(store: ObjectStore) -> dict:
        """Per resolution, label set and block: each chunk handle's file,
        frame and sample metadata."""
        return {
            resolution: {
                labels: {
                    ulid: [(os.path.relpath(c.source.path, store.persist_dir), c.offset, c.length, c.count, c.min_time, c.max_time) for c in chunks]
                    for ulid, chunks in per_block.items()
                }
                for labels, per_block in index._series.items()
            }
            for resolution, index in store.chunk_indexes.items()
        }

    @staticmethod
    def _holds_no_index(reader: BlockReader) -> bool:
        return not any(isinstance(value, list) for value in vars(reader).values())

    def test_the_sidecar_registers_the_heads_label_objects(self, tmp_path):
        hot = self._hot()
        store = ObjectStore(persist_dir=str(tmp_path / "store"))
        Sidecar(hot, store).upload(4 * self.HOUR)
        head_labels = {id(series.labels) for series in hot.all_series()}
        raw = store.chunk_indexes["raw"]
        assert len(raw._series) == 5
        assert {id(labels) for labels in raw._series} <= head_labels
        assert all(id(series.labels) in head_labels for series in store.select_at("raw", []))

    def test_no_reader_holds_a_parsed_index(self, tmp_path):
        root = str(tmp_path / "store")
        store = self._ship(self._hot(), root)
        reopened = ObjectStore(persist_dir=root)
        readers = [*store._readers.values(), *reopened._readers.values()]
        assert len(readers) == 2 * len(store.blocks) > 2
        assert all(self._holds_no_index(reader) for reader in readers)

    def test_a_reopened_store_builds_the_same_registration_and_bits(self, tmp_path):
        root = str(tmp_path / "store")
        store = self._ship(self._hot(), root)
        reopened = ObjectStore(persist_dir=root)
        assert sorted(store.blocks, key=lambda b: b.ulid) == sorted(reopened.blocks, key=lambda b: b.ulid)
        assert {b.resolution for b in store.blocks} == {"raw", "5m", "1h"}
        assert self._registration(store) == self._registration(reopened)
        for resolution in RESOLUTIONS:
            for matchers in ([], [Matcher("idx", MatchOp.EQ, "4")], [Matcher("idx", MatchOp.RE, "[12]")]):
                got = [(s.labels, bits_of(s.arrays()[0]), bits_of(s.arrays()[1])) for s in store.select_at(resolution, matchers)]
                want = [(s.labels, bits_of(s.arrays()[0]), bits_of(s.arrays()[1])) for s in reopened.select_at(resolution, matchers)]
                assert got == want, (resolution, matchers)
                assert got or matchers, resolution

    def test_the_index_is_one_json_list_written_entry_by_entry(self, tmp_path):
        series = [(series_labels(i), np.arange(0.0, 300.0 * (i + 1), 15.0), np.arange(0.0, 20.0 * (i + 1))) for i in range(3)]
        seen = []
        meta = write_block(str(tmp_path), "B1", series, min_time=0.0, max_time=900.0, chunk_samples=8, on_series=lambda labels, refs: seen.append((labels, refs)))
        with open(tmp_path / "B1" / "index.json", encoding="utf-8") as fh:
            text = fh.read()
        entries = json.loads(text)
        assert text == json.dumps(entries)  # the bytes one `json.dump` of the list writes
        assert [labels for labels, _refs in seen] == [labels for labels, _ts, _vs in series]
        assert all(got is given for (got, _), (given, _ts, _vs) in zip(seen, series))
        assert [{"labels": labels.as_dict(), "chunks": refs} for labels, refs in seen] == entries
        assert meta["stats"] == {"numSamples": sum(len(ts) for _l, ts, _v in series), "numSeries": 3, "numChunks": sum(len(e["chunks"]) for e in entries)}
