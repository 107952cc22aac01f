"""Thanos sidecar: ships the hot TSDB's completed blocks to the store.

Prometheus cuts a block every 2 hours; the sidecar uploads each
completed block to object storage.  Here the sidecar tracks a
watermark and, on every :meth:`upload` pass, copies all hot samples
in completed 2-hour windows beyond the watermark into the store's raw
resolution, registering one :class:`~repro.thanos.store.BlockMeta`
per window.  Windows are half-open ``[lo, hi)``, the Prometheus block
convention.

An in-memory store ingests each series' window slice with
:meth:`~repro.tsdb.storage.TSDB.append_array` — one slice extension
per series, not one Python call per sample.  A store with a
``persist_dir`` instead gets each uploaded window written as a real
on-disk block (Gorilla chunks + index + meta.json) via
:meth:`ObjectStore.persist_block` and serves it from there, and a
persistent hot head is checkpointed afterwards so its WAL drops
everything now durable in blocks.

The hot TSDB keeps its own (short) retention; together they give the
paper's architecture: recent data answered locally, history answered
by Thanos.
"""

from __future__ import annotations

import math

from repro.obs import prof
from repro.thanos.store import BlockMeta, ObjectStore
from repro.tsdb.storage import TSDB

BLOCK_SECONDS = 2 * 3600.0


class Sidecar:
    """Replicates one hot TSDB into one object store."""

    def __init__(self, hot: TSDB, store: ObjectStore, *, block_seconds: float = BLOCK_SECONDS) -> None:
        self.hot = hot
        self.store = store
        self.block_seconds = block_seconds
        self._watermark: float | None = None
        self.blocks_uploaded = 0
        self.samples_uploaded = 0

    def upload(self, now: float) -> int:
        """Upload every completed block window; returns blocks shipped."""
        if self.hot.min_time is None:
            return 0
        if self._watermark is None:
            self._watermark = math.floor(self.hot.min_time / self.block_seconds) * self.block_seconds
            already_shipped = self.store.blocks_at("raw")
            if already_shipped:
                # A reopened store already holds blocks: resume after
                # them instead of re-uploading recovered windows.
                self._watermark = max(
                    self._watermark, max(b.max_time for b in already_shipped)
                )
        uploaded = 0
        raw = self.store.tsdb("raw")
        # Persisted stores serve uploaded windows straight from the
        # block's chunk files (add_block registers them); copying the
        # samples into the raw TSDB as well would keep the whole
        # history decoded in memory.
        persisted = bool(self.store.persist_dir)
        while self._watermark + self.block_seconds <= now:
            lo = self._watermark
            hi = lo + self.block_seconds
            window_series = []
            samples = 0
            for series in self.hot.all_series():
                ts, vs = series.window_half_open(lo, hi)
                if len(ts) == 0:
                    continue
                window_series.append((series.labels, ts, vs))
                samples += len(ts)
            if samples:
                with prof.profile("sidecar.block_cut"):
                    if not persisted:
                        for labels, ts, vs in window_series:
                            raw.append_array(labels, ts, vs)
                    ulid = self.store.new_ulid()
                    self.store.persist_block(
                        ulid, window_series, min_time=lo, max_time=hi, resolution="raw"
                    )
                    self.store.add_block(
                        BlockMeta(
                            ulid=ulid,
                            min_time=lo,
                            max_time=hi,
                            resolution="raw",
                            num_samples=samples,
                            num_series=len(window_series),
                        )
                    )
                self.blocks_uploaded += 1
                self.samples_uploaded += samples
                uploaded += 1
            self._watermark = hi
        if uploaded and hasattr(self.hot, "checkpoint"):
            # Everything below the watermark is durable in blocks now;
            # the persistent head can truncate its WAL.
            self.hot.checkpoint(self._watermark)
        return uploaded

    def register_timer(self, clock, interval: float = 3600.0) -> None:
        clock.every(interval, lambda now: self.upload(now))
