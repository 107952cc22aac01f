"""Thanos sidecar: ships the hot TSDB's completed blocks to the store.

Prometheus cuts a block every 2 hours; the sidecar uploads each
completed block to object storage.  Here the sidecar tracks a
watermark and, on every :meth:`upload` pass, stores the hot samples of
each completed 2-hour window beyond the watermark as one raw block
(:meth:`~repro.thanos.store.ObjectStore.store_block`).  Windows are
half-open ``[lo, hi)``, the Prometheus block convention.  A
persistent hot head is checkpointed afterwards so its WAL drops
everything now held by blocks.

The hot TSDB keeps its own (short) retention; together they give the
paper's architecture: recent data answered locally, history answered
by Thanos.
"""

from __future__ import annotations

import math

from repro.obs import prof
from repro.thanos.store import ObjectStore
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
        while self._watermark + self.block_seconds <= now:
            lo = self._watermark
            hi = lo + self.block_seconds
            window_series = []
            for series in self.hot.all_series():
                ts, vs = series.window_half_open(lo, hi)
                if len(ts):
                    window_series.append((series.labels, ts, vs))
            if window_series:
                with prof.profile("sidecar.block_cut"):
                    block = self.store.store_block(window_series, min_time=lo, max_time=hi)
                self.blocks_uploaded += 1
                self.samples_uploaded += block.num_samples
                uploaded += 1
            self._watermark = hi
        if uploaded and hasattr(self.hot, "checkpoint"):
            # Everything below the watermark is durable in blocks now;
            # the persistent head can truncate its WAL.
            self.hot.checkpoint(self._watermark)
        return uploaded

    def register_timer(self, clock, interval: float = 3600.0) -> None:
        clock.every(interval, lambda now: self.upload(now))
