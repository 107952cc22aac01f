"""Thanos compactor: block merging and downsampling.

Two jobs, as in real Thanos:

* **horizontal compaction**: adjacent small raw blocks merge into
  larger ones (2h → 8h → 2d), keeping the block ledger shallow;
* **downsampling**: raw data older than ``downsample_after`` is
  aggregated into 5-minute points, and 5m data older than a larger
  horizon into 1-hour points.  Each downsampled point is the *mean*
  of its bucket plus recorded min/max series (``<name>:min`` /
  ``<name>:max``) so peak-style dashboards stay honest.

Downsampling is what turns the E8 year-long aggregate query from
millions of raw points into thousands — reproducing the systems
argument for the API server (it is still orders slower than the API
server's precomputed rollups).
"""

from __future__ import annotations

import numpy as np

from repro.obs import prof
from repro.thanos.store import BlockMeta, ObjectStore


def _downsample_series(ts: np.ndarray, vs: np.ndarray, bucket: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bucket-average a series; returns (bucket_ts, mean, min, max)."""
    if len(ts) == 0:
        return np.array([]), np.array([]), np.array([]), np.array([])
    buckets = np.floor(ts / bucket).astype(np.int64)
    # group contiguous equal bucket ids (ts sorted)
    change = np.concatenate(([True], buckets[1:] != buckets[:-1]))
    starts = np.flatnonzero(change)
    ends = np.concatenate((starts[1:], [len(ts)]))
    out_ts = (buckets[starts] + 1) * bucket  # right edge = sample time
    means = np.array([vs[s:e].mean() for s, e in zip(starts, ends)])
    mins = np.array([vs[s:e].min() for s, e in zip(starts, ends)])
    maxs = np.array([vs[s:e].max() for s, e in zip(starts, ends)])
    return out_ts, means, mins, maxs


class Compactor:
    """Background compaction over one object store."""

    def __init__(
        self,
        store: ObjectStore,
        *,
        downsample_5m_after: float = 2 * 86400.0,
        downsample_1h_after: float = 14 * 86400.0,
        compaction_levels: tuple[float, ...] = (8 * 3600.0, 2 * 86400.0),
    ) -> None:
        self.store = store
        self.downsample_5m_after = downsample_5m_after
        self.downsample_1h_after = downsample_1h_after
        self.compaction_levels = compaction_levels
        self._downsampled_until = {"5m": None, "1h": None}
        # A store reopened from disk may already hold downsampled
        # blocks; resume after them instead of re-producing the same
        # buckets.
        for key in ("5m", "1h"):
            done = store.blocks_at(key)
            if done:
                self._downsampled_until[key] = max(b.max_time for b in done)
        self.compactions = 0
        self.downsample_passes = 0

    # -- horizontal compaction ---------------------------------------------
    def compact_blocks(self) -> int:
        """Merge adjacent raw blocks into the next level's window size.

        The merged window is rewritten as one new block naming its
        sources, and storing it drops them — a block is never edited
        in place.
        """
        with prof.profile("compactor.compact"):
            return self._compact_blocks()

    def _compact_blocks(self) -> int:
        merged_total = 0
        for level, window in enumerate(self.compaction_levels, start=2):
            blocks = [b for b in self.store.blocks_at("raw") if b.level == level - 1]
            groups: dict[int, list[BlockMeta]] = {}
            for block in blocks:
                groups.setdefault(int(block.min_time // window), []).append(block)
            for members in groups.values():
                span = sum(b.max_time - b.min_time for b in members)
                if span < window:  # window not complete yet
                    continue
                min_time = min(b.min_time for b in members)
                max_time = max(b.max_time for b in members)
                self.store.store_block(
                    self.store.window_series("raw", min_time, max_time),
                    min_time=min_time,
                    max_time=max_time,
                    level=level,
                    sources=tuple(b.ulid for b in members),
                )
                merged_total += len(members)
                self.compactions += 1
        return merged_total

    # -- downsampling -------------------------------------------------------------
    def downsample(self, now: float) -> dict[str, int]:
        """Produce 5m and 1h resolutions for data old enough."""
        with prof.profile("compactor.downsample"):
            return self._downsample(now)

    def _downsample(self, now: float) -> dict[str, int]:
        produced = {"5m": 0, "1h": 0}
        produced["5m"] = self._downsample_into(
            src="raw",
            bucket=300.0,
            until=now - self.downsample_5m_after,
            key="5m",
        )
        produced["1h"] = self._downsample_into(
            src="5m",
            bucket=3600.0,
            until=now - self.downsample_1h_after,
            key="1h",
        )
        self.downsample_passes += 1
        return produced

    def _downsample_into(self, src: str, bucket: float, until: float, key: str) -> int:
        """Downsample ``src`` data of whole buckets not yet covered into
        one ``key`` block; returns the points produced."""
        start = self._downsampled_until[key]
        # Only whole buckets: stop at the last complete bucket edge.
        until = np.floor(until / bucket) * bucket
        if until <= (start or -np.inf):
            return 0
        out: list = []
        lo_global = start if start is not None else -np.inf
        for labels, ts, vs in self.store.window_series(src, lo_global, until):
            # Staleness markers do not survive downsampling (they mark
            # raw-resolution disappearance; downsampled buckets are
            # sparse anyway).
            keep = ~np.isnan(vs)
            ts, vs = ts[keep], vs[keep]
            if len(ts) == 0:
                continue
            # Downsampling data that is already sparser than the bucket
            # produces 3 output series per input point for zero
            # compression — skip such series (coarse scrape configs).
            if len(ts) > 1 and float(np.median(np.diff(ts))) > bucket:
                continue
            base = labels.metric_name
            # Do not re-downsample the min/max helper series.
            if base.endswith((":min", ":max")):
                continue
            b_ts, means, mins, maxs = _downsample_series(ts, vs, bucket)
            out.append((labels, b_ts, means))
            out.append((labels.with_name(base + ":min"), b_ts, mins))
            out.append((labels.with_name(base + ":max"), b_ts, maxs))
        produced = sum(len(b_ts) for _labels, b_ts, _vs in out)
        if produced:
            # Downsampled output is a block of its own resolution, so a
            # reopened store serves 5m/1h data without re-downsampling.
            min_time = min(float(b_ts[0]) for _labels, b_ts, _vs in out)
            self.store.store_block(out, min_time=min_time, max_time=until, resolution=key)
        self._downsampled_until[key] = until
        return produced

    def run(self, now: float) -> None:
        self.compact_blocks()
        self.downsample(now)
        self.store.apply_retention(now)

    def register_timer(self, clock, interval: float = 6 * 3600.0) -> None:
        clock.every(interval, self.run)
