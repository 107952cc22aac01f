"""The Thanos object store: blocks + per-resolution sample storage.

Real Thanos stores immutable TSDB blocks in object storage and keeps
an index per resolution (raw, 5m, 1h).  Here a block ledger carries
the metadata compaction decisions are made from, and where a block's
samples live follows from one deployment setting, ``persist_dir``:

* **unset** — the store is in-memory: each resolution is one
  :class:`~repro.tsdb.storage.TSDB` (reusing its label index and
  window reads) that the sidecar and compactor append into.
* **set** — the store is durable and *the block directories are the
  data*: every block registered through :meth:`persist_block` /
  :meth:`add_block` exists as an immutable on-disk directory
  (``meta.json`` + index + Gorilla chunk files, see
  :mod:`repro.tsdb.persist.block`) whose decode-on-demand chunk
  handles (mmap-backed, see :mod:`repro.tsdb.persist.chunkio`) are
  registered in a per-resolution
  :class:`~repro.tsdb.persist.chunkio.ChunkIndex`.  Opening a store
  on a populated directory reads only each block's ``index.json`` —
  open cost is metadata-proportional and no chunk is decoded until a
  query's time range touches it, through the process-wide
  decoded-chunk LRU.  :meth:`drop_block` removes the directory along
  with the ledger entry; retention over chunked data is
  block-granular (whole expired blocks drop), matching Thanos.

The behavioural contract — what uploads, what gets downsampled, what a
long-range query reads — is the same either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.common.errors import StorageError
from repro.tsdb.storage import TSDB

#: Thanos resolution levels, seconds per downsampled point.
RESOLUTIONS = ("raw", "5m", "1h")
RESOLUTION_SECONDS = {"raw": 0.0, "5m": 300.0, "1h": 3600.0}


@dataclass
class BlockMeta:
    """Metadata of one uploaded/compacted block."""

    ulid: str
    min_time: float
    max_time: float
    resolution: str
    num_samples: int
    num_series: int
    #: Compaction level: 1 = fresh upload, grows when merged.
    level: int = 1
    source_ulids: tuple[str, ...] = ()


@dataclass
class ObjectStore:
    """Block ledger plus per-resolution sample stores."""

    raw_retention: float = 0.0  # 0 = keep forever
    five_m_retention: float = 0.0
    one_h_retention: float = 0.0
    #: When set, blocks are written as directories under this path,
    #: served from their chunk files, and re-registered on construction.
    persist_dir: str = ""

    blocks: list[BlockMeta] = field(default_factory=list)
    _ulid_seq: itertools.count = field(default_factory=lambda: itertools.count(1), repr=False)

    def __post_init__(self) -> None:
        self.tsdbs: dict[str, TSDB] = {
            "raw": TSDB(name="thanos-raw"),
            "5m": TSDB(name="thanos-5m"),
            "1h": TSDB(name="thanos-1h"),
        }
        self.chunk_indexes: dict = {}
        if self.persist_dir:
            from repro.tsdb.persist.chunkio import ChunkIndex

            self.chunk_indexes = {
                res: ChunkIndex(name=f"thanos-{res}") for res in RESOLUTIONS
            }
        self._readers: dict[str, object] = {}
        # merged-select memo per resolution: matcher tuple ->
        # (version, series list); validated against `version()` so any
        # TSDB mutation or block add/drop rebuilds the merge.
        self._merge_memo: dict[str, dict] = {res: {} for res in RESOLUTIONS}
        self.persisted_blocks = 0
        self.persisted_raw_bytes = 0
        self.persisted_encoded_bytes = 0
        self.loaded_blocks = 0
        self.loaded_raw_bytes = 0
        self.loaded_encoded_bytes = 0
        if self.persist_dir:
            self._load_persisted()

    # -- persistence ------------------------------------------------------
    def _register_block_chunks(self, ulid: str, resolution: str) -> None:
        """Register a persisted block's chunk handles."""
        from repro.tsdb.persist.block import BlockReader

        reader = BlockReader(self.persist_dir, ulid)
        self._readers[ulid] = reader
        self.chunk_indexes[resolution].add_block(ulid, reader.chunk_series())

    def _load_persisted(self) -> None:
        """Rebuild the ledger and chunk indexes from disk on open.

        Only each block's meta and index are parsed and its chunk
        handles registered — open cost is metadata-proportional,
        decode is deferred to queries.
        """
        from repro.tsdb.persist.block import BlockReader, list_block_ulids

        max_seq = 0
        for ulid in list_block_ulids(self.persist_dir):
            reader = BlockReader(self.persist_dir, ulid)
            meta = reader.meta
            resolution = meta.get("resolution", "raw")
            if resolution not in RESOLUTIONS:
                raise StorageError(f"persisted block {ulid}: unknown resolution {resolution!r}")
            self._readers[ulid] = reader
            self.chunk_indexes[resolution].add_block(ulid, reader.chunk_series())
            stats = meta.get("stats", {})
            compaction = meta.get("compaction", {})
            self.blocks.append(
                BlockMeta(
                    ulid=ulid,
                    min_time=meta["minTime"],
                    max_time=meta["maxTime"],
                    resolution=resolution,
                    num_samples=stats.get("numSamples", 0),
                    num_series=stats.get("numSeries", 0),
                    level=compaction.get("level", 1),
                    source_ulids=tuple(compaction.get("sources", ())),
                )
            )
            self.loaded_blocks += 1
            codec = meta.get("codec", {})
            self.loaded_raw_bytes += codec.get("rawBytes", 0)
            self.loaded_encoded_bytes += codec.get("encodedBytes", 0)
            if ulid.startswith("01BLOCK"):
                try:
                    max_seq = max(max_seq, int(ulid[len("01BLOCK"):]))
                except ValueError:
                    pass
        self._ulid_seq = itertools.count(max_seq + 1)

    def persist_block(
        self,
        ulid: str,
        series,
        *,
        min_time: float,
        max_time: float,
        resolution: str = "raw",
        level: int = 1,
        sources: tuple[str, ...] = (),
    ) -> dict | None:
        """Write one immutable block directory (no-op when in-memory).

        ``series`` is an iterable of ``(labels, ts_array, vs_array)``.
        Returns the written ``meta.json`` dict, or ``None`` when the
        store has no ``persist_dir``.
        """
        if not self.persist_dir:
            return None
        from repro.tsdb.persist.block import write_block

        meta = write_block(
            self.persist_dir,
            ulid,
            series,
            min_time=min_time,
            max_time=max_time,
            resolution=resolution,
            level=level,
            sources=sources,
        )
        self.persisted_blocks += 1
        self.persisted_raw_bytes += meta["codec"]["rawBytes"]
        self.persisted_encoded_bytes += meta["codec"]["encodedBytes"]
        return meta

    # -- block management ------------------------------------------------
    def new_ulid(self) -> str:
        return f"01BLOCK{next(self._ulid_seq):012d}"

    def add_block(self, meta: BlockMeta) -> None:
        if meta.resolution not in RESOLUTIONS:
            raise StorageError(f"unknown resolution {meta.resolution!r}")
        if meta.max_time < meta.min_time:
            raise StorageError("block max_time before min_time")
        self.blocks.append(meta)
        if self.persist_dir:
            # The persisted directory *is* the data: a registered
            # block must be queryable through its chunks.
            self._register_block_chunks(meta.ulid, meta.resolution)

    def blocks_at(self, resolution: str) -> list[BlockMeta]:
        return sorted(
            (b for b in self.blocks if b.resolution == resolution), key=lambda b: b.min_time
        )

    def drop_block(self, ulid: str) -> None:
        dropped = [b for b in self.blocks if b.ulid == ulid]
        self.blocks = [b for b in self.blocks if b.ulid != ulid]
        if self.persist_dir:
            for meta in dropped:
                self.chunk_indexes[meta.resolution].remove_block(ulid)
        reader = self._readers.pop(ulid, None)
        if reader is not None:
            reader.close()
        if self.persist_dir:
            from repro.tsdb.persist.block import delete_block

            delete_block(self.persist_dir, ulid)

    # -- querying -----------------------------------------------------------
    def tsdb(self, resolution: str) -> TSDB:
        try:
            return self.tsdbs[resolution]
        except KeyError:
            raise StorageError(f"unknown resolution {resolution!r}") from None

    def version(self, resolution: str) -> tuple:
        """Monotone validity token for anything caching select results
        at this resolution: changes on any TSDB mutation *or* chunked
        block add/drop."""
        tsdb = self.tsdb(resolution)
        index = self.chunk_indexes.get(resolution)
        return (
            tsdb.series_epoch,
            tsdb.data_epoch,
            index.generation if index is not None else 0,
        )

    def select_at(self, resolution: str, matchers):
        """Matching series at one resolution: TSDB + chunked blocks.

        In-memory stores delegate straight to the TSDB (selector memo
        and all).  Persisted stores merge the TSDB's live series with
        chunk-backed series from registered blocks — overlapping label
        sets become :class:`~repro.tsdb.persist.chunkio.MergedSeries`
        (live head wins duplicate timestamps).  Merged results are
        memoised per matcher tuple, validated by :meth:`version`.
        """
        tsdb = self.tsdb(resolution)
        if not self.persist_dir:
            return tsdb.select(matchers)
        key = tuple(matchers)
        version = self.version(resolution)
        memo = self._merge_memo[resolution]
        cached = memo.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        chunked = self.chunk_indexes[resolution].select(key)
        live = tsdb.select(matchers) if tsdb.num_series else []
        if not chunked:
            out = live
        elif not live:
            out = chunked
        else:
            from repro.tsdb.persist.chunkio import MergedSeries

            by_labels = {s.labels: s for s in chunked}
            seen = set()
            out = []
            for series in live:
                secondary = by_labels.get(series.labels)
                seen.add(series.labels)
                out.append(
                    series if secondary is None else MergedSeries(series, secondary)
                )
            out.extend(s for s in chunked if s.labels not in seen)
            out.sort(key=lambda s: tuple(s.labels))
        if len(memo) >= 128:
            memo.clear()
        memo[key] = (version, out)
        return out

    def select(self, matchers):
        """Batched-select contract (raw resolution), so a PromQL engine
        can point at the store gateway directly; selection rides the
        raw TSDB's selector memo (and, on a persisted store, the chunk
        index + merge memo)."""
        return self.select_at("raw", matchers)

    def window_series(self, resolution: str, lo: float, hi: float):
        """Yield non-empty ``(labels, ts, vs)`` slices of ``[lo, hi)``
        across TSDB and chunked-block series — the compactor's and
        downsampler's resolution-agnostic read path."""
        from repro.tsdb.persist.chunkio import MergedSeries

        tsdb = self.tsdb(resolution)
        index = self.chunk_indexes.get(resolution)
        if index is None:
            for series in tsdb.all_series():
                ts, vs = series.window_half_open(lo, hi)
                if len(ts):
                    yield series.labels, ts, vs
            return
        live = {s.labels: s for s in tsdb.all_series()}
        chunked = {s.labels: s for s in index.all_series()}
        for labels in sorted(set(live) | set(chunked), key=tuple):
            primary = live.get(labels)
            secondary = chunked.get(labels)
            if primary is None:
                series = secondary
            elif secondary is None:
                series = primary
            else:
                series = MergedSeries(primary, secondary, labels)
            ts, vs = series.window_half_open(lo, hi)
            if len(ts):
                yield labels, ts, vs

    def num_series_at(self, resolution: str) -> int:
        """Distinct series at a resolution (TSDB plus chunked blocks).

        Upper-bounds the union (overlapping label sets counted once
        per side would need a set build); used only as a non-emptiness
        signal by :meth:`pick_resolution`.
        """
        count = self.tsdb(resolution).num_series
        index = self.chunk_indexes.get(resolution)
        if index is not None:
            count += index.num_series
        return count

    def label_values_at(self, resolution: str, label_name: str) -> list[str]:
        values = set(self.tsdb(resolution).label_values(label_name))
        index = self.chunk_indexes.get(resolution)
        if index is not None:
            values |= index.label_values(label_name)
        return sorted(values)

    def selector_cache_stats(self) -> dict[str, dict[str, float]]:
        """Per-resolution selector-memo counters (bench observability)."""
        return {
            resolution: tsdb.selector_cache_stats()
            for resolution, tsdb in self.tsdbs.items()
        }

    def pick_resolution(self, range_seconds: float) -> str:
        """Thanos auto-downsampling heuristic: keep point counts sane.

        Queries spanning more than ~2 days read the 5m resolution;
        more than ~2 weeks, the 1h resolution (when populated).
        """
        if range_seconds > 14 * 86400 and self.num_series_at("1h"):
            return "1h"
        if range_seconds > 2 * 86400 and self.num_series_at("5m"):
            return "5m"
        return "raw"

    # -- retention ------------------------------------------------------------
    def apply_retention(self, now: float) -> dict[str, int]:
        """Per-resolution retention (mirrors Thanos's compactor flags)."""
        dropped: dict[str, int] = {}
        for resolution, horizon in (
            ("raw", self.raw_retention),
            ("5m", self.five_m_retention),
            ("1h", self.one_h_retention),
        ):
            if horizon <= 0:
                continue
            tsdb = self.tsdbs[resolution]
            tsdb.retention = horizon
            samples, _series = tsdb.apply_retention(now)
            dropped[resolution] = samples
            cutoff = now - horizon
            for block in [b for b in self.blocks_at(resolution) if b.max_time < cutoff]:
                self.drop_block(block.ulid)
        return dropped

    # -- observability --------------------------------------------------------
    def compression_ratio(self) -> float:
        """Raw float64 bytes per encoded chunk byte, over every block on
        disk — both written this process and reloaded at open, so the
        gauge is meaningful immediately after a restart."""
        encoded = self.persisted_encoded_bytes + self.loaded_encoded_bytes
        if not encoded:
            return 0.0
        return (self.persisted_raw_bytes + self.loaded_raw_bytes) / encoded

    def register_metrics(self, registry) -> None:
        """Expose block-persistence counters on a component's registry."""
        registry.gauge_func(
            "ceems_thanos_blocks_persisted_total",
            lambda: float(self.persisted_blocks),
            help="Block directories written to the store's persist_dir.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_thanos_block_bytes_written_total",
            lambda: float(self.persisted_encoded_bytes),
            help="Encoded chunk bytes written into persisted blocks.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_thanos_block_raw_bytes_total",
            lambda: float(self.persisted_raw_bytes),
            help="Uncompressed (16 B/sample) bytes covered by persisted blocks.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_thanos_block_compression_ratio",
            self.compression_ratio,
            help="Raw bytes per encoded byte across persisted blocks.",
        )
        # Chunk-level alias under the tsdb namespace: dashboards track
        # codec efficiency next to the WAL/head families.
        registry.gauge_func(
            "ceems_tsdb_chunk_compression_ratio",
            self.compression_ratio,
            help="Gorilla chunk compression ratio (raw/encoded bytes).",
        )
        registry.gauge_func(
            "ceems_thanos_blocks_loaded_total",
            lambda: float(self.loaded_blocks),
            help="Persisted blocks reloaded when this store opened.",
            type="counter",
        )
