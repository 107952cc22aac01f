"""The Thanos object store: a ledger of immutable blocks, read per resolution.

Real Thanos keeps immutable TSDB blocks in object storage, each at one
resolution (raw, 5m, 1h).  Here a block is a ledger entry
(:class:`BlockMeta`, what compaction and retention decide from) plus
its per-series chunk handles, registered in the
:class:`~repro.tsdb.persist.chunkio.ChunkIndex` of its resolution.
Every read — :meth:`select_at`, :meth:`window_series`,
:meth:`label_values_at` — goes through those indexes, and a window
read decodes only the chunks it overlaps.

:meth:`store_block` is the one way a block comes in.  ``persist_dir``
decides only what the block's chunk handles point at:

* set — the block directory :meth:`persist_block` writes
  (``meta.json`` + index + Gorilla chunk files, see
  :mod:`repro.tsdb.persist.block`), read through mmap-backed
  :class:`~repro.tsdb.persist.chunkio.FileChunk` handles.  Opening a
  store on a populated directory registers every block from its
  ``index.json`` alone; no chunk is decoded until a query touches it;
* unset — one :class:`~repro.tsdb.persist.chunkio.TailChunk` per
  series over a private copy of the arrays it was given, so the
  caller's buffers can neither be pinned nor rewritten under a
  shipped block.

Blocks never change once stored.  A compacted block names its
sources, and storing it drops them; retention drops whole blocks.  On
open, a block named in another block's ``compaction.sources`` is what
a compaction that crashed before dropping its sources left behind: it
is deleted instead of registered (Thanos's rule), so a half-finished
compaction can never serve its samples twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import StorageError
from repro.tsdb.persist.block import BlockReader, delete_block, list_block_ulids, write_block
from repro.tsdb.persist.chunkio import ChunkIndex, TailChunk

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
    """Block ledger plus one chunk index per resolution."""

    raw_retention: float = 0.0  # 0 = keep forever
    five_m_retention: float = 0.0
    one_h_retention: float = 0.0
    #: When set, blocks are written as directories under this path,
    #: served from their chunk files, and re-registered on construction.
    persist_dir: str = ""

    blocks: list[BlockMeta] = field(default_factory=list)
    _ulid_seq: itertools.count = field(default_factory=lambda: itertools.count(1), repr=False)

    def __post_init__(self) -> None:
        self.chunk_indexes = {res: ChunkIndex(name=f"thanos-{res}") for res in RESOLUTIONS}
        self._readers: dict[str, BlockReader] = {}
        self.persisted_blocks = 0
        self.persisted_raw_bytes = 0
        self.persisted_encoded_bytes = 0
        self.loaded_blocks = 0
        self.loaded_raw_bytes = 0
        self.loaded_encoded_bytes = 0
        if self.persist_dir:
            self._load_persisted()

    # -- persistence ------------------------------------------------------
    def _load_persisted(self) -> None:
        """Rebuild the ledger and chunk indexes from disk on open.

        Only each block's meta and index are parsed and its chunk
        handles registered — open cost is metadata-proportional,
        decode is deferred to queries.  Sources of a compacted block
        that survived a crash are deleted, not registered.
        """
        max_seq = 0
        readers = []
        for ulid in list_block_ulids(self.persist_dir):
            readers.append(BlockReader(self.persist_dir, ulid))
            if ulid.startswith("01BLOCK") and ulid[len("01BLOCK"):].isdigit():
                max_seq = max(max_seq, int(ulid[len("01BLOCK"):]))
        self._ulid_seq = itertools.count(max_seq + 1)
        superseded = {
            source for reader in readers for source in reader.meta.get("compaction", {}).get("sources", ())
        }
        for reader in readers:
            if reader.ulid in superseded:
                delete_block(self.persist_dir, reader.ulid)
                continue
            meta = reader.meta
            resolution = meta.get("resolution", "raw")
            if resolution not in RESOLUTIONS:
                raise StorageError(f"persisted block {reader.ulid}: unknown resolution {resolution!r}")
            stats = meta.get("stats", {})
            compaction = meta.get("compaction", {})
            self._register(
                BlockMeta(
                    ulid=reader.ulid,
                    min_time=meta["minTime"],
                    max_time=meta["maxTime"],
                    resolution=resolution,
                    num_samples=stats.get("numSamples", 0),
                    num_series=stats.get("numSeries", 0),
                    level=compaction.get("level", 1),
                    source_ulids=tuple(compaction.get("sources", ())),
                ),
                reader.chunk_series(),
                reader,
            )
            self.loaded_blocks += 1
            codec = meta.get("codec", {})
            self.loaded_raw_bytes += codec.get("rawBytes", 0)
            self.loaded_encoded_bytes += codec.get("encodedBytes", 0)

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
    ) -> dict:
        """Write one immutable block directory under ``persist_dir``.

        ``series`` is an iterable of ``(labels, ts_array, vs_array)``.
        Returns the written ``meta.json`` dict.  Writing does not
        register the block; :meth:`store_block` does both.
        """
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

    def store_block(
        self,
        series,
        *,
        min_time: float,
        max_time: float,
        resolution: str = "raw",
        level: int = 1,
        sources: tuple[str, ...] = (),
    ) -> BlockMeta:
        """Store ``(labels, ts, vs)`` series as one new block and
        register it; returns its ledger entry.

        Empty series are skipped.  Blocks named in ``sources`` (the
        inputs of a compaction) are dropped once the new block is
        registered.
        """
        self._index(resolution)  # rejects an unknown resolution
        if max_time < min_time:
            raise StorageError("block max_time before min_time")
        ulid = self.new_ulid()
        reader = None
        if self.persist_dir:
            self.persist_block(
                ulid,
                series,
                min_time=min_time,
                max_time=max_time,
                resolution=resolution,
                level=level,
                sources=sources,
            )
            reader = BlockReader(self.persist_dir, ulid)
            chunks = list(reader.chunk_series())
        else:
            chunks = [
                (labels, [TailChunk(np.array(ts, dtype=np.float64), np.array(vs, dtype=np.float64))])
                for labels, ts, vs in series
                if len(ts)
            ]
        meta = BlockMeta(
            ulid=ulid,
            min_time=min_time,
            max_time=max_time,
            resolution=resolution,
            num_samples=sum(chunk.count for _labels, handles in chunks for chunk in handles),
            num_series=len(chunks),
            level=level,
            source_ulids=tuple(sources),
        )
        self._register(meta, chunks, reader)
        for source in sources:
            self.drop_block(source)
        return meta

    def _register(self, meta: BlockMeta, chunks, reader: BlockReader | None) -> None:
        self.blocks.append(meta)
        self.chunk_indexes[meta.resolution].add_block(meta.ulid, chunks)
        if reader is not None:
            self._readers[meta.ulid] = reader

    def blocks_at(self, resolution: str) -> list[BlockMeta]:
        return sorted(
            (b for b in self.blocks if b.resolution == resolution), key=lambda b: b.min_time
        )

    def drop_block(self, ulid: str) -> None:
        self.blocks = [b for b in self.blocks if b.ulid != ulid]
        for index in self.chunk_indexes.values():
            index.remove_block(ulid)
        reader = self._readers.pop(ulid, None)
        if reader is not None:
            reader.close()
        if self.persist_dir:
            delete_block(self.persist_dir, ulid)

    # -- querying -----------------------------------------------------------
    def _index(self, resolution: str) -> ChunkIndex:
        try:
            return self.chunk_indexes[resolution]
        except KeyError:
            raise StorageError(f"unknown resolution {resolution!r}") from None

    def version(self, resolution: str) -> int:
        """Monotone validity token for anything caching select results
        at this resolution: changes whenever a block is stored or dropped."""
        return self._index(resolution).generation

    def select_at(self, resolution: str, matchers):
        """Matching series at one resolution, in label order, each a
        :class:`~repro.tsdb.persist.chunkio.ChunkSeries` across every
        registered block (memoised per matcher tuple until the block
        population changes)."""
        return self._index(resolution).select(matchers)

    def window_series(self, resolution: str, lo: float, hi: float):
        """Yield non-empty ``(labels, ts, vs)`` slices of ``[lo, hi)``
        in label order — the compactor's and downsampler's read path."""
        for series in self._index(resolution).all_series():
            ts, vs = series.window_half_open(lo, hi)
            if len(ts):
                yield series.labels, ts, vs

    def label_values_at(self, resolution: str, label_name: str) -> list[str]:
        return sorted(self._index(resolution).label_values(label_name))

    # -- retention ------------------------------------------------------------
    def apply_retention(self, now: float) -> dict[str, int]:
        """Per-resolution retention (mirrors Thanos's compactor flags):
        a block drops whole once it ends before ``now - horizon``.
        Returns the samples dropped per resolution that has a horizon."""
        dropped: dict[str, int] = {}
        horizons = (self.raw_retention, self.five_m_retention, self.one_h_retention)
        for resolution, horizon in zip(RESOLUTIONS, horizons):
            if horizon <= 0:
                continue
            expired = [b for b in self.blocks_at(resolution) if b.max_time < now - horizon]
            for block in expired:
                self.drop_block(block.ulid)
            dropped[resolution] = sum(b.num_samples for b in expired)
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
