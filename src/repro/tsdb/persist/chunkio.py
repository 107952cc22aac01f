"""Decode-on-demand chunk handles and the decoded-chunk LRU.

This module is the seam between "where bytes live" and "how queries
read them".  Two chunk handle flavours share one tiny protocol —
``count``, ``min_time``, ``max_time`` and ``arrays() -> (ts, vs)``:

* :class:`FileChunk` — one CRC-framed chunk inside an mmap'd block
  chunk file; the payload is sliced out of the mapping and decoded
  only when a query actually needs the samples.
* :class:`TailChunk` — already-decoded arrays (an object-store block's
  private copy when the store has no directory); nothing to decode.

Decoded ``(timestamps, values)`` arrays are memoised in a process-wide
bounded LRU (:data:`DECODE_CACHE`) so repeated queries over the same
hot chunks decode once; :data:`DECODE_CACHE_STATS` feeds the
``ceems_tsdb_chunk_decode_cache_*_total`` self-telemetry counters.

:class:`ChunkSeries` assembles ordered chunk handles into a series
and :class:`MergedSeries` layers a mutable primary (the live head) over
a chunk-backed secondary with window-local last-write-wins dedup — the
Thanos fan-out's lazy merge.  Each provides ``arrays`` and a pruned
``query_window_arrays``, which decodes only the chunks whose
``[min_time, max_time]`` overlaps the request; the window and lookback
reads come from :class:`~repro.tsdb.storage.SeriesReads`, as they do
for head series.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict

import numpy as np

from repro.tsdb.model import BY_LABELS, Labels, select_labels
from repro.tsdb.persist.chunk import decode_chunk
from repro.tsdb.storage import SeriesReads

#: Process-wide decoded-chunk LRU counters (self-telemetry).
DECODE_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}

#: Default LRU capacity in *chunks* (~120 samples ≈ 2 KiB decoded per
#: entry → ~8 MiB at the default).
DEFAULT_DECODE_CACHE_CHUNKS = 4096

_EMPTY = (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64))


class DecodedChunkCache:
    """Bounded LRU of decoded ``(timestamps, values)`` chunk arrays.

    Keys are the ``(file key, offset)`` of a :class:`FileChunk`;
    values are immutable ndarray pairs, safe to
    hand to any number of concurrent readers.
    """

    def __init__(self, max_chunks: int = DEFAULT_DECODE_CACHE_CHUNKS) -> None:
        self.max_chunks = max_chunks
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            DECODE_CACHE_STATS["misses"] += 1
            return None
        self._entries.move_to_end(key)
        DECODE_CACHE_STATS["hits"] += 1
        return entry

    def put(self, key, arrays) -> None:
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = arrays
        while len(entries) > self.max_chunks:
            entries.popitem(last=False)
            DECODE_CACHE_STATS["evictions"] += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide decoded-chunk cache all chunk handles share.
DECODE_CACHE = DecodedChunkCache()


class FileChunk:
    """One chunk inside an mmap'd block chunk file, decoded on demand.

    ``source`` is a :class:`repro.tsdb.persist.block.ChunkFile`; the
    frame CRC is validated on first decode, then the decoded arrays
    live in the LRU keyed by ``(file key, frame offset)``.
    """

    __slots__ = ("source", "offset", "length", "count", "min_time", "max_time")

    def __init__(self, source, offset: int, length: int, count: int,
                 min_time: float, max_time: float):
        self.source = source
        self.offset = offset
        self.length = length
        self.count = count
        self.min_time = min_time
        self.max_time = max_time

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        key = (self.source.key, self.offset)
        cached = DECODE_CACHE.get(key)
        if cached is None:
            cached = decode_chunk(self.source.payload(self.offset, self.length))
            DECODE_CACHE.put(key, cached)
        return cached


class TailChunk:
    """Already-decoded samples, held as given (no copy); no cache traffic."""

    __slots__ = ("_ts", "_vs", "count", "min_time", "max_time")

    def __init__(self, ts: np.ndarray, vs: np.ndarray):
        self._ts = ts
        self._vs = vs
        self.count = len(ts)
        self.min_time = float(ts[0]) if len(ts) else float("inf")
        self.max_time = float(ts[-1]) if len(ts) else float("-inf")

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._ts, self._vs


def _concat(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    if not parts:
        return _EMPTY
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


class ChunkSeries(SeriesReads):
    """A read-only series assembled from time-ordered chunk handles.

    Chunks are decoded on demand: their metadata (``min_time``/
    ``max_time``) answers pruning questions without touching payload
    bytes, so a window read over a 30-day series decodes only the
    chunks overlapping the window.

    Chunks must not overlap in time — exactly what block writers
    produce; they are sorted here, so blocks may register in any order.
    """

    __slots__ = ("labels", "_chunks", "_mins", "_maxs", "_full")

    def __init__(self, labels, chunks: list):
        self.labels = labels
        self._chunks = sorted(chunks, key=lambda c: (c.min_time, c.max_time))
        self._mins = [c.min_time for c in self._chunks]
        self._maxs = [c.max_time for c in self._chunks]
        self._full: tuple[np.ndarray, np.ndarray] | None = None

    def _overlap(self, lo: float, hi: float) -> tuple[int, int]:
        """Index range of chunks whose [min,max] intersects [lo, hi]."""
        # first chunk whose max_time >= lo ... last whose min_time <= hi
        i = bisect_left(self._maxs, lo)
        j = bisect_right(self._mins, hi)
        return i, j

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        full = self._full
        if full is None:
            full = _concat([c.arrays() for c in self._chunks])
            self._full = full
        return full

    def query_window_arrays(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Samples of the chunks overlapping ``[lo, hi]`` — a
        contiguous superset of the samples in the window, decoding
        nothing outside it."""
        i, j = self._overlap(lo, hi)
        if i == 0 and j == len(self._chunks):
            return self.arrays()
        return _concat([c.arrays() for c in self._chunks[i:j]])


class ChunkIndex:
    """Chunk-backed series across registered blocks, selectable by matchers.

    The :class:`~repro.thanos.store.ObjectStore` keeps one index per
    resolution: registering a block contributes its
    per-series chunk handle lists; dropping a block retracts them.
    Equality postings (``(name, value)`` → label sets) are maintained
    at both moments, so a cold selector narrows through the same
    :func:`~repro.tsdb.model.select_labels` intersection as the head
    TSDB instead of testing every block series.  ``select`` assembles
    (and memoises) :class:`ChunkSeries` spanning every registered
    block — the memo is wiped whenever the block population changes
    (``generation`` bump), mirroring the TSDB's series-epoch contract.
    """

    MEMO_MAX = 256

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._blocks: dict[str, list[Labels]] = {}  # ulid -> its series
        # labels -> {ulid: [chunk handles]} over every registered block
        self._series: dict[Labels, dict[str, list]] = {}
        self._postings: dict[tuple[str, str], set[Labels]] = {}
        #: bumps when blocks register or retract (memo invalidation).
        self.generation = 0
        self._memo: dict = {}

    def add_block(self, ulid: str, series_chunks) -> None:
        """Register ``(labels, [chunk handles])`` pairs under ``ulid``."""
        self.remove_block(ulid)  # re-registering a ulid replaces it
        block = dict(series_chunks)
        self._blocks[ulid] = list(block)
        for labels, chunks in block.items():
            per_block = self._series.get(labels)
            if per_block is None:
                per_block = self._series[labels] = {}
                for pair in labels:
                    self._postings.setdefault(pair, set()).add(labels)
            per_block[ulid] = chunks
        self._bump()

    def remove_block(self, ulid: str) -> bool:
        members = self._blocks.pop(ulid, None)
        if members is None:
            return False
        for labels in members:
            per_block = self._series[labels]
            del per_block[ulid]
            if per_block:
                continue
            del self._series[labels]
            for pair in labels:
                found = self._postings[pair]
                found.discard(labels)
                if not found:
                    del self._postings[pair]
        self._bump()
        return True

    def _bump(self) -> None:
        self.generation += 1
        self._memo.clear()

    @property
    def num_series(self) -> int:
        return len(self._series)

    def select(self, matchers) -> list[ChunkSeries]:
        """Matching series in label order (empty matchers = all)."""
        key = tuple(matchers)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        series = self._series
        out = [
            ChunkSeries(labels, [c for chunks in series[labels].values() for c in chunks])
            for labels in select_labels(self._postings, series, key)
        ]
        out.sort(key=BY_LABELS)
        if len(self._memo) >= self.MEMO_MAX:
            self._memo.clear()
        self._memo[key] = out
        return out

    def all_series(self) -> list[ChunkSeries]:
        return self.select(())

    def label_values(self, label_name: str) -> set[str]:
        return {value for name, value in self._postings if name == label_name and value}


class MergedSeries(SeriesReads):
    """Lazy last-write-wins merge of a primary over a secondary series.

    The Thanos fan-out overlays the hot head (primary) on store data
    (secondary).  Reads are window-local: both sides are read through
    ``query_window_arrays`` and deduplicated only within the requested
    window, which equals global dedup restricted to the window because
    equal timestamps land on the same side of any time bound.

    Cached merges are only valid while both sides are unmutated — the
    owning memo (fan-out select cache) epoch-validates and rebuilds
    ``MergedSeries`` objects on any mutation.
    """

    __slots__ = ("labels", "primary", "secondary", "_full")

    def __init__(self, primary, secondary, labels):
        self.labels = labels
        self.primary = primary
        self.secondary = secondary
        self._full: tuple[np.ndarray, np.ndarray] | None = None

    @staticmethod
    def _merge(p: tuple, s: tuple) -> tuple[np.ndarray, np.ndarray]:
        p_ts, p_vs = p
        s_ts, s_vs = s
        if not len(s_ts):
            return p_ts, p_vs
        if not len(p_ts):
            return s_ts, s_vs
        keep = ~np.isin(s_ts, p_ts)  # primary wins duplicate timestamps
        ts = np.concatenate([s_ts[keep], p_ts])
        vs = np.concatenate([s_vs[keep], p_vs])
        order = np.argsort(ts, kind="stable")
        return ts[order], vs[order]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        full = self._full
        if full is None:
            full = self._merge(self.primary.arrays(), self.secondary.arrays())
            self._full = full
        return full

    def query_window_arrays(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        if self._full is not None:
            return self._full
        return self._merge(
            self.primary.query_window_arrays(lo, hi),
            self.secondary.query_window_arrays(lo, hi),
        )
