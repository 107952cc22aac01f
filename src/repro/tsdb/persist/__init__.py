"""Durable storage engine (``repro.tsdb.persist``).

The paper's stack delegates durability to Prometheus TSDB and Thanos
object storage; this package gives the reproduction the same
substrate with real Prometheus-style on-disk semantics:

* :mod:`repro.tsdb.persist.chunk` — a Gorilla-style chunk codec
  (delta-of-delta timestamps, XOR-compressed float64 values) with a
  pure-Python encoder and a numpy-assisted decoder; roundtrips are
  bit-identical, including NaN/±inf payloads;
* :mod:`repro.tsdb.persist.wal` — a segmented write-ahead log with
  CRC32-framed records, a configurable fsync policy and
  corruption-tolerant replay that stops cleanly at the first torn
  frame;
* :mod:`repro.tsdb.persist.block` — the immutable on-disk block
  format (``meta.json`` + JSON index + CRC-framed chunk files) the
  Thanos sidecar writes and the object store / compactor read and
  rewrite;
* :mod:`repro.tsdb.persist.head` — :class:`PersistentTSDB`, a
  disk-backed head that journals every append to its WAL, replays it
  on open, and checkpoints/truncates the WAL whenever the sidecar
  cuts a block.

The design keeps the hot in-memory :class:`~repro.tsdb.storage.TSDB`
API unchanged: persistence is an opt-in subclass plus an opt-in
``persist_dir`` on the object store, which decides only whether its
blocks' chunks live in directories or in memory.
"""

from repro.tsdb.persist.block import (
    BlockReader,
    block_dir,
    list_block_ulids,
    read_meta,
    write_block,
)
from repro.tsdb.persist.chunk import decode_chunk, encode_chunk
from repro.tsdb.persist.head import PersistentTSDB
from repro.tsdb.persist.wal import WAL, ReplayResult

__all__ = [
    "BlockReader",
    "PersistentTSDB",
    "ReplayResult",
    "WAL",
    "block_dir",
    "decode_chunk",
    "encode_chunk",
    "list_block_ulids",
    "read_meta",
    "write_block",
]
