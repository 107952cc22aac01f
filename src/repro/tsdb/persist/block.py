"""Immutable on-disk block format (``meta.json`` + index + chunks).

A block is one directory named by its ULID::

    <root>/<ulid>/
        meta.json        block metadata (times, stats, compaction lineage)
        index.json       series -> chunk references
        chunks/000001    CRC-framed Gorilla chunks, concatenated

``meta.json`` mirrors Prometheus's block meta (ULID, minTime/maxTime,
stats, compaction level + sources) plus this stack's resolution tag
and codec accounting (raw vs. encoded bytes).  The index is JSON
rather than Prometheus's binary postings — debuggable with ``jq`` and
two orders of magnitude smaller than the chunk payload it points at;
the *chunk files* use the real bit-packed codec, which is where the
bytes are.  Chunk frames reuse the WAL framing
(``[u32 len][u32 crc32][chunk]``) so torn or bit-rotted chunks are
detected on read.

Reads are mmap-backed: :class:`BlockReader` maps each chunk file once
(:class:`ChunkFile`) and slices CRC-validated payloads out of the
mapping on demand, so opening a block costs the index JSON only and a
query pays decode for exactly the chunks it touches
(:meth:`BlockReader.chunk_series` + ``persist/chunkio.py``).

Blocks are immutable: the sidecar writes a directory once and
registers it; the compactor *rewrites* (new ULID, new directory) and
deletes the sources, never edits in place.
"""

from __future__ import annotations

import itertools
import json
import mmap
import os
import shutil
import struct
import zlib
from typing import Iterable, Iterator

import numpy as np

from repro.common.errors import StorageError
from repro.obs import prof
from repro.tsdb.model import Labels
from repro.tsdb.persist.chunk import DEFAULT_CHUNK_SAMPLES, decode_chunk, iter_chunks
from repro.tsdb.persist.chunkio import FileChunk

_FRAME = struct.Struct("<II")

META_FILENAME = "meta.json"
INDEX_FILENAME = "index.json"
CHUNKS_DIRNAME = "chunks"
#: One chunk file per block is plenty at simulation scale; the format
#: carries the filename per chunk ref so multi-file blocks stay valid.
CHUNK_FILENAME = "000001"


def block_dir(root: str, ulid: str) -> str:
    return os.path.join(root, ulid)


def list_block_ulids(root: str) -> list[str]:
    """ULIDs of every complete block directory under ``root``."""
    if not os.path.isdir(root):
        return []
    out = []
    for entry in sorted(os.listdir(root)):
        if os.path.isfile(os.path.join(root, entry, META_FILENAME)):
            out.append(entry)
    return out


def read_meta(root: str, ulid: str) -> dict:
    with open(os.path.join(block_dir(root, ulid), META_FILENAME), encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("ulid") != ulid:
        raise StorageError(f"block {ulid}: meta.json names {meta.get('ulid')!r}")
    return meta


def write_block(
    root: str,
    ulid: str,
    series: Iterable[tuple[Labels, np.ndarray, np.ndarray]],
    *,
    min_time: float,
    max_time: float,
    resolution: str = "raw",
    level: int = 1,
    sources: tuple[str, ...] = (),
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
) -> dict:
    """Write one immutable block directory; returns its meta dict.

    ``series`` yields ``(labels, timestamps, values)``; empty series
    are skipped.  The write is staged in ``<ulid>.tmp`` and renamed
    into place so a crash mid-write never leaves a half block that
    :func:`list_block_ulids` would pick up.
    """
    with prof.profile("block.write"):
        return _write_block(
            root,
            ulid,
            series,
            min_time=min_time,
            max_time=max_time,
            resolution=resolution,
            level=level,
            sources=sources,
            chunk_samples=chunk_samples,
        )


def _write_block(
    root: str,
    ulid: str,
    series: Iterable[tuple[Labels, np.ndarray, np.ndarray]],
    *,
    min_time: float,
    max_time: float,
    resolution: str,
    level: int,
    sources: tuple[str, ...],
    chunk_samples: int,
) -> dict:
    final_dir = block_dir(root, ulid)
    tmp_dir = final_dir + ".tmp"
    if os.path.exists(final_dir):
        raise StorageError(f"block {ulid} already exists")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(os.path.join(tmp_dir, CHUNKS_DIRNAME))

    index: list[dict] = []
    num_samples = 0
    num_chunks = 0
    raw_bytes = 0
    encoded_bytes = 0
    chunk_rel = f"{CHUNKS_DIRNAME}/{CHUNK_FILENAME}"
    with open(os.path.join(tmp_dir, CHUNKS_DIRNAME, CHUNK_FILENAME), "wb") as chunks_fh:
        offset = 0
        for labels, ts, vs in series:
            if len(ts) == 0:
                continue
            refs = []
            for encoded, count, lo_t, hi_t in iter_chunks(ts, vs, chunk_samples):
                frame = _FRAME.pack(len(encoded), zlib.crc32(encoded)) + encoded
                chunks_fh.write(frame)
                refs.append(
                    {
                        "file": chunk_rel,
                        "offset": offset,
                        "length": len(encoded),
                        "count": count,
                        "minTime": lo_t,
                        "maxTime": hi_t,
                    }
                )
                offset += len(frame)
                num_samples += count
                num_chunks += 1
                raw_bytes += 16 * count
                encoded_bytes += len(encoded)
            index.append({"labels": labels.as_dict(), "chunks": refs})

    meta = {
        "ulid": ulid,
        "minTime": min_time,
        "maxTime": max_time,
        "resolution": resolution,
        "stats": {
            "numSamples": num_samples,
            "numSeries": len(index),
            "numChunks": num_chunks,
        },
        "compaction": {"level": level, "sources": list(sources)},
        "codec": {"rawBytes": raw_bytes, "encodedBytes": encoded_bytes},
    }
    with open(os.path.join(tmp_dir, INDEX_FILENAME), "w", encoding="utf-8") as fh:
        json.dump(index, fh)
    # meta.json written last inside the staging dir, then one rename
    # publishes the block atomically (same-filesystem rename).
    with open(os.path.join(tmp_dir, META_FILENAME), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    os.rename(tmp_dir, final_dir)
    return meta


def delete_block(root: str, ulid: str) -> bool:
    """Remove a block directory; True when something was deleted."""
    path = block_dir(root, ulid)
    if not os.path.isdir(path):
        return False
    shutil.rmtree(path)
    return True


class ChunkFile:
    """One mmap'd chunk file; validates CRC frames on demand.

    ``key`` is process-unique and keys the decoded-chunk LRU together
    with the frame offset, so two readers over the same path never
    collide with a reopened (different-generation) mapping.
    """

    _keys = itertools.count()

    def __init__(self, path: str, name: str = "") -> None:
        self.path = path
        self.name = name or path
        self.key = next(ChunkFile._keys)
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size:
                self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            else:
                self._mm = b""  # mmap rejects empty files

    def payload(self, offset: int, length: int) -> bytes:
        """CRC-checked chunk payload at frame ``offset``."""
        header = self._mm[offset : offset + _FRAME.size]
        if len(header) < _FRAME.size:
            raise StorageError(f"{self.name}: truncated chunk frame")
        frame_length, crc = _FRAME.unpack(header)
        if frame_length != length:
            raise StorageError(f"{self.name}: chunk length mismatch")
        start = offset + _FRAME.size
        payload = self._mm[start : start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            raise StorageError(f"{self.name}: chunk CRC mismatch")
        return payload

    def close(self) -> None:
        if not isinstance(self._mm, bytes):
            self._mm.close()
            self._mm = b""


class BlockReader:
    """Lazy reader over one block directory.

    Chunk files are mmap'd on first touch and kept mapped for the
    reader's lifetime; :meth:`chunk_series` exposes decode-on-demand
    chunk handles (what the store registers), :meth:`series` decodes
    the whole block eagerly.
    """

    def __init__(self, root: str, ulid: str) -> None:
        self.root = root
        self.ulid = ulid
        self.dir = block_dir(root, ulid)
        self.meta = read_meta(root, ulid)
        with open(os.path.join(self.dir, INDEX_FILENAME), encoding="utf-8") as fh:
            self.index = json.load(fh)
        self._chunk_files: dict[str, ChunkFile] = {}

    def _chunk_file(self, rel: str) -> ChunkFile:
        cf = self._chunk_files.get(rel)
        if cf is None:
            path = os.path.join(self.dir, *rel.split("/"))
            cf = ChunkFile(path, name=f"block {self.ulid}")
            self._chunk_files[rel] = cf
        return cf

    def close(self) -> None:
        """Unmap every chunk file (drop before deleting the block)."""
        for cf in self._chunk_files.values():
            cf.close()
        self._chunk_files.clear()

    def _read_chunk(self, ref: dict) -> tuple[np.ndarray, np.ndarray]:
        payload = self._chunk_file(ref["file"]).payload(ref["offset"], ref["length"])
        return decode_chunk(payload)

    def chunk_series(self) -> Iterator[tuple[Labels, list[FileChunk]]]:
        """Yield ``(labels, [FileChunk, ...])`` per series — no decode.

        The handles carry per-chunk (count, minTime, maxTime) straight
        from the index, so time pruning never touches payload bytes.
        """
        for entry in self.index:
            labels = Labels(entry["labels"])
            handles = [
                FileChunk(
                    self._chunk_file(ref["file"]),
                    ref["offset"],
                    ref["length"],
                    ref["count"],
                    ref["minTime"],
                    ref["maxTime"],
                )
                for ref in entry["chunks"]
            ]
            if handles:
                yield labels, handles

    def series(self) -> Iterator[tuple[Labels, np.ndarray, np.ndarray]]:
        """Yield ``(labels, timestamps, values)`` per series, decoded."""
        for entry in self.index:
            labels = Labels(entry["labels"])
            parts = [self._read_chunk(ref) for ref in entry["chunks"]]
            if not parts:
                continue
            ts = np.concatenate([p[0] for p in parts])
            vs = np.concatenate([p[1] for p in parts])
            yield labels, ts, vs
