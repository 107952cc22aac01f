"""Step-aligned results cache for the query frontend.

Two cooperating layers, both bounded by byte-budget LRU:

:class:`ResultsCache` caches *evaluated* ``query_range`` output —
rendered ``[t, "v"]`` pairs, exactly as the Prometheus JSON API emits
them — keyed per ``(tenant, query, step, grid phase)``.  A
cache entry records two things:

* ``covered`` — the set of grid timestamps this key has been
  evaluated at.  Coverage is tracked even where no series produced a
  value: "we evaluated 12:00 and the result was empty" is as
  cacheable as a value.
* per-series sorted ``(timestamp, value-string)`` columns, from which
  any sub-range of a later request is sliced.

Only a grid that crosses a split boundary is looked up or stored here:
one that fits a single split bucket is forwarded whole (see
:meth:`repro.frontend.server.QueryFrontend._range_inner`).

:class:`ResponseMemo` short-circuits *complete* repeats: the full
rendered body of a request whose every grid timestamp lies in settled
history (older than the freshness window) is stored under the request
fingerprint and replayed byte-for-byte.  Settled history is immutable
— scrapes and rule evaluations only append at "now" — so a memoised
body can never go stale; requests touching the live tail are never
memoised.

Correctness model.  Serving a cached point substitutes a *previously
rendered* value for a fresh evaluation, which is sound because (a)
the evaluators are deterministic and bit-identical (PR-1/PR-6
differential contracts), (b) history outside the freshness window is
immutable, and (c) lookups are by exact float timestamp equality, so
a request whose grid drifts by even one ulp from the cached grid
simply misses and re-evaluates.  The live tail (the most recent
``freshness_seconds``) is never stored: samples may still be arriving
there, so those steps are re-evaluated on every request and dashboards
are never served stale "now" data.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Any

#: Default live-tail window kept uncacheable (Cortex's
#: ``max_cache_freshness``): 10 minutes.
DEFAULT_FRESHNESS = 600.0

#: Approximate per-point overhead (float timestamp + list slots).
_POINT_BYTES = 24


class _SeriesColumn:
    """One cached series: sorted timestamps + rendered value strings."""

    __slots__ = ("metric", "ts", "vals")

    def __init__(self, metric: dict[str, str]) -> None:
        #: The ``metric`` JSON object exactly as the backend rendered
        #: it (label-name-sorted, the ``Labels.as_dict()`` order) —
        #: reused verbatim so re-rendered JSON is byte-identical.
        self.metric = metric
        self.ts: list[float] = []
        self.vals: list[str] = []


class _Entry:
    """All cached state for one (tenant, query, step, phase) key."""

    __slots__ = ("covered", "series", "bytes")

    def __init__(self) -> None:
        self.covered: set[float] = set()
        self.series: dict[tuple, _SeriesColumn] = {}
        self.bytes = 0


class ResultsCache:
    """Extent cache over rendered range-query results (thread-safe)."""

    def __init__(self, max_bytes: int = 64 * 1024 * 1024) -> None:
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.total_bytes = 0

    # -- lookup ----------------------------------------------------------
    def snapshot(
        self, key: tuple, grid: list[float]
    ) -> tuple[set[float], list[tuple[tuple, dict[str, str], list[float], list[str]]]]:
        """Atomically resolve coverage AND copy out the covered points.

        Returns ``(served, columns)``: the subset of ``grid`` this key
        has already evaluated, plus the cached ``(series_key, metric,
        ts, vals)`` slices at exactly those timestamps.  Both come from
        a single lock hold — a concurrent ingest (or the caller's own,
        via the byte-budget eviction) may drop the entry at any moment
        after this returns, and served steps are never re-evaluated, so
        the points backing the coverage claim must leave the cache
        together with the claim itself.  Answering from the copy keeps
        the response complete (and safe to memoise) no matter what the
        cache does afterwards.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return set(), []
            self._entries.move_to_end(key)
            served = {t for t in grid if t in entry.covered}
            if not served:
                return served, []
            lo, hi = grid[0], grid[-1]
            columns = []
            for series_key, col in entry.series.items():
                a = bisect_left(col.ts, lo)
                b = bisect_right(col.ts, hi)
                if a >= b:
                    continue
                ts = [t for t in col.ts[a:b] if t in served]
                if not ts:
                    continue
                vals = [
                    v for t, v in zip(col.ts[a:b], col.vals[a:b]) if t in served
                ]
                columns.append((series_key, col.metric, ts, vals))
            return served, columns

    # -- ingest ----------------------------------------------------------
    def ingest(
        self,
        key: tuple,
        part_steps: list[float],
        result: list[dict[str, Any]],
        cutoff: float,
    ) -> None:
        """Store one already-parsed evaluated sub-range.

        ``part_steps`` is the full step grid the sub-query evaluated
        (coverage, including empty steps); ``result`` the parsed JSON
        ``result`` array; points newer than ``cutoff`` (the live tail)
        are discarded.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _Entry()
            self._entries.move_to_end(key)
            fresh_cov = {t for t in part_steps if t <= cutoff and t not in entry.covered}
            if not fresh_cov:
                return
            entry.covered |= fresh_cov
            added = len(fresh_cov) * 8
            for item in result:
                pairs = [
                    (float(t), v) for t, v in item["values"] if float(t) in fresh_cov
                ]
                if not pairs:
                    continue
                metric = item["metric"]
                series_key = tuple(sorted(metric.items()))
                col = entry.series.get(series_key)
                if col is None:
                    col = entry.series[series_key] = _SeriesColumn(metric)
                    added += sum(len(k) + len(v) for k, v in series_key)
                if not col.ts or pairs[0][0] > col.ts[-1]:
                    col.ts.extend(t for t, _v in pairs)
                    col.vals.extend(v for _t, v in pairs)
                else:
                    merged = sorted(list(zip(col.ts, col.vals)) + pairs)
                    col.ts = [t for t, _v in merged]
                    col.vals = [v for _t, v in merged]
                added += sum(_POINT_BYTES + len(v) for _t, v in pairs)
            entry.bytes += added
            self.total_bytes += added
            self._evict_locked(keep=key)

    def _evict_locked(self, keep: tuple) -> None:
        while self.total_bytes > self.max_bytes and len(self._entries) > 1:
            old_key, old = next(iter(self._entries.items()))
            if old_key == keep:
                self._entries.move_to_end(old_key)
                old_key, old = next(iter(self._entries.items()))
            del self._entries[old_key]
            self.total_bytes -= old.bytes
            self.evictions += 1
        if self.total_bytes > self.max_bytes and len(self._entries) == 1:
            # A single oversized entry: drop it rather than pin it.
            _key, old = self._entries.popitem()
            self.total_bytes -= old.bytes
            self.evictions += 1

    def record_hit(self) -> None:
        """Count a request served at least partially from cache.

        Request threads race on these counters under closed-loop load;
        a bare ``+= 1`` from the server would drop increments.
        """
        with self._lock:
            self.hits += 1

    def record_miss(self) -> None:
        """Count a request that needed at least one backend evaluation."""
        with self._lock:
            self.misses += 1

    def stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "entries": float(len(self._entries)),
                "bytes": float(self.total_bytes),
                "hits": float(self.hits),
                "misses": float(self.misses),
                "evictions": float(self.evictions),
            }


class ResponseMemo:
    """Byte-bounded LRU of complete rendered responses.

    Only responses whose whole step grid is settled (older than the
    freshness cutoff) are stored — see the module docstring for why
    that makes invalidation unnecessary.  Keys are full request
    fingerprints (tenant + path + every query parameter), so a memo
    hit is a byte-for-byte replay of this exact request.
    """

    def __init__(self, max_bytes: int = 16 * 1024 * 1024) -> None:
        self.max_bytes = max_bytes
        self._bodies: OrderedDict[tuple, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self.total_bytes = 0
        self.hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._bodies)

    def get(self, fingerprint: tuple) -> bytes | None:
        with self._lock:
            body = self._bodies.get(fingerprint)
            if body is not None:
                self._bodies.move_to_end(fingerprint)
                self.hits += 1
            return body

    def put(self, fingerprint: tuple, body: bytes) -> None:
        with self._lock:
            old = self._bodies.pop(fingerprint, None)
            if old is not None:
                self.total_bytes -= len(old)
            self._bodies[fingerprint] = body
            self.total_bytes += len(body)
            while self.total_bytes > self.max_bytes and len(self._bodies) > 1:
                _fp, evicted = self._bodies.popitem(last=False)
                self.total_bytes -= len(evicted)
            if self.total_bytes > self.max_bytes and self._bodies:
                _fp, evicted = self._bodies.popitem()
                self.total_bytes -= len(evicted)

    def clear(self) -> None:
        with self._lock:
            self._bodies.clear()
            self.total_bytes = 0
