"""Fan-out querier merging hot-TSDB and object-store data.

Implements the ``select`` contract the PromQL engine expects, so one
engine instance can transparently answer over the full history: the
hot TSDB serves recent samples, the store's raw blocks serve older
ones, and overlap deduplicates in favour of the hot data (it is
rawer).
"""

from __future__ import annotations

from typing import Sequence

from repro.thanos.store import ObjectStore
from repro.tsdb.model import Matcher
from repro.tsdb.persist.chunkio import MergedSeries
from repro.tsdb.storage import TSDB


class FanoutStorage:
    """Hot + store querier with dedup.

    Merged selector results are memoised keyed by the matcher tuple.
    An entry lives as long as what it was built from: the list the hot
    TSDB's memo holds for the same matchers
    (:meth:`~repro.tsdb.storage.TSDB.memoised_select`, the very list
    object — a series created or dropped that the matchers select
    makes the TSDB forget it) and the store's raw
    :meth:`~repro.thanos.store.ObjectStore.version`.  Hot and store
    series are read where they live (head series mutate in place,
    blocks never change), so appends and retention leave such an entry
    valid, as they leave the TSDB's own memo.  An entry holding a
    :class:`~repro.tsdb.persist.chunkio.MergedSeries` is a frozen
    merge once read, so it is also validated against the hot TSDB's
    ``data_epoch`` and rebuilt after any append.  A dashboard burst or
    a columnar range query touching the same selectors pays the merge
    once.

    Overlapping series merge lazily: the memo holds
    :class:`~repro.tsdb.persist.chunkio.MergedSeries` overlays (hot
    wins duplicate timestamps) and queries read them window-pruned, so
    the store side decodes only what a query touches.
    """

    #: Upper bound on memoised fan-out selections before wholesale reset.
    SELECT_CACHE_MAX = 128

    def __init__(self, hot: TSDB, store: ObjectStore) -> None:
        self.hot = hot
        self.store = store
        # matchers -> (hot list, store version, data epoch or None, result)
        self._select_cache: dict[tuple[Matcher, ...], tuple[list, int, int | None, list]] = {}
        self.select_cache_hits = 0
        self.select_cache_misses = 0
        #: Optional :class:`repro.obs.telemetry.Telemetry` sink; when
        #: set, selects inside an active trace record child spans.
        self.telemetry = None

    # Status endpoints (runtimeinfo) introspect whatever storage the
    # PromAPI wraps; for a fanout the hot head is the authoritative
    # side for live-series accounting and retention policy.
    @property
    def num_series(self) -> int:
        return self.hot.num_series

    @property
    def retention(self) -> float:
        return self.hot.retention

    def select(self, matchers: Sequence[Matcher]) -> list:
        if self.telemetry is not None:
            with self.telemetry.child_span("fanout.select") as span:
                result = self._select(matchers)
                if span is not None:
                    span.attrs["series"] = len(result)
                return result
        return self._select(matchers)

    def _select(self, matchers: Sequence[Matcher]) -> list:
        key = tuple(matchers)
        version = self.store.version("raw")
        data_epoch = self.hot.data_epoch
        cached = self._select_cache.get(key)
        if (
            cached is not None
            and cached[1] == version
            and (cached[2] is None or cached[2] == data_epoch)
            and self.hot.memoised_select(key) is cached[0]
        ):
            self.select_cache_hits += 1
            return cached[3]
        self.select_cache_misses += 1
        hot_list = self.hot.select(matchers)
        hot_series = {s.labels: s for s in hot_list}
        store_series = {s.labels: s for s in self.store.select_at("raw", matchers)}
        keys = sorted(set(hot_series) | set(store_series), key=tuple)
        result = []
        merged = False
        for k in keys:
            primary = hot_series.get(k)
            secondary = store_series.get(k)
            if secondary is None:
                result.append(primary)
            elif primary is None:
                result.append(secondary)
            else:
                result.append(MergedSeries(primary, secondary, k))
                merged = True
        if len(self._select_cache) >= self.SELECT_CACHE_MAX:
            self._select_cache.clear()
        self._select_cache[key] = (hot_list, version, data_epoch if merged else None, result)
        return result

    def selector_cache_stats(self) -> dict[str, float]:
        """Hit/miss counters of the fan-out selector memo."""
        total = self.select_cache_hits + self.select_cache_misses
        return {
            "hits": float(self.select_cache_hits),
            "misses": float(self.select_cache_misses),
            "hit_rate": self.select_cache_hits / total if total else 0.0,
        }

    def label_values(self, name: str) -> list[str]:
        return sorted(
            set(self.hot.label_values(name)) | set(self.store.label_values_at("raw", name))
        )
