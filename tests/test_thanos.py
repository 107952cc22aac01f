"""Tests for the Thanos substrate: sidecar, store, compactor, fanout."""

import numpy as np
import pytest

from repro.common.errors import StorageError
from repro.thanos.compact import Compactor, _downsample_series
from repro.thanos.query import FanoutStorage
from repro.thanos.sidecar import Sidecar
from repro.thanos.store import ObjectStore
from repro.tsdb.model import Labels, Matcher
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.storage import TSDB


def mk(name: str, **labels: str) -> Labels:
    return Labels({"__name__": name, **labels})


def samples(store: ObjectStore, resolution: str) -> int:
    return sum(b.num_samples for b in store.blocks_at(resolution))


def fill(db: TSDB, hours: float, step: float = 60.0) -> None:
    t = 0.0
    while t <= hours * 3600.0:
        db.append(mk("m", instance="n1"), t, t / 60.0)
        t += step


class TestSidecar:
    def test_uploads_completed_blocks_only(self):
        hot = TSDB()
        fill(hot, hours=5)
        store = ObjectStore()
        sidecar = Sidecar(hot, store)
        uploaded = sidecar.upload(now=5 * 3600.0)
        assert uploaded == 2  # two complete 2h windows; the third is open
        assert samples(store, "raw") == 2 * 120

    def test_incremental_upload(self):
        hot = TSDB()
        fill(hot, hours=2)
        store = ObjectStore()
        sidecar = Sidecar(hot, store)
        sidecar.upload(now=2 * 3600.0)
        first = samples(store, "raw")
        fill_more = TSDB()  # extend hot in place instead
        t = 2 * 3600.0 + 60.0
        while t <= 4 * 3600.0:
            hot.append(mk("m", instance="n1"), t, t / 60.0)
            t += 60.0
        sidecar.upload(now=4 * 3600.0)
        assert samples(store, "raw") > first
        assert sidecar.blocks_uploaded == 2
        del fill_more

    def test_block_metadata(self):
        hot = TSDB()
        fill(hot, hours=2)
        store = ObjectStore()
        Sidecar(hot, store).upload(now=2 * 3600.0)
        block = store.blocks_at("raw")[0]
        assert block.min_time == 0.0
        assert block.max_time == 7200.0
        assert block.num_series == 1
        assert block.level == 1

    def test_nothing_to_upload(self):
        sidecar = Sidecar(TSDB(), ObjectStore())
        assert sidecar.upload(now=1e6) == 0


class TestDownsampling:
    def test_bucket_means(self):
        ts = np.arange(0, 600, 60.0)
        vs = np.arange(10, dtype=np.float64)
        b_ts, means, mins, maxs = _downsample_series(ts, vs, bucket=300.0)
        assert b_ts.tolist() == [300.0, 600.0]
        assert means.tolist() == [2.0, 7.0]
        assert mins.tolist() == [0.0, 5.0]
        assert maxs.tolist() == [4.0, 9.0]

    def test_compactor_produces_5m_resolution(self):
        hot = TSDB()
        fill(hot, hours=8, step=60.0)
        store = ObjectStore()
        Sidecar(hot, store).upload(now=8 * 3600.0)
        compactor = Compactor(store, downsample_5m_after=3600.0)
        produced = compactor.downsample(now=8 * 3600.0)
        assert produced["5m"] > 0
        mean_series = store.select_at("5m", [Matcher.name_eq("m")])
        assert len(mean_series) == 1
        # 5m averages of a linear signal match the signal midpoint
        ts, vs = mean_series[0].window(300.0, 3600.0)
        for t, v in zip(ts.tolist(), vs.tolist()):
            assert v == pytest.approx((t - 150.0) / 60.0, abs=0.6)

    def test_min_max_helper_series(self):
        hot = TSDB()
        fill(hot, hours=4)
        store = ObjectStore()
        Sidecar(hot, store).upload(now=4 * 3600.0)
        Compactor(store, downsample_5m_after=0.0).downsample(now=4 * 3600.0)
        assert store.label_values_at("5m", "__name__") == ["m", "m:max", "m:min"]
        (block,) = store.blocks_at("5m")
        assert block.num_series == 3

    def test_downsample_idempotent(self):
        hot = TSDB()
        fill(hot, hours=4)
        store = ObjectStore()
        Sidecar(hot, store).upload(now=4 * 3600.0)
        compactor = Compactor(store, downsample_5m_after=0.0)
        compactor.downsample(now=4 * 3600.0)
        second = compactor.downsample(now=4 * 3600.0)
        assert second["5m"] == 0  # nothing new to do

    def test_1h_resolution_from_5m(self):
        hot = TSDB()
        fill(hot, hours=30, step=300.0)
        store = ObjectStore()
        Sidecar(hot, store).upload(now=30 * 3600.0)
        compactor = Compactor(store, downsample_5m_after=0.0, downsample_1h_after=0.0)
        produced = compactor.downsample(now=30 * 3600.0)
        assert produced["1h"] > 0
        assert samples(store, "1h") > 0


class TestCompaction:
    def test_blocks_merge_to_higher_levels(self):
        hot = TSDB()
        fill(hot, hours=17, step=120.0)
        store = ObjectStore()
        Sidecar(hot, store).upload(now=17 * 3600.0)
        assert len(store.blocks_at("raw")) == 8
        compactor = Compactor(store)
        merged = compactor.compact_blocks()
        assert merged == 8  # 8 level-1 blocks -> 2 level-2 blocks
        level2 = [b for b in store.blocks_at("raw") if b.level == 2]
        assert len(level2) == 2
        assert all(b.max_time - b.min_time == 8 * 3600.0 for b in level2)

    def test_incomplete_window_not_merged(self):
        hot = TSDB()
        fill(hot, hours=5, step=120.0)
        store = ObjectStore()
        Sidecar(hot, store).upload(now=5 * 3600.0)
        compactor = Compactor(store)
        compactor.compact_blocks()
        assert all(b.level == 1 for b in store.blocks_at("raw"))


class TestObjectStore:
    def test_bad_resolution_rejected(self):
        store = ObjectStore()
        with pytest.raises(StorageError):
            store.select_at("3m", [])
        with pytest.raises(StorageError):
            store.store_block([], min_time=0.0, max_time=1.0, resolution="3m")

    def test_inverted_block_rejected(self):
        store = ObjectStore()
        with pytest.raises(StorageError):
            store.store_block([], min_time=10.0, max_time=5.0)
        assert store.blocks == []

    def test_retention_per_resolution(self):
        store = ObjectStore(raw_retention=3600.0)
        ts = np.arange(0.0, 7200.0, 600.0)
        old = store.store_block([(mk("m"), ts[:3], np.ones(3))], min_time=0.0, max_time=1800.0)
        new = store.store_block([(mk("m"), ts[9:], np.ones(3))], min_time=5400.0, max_time=7200.0)
        assert old.num_samples == 3
        dropped = store.apply_retention(now=7200.0)
        assert dropped["raw"] == 3
        # retention drops whole blocks: the survivor keeps all its samples
        assert [b.ulid for b in store.blocks_at("raw")] == [new.ulid]
        (series,) = store.select_at("raw", [Matcher.name_eq("m")])
        assert series.timestamps == [5400.0, 6000.0, 6600.0]

    def test_block_holds_a_copy_of_its_arrays(self):
        store = ObjectStore()
        ts = np.array([0.0, 60.0])
        vs = np.array([1.0, 2.0])
        store.store_block([(mk("m"), ts, vs)], min_time=0.0, max_time=120.0)
        ts[1], vs[1] = 90.0, -1.0  # the caller reuses its buffers
        (series,) = store.select_at("raw", [])
        assert series.timestamps == [0.0, 60.0]
        assert series.values == [1.0, 2.0]


class TestFanout:
    def test_merge_prefers_primary(self):
        labels = mk("m")
        hot = TSDB()
        hot.append(labels, 10.0, 100.0)
        hot.append(labels, 20.0, 200.0)
        store = ObjectStore()
        # overlapping timestamp 10.0: hot wins
        store.store_block([(labels, np.array([0.0, 10.0]), np.array([-1.0, -2.0]))], min_time=0.0, max_time=20.0)
        (merged,) = FanoutStorage(hot, store).select([Matcher.name_eq("m")])
        assert merged.timestamps == [0.0, 10.0, 20.0]
        assert merged.values == [-1.0, 100.0, 200.0]
        assert merged.window(5.0, 15.0)[1].tolist() == [100.0]

    def test_merge_handles_missing_sides(self):
        hot = TSDB()
        hot.append(mk("m", side="hot"), 1.0, 1.0)
        store = ObjectStore()
        store.store_block([(mk("m", side="store"), np.array([1.0]), np.array([1.0]))], min_time=0.0, max_time=2.0)
        fanout = FanoutStorage(hot, store)
        # a series on one side only is served as that side's own object
        assert fanout.select([Matcher.eq("side", "hot")]) == hot.all_series()
        on_store = [Matcher.eq("side", "store")]
        assert fanout.select(on_store) == store.select_at("raw", on_store)
        assert fanout.select([Matcher.eq("side", "neither")]) == []

    def test_fanout_spans_hot_and_store(self):
        hot = TSDB(retention=3600.0)
        fill(hot, hours=4)
        store = ObjectStore()
        Sidecar(hot, store).upload(now=4 * 3600.0)
        hot.apply_retention(now=4 * 3600.0)  # hot now holds only 1h
        fanout = FanoutStorage(hot, store)
        engine = PromQLEngine(fanout)
        # query a point that only exists in the store
        result = engine.query("m", at=1800.0)
        assert len(result.vector) == 1
        # and a recent point that exists in hot
        result = engine.query("m", at=4 * 3600.0)
        assert len(result.vector) == 1

    def test_fanout_label_values(self):
        hot = TSDB()
        hot.append(mk("m", instance="hot1"), 0.0, 1.0)
        store = ObjectStore()
        store.store_block([(mk("m", instance="cold1"), np.array([0.0]), np.array([1.0]))], min_time=0.0, max_time=1.0)
        fanout = FanoutStorage(hot, store)
        assert fanout.label_values("instance") == ["cold1", "hot1"]


class TestFanoutSelectMemo:
    """Memoised fan-out selects against a fresh querier's, across
    appends, series creation and deletion, retention and a block cut
    whose window the head still holds (merged series)."""

    SELECTORS = (
        [Matcher.name_eq("m")],
        [Matcher.name_eq("m"), Matcher.eq("instance", "n1")],
        [Matcher.name_eq("m"), Matcher.re("instance", "n[23]")],
        [Matcher.name_eq("other")],
        [Matcher.re("instance", ".+")],
    )

    @staticmethod
    def _reads(series_list) -> list:
        out = []
        for s in series_list:
            ts, vs = s.arrays()
            w_ts, w_vs = s.window(1800.0, 7500.0)
            out.append((s.labels, ts.tobytes(), vs.tobytes(), w_ts.tobytes(), w_vs.tobytes(), s.at_or_before(7500.0, 300.0)))
        return out

    def _check(self, fanout: FanoutStorage) -> None:
        fresh = FanoutStorage(fanout.hot, fanout.store)
        for matchers in self.SELECTORS:
            assert self._reads(fanout.select(matchers)) == self._reads(fresh.select(matchers)), matchers

    def test_memoised_selects_equal_fresh_ones(self):
        hot = TSDB(retention=1.5 * 3600.0)
        store = ObjectStore()
        fanout = FanoutStorage(hot, store)
        sidecar = Sidecar(hot, store)
        t = 0.0

        def scrape(*instances: str) -> None:
            nonlocal t
            t += 60.0
            for instance in instances:
                hot.append(mk("m", instance=instance), t, t / 60.0 + len(instance))

        steps = [
            lambda: [scrape("n1", "n2") for _ in range(30)],
            lambda: scrape("n1", "n2"),  # appends only
            lambda: scrape("n1", "n2", "n3"),  # a series created
            lambda: hot.append(mk("other", instance="n1"), t, 1.0),
            lambda: hot.delete_series([Matcher.eq("instance", "n2")]),  # a series dropped
            lambda: [scrape("n1", "n3") for _ in range(100)],
            lambda: sidecar.upload(2 * 3600.0),  # a block the head still holds: merged series
            lambda: scrape("n1", "n3"),  # appends under merged series
            lambda: hot.apply_retention(t),  # samples dropped, one series emptied
            lambda: [scrape("n1", "n3") for _ in range(80)],
            lambda: hot.apply_retention(t + 3600.0),  # samples dropped, no series
            lambda: scrape("n4"),
        ]
        for step in steps:
            step()
            self._check(fanout)
            self._check(fanout)  # served from the memo
        assert store.blocks and fanout.select_cache_hits > len(steps) * len(self.SELECTORS)

    def test_hot_only_entries_survive_appends(self):
        hot = TSDB()
        fanout = FanoutStorage(hot, ObjectStore())
        selector = [Matcher.name_eq("m")]
        hot.append(mk("m", instance="n1"), 0.0, 1.0)
        first = fanout.select(selector)
        for t in range(1, 20):
            hot.append(mk("m", instance="n1"), float(t), 1.0)
            assert fanout.select(selector) is first
        assert first[0].timestamps == [float(t) for t in range(20)]
        hot.append(mk("m", instance="n2"), 20.0, 1.0)
        assert len(fanout.select(selector)) == 2
