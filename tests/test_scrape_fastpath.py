"""Scrape fast lane: differential proof, cache behaviour, resilience.

The production lane (per-target scrape cache + append-by-ref + optional
worker pool) must be **bit-identical** to the parse-everything oracle
(``tests/reference/scrape.py``): same series set, same sample values,
same staleness markers — across structure churn, retention, and series
deletion.  These tests are the harness behind that claim;
``use_cache`` below picks the lane (``False`` = the oracle).
"""

import math
import tempfile

import pytest

from repro.common.httpx import App, Response
from repro.tsdb import exposition
from repro.tsdb.model import Labels, Matcher
from repro.tsdb.scrape import ScrapeCache, ScrapeConfig, ScrapeManager, ScrapeTarget
from repro.tsdb.storage import TSDB
from tests.reference.scrape import MANAGERS


def make_exporter(families_fn) -> App:
    app = App("fake")
    app.router.get("/metrics", lambda req: Response.text(exposition.render(families_fn())))
    return app


def dump(db: TSDB):
    """Canonical TSDB contents; NaN-safe via repr of values."""
    return [
        (tuple(s.labels), tuple(s.timestamps), tuple(repr(v) for v in s.values))
        for s in db.all_series()
    ]


def churn_families(cycle: int):
    """A payload whose structure changes every cycle."""
    fam = exposition.MetricFamily("power_watts", help="w", type="gauge")
    fam.add(100.0 + cycle, hostname="n0", sensor='we"ird\\x,y}{')
    if cycle % 2 == 0:
        fam.add(50.0, hostname="n0", uuid=f"job-{cycle}")
    if cycle == 3:
        fam.add(math.nan, hostname="n0", uuid="nan-job")
    counters = exposition.MetricFamily("energy_joules_total", type="counter")
    counters.add(1000.0 * cycle)
    return [fam, counters]


def run_cycles(use_cache: bool, workers: int = 0, cycles: int = 6, db: TSDB | None = None):
    db = db if db is not None else TSDB()
    manager = MANAGERS[use_cache](db, ScrapeConfig(workers=workers))
    state = {"n": -1}

    def families():
        state["n"] += 1
        return churn_families(state["n"])

    manager.add_target(ScrapeTarget(app=make_exporter(families), instance="n0:9010", job="ceems"))
    for i in range(cycles):
        manager.scrape_all(now=15.0 * (i + 1))
    return db, manager


class TestDifferential:
    def test_bit_identical_across_structure_churn(self):
        ref, _ = run_cycles(use_cache=False)
        fast, _ = run_cycles(use_cache=True)
        par, _ = run_cycles(use_cache=True, workers=4)
        assert dump(ref) == dump(fast) == dump(par)
        # staleness markers must be part of the identical contents
        gone = [s for s in fast.all_series() if "uuid" in s.labels and "job-" in s.labels.get("uuid")]
        assert gone and all(math.isnan(s.values[-1]) for s in gone)

    def test_bit_identical_across_retention(self):
        def run(use_cache):
            db = TSDB(retention=40.0)
            # retention every cycle: refs die constantly under the cache
            manager = MANAGERS[use_cache](db, ScrapeConfig(retention_every=1))
            state = {"n": -1}

            def families():
                state["n"] += 1
                return churn_families(state["n"])

            manager.add_target(ScrapeTarget(app=make_exporter(families), instance="i", job="j"))
            for i in range(8):
                manager.scrape_all(now=15.0 * (i + 1))
            return db

        assert dump(run(False)) == dump(run(True))

    def test_bit_identical_across_delete_series(self):
        def run(use_cache):
            db = TSDB()
            manager = MANAGERS[use_cache](db)
            fam = exposition.MetricFamily("m", type="gauge")
            fam.add(1.0, uuid="x")
            fam.add(2.0, uuid="y")
            manager.add_target(
                ScrapeTarget(app=make_exporter(lambda: [fam]), instance="i", job="j")
            )
            manager.scrape_all(now=15.0)
            # cardinality cleanup between cycles: cached refs go stale
            db.delete_series([Matcher.eq("uuid", "x")])
            manager.scrape_all(now=30.0)
            manager.scrape_all(now=45.0)
            return db

        ref, fast = run(False), run(True)
        assert dump(ref) == dump(fast)
        # the deleted-then-rescraped series must be recreated with
        # only post-delete samples in both paths
        x = ref.select([Matcher.eq("uuid", "x")])[0]
        assert x.timestamps == [30.0, 45.0]

    def test_stale_ref_never_appends_to_recreated_series(self):
        """A dead prev-ref whose labels reappeared under a fresh ref
        must NOT produce a staleness marker (the oracle compares
        label sets and sees the series as alive)."""

        def run(use_cache):
            db = TSDB()
            manager = MANAGERS[use_cache](db)
            fam = exposition.MetricFamily("m", type="gauge")
            fam.add(1.0, uuid="x")
            manager.add_target(
                ScrapeTarget(app=make_exporter(lambda: [fam]), instance="i", job="j")
            )
            manager.scrape_all(now=15.0)
            db.delete_series([Matcher.eq("uuid", "x")])  # prev ref now dead
            manager.scrape_all(now=30.0)  # same labels under a new ref
            return db

        for db in (run(False), run(True)):
            x = db.select([Matcher.eq("uuid", "x")])[0]
            assert x.timestamps == [30.0]
            assert x.values == [1.0]  # a NaN here would be the bug


class TestBrokenTargets:
    def test_non_utf8_body_counts_as_failure(self):
        """Regression: a non-UTF-8 body used to escape the ScrapeError
        handler and stall the whole cycle."""
        db = TSDB()
        bad = App("binary")
        bad.router.get("/metrics", lambda req: Response(status=200, body=b"\xff\xfe power 1\n"))
        fam = exposition.MetricFamily("m", type="gauge")
        fam.add(1.0)
        manager = ScrapeManager(db)
        manager.add_target(ScrapeTarget(app=bad, instance="bad:9", job="j"))
        manager.add_target(ScrapeTarget(app=make_exporter(lambda: [fam]), instance="good:9", job="j"))
        assert manager.scrape_all(now=15.0) == 1  # good target unaffected
        assert manager.targets[0].scrape_failures_total == 1
        assert manager.healthy_targets() == 1
        ups = {s.labels.get("instance"): s.values[-1] for s in db.select([Matcher.name_eq("up")])}
        assert ups == {"bad:9": 0.0, "good:9": 1.0}

    @pytest.mark.parametrize("use_cache", [False, True])
    def test_handler_crash_counts_as_failure(self, use_cache):
        db = TSDB()
        crash = App("crash")

        def boom(req):
            raise ValueError("collector exploded")

        crash.router.get("/metrics", boom)
        manager = MANAGERS[use_cache](db)
        manager.add_target(ScrapeTarget(app=crash, instance="c:9", job="j"))
        manager.scrape_all(now=15.0)
        assert manager.targets[0].scrape_failures_total == 1

    @pytest.mark.parametrize("use_cache", [False, True])
    def test_invalid_metric_name_counts_as_failure(self, use_cache):
        # parses fine but fails Labels validation (ValueError, not
        # ScrapeError) — must be contained like any other bad payload
        db = TSDB()
        bad = App("badname")
        bad.router.get("/metrics", lambda req: Response.text("m} 1\n"))
        manager = MANAGERS[use_cache](db)
        manager.add_target(ScrapeTarget(app=bad, instance="b:9", job="j"))
        manager.scrape_all(now=15.0)
        assert manager.targets[0].scrape_failures_total == 1


class TestFailureStaleness:
    @pytest.mark.parametrize("use_cache", [False, True])
    def test_failed_scrape_marks_all_series_stale(self, use_cache):
        """Prometheus behaviour: a dead target's series get staleness
        markers immediately, not after the lookback window."""
        db = TSDB()
        state = {"alive": True}
        fam = exposition.MetricFamily("power_watts", type="gauge")
        fam.add(240.0, uuid="a")
        fam.add(260.0, uuid="b")

        def handler(req):
            if not state["alive"]:
                return Response(status=500)
            return Response.text(exposition.render([fam]))

        app = App("flaky")
        app.router.get("/metrics", handler)
        manager = MANAGERS[use_cache](db)
        manager.add_target(ScrapeTarget(app=app, instance="i", job="j"))
        manager.scrape_all(now=15.0)
        state["alive"] = False
        manager.scrape_all(now=30.0)
        for s in db.select([Matcher.name_eq("power_watts")]):
            assert s.timestamps == [15.0, 30.0]
            assert math.isnan(s.values[-1])
        # the marker set was cleared: a third failing cycle appends
        # nothing further
        manager.scrape_all(now=45.0)
        for s in db.select([Matcher.name_eq("power_watts")]):
            assert s.timestamps == [15.0, 30.0]
        # recovery starts a fresh series history
        state["alive"] = True
        manager.scrape_all(now=60.0)
        for s in db.select([Matcher.name_eq("power_watts")]):
            assert s.timestamps == [15.0, 30.0, 60.0]
            assert not math.isnan(s.values[-1])


class TestScrapeCache:
    def test_hits_after_first_cycle(self):
        _db, manager = run_cycles(use_cache=True, cycles=3)
        assert manager.cache_misses_total > 0
        assert manager.cache_hits_total > 0
        # steady series ('power_watts' sensor line, counter line) hit
        # on cycles 2-3
        assert manager.cache_hits_total >= 4

    def test_value_change_is_still_a_hit(self):
        db = TSDB()
        manager = ScrapeManager(db)
        state = {"v": 0.0}

        def families():
            state["v"] += 1.5
            fam = exposition.MetricFamily("m", type="gauge")
            fam.add(state["v"], uuid="x")
            return [fam]

        manager.add_target(ScrapeTarget(app=make_exporter(families), instance="i", job="j"))
        manager.scrape_all(now=15.0)
        manager.scrape_all(now=30.0)
        assert manager.cache_misses_total == 1
        assert manager.cache_hits_total == 1
        assert db.select([Matcher.name_eq("m")])[0].values == [1.5, 3.0]

    def test_label_change_misses_and_evicts(self):
        db = TSDB()
        manager = ScrapeManager(db)
        state = {"uuid": "a"}

        def families():
            fam = exposition.MetricFamily("m", type="gauge")
            fam.add(1.0, uuid=state["uuid"])
            return [fam]

        manager.add_target(ScrapeTarget(app=make_exporter(families), instance="i", job="j"))
        manager.scrape_all(now=15.0)
        state["uuid"] = "b"
        manager.scrape_all(now=30.0)
        assert manager.cache_misses_total == 2
        assert manager.cache_evictions_total == 1  # the uuid="a" line
        cache = manager.targets[0]._cache
        assert len(cache.entries) == 1
        # and the disappeared series got its staleness marker
        a = db.select([Matcher.eq("uuid", "a")])[0]
        assert math.isnan(a.values[-1])

    def test_eviction_generation_bookkeeping(self):
        cache = ScrapeCache()
        from repro.tsdb.scrape import _CacheEntry

        cache.gen = 1
        cache.entries["live"] = _CacheEntry(labels=Labels({"__name__": "m"}), ref=1, last_gen=1)
        cache.entries["dead"] = _CacheEntry(labels=Labels({"__name__": "n"}), ref=2, last_gen=0)
        assert cache.evict_stale() == 1
        assert set(cache.entries) == {"live"}
        assert cache.evictions == 1


class TestObservability:
    def test_cycle_histogram_and_cache_counters_exposed(self):
        from repro.obs.registry import MetricsRegistry

        _db, manager = run_cycles(use_cache=True, cycles=2)
        registry = MetricsRegistry()
        manager.register_metrics(registry)
        text = exposition.render(registry.collect())
        assert "ceems_scrape_cache_hits_total" in text
        assert "ceems_scrape_cache_misses_total" in text
        assert "ceems_scrape_cache_evictions_total" in text
        assert "ceems_scrape_cycle_seconds_bucket" in text
        assert manager.cycle_seconds.collect()


class TestPersistentHead:
    def test_fast_lane_survives_restart(self):
        """Ref appends on the durable head journal to the WAL: a
        reopened head replays exactly what the fast lane ingested."""
        from repro.tsdb.persist.head import PersistentTSDB

        with tempfile.TemporaryDirectory() as d:
            db = PersistentTSDB(d)
            _db, manager = run_cycles(use_cache=True, cycles=4, db=db)
            expected = dump(db)
            db.wal.close()
            reopened = PersistentTSDB(d)
            assert dump(reopened) == expected
            reopened.wal.close()
        # and the durable contents match the plain in-memory fast path
        mem, _ = run_cycles(use_cache=True, cycles=4)
        assert expected == dump(mem)


class TestSimulationDifferential:
    """End-to-end: the full stack produces identical *data-plane*
    contents with the cache on, off, and with a worker pool.

    Self-telemetry is excluded: wall-clock series (request-latency
    histograms, CPU seconds) differ between any two runs regardless
    of mode, and the scrape-cache counters differ by construction.
    The alerting control plane rides on those wall-clock series too
    (probe durations, latency-SLO ratios, the ALERTS state series
    they can trigger), so its jobs and series prefixes are excluded
    for the same reason.
    """

    META_JOBS = ("prometheus", "ceems-api", "ceems-lb", "alertmanager", "blackbox")
    SELF_PREFIXES = ("ceems_http_", "ceems_exporter_", "probe_", "slo:", "ALERTS")

    @classmethod
    def data_plane(cls, db):
        out = []
        for s in db.all_series():
            if s.labels.get("job") in cls.META_JOBS:
                continue
            if s.labels.metric_name.startswith(cls.SELF_PREFIXES):
                continue
            out.append((tuple(s.labels), tuple(s.timestamps), tuple(repr(v) for v in s.values)))
        return out

    def test_small_topology_identical(self, monkeypatch):
        from repro.cluster.simulation import SimulationConfig, StackSimulation
        from repro.cluster.topology import small_topology

        import repro.cluster.simulation as simulation

        def run(scrape_cache, **kw):
            # The deployment builds its own manager: substitute the
            # oracle class only while it is constructed.
            monkeypatch.setattr(simulation, "ScrapeManager", MANAGERS[scrape_cache])
            sim = StackSimulation(
                small_topology(cpu_nodes=2, gpu_nodes=1),
                SimulationConfig(seed=11, **kw),
            )
            monkeypatch.undo()
            assert type(sim.scrape_manager) is MANAGERS[scrape_cache]
            sim.run(450.0)
            return self.data_plane(sim.hot_tsdb)

        ref = run(scrape_cache=False)
        fast = run(scrape_cache=True)
        par = run(scrape_cache=True, scrape_workers=3)
        assert len(ref) > 100  # the comparison is over real content
        assert ref == fast == par
