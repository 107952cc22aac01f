"""Query & storage introspection: stats, tracker, slow log, profiler.

Covers the :mod:`repro.obs.log` / :mod:`repro.obs.query` /
:mod:`repro.obs.prof` trio and its wiring through the PromQL engine,
the Prometheus HTTP API (``stats=all``, ``/debug/queries``,
``/debug/prof``) and the persist layer's new duration metrics.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import Telemetry
from repro.obs.log import StructuredLogger
from repro.obs.prof import PROFILER, Profiler, profile
from repro.obs.query import (
    ActiveQueryTracker,
    QueryQueueFullError,
    QueryStats,
    SlowQueryLog,
    activate_stats,
    current_stats,
    deactivate_stats,
    tracked_select,
)
from repro.obs.registry import MetricsRegistry
from repro.tsdb.http import PromAPI
from repro.tsdb.model import Labels, Matcher, MatchOp
from repro.tsdb.persist import PersistentTSDB
from repro.tsdb.promql.ast import iter_selectors
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.promql.parser import parse_expr
from repro.tsdb.storage import TSDB
from repro.thanos.store import ObjectStore
from tests.reference.promql import query_range_per_step


@pytest.fixture
def db() -> TSDB:
    tsdb = TSDB()
    for i in range(20):
        t = i * 15.0
        tsdb.append(Labels({"__name__": "power", "uuid": "1"}), t, 100.0 + i)
        tsdb.append(Labels({"__name__": "power", "uuid": "2"}), t, 200.0 + i)
    return tsdb


@pytest.fixture(autouse=True)
def _clean_profiler():
    """Every test starts and ends with the global profiler off/empty."""
    PROFILER.disable()
    PROFILER.reset()
    yield
    PROFILER.disable()
    PROFILER.reset()


class TestStructuredLogger:
    def test_records_fields_and_counts(self):
        log = StructuredLogger("test-component")
        record = log.info("thing happened", count=3, name="x")
        assert record is not None
        assert record.component == "test-component"
        assert record.level == "info"
        assert record.fields == {"count": 3, "name": "x"}
        assert log.total_logged == 1
        assert log.counts == {"info": 1}
        assert log.records("info") == [record]

    def test_level_threshold_drops_records(self):
        log = StructuredLogger("c", level="warning")
        assert log.debug("noise") is None
        assert log.info("noise") is None
        assert log.warning("signal") is not None
        assert log.error("signal") is not None
        assert log.total_logged == 2

    def test_ring_stays_bounded(self):
        log = StructuredLogger("c", capacity=8)
        for i in range(30):
            log.info("e", i=i)
        assert len(log) == 8
        # Oldest records are evicted first.
        assert [r.fields["i"] for r in log.records()] == list(range(22, 30))
        assert log.total_logged == 30

    def test_jsonl_sink(self, tmp_path):
        path = str(tmp_path / "app.log")
        log = StructuredLogger("sink", sink_path=path)
        log.info("first", a=1)
        log.warning("second", b="two")
        log.close()
        lines = [json.loads(l) for l in open(path, encoding="utf-8")]
        assert [l["event"] for l in lines] == ["first", "second"]
        assert lines[0]["component"] == "sink"
        assert lines[0]["a"] == 1
        assert lines[1]["level"] == "warning"

    def test_trace_correlation(self):
        tel = Telemetry("traced")
        log = StructuredLogger("traced")
        with tel.span("outer") as span:
            record = log.info("inside trace")
        outside = log.info("outside trace")
        assert record.trace_id == span.trace_id
        assert record.span_id == span.span_id
        assert outside.trace_id == ""
        assert log.for_trace(span.trace_id) == [record]


class TestProfiler:
    def test_disabled_is_shared_noop(self):
        p = Profiler()
        assert p.profile("a") is p.profile("b")
        with p.profile("a"):
            pass
        assert p.snapshot() == {}

    def test_enabled_aggregates_flat_profile(self):
        p = Profiler()
        p.enable()
        for _ in range(3):
            with p.profile("phase.x"):
                pass
        snap = p.snapshot()
        assert snap["phase.x"]["count"] == 3
        assert snap["phase.x"]["total_seconds"] >= 0.0
        assert snap["phase.x"]["max_seconds"] <= snap["phase.x"]["total_seconds"]
        p.reset()
        assert p.snapshot() == {}

    def test_module_hook_records_into_global(self):
        PROFILER.enable()
        with profile("test.phase"):
            pass
        assert "test.phase" in PROFILER.snapshot()


class TestQueryStats:
    def test_phase_timings_accumulate(self):
        stats = QueryStats(query="up")
        with stats.phase("parse"):
            pass
        with stats.phase("eval"):
            pass
        with stats.phase("eval"):
            pass
        d = stats.to_dict()
        assert set(d["timings"]) == {
            "parseSeconds",
            "selectSeconds",
            "evalSeconds",
            "renderSeconds",
        }
        assert stats.total_seconds() >= d["timings"]["evalSeconds"]

    def test_tracked_select_free_without_stats(self, db):
        matchers = [Matcher("__name__", MatchOp.EQ, "power")]
        assert current_stats() is None
        series = tracked_select(db, matchers)
        assert len(series) == 2

    def test_tracked_select_counts_into_active_stats(self, db):
        matchers = [Matcher("__name__", MatchOp.EQ, "power")]
        stats = QueryStats()
        token = activate_stats(stats)
        try:
            tracked_select(db, matchers)
        finally:
            deactivate_stats(token)
        assert stats.series_selected == 2
        assert stats.phases["select"] >= 0.0

    @pytest.mark.parametrize("strategy", ["per_step", "columnar"])
    def test_engine_reports_samples_touched(self, db, strategy):
        engine = PromQLEngine(db)
        stats = QueryStats()
        evaluate = {"per_step": query_range_per_step, "columnar": PromQLEngine.query_range}[strategy]
        token = activate_stats(stats)
        try:
            evaluate(engine, "rate(power[60s])", 60.0, 285.0, 15.0)
        finally:
            deactivate_stats(token)
        assert stats.series_selected >= 2
        assert stats.samples_touched > 0

    def test_iter_selectors_fingerprint(self):
        ast = parse_expr('sum by (uuid) (rate(power{uuid="1"}[60s])) / scalar(count(up))')
        names = [sel.name for sel in iter_selectors(ast)]
        assert names == ["power", "up"]


class TestActiveQueryTracker:
    def test_lifecycle_states(self):
        tracker = ActiveQueryTracker(max_concurrent=2)
        with tracker.track("up", fingerprint=("up",)) as record:
            assert record.state == "running"
            assert [r.id for r in tracker.active()] == [record.id]
        assert record.state == "done"
        assert record.duration_seconds >= 0.0
        assert tracker.active() == []
        assert tracker.recent() == [record]
        d = tracker.to_dict()
        assert d["queries_tracked"] == 1
        assert d["recent"][0]["fingerprint"] == ["up"]

    def test_error_state_releases_slot(self):
        tracker = ActiveQueryTracker(max_concurrent=1)
        with pytest.raises(RuntimeError):
            with tracker.track("boom"):
                raise RuntimeError("eval failed")
        assert tracker.recent()[0].state == "error"
        # The slot was released: the next query is admitted.
        with tracker.track("ok"):
            pass

    def test_queue_timeout_raises_503_error(self):
        tracker = ActiveQueryTracker(max_concurrent=1, queue_timeout=0.01)
        with tracker.track("holder"):
            with pytest.raises(QueryQueueFullError):
                with tracker.track("starved"):
                    pass
        assert tracker.queue_timeouts == 1

    def test_done_ring_bounded(self):
        tracker = ActiveQueryTracker(done_capacity=3)
        for i in range(10):
            with tracker.track(f"q{i}"):
                pass
        assert [r.query for r in tracker.recent()] == ["q7", "q8", "q9"]

    def test_journal_clean_shutdown_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "queries.active")
        tracker = ActiveQueryTracker(journal_path=path)
        with tracker.track("up"):
            pass
        tracker.close()
        reopened = ActiveQueryTracker(journal_path=path)
        assert reopened.unclean_queries == []

    def test_journal_unclean_shutdown_logged_and_cleared(self, tmp_path):
        path = str(tmp_path / "queries.active")
        tracker = ActiveQueryTracker(journal_path=path)
        # Simulate a process killed mid-query: enter but never exit.
        cm = tracker.track("sum(rate(power[5m]))")
        cm.__enter__()
        # No close(), no __exit__ — the "end" record is never written.

        reopened = ActiveQueryTracker(journal_path=path)
        assert [q["query"] for q in reopened.unclean_queries] == [
            "sum(rate(power[5m]))"
        ]
        warnings = reopened.log.records("warning")
        assert any("unclean shutdown" in r.event for r in warnings)
        assert reopened.to_dict()["unclean_shutdown"]
        # ... and the stale entries never reappear as running.
        assert reopened.active() == []
        reopened.close()
        third = ActiveQueryTracker(journal_path=path)
        assert third.unclean_queries == []

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "queries.active")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"op": "start", "id": 1, "query": "up", "ts": 1.0}) + "\n")
            fh.write('{"op": "sta')  # torn tail of a killed writer
        tracker = ActiveQueryTracker(journal_path=path)
        assert [q["query"] for q in tracker.unclean_queries] == ["up"]


class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_ms=50.0)
        assert log.observe("fast", 0.001) is None
        entry = log.observe("slow", 0.2, endpoint="/api/v1/query")
        assert entry is not None
        assert entry["duration_seconds"] == 0.2
        assert len(log) == 1
        assert log.total_observed == 2
        assert log.total_slow == 1

    def test_negative_threshold_disables(self):
        log = SlowQueryLog(threshold_ms=-1.0)
        assert log.observe("anything", 100.0) is None
        assert len(log) == 0

    def test_zero_threshold_logs_everything(self):
        log = SlowQueryLog(threshold_ms=0.0)
        assert log.observe("q", 0.0) is not None

    def test_entry_carries_stats_and_trace(self):
        log = SlowQueryLog(threshold_ms=0.0)
        stats = QueryStats()
        stats.samples_touched = 42
        entry = log.observe("q", 0.5, stats=stats, trace_id="ab" * 16)
        assert entry["trace_id"] == "ab" * 16
        assert entry["stats"]["samples"]["samplesTouched"] == 42
        warning = log.log.records("warning")[-1]
        assert warning.fields["samples_touched"] == 42

    def test_ring_bounded(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=4)
        for i in range(10):
            log.observe(f"q{i}", 1.0)
        assert [e["query"] for e in log.entries()] == ["q6", "q7", "q8", "q9"]


class TestPromAPIIntrospection:
    @pytest.fixture
    def api(self, db) -> PromAPI:
        # threshold 0: every query lands in the slow-query log.
        return PromAPI(db, slow_query_ms=0.0)

    def test_stats_all_on_instant_query(self, api):
        resp = api.app.get("/api/v1/query?query=power&time=150&stats=all")
        assert resp.status == 200
        payload = resp.decode_json()
        stats = payload["data"]["stats"]
        assert stats["samples"]["seriesSelected"] >= 2
        assert stats["samples"]["samplesTouched"] > 0
        assert stats["timings"]["evalSeconds"] >= 0.0

    @pytest.mark.parametrize("strategy", ["per_step", "columnar"])
    def test_stats_all_on_range_query(self, api, strategy):
        """``strategy`` is no longer a parameter: like any unknown one
        it is ignored, and the stats no longer name an evaluator."""
        resp = api.app.get(
            "/api/v1/query_range?query=rate(power[60s])"
            f"&start=60&end=285&step=15&stats=all&strategy={strategy}"
        )
        assert resp.status == 200
        stats = resp.decode_json()["data"]["stats"]
        assert "strategy" not in stats
        assert stats["samples"]["samplesTouched"] > 0

    def test_no_stats_without_param(self, api):
        resp = api.app.get("/api/v1/query?query=power&time=150")
        assert resp.status == 200
        assert "stats" not in resp.decode_json()["data"]

    def test_debug_queries_shows_finished_queries(self, api):
        api.app.get("/api/v1/query?query=sum(power)&time=150")
        resp = api.app.get("/debug/queries")
        assert resp.status == 200
        payload = resp.decode_json()
        assert payload["queries_tracked"] == 1
        done = payload["recent"][0]
        assert done["state"] == "done"
        assert done["query"] == "sum(power)"
        assert done["fingerprint"] == ["power"]
        assert done["stats"]["samples"]["seriesSelected"] >= 2
        # threshold 0 → the query is also in the slow-query log
        assert payload["slow_queries"][0]["query"] == "sum(power)"

    def test_slow_query_entry_carries_trace_id(self, api):
        trace_id = "ee" * 16
        resp = api.app.get(
            "/api/v1/query?query=power&time=150",
            headers={"traceparent": f"00-{trace_id}-{'01' * 8}-01"},
        )
        assert resp.status == 200
        entry = api.slow_log.entries()[-1]
        assert entry["trace_id"] == trace_id
        # The eval span of the same trace carries the stats payload.
        spans = api.app.telemetry.spans.for_trace(trace_id)
        eval_spans = [s for s in spans if s.name == "promql.eval"]
        assert eval_spans and "stats" in eval_spans[0].attrs

    def test_queue_full_returns_503(self, db):
        api = PromAPI(db, max_concurrent_queries=1, queue_timeout=0.01)
        with api.tracker.track("holder"):
            resp = api.app.get("/api/v1/query?query=power&time=150")
        assert resp.status == 503
        assert "queue full" in resp.decode_json()["error"]

    def test_parse_error_still_400(self, api):
        resp = api.app.get("/api/v1/query?query=power(&time=150")
        assert resp.status == 400

    def test_query_log_sink(self, db, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        api = PromAPI(db, slow_query_ms=0.0, query_log_path=path)
        api.app.get("/api/v1/query?query=power&time=150")
        lines = [json.loads(l) for l in open(path, encoding="utf-8")]
        assert lines and lines[0]["event"] == "slow query"
        assert lines[0]["query"] == "power"

    def test_active_query_journal_recovery(self, db, tmp_path):
        path = str(tmp_path / "queries.active")
        api = PromAPI(db, active_query_journal=path)
        api.app.get("/api/v1/query?query=power&time=150")
        api.tracker.close()
        reopened = PromAPI(db, active_query_journal=path)
        assert reopened.tracker.unclean_queries == []

    def test_debug_prof_toggles_and_reports(self, api):
        resp = api.app.get("/debug/prof?enable=1")
        assert resp.decode_json()["enabled"] is True
        api.app.get(
            "/api/v1/query_range?query=rate(power[60s])&start=60&end=285&step=15"
        )
        snap = api.app.get("/debug/prof").decode_json()["profile"]
        assert "promql.kernel.rate" in snap
        assert snap["promql.kernel.rate"]["count"] >= 1
        resp = api.app.get("/debug/prof?enable=0&reset=1")
        assert resp.decode_json()["enabled"] is False
        assert resp.decode_json()["profile"] == {}

    def test_tracker_metrics_exposed(self, api):
        api.app.get("/api/v1/query?query=power&time=150")
        text = api.app.get("/metrics").body.decode()
        assert "ceems_promapi_queries_inflight 0" in text
        assert "ceems_promapi_slow_queries_total 1" in text


class TestPersistDurationMetrics:
    def test_fsync_and_checkpoint_histograms(self, tmp_path):
        head = PersistentTSDB(str(tmp_path / "hot"), fsync="batch")
        for i in range(50):
            head.append(Labels({"__name__": "power", "uuid": "1"}), i * 15.0, 1.0)
        head.wal.sync()
        head.checkpoint(300.0)
        registry = MetricsRegistry()
        head.register_metrics(registry)
        text = registry.render()
        assert "ceems_tsdb_wal_fsync_seconds_bucket" in text
        assert "ceems_tsdb_wal_fsync_seconds_count" in text
        assert "ceems_tsdb_checkpoint_seconds_count 1" in text
        assert head.wal.fsync_seconds._data  # at least one observation
        head.close()

    def test_replay_seconds_gauge(self, tmp_path):
        path = str(tmp_path / "hot")
        head = PersistentTSDB(path)
        head.append(Labels({"__name__": "power"}), 0.0, 1.0)
        head.close()
        reopened = PersistentTSDB(path)
        assert reopened.replay_seconds >= 0.0
        registry = MetricsRegistry()
        reopened.register_metrics(registry)
        assert "ceems_tsdb_wal_replay_seconds" in registry.render()
        reopened.close()

    def test_chunk_compression_ratio_gauge(self, tmp_path):
        import numpy as np

        store = ObjectStore(persist_dir=str(tmp_path / "store"))
        ts = np.arange(0.0, 1800.0, 15.0)
        vs = np.full_like(ts, 42.0)
        store.persist_block(
            store.new_ulid(),
            [(Labels({"__name__": "power"}), ts, vs)],
            min_time=0.0,
            max_time=1800.0,
            resolution="raw",
        )
        registry = MetricsRegistry()
        store.register_metrics(registry)
        text = registry.render()
        assert "ceems_tsdb_chunk_compression_ratio" in text
        assert store.compression_ratio() > 1.0

    def test_profiler_sees_persist_phases(self, tmp_path):
        PROFILER.enable()
        head = PersistentTSDB(str(tmp_path / "hot"), fsync="always")
        head.append(Labels({"__name__": "power"}), 0.0, 1.0)
        head.checkpoint(100.0)
        head.close()
        snap = PROFILER.snapshot()
        assert {"wal.append", "wal.fsync", "head.checkpoint"} <= set(snap)

    def test_profiler_sees_block_write(self, tmp_path):
        import numpy as np

        PROFILER.enable()
        store = ObjectStore(persist_dir=str(tmp_path / "store"))
        ts = np.arange(0.0, 300.0, 15.0)
        store.persist_block(
            store.new_ulid(),
            [(Labels({"__name__": "power"}), ts, ts)],
            min_time=0.0,
            max_time=300.0,
            resolution="raw",
        )
        assert "block.write" in PROFILER.snapshot()
