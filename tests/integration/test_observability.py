"""Integration tests: the stack observes itself.

Meta-monitoring (the sim Prometheus scrapes the LB, the API server
and its own query endpoints) and trace propagation across component
boundaries — both through the in-process HTTP model and over a real
TCP socket.
"""

import math

import pytest

from repro.cluster import StackSimulation, small_topology
from repro.cluster.simulation import SimulationConfig
from repro.common.httpx import Request, http_get, serve_threading
from repro.lb.authz import Authorizer
from repro.lb.server import LoadBalancer
from repro.lb.strategies import Backend
from repro.obs import Telemetry
from repro.resourcemgr.workload import SizeClass, WorkloadMix
from repro.tsdb.http import PromAPI
from repro.tsdb.model import Labels
from repro.tsdb.storage import TSDB

OBS_MIX = WorkloadMix(
    mean_interarrival=200.0,
    duration_mu=6.9,
    sizes=(
        SizeClass("small", weight=0.7, ncores=4, memory_gb=8),
        SizeClass("gpu", weight=0.3, ncores=8, ngpus=1, memory_gb=64, partition="gpu"),
    ),
)

ADMIN = {"x-grafana-user": "admin"}


@pytest.fixture(scope="module")
def obs_sim() -> StackSimulation:
    """A short deployment run, then user traffic, then more scrapes.

    Module scoped and deliberately separate from ``small_sim``: these
    tests send requests through the LB, which mutates its telemetry.
    """
    sim = StackSimulation(
        small_topology(cpu_nodes=2, gpu_nodes=1),
        SimulationConfig(seed=7, update_interval=600.0),
        workload=OBS_MIX,
    )
    sim.run(1800.0)
    for _ in range(4):
        resp = sim.lb.app.handle(
            Request.from_url("GET", f"/api/v1/query?query=up&time={sim.now}", headers=ADMIN)
        )
        assert resp.status == 200
    # Let the next scrape cycles capture the counters that traffic bumped.
    sim.run(60.0)
    return sim


class TestMetaMonitoring:
    def test_meta_targets_are_up(self, obs_sim):
        for job in ("ceems-lb", "ceems-api", "prometheus"):
            result = obs_sim.engine.query(f'up{{job="{job}"}}', at=obs_sim.now)
            assert result.vector, job
            assert all(el.value == 1.0 for el in result.vector), job

    def test_lb_latency_histogram_single_query(self, obs_sim):
        """One PromQL query answers "what is the p99 LB latency"."""
        result = obs_sim.engine.query(
            'histogram_quantile(0.99, ceems_http_request_duration_seconds_bucket{job="ceems-lb"})',
            at=obs_sim.now,
        )
        assert result.vector
        handlers = {el.labels.get("handler") for el in result.vector}
        assert "/metrics" in handlers  # the scrape loop's own requests
        assert "/api/v1/query" in handlers  # the traffic driven above
        for el in result.vector:
            assert math.isfinite(el.value) and el.value >= 0.0

    def test_cache_hit_ratio_single_query(self, obs_sim):
        """The columnar-evaluator selector cache ratio, one expression."""
        expr = (
            "ceems_tsdb_select_cache_hits_total"
            " / (ceems_tsdb_select_cache_hits_total + ceems_tsdb_select_cache_misses_total)"
        )
        result = obs_sim.engine.query(expr, at=obs_sim.now)
        assert result.vector
        for el in result.vector:
            assert 0.0 <= el.value <= 1.0
        # The rule manager re-evaluates identical selectors every
        # interval, so the memo must actually be earning its keep.
        assert max(el.value for el in result.vector) > 0.0

    def test_eval_strategy_timings_scraped(self, obs_sim):
        result = obs_sim.engine.query(
            'ceems_promql_eval_queries_total{job="prometheus"}', at=obs_sim.now
        )
        kinds = {el.labels.get("kind") for el in result.vector}
        assert kinds and kinds <= {"instant", "range"}
        assert all("strategy" not in el.labels for el in result.vector)

    def test_scrape_loop_counters_scraped(self, obs_sim):
        result = obs_sim.engine.query(
            'ceems_scrape_samples_appended_total{job="prometheus"}', at=obs_sim.now
        )
        assert result.vector
        assert max(el.value for el in result.vector) > 0.0


class TestTracePropagationInProcess:
    def test_one_trace_spans_lb_to_storage(self, obs_sim):
        trace_id = "ab" * 16
        header = f"00-{trace_id}-{'cd' * 8}-01"
        resp = obs_sim.lb.app.handle(
            Request.from_url(
                "GET",
                f"/api/v1/query?query=up&time={obs_sim.now}",
                headers={**ADMIN, "traceparent": header},
            )
        )
        assert resp.status == 200
        assert resp.headers["x-trace-id"] == trace_id

        lb_spans = obs_sim.lb.app.telemetry.spans.for_trace(trace_id)
        assert lb_spans and lb_spans[0].parent_id == "cd" * 8
        backend_spans = [
            s for api in obs_sim.prom_apis for s in api.app.telemetry.spans.for_trace(trace_id)
        ]
        # The backend hop is parented on the LB's span, not the caller's.
        assert any(s.parent_id == lb_spans[0].span_id for s in backend_spans)
        assert obs_sim.fanout.telemetry.spans.for_trace(trace_id)
        storage_spans = obs_sim.hot_tsdb.telemetry.spans.for_trace(trace_id)
        assert any(s.name == "tsdb.select" for s in storage_spans)


class TestTracePropagationThreaded:
    def test_trace_id_crosses_real_socket(self):
        """The same trace id survives client → LB over TCP → TSDB."""

        class AllowAll(Authorizer):
            def _check(self, user, uuids):
                return True

        db = TSDB(name="threaded")
        db.telemetry = Telemetry("tsdb-threaded")
        db.append(Labels({"__name__": "up", "instance": "n1"}), 0.0, 1.0)
        api = PromAPI(db, name="prom-threaded")
        lb = LoadBalancer([Backend(name="prom-threaded", app=api.app)], AllowAll())

        trace_id = "f0" * 16
        header = f"00-{trace_id}-{'0d' * 8}-01"
        server = serve_threading(lb.app)
        try:
            status, body = http_get(
                server.url + "/api/v1/query?query=up&time=0",
                headers={"X-Grafana-User": "admin", "Traceparent": header},
            )
        finally:
            server.close()
        assert status == 200
        assert b'"status": "success"' in body

        lb_spans = lb.app.telemetry.spans.for_trace(trace_id)
        assert lb_spans
        backend_spans = api.app.telemetry.spans.for_trace(trace_id)
        assert any(s.parent_id == lb_spans[0].span_id for s in backend_spans)
        assert db.telemetry.spans.for_trace(trace_id)


class TestSlowQueryEndToEnd:
    def test_slow_query_carries_resolvable_trace(self, obs_sim):
        """LB → API backend → TSDB eval is one trace, and the backend's
        slow-query entry carries that trace id — the operator's "why was
        this dashboard panel slow" loop is two lookups."""
        saved = [api.slow_log.threshold_ms for api in obs_sim.prom_apis]
        for api in obs_sim.prom_apis:
            api.slow_log.threshold_ms = 0.0  # every query counts as slow
        trace_id = "5a" * 16
        header = f"00-{trace_id}-{'1b' * 8}-01"
        url = (
            "/api/v1/query_range?query=rate(ceems_scrape_samples_appended_total[10m])"
            f"&start={obs_sim.now - 1800.0}&end={obs_sim.now}&step=60&stats=all"
        )
        try:
            resp = obs_sim.lb.app.handle(
                Request.from_url("GET", url, headers={**ADMIN, "traceparent": header})
            )
        finally:
            for api, threshold in zip(obs_sim.prom_apis, saved):
                api.slow_log.threshold_ms = threshold
        assert resp.status == 200
        assert resp.headers["x-trace-id"] == trace_id
        payload = resp.decode_json()
        assert payload["data"]["stats"]["samples"]["samplesTouched"] > 0

        backend = next(
            api for api in obs_sim.prom_apis if api.app.name == resp.headers["x-ceems-backend"]
        )
        entry = next(e for e in backend.slow_log.entries() if e["trace_id"] == trace_id)
        assert entry["endpoint"] == "/api/v1/query_range"
        assert entry["stats"]["samples"]["samplesTouched"] > 0

        # The entry's trace id resolves on the backend's own /debug/traces,
        # with the eval-phase spans carrying the per-query stats.
        data = backend.app.get(f"/debug/traces?trace_id={trace_id}").decode_json()
        names = {s["name"] for s in data["spans"]}
        assert {"promql.parse", "promql.eval"} <= names
        eval_span = next(s for s in data["spans"] if s["name"] == "promql.eval")
        assert eval_span["attrs"]["stats"]["samples"]["samplesTouched"] > 0
        assert eval_span["attrs"]["stats"]["timings"]["evalSeconds"] >= 0.0
        # The LB's spans share the trace: one request, one trace end-to-end.
        assert obs_sim.lb.app.telemetry.spans.for_trace(trace_id)


class TestPeriodicSpans:
    def test_updater_passes_are_traced(self, obs_sim):
        names = {s.name for s in obs_sim.api_server.app.telemetry.spans.spans()}
        assert "updater.pass" in names

    def test_scrape_cycles_are_traced(self, obs_sim):
        spans = obs_sim.scrape_manager.telemetry.spans.spans()
        cycle = [s for s in spans if s.name == "scrape.cycle"]
        assert cycle
        assert cycle[-1].attrs["samples"] > 0
