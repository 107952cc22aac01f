"""Tests for the self-telemetry subsystem (repro.obs).

Covers the metrics registry (exposition-compatible rendering,
histogram bucket semantics), the traceparent codec and span store
bounds, the HTTP middleware instrumentation, and the observability
satellites (exporter collector health, LB readiness, the
histogram_quantile PromQL function both evaluators share).
"""

import json
import math

import pytest

from repro.common.errors import CEEMSError
from repro.common.httpx import App, Request, Response
from repro.obs import (
    MetricsRegistry,
    SpanStore,
    Telemetry,
    TraceContext,
    parse_traceparent,
)
from repro.obs.trace import Span, current_trace, make_span
from repro.tsdb import exposition
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.promql.functions import histogram_bucket_quantile
from repro.tsdb.storage import TSDB
from tests.reference.promql import query_range_per_step


class TestRegistry:
    def test_counter_renders_exposition(self):
        r = MetricsRegistry()
        c = r.counter("reqs_total", "Requests.")
        c.inc(code="200")
        c.inc(2.0, code="500")
        text = r.render()
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{code="200"} 1' in text
        assert 'reqs_total{code="500"} 2' in text

    def test_counter_rejects_decrease(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(CEEMSError):
            c.inc(-1.0)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(5.0)
        g.inc()
        g.dec(2.0)
        assert g.value() == 4.0

    def test_histogram_cumulative_buckets(self):
        r = MetricsRegistry()
        h = r.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)  # beyond the last bucket: +Inf only
        text = r.render()
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1.0"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text
        assert h.sum() == pytest.approx(5.55)

    def test_histogram_boundary_lands_in_bucket(self):
        # Prometheus buckets are le (<=): an observation exactly on a
        # bound belongs to that bucket.
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)
        text = exposition.render(h.collect())
        assert 'h_bucket{le="1.0"} 1' in text

    def test_histogram_families_parse_as_series(self):
        r = MetricsRegistry()
        h = r.histogram("lat", buckets=(0.1,))
        h.observe(0.05, handler="/q")
        families = exposition.parse(r.render())
        names = {f.name for f in families}
        assert {"lat_bucket", "lat_sum", "lat_count"} <= names

    def test_get_or_create_and_type_clash(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        with pytest.raises(CEEMSError):
            r.gauge("x")

    def test_gauge_func_and_collector(self):
        r = MetricsRegistry()
        r.gauge_func("cb", lambda: 7.0, type="counter", pool="hot")
        r.collector(
            lambda: [exposition.MetricFamily("extra", type="gauge")]
        )
        text = r.render()
        assert 'cb{pool="hot"} 7' in text
        assert r.names == ["cb"]


class TestCollectMemos:
    """collect() keeps label dicts and wire exemplars between calls;
    the rendered bytes must not depend on how often it was called."""

    #: (metric, value, labels, trace number or None, seconds since the last one)
    SCRIPT = [
        ("lat", 0.003, {"handler": "/metrics"}, 1, 0.0),
        ("req", 1.0, {"handler": "/metrics", "code": "200"}, 1, 0.0),
        ("lat", 0.004, {"handler": "/metrics"}, 2, 0.1),  # same bucket, inside the rate limit: kept
        ("lat", 0.004, {"handler": "/metrics"}, 3, 0.3),  # same bucket, past it: exemplar replaced
        ("req", 1.0, {"handler": "/metrics", "code": "200"}, 3, 0.0),
        ("lat", 0.7, {"handler": "/metrics"}, None, 0.0),  # no trace: counted, no exemplar
        ("lat", 9.0, {"handler": "/health"}, 4, 0.0),  # a new label set, in the +Inf slot
        ("req", 2.0, {"handler": "/health", "code": "500"}, 4, 0.0),
        ("lat", 0.003, {"handler": "/metrics"}, 5, 1.0),
        ("lat", 0.0001, {"handler": "/metrics"}, 6, 0.0),  # a bucket boundary
        ("req", 1.0, {"handler": "/metrics", "code": "200"}, 6, 0.0),
    ]

    @staticmethod
    def replay(script, monkeypatch, render_every_step: bool) -> str:
        from repro.obs import registry as registry_module
        from repro.obs.trace import activate, deactivate

        clock = {"now": 100.0}
        monkeypatch.setattr(registry_module, "_monotonic", lambda: clock["now"])
        r = MetricsRegistry()
        lat = r.histogram("lat_seconds", "Latency.", buckets=(0.0001, 0.005, 0.5))
        req = r.counter("req_total", "Requests.")
        for metric, value, labels, trace, wait in script:
            clock["now"] += wait
            token = activate(TraceContext(f"{trace:032x}", f"{trace:016x}")) if trace else None
            try:
                if metric == "lat":
                    lat.observe(value, **labels)
                else:
                    req.inc(value, **labels)
            finally:
                if token is not None:
                    deactivate(token)
            if render_every_step:
                r.render()
        return r.render()

    def test_warm_and_cold_memos_render_the_same_bytes(self, monkeypatch):
        for upto in range(1, len(self.SCRIPT) + 1):
            warm = self.replay(self.SCRIPT[:upto], monkeypatch, render_every_step=True)
            cold = self.replay(self.SCRIPT[:upto], monkeypatch, render_every_step=False)
            assert warm == cold, upto
            # the script does what its remarks say
            if upto == 2:
                assert f'le="0.005"}} 1 # {{trace_id="{1:032x}"}}' in cold
            if upto == 3:
                assert f'le="0.005"}} 2 # {{trace_id="{1:032x}"}}' in cold  # trace 2 never shows
            if upto == 4:
                assert f'le="0.005"}} 3 # {{trace_id="{3:032x}"}}' in cold  # replaced
            if upto == 7:
                assert f'handler="/health",le="+Inf"}} 1 # {{trace_id="{4:032x}"}}' in cold

    def test_unchanged_slot_hands_out_the_same_exemplar(self):
        from repro.obs.trace import activate, deactivate

        r = MetricsRegistry()
        lat = r.histogram("lat_seconds", buckets=(1.0,))
        token = activate(TraceContext("a" * 32, "b" * 16))
        try:
            lat.observe(0.5)
        finally:
            deactivate(token)
        first = lat.collect()[1].points[0]
        again = lat.collect()[1].points[0]
        assert first.exemplar is again.exemplar and first.labels is again.labels
        assert first is again  # the point is kept between collects; its labels and exemplar are read-only

    def test_golden_body(self, monkeypatch):
        """The le / +Inf / _sum / _count layout, pinned as bytes."""
        body = self.replay(self.SCRIPT, monkeypatch, render_every_step=False)
        t = {n: f'# {{trace_id="{n:032x}"}}' for n in range(1, 7)}
        assert body == (
            "# HELP lat_seconds Latency.\n"
            "# TYPE lat_seconds histogram\n"
            "# TYPE lat_seconds_bucket counter\n"
            f'lat_seconds_bucket{{handler="/metrics",le="0.0001"}} 1 {t[6]} 0.0001\n'
            f'lat_seconds_bucket{{handler="/metrics",le="0.005"}} 5 {t[5]} 0.003\n'
            'lat_seconds_bucket{handler="/metrics",le="0.5"} 5\n'
            'lat_seconds_bucket{handler="/metrics",le="+Inf"} 6\n'
            'lat_seconds_bucket{handler="/health",le="0.0001"} 0\n'
            'lat_seconds_bucket{handler="/health",le="0.005"} 0\n'
            'lat_seconds_bucket{handler="/health",le="0.5"} 0\n'
            f'lat_seconds_bucket{{handler="/health",le="+Inf"}} 1 {t[4]} 9\n'
            "# TYPE lat_seconds_sum counter\n"
            'lat_seconds_sum{handler="/metrics"} 0.7141\n'
            'lat_seconds_sum{handler="/health"} 9\n'
            "# TYPE lat_seconds_count counter\n"
            'lat_seconds_count{handler="/metrics"} 6\n'
            'lat_seconds_count{handler="/health"} 1\n'
            "# HELP req_total Requests.\n"
            "# TYPE req_total counter\n"
            f'req_total{{code="200",handler="/metrics"}} 3 {t[6]} 1\n'
            f'req_total{{code="500",handler="/health"}} 2 {t[4]} 2\n'
        )


class TestTrace:
    def test_traceparent_roundtrip(self):
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        parsed = parse_traceparent(ctx.header_value())
        assert parsed == ctx

    @pytest.mark.parametrize(
        "value",
        [
            None,
            "",
            "00-zz-xx-01",
            "01-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # unknown version
            "00-" + "0" * 32 + "-" + "cd" * 8 + "-01",  # all-zero trace
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # all-zero span
            "00-" + "ab" * 16 + "-" + "cd" * 8,  # missing flags
        ],
    )
    def test_malformed_traceparent_degrades_to_none(self, value):
        assert parse_traceparent(value) is None

    def test_span_store_is_bounded(self):
        store = SpanStore(capacity=3)
        for i in range(10):
            store.record(
                Span(
                    trace_id=f"{i:032x}",
                    span_id=f"{i:016x}",
                    parent_id="",
                    name="op",
                    component="c",
                    start=0.0,
                )
            )
        assert len(store) == 3
        assert store.total_recorded == 10
        assert [s.trace_id for s in store.spans()] == [
            f"{i:032x}" for i in (7, 8, 9)
        ]

    def test_make_span_continues_parent(self):
        parent = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        span, ctx = make_span("op", "c", parent)
        assert span.trace_id == parent.trace_id
        assert span.parent_id == parent.span_id
        assert ctx.trace_id == parent.trace_id
        assert ctx.span_id == span.span_id != parent.span_id


class TestTelemetry:
    def test_span_roots_new_trace(self):
        t = Telemetry("comp")
        with t.span("work") as span:
            assert current_trace().trace_id == span.trace_id
        assert current_trace() is None
        assert [s.name for s in t.spans.spans()] == ["work"]

    def test_span_records_error_status(self):
        t = Telemetry("comp")
        with pytest.raises(ValueError):
            with t.span("bad"):
                raise ValueError("boom")
        assert t.spans.spans()[-1].status == "error"

    def test_child_span_noop_outside_trace(self):
        t = Telemetry("comp")
        with t.child_span("inner") as span:
            assert span is None
        assert len(t.spans) == 0

    def test_child_span_inside_trace(self):
        t = Telemetry("comp")
        with t.span("outer") as outer:
            with t.child_span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id


class TestMiddleware:
    @pytest.fixture
    def app(self) -> App:
        app = App("demo")
        app.expose_telemetry()
        app.router.get("/hello/{name}", lambda req: Response.text("hi"))
        app.router.get("/boom", lambda req: (_ for _ in ()).throw(RuntimeError("x")))
        return app

    def test_request_metrics_recorded(self, app):
        app.handle(Request(method="GET", path="/hello/bob"))
        app.handle(Request(method="GET", path="/hello/eve"))
        app.handle(Request(method="GET", path="/nowhere"))
        registry = app.telemetry.registry
        counter = registry.counter("ceems_http_requests_total")
        assert counter.value(method="GET", handler="/hello/{name}", code="200") == 2
        assert counter.value(method="GET", handler="(unrouted)", code="404") == 1
        hist = registry.histogram("ceems_http_request_duration_seconds")
        assert hist.count(handler="/hello/{name}") == 2

    def test_metrics_endpoint_serves_exposition(self, app):
        app.handle(Request(method="GET", path="/hello/bob"))
        resp = app.handle(Request(method="GET", path="/metrics"))
        assert resp.status == 200
        assert "version=0.0.4" in resp.headers["content-type"]
        assert "ceems_http_requests_total" in resp.body.decode()

    def test_incoming_traceparent_is_continued(self, app):
        trace_id = "ab" * 16
        header = f"00-{trace_id}-{'cd' * 8}-01"
        resp = app.handle(
            Request(method="GET", path="/hello/bob", headers={"traceparent": header})
        )
        assert resp.headers["x-trace-id"] == trace_id
        span = app.telemetry.spans.spans()[-1]
        assert span.trace_id == trace_id
        assert span.parent_id == "cd" * 8

    def test_new_trace_minted_at_edge(self, app):
        resp = app.handle(Request(method="GET", path="/hello/bob"))
        assert len(resp.headers["x-trace-id"]) == 32
        span = app.telemetry.spans.spans()[-1]
        assert span.parent_id == ""

    def test_server_error_span_status(self, app):
        # The in-process model propagates handler exceptions (so test
        # failures surface at the call site); the middleware still
        # records the span as an error before re-raising.
        with pytest.raises(RuntimeError):
            app.handle(Request(method="GET", path="/boom"))
        span = app.telemetry.spans.spans()[-1]
        assert span.status == "error"
        assert span.attrs["status"] == 500
        counter = app.telemetry.registry.counter("ceems_http_requests_total")
        assert counter.value(method="GET", handler="/boom", code="500") == 1

    def test_debug_traces_endpoint(self, app):
        header = f"00-{'ab' * 16}-{'cd' * 8}-01"
        app.handle(Request(method="GET", path="/hello/bob", headers={"traceparent": header}))
        resp = app.handle(
            Request(method="GET", path="/debug/traces", query={"trace_id": ["ab" * 16]})
        )
        payload = json.loads(resp.body.decode())
        assert payload["component"] == "demo"
        assert [s["trace_id"] for s in payload["spans"]] == ["ab" * 16]


def mk(name: str, **labels: str) -> Labels:
    return Labels({"__name__": name, **labels})


class TestHistogramQuantile:
    @pytest.fixture
    def db(self) -> TSDB:
        db = TSDB()
        # Two instances with constant cumulative bucket counts.
        counts = {"0.1": 10.0, "0.5": 55.0, "1.0": 60.0, "+Inf": 60.0}
        for t in (0.0, 15.0, 30.0):
            for le, count in counts.items():
                db.append(mk("lat_bucket", instance="a", le=le), t, count)
                db.append(mk("lat_bucket", instance="b", le=le), t, count / 2.0)
        return db

    def test_helper_linear_interpolation(self):
        buckets = [(0.1, 10.0), (0.5, 55.0), (1.0, 60.0), (math.inf, 60.0)]
        # rank 30 falls in (0.1, 0.5]: 0.1 + 0.4 * (30-10)/45
        assert histogram_bucket_quantile(0.5, buckets) == pytest.approx(
            0.1 + 0.4 * 20.0 / 45.0
        )
        # q=0 interpolates from the start of the first bucket (0 for
        # positive bounds), matching Prometheus bucketQuantile.
        assert histogram_bucket_quantile(0.0, buckets) == pytest.approx(0.0)
        assert histogram_bucket_quantile(1.0, buckets) == pytest.approx(1.0)

    def test_helper_edge_cases(self):
        assert math.isnan(histogram_bucket_quantile(0.5, []))
        assert math.isnan(histogram_bucket_quantile(0.5, [(0.1, 1.0)]))  # no +Inf
        assert math.isnan(histogram_bucket_quantile(math.nan, [(math.inf, 1.0)]))
        assert histogram_bucket_quantile(-0.1, [(math.inf, 1.0)]) == -math.inf
        assert histogram_bucket_quantile(1.1, [(math.inf, 1.0)]) == math.inf
        # everything in +Inf: best answer is the highest finite bound
        assert histogram_bucket_quantile(0.9, [(0.5, 0.0), (math.inf, 10.0)]) == 0.5

    def test_instant_query_groups_by_identity(self, db):
        engine = PromQLEngine(db)
        result = engine.query("histogram_quantile(0.5, lat_bucket)", at=30.0)
        values = {el.labels.get("instance"): el.value for el in result.vector}
        expected = 0.1 + 0.4 * 20.0 / 45.0
        assert values["a"] == pytest.approx(expected)
        assert values["b"] == pytest.approx(expected)  # same shape, half counts
        assert all("le" not in el.labels.as_dict() for el in result.vector)

    def test_columnar_matches_per_step(self, db):
        engine = PromQLEngine(db)
        expr = "histogram_quantile(0.9, lat_bucket)"
        ref = query_range_per_step(engine, expr, 0.0, 30.0, 15.0)
        col = engine.query_range(expr, 0.0, 30.0, 15.0)
        assert set(ref.series) == set(col.series)
        for labels in ref.series:
            r_ts, r_vs = ref.series[labels]
            c_ts, c_vs = col.series[labels]
            assert r_ts.tolist() == c_ts.tolist()
            assert r_vs.tolist() == c_vs.tolist()

    def test_unparseable_le_ignored(self, db):
        db.append(mk("lat_bucket", instance="a", le="junk"), 30.0, 99.0)
        engine = PromQLEngine(db)
        result = engine.query("histogram_quantile(0.5, lat_bucket)", at=30.0)
        assert len(result.vector) == 2  # the junk row creates no group


class TestExporterCollectorHealth:
    def test_errors_and_last_success_exposed(self):
        from repro.common.clock import SimClock
        from repro.common.config import ExporterConfig
        from repro.exporter import CEEMSExporter
        from repro.exporter.collector import Collector
        from repro.hwsim import NodeSpec, SimulatedNode

        clock = SimClock()
        node = SimulatedNode(NodeSpec(name="obs-test"), seed=1)
        exporter = CEEMSExporter(
            node, clock, ExporterConfig(collectors=("node", "self"))
        )

        class FailingCollector(Collector):
            name = "failing"

            def collect(self, now):
                raise RuntimeError("broken source")

        exporter.registry.register(FailingCollector())
        # First scrape records the failure; the second exposes it via
        # the self collector (which reads the previous pass).
        exporter.app.handle(Request(method="GET", path="/metrics"))
        resp = exporter.app.handle(Request(method="GET", path="/metrics"))
        text = resp.body.decode()
        assert 'ceems_exporter_collector_errors_total{collector="failing"} 1' in text
        assert 'ceems_exporter_collector_last_scrape_success{collector="failing"} 0' in text
        assert 'ceems_exporter_collector_last_scrape_success{collector="node"} 1' in text
        # middleware metrics ride along in the scrape payload
        assert "ceems_http_requests_total" in text


class TestLBReadiness:
    @pytest.fixture
    def lb(self):
        from repro.lb.authz import Authorizer
        from repro.lb.server import LoadBalancer
        from repro.lb.strategies import Backend

        class AllowAll(Authorizer):
            def _check(self, user, uuids):
                return True

        api = App("backend")
        api.router.get("/-/healthy", lambda _req: Response.text("ok"))
        backend = Backend(name="b0", app=api)
        return LoadBalancer([backend], AllowAll())

    def test_ready_when_backend_healthy(self, lb):
        resp = lb.app.handle(Request(method="GET", path="/-/ready"))
        assert resp.status == 200

    def test_ready_503_when_no_healthy_backend(self, lb):
        lb.strategy.backends[0].healthy = False
        resp = lb.app.handle(Request(method="GET", path="/-/ready"))
        assert resp.status == 503

    def test_backend_metrics_exposed(self, lb):
        resp = lb.app.handle(Request(method="GET", path="/metrics"))
        text = resp.body.decode()
        assert 'ceems_lb_backend_healthy{backend="b0",pool="hot"} 1' in text
        assert "ceems_lb_requests_proxied_total 0" in text
