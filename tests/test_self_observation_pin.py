"""What the stack records about one query, pinned end to end.

One admin instant query (``stats=all``) and one user range query go
through a :class:`LoadBalancer` with an embedded query frontend to a
:class:`PromAPI` over a TSDB that records its selects.  Everything the
request path writes about itself is pinned here, timings excepted:

* every span of the trace — name, component, parent, status, attribute
  keys and the attribute values that are not timings;
* one more ``ceems_http_requests_total`` and one more latency
  ``_count`` per hop (LB and PromAPI);
* the LB latency bucket's exemplar, whose trace id resolves at
  ``/debug/traces``;
* the active-query tracker's finished record and the slow-query log
  entry (threshold 0, so every query is "slow"), both carrying the
  trace id;
* the keys of a ``stats=all`` answer.

A change to how the middleware, the spans or the query accounting are
implemented must leave all of this as it is.
"""

from __future__ import annotations

import json
import urllib.parse

import pytest

from repro.frontend import QueryFrontend
from repro.lb.authz import Authorizer
from repro.lb.server import LoadBalancer
from repro.lb.strategies import Backend
from repro.obs import Telemetry
from repro.obs.trace import Span, SpanStore
from repro.tsdb.http import PromAPI
from repro.tsdb.model import Labels
from repro.tsdb.storage import TSDB

TIMING_KEYS = {"start_time", "queued_seconds", "duration_seconds", "ts"}
PHASE_TIMINGS = {"parseSeconds", "selectSeconds", "evalSeconds", "renderSeconds"}


class _Owners(Authorizer):
    """``alice`` owns ``u1``; ``admin`` reads everything."""

    def _check(self, user, uuids):
        return user == "alice" and uuids <= {"u1"}


class Deployment:
    def __init__(self) -> None:
        self.db = TSDB(name="tsdb-pin")
        self.db.telemetry = Telemetry("tsdb-pin")
        for uuid, scale in (("u1", 1.0), ("u2", 3.0)):
            labels = Labels({"__name__": "power", "uuid": uuid})
            for i in range(61):
                self.db.append(labels, i * 15.0, scale * i)
        self.api = PromAPI(self.db, name="prom-pin", slow_query_ms=0.0)
        backends = [Backend(name=self.api.app.name, app=self.api.app)]
        self.frontend = QueryFrontend(backends)
        self.lb = LoadBalancer(backends, _Owners(), frontend=self.frontend)

    def hops(self):
        return (self.lb.app, self.api.app)

    def stores(self):
        return (
            self.lb.app.telemetry.spans,
            self.frontend.app.telemetry.spans,
            self.api.app.telemetry.spans,
            self.db.telemetry.spans,
        )

    def spans(self, trace_id: str) -> list[Span]:
        return [span for store in self.stores() for span in store.for_trace(trace_id)]


def _tree(spans: list[Span]) -> list[tuple]:
    """Every span as (component, name, parent's (component, name), status,
    attr keys, non-timing attr values), in record order per store."""
    by_id = {span.span_id: span for span in spans}
    out = []
    for span in spans:
        parent = by_id.get(span.parent_id)
        values = {}
        for key, value in span.attrs.items():
            if key == "stats":
                value = {"samples": value["samples"], "timings": sorted(value["timings"])}
            values[key] = value
        out.append(
            (
                span.component,
                span.name,
                None if parent is None else (parent.component, parent.name),
                span.parent_id == "" or parent is not None,
                span.status,
                sorted(span.attrs),
                values,
            )
        )
    return out


def _counts(dep: Deployment, handler: str) -> list[tuple[float, float]]:
    out = []
    for app in dep.hops():
        registry = app.telemetry.registry
        total = registry.counter("ceems_http_requests_total")
        latency = registry.histogram("ceems_http_request_duration_seconds")
        out.append(
            (total.value(method="GET", handler=handler, code="200"), latency.count(handler=handler))
        )
    return out


def _without_timings(record: dict) -> dict:
    out = {k: v for k, v in record.items() if k not in TIMING_KEYS}
    if "stats" in out:
        stats = out["stats"]
        assert set(stats["timings"]) == PHASE_TIMINGS
        assert all(v >= 0.0 for v in stats["timings"].values())
        out["stats"] = {"samples": stats["samples"]}
    return out


INSTANT = ("/api/v1/query", {"query": "sum(power)", "time": "600", "stats": "all"}, "admin")
RANGE = (
    "/api/v1/query_range",
    {"query": 'rate(power{uuid="u1"}[5m])', "start": "300", "end": "600", "step": "60"},
    "alice",
)

EXPECTED_SPANS = {
    "instant": [
        ("ceems-lb", "GET /api/v1/query", None, True, "ok", ["path", "status"],
         {"path": "/api/v1/query", "status": 200}),
        ("prom-pin", "promql.parse", ("prom-pin", "GET /api/v1/query"), True, "ok", [], {}),
        ("prom-pin", "promql.eval", ("prom-pin", "GET /api/v1/query"), True, "ok", ["stats"],
         {"stats": {"samples": {"seriesSelected": 2, "samplesTouched": 2},
                    "timings": sorted(PHASE_TIMINGS)}}),
        ("prom-pin", "GET /api/v1/query", ("ceems-lb", "GET /api/v1/query"), True, "ok",
         ["path", "status"], {"path": "/api/v1/query", "status": 200}),
        ("tsdb-pin", "tsdb.select", ("prom-pin", "promql.eval"), True, "ok", ["db", "series"],
         {"db": "tsdb-pin", "series": 2}),
    ],
    "range": [
        ("ceems-lb", "GET /api/v1/query_range", None, True, "ok", ["path", "status"],
         {"path": "/api/v1/query_range", "status": 200}),
        ("prom-pin", "promql.parse", ("prom-pin", "GET /api/v1/query_range"), True, "ok", [], {}),
        ("prom-pin", "promql.eval", ("prom-pin", "GET /api/v1/query_range"), True, "ok",
         ["stats"],
         {"stats": {"samples": {"seriesSelected": 1, "samplesTouched": 126},
                    "timings": sorted(PHASE_TIMINGS)}}),
        ("prom-pin", "GET /api/v1/query_range", ("ceems-lb", "GET /api/v1/query_range"), True,
         "ok", ["path", "status"], {"path": "/api/v1/query_range", "status": 200}),
        ("tsdb-pin", "tsdb.select", ("prom-pin", "promql.eval"), True, "ok", ["db", "series"],
         {"db": "tsdb-pin", "series": 1}),
    ],
}

EXPECTED_RECORDS = {
    "instant": {
        "id": 1,
        "query": "sum(power)",
        "fingerprint": ["power"],
        "state": "done",
        "stats": {"samples": {"seriesSelected": 2, "samplesTouched": 2}},
    },
    "range": {
        "id": 2,
        "query": 'rate(power{uuid="u1"}[5m])',
        "fingerprint": ['power{uuid="u1"}'],
        "state": "done",
        "stats": {"samples": {"seriesSelected": 1, "samplesTouched": 126}},
    },
}


@pytest.fixture(scope="module")
def answered():
    """Both queries sent once, with everything measured around them."""
    dep = Deployment()
    out = {}
    for kind, (path, params, user) in (("instant", INSTANT), ("range", RANGE)):
        before = _counts(dep, path)
        response = dep.lb.app.get(
            f"{path}?{urllib.parse.urlencode(params)}", headers={"x-grafana-user": user}
        )
        after = _counts(dep, path)
        trace_id = response.headers["x-trace-id"]
        out[kind] = {
            "response": response,
            "trace_id": trace_id,
            "spans": _tree(dep.spans(trace_id)),
            "deltas": [(a[0] - b[0], a[1] - b[1]) for a, b in zip(after, before)],
            "record": dep.api.tracker.recent()[-1].to_dict(),
            "slow": dep.api.slow_log.entries()[-1],
        }
    return dep, out


@pytest.mark.parametrize("kind", ["instant", "range"])
class TestOneQueryPinned:
    def test_answer(self, answered, kind):
        _dep, out = answered
        response = out[kind]["response"]
        assert response.status == 200
        assert response.headers["x-ceems-backend"] == "query-frontend"
        assert len(out[kind]["trace_id"]) == 32

    def test_spans(self, answered, kind):
        _dep, out = answered
        assert out[kind]["spans"] == EXPECTED_SPANS[kind]

    def test_one_more_request_and_observation_per_hop(self, answered, kind):
        _dep, out = answered
        assert out[kind]["deltas"] == [(1.0, 1.0), (1.0, 1.0)]

    def test_lb_exemplar_resolves(self, answered, kind):
        dep, out = answered
        path = INSTANT[0] if kind == "instant" else RANGE[0]
        latency = dep.lb.app.telemetry.registry.histogram("ceems_http_request_duration_seconds")
        buckets = latency.collect()[1].points
        exemplars = [
            p.exemplar.labels["trace_id"]
            for p in buckets
            if p.labels["handler"] == path and p.exemplar is not None
        ]
        assert exemplars == [out[kind]["trace_id"]]
        body = dep.lb.app.get(f"/debug/traces?trace_id={exemplars[0]}").decode_json()
        assert [s["name"] for s in body["spans"]] == [f"GET {path}"]

    def test_tracker_record(self, answered, kind):
        _dep, out = answered
        record = out[kind]["record"]
        assert record["trace_id"] == out[kind]["trace_id"]
        assert record["queued_seconds"] >= 0.0 and record["duration_seconds"] >= 0.0
        pinned = _without_timings(record)
        del pinned["trace_id"]
        assert pinned == EXPECTED_RECORDS[kind]

    def test_slow_log_entry(self, answered, kind):
        _dep, out = answered
        entry = out[kind]["slow"]
        path, params, _user = INSTANT if kind == "instant" else RANGE
        assert set(entry) == {"ts", "query", "endpoint", "duration_seconds", "trace_id", "stats"}
        assert _without_timings(entry) == {
            "query": params["query"],
            "endpoint": path,
            "trace_id": out[kind]["trace_id"],
            "stats": EXPECTED_RECORDS[kind]["stats"],
        }


def test_stats_all_body_keys(answered):
    _dep, out = answered
    data = json.loads(out["instant"]["response"].body)["data"]
    assert list(data) == ["resultType", "result", "stats"]
    assert list(data["stats"]) == ["timings", "samples"]
    assert list(data["stats"]["timings"]) == [
        "parseSeconds", "selectSeconds", "evalSeconds", "renderSeconds"
    ]
    assert data["stats"]["samples"] == {"seriesSelected": 2, "samplesTouched": 2}
    assert "stats" not in json.loads(out["range"]["response"].body)["data"]


def test_span_store_index_follows_the_ring_through_a_long_trace():
    """Evicting from one long trace bucket keeps the by-trace index
    equal to the ring, span for span, after every record."""
    store = SpanStore(capacity=5)
    plan = ["long"] * 12 + ["b", "long", "c", "c"] + ["long"] * 7 + ["d"]
    for i, trace in enumerate(plan):
        store.record(
            Span(
                trace_id=trace, span_id=f"{i:016x}", parent_id="", name="op",
                component="c", start=0.0,
            )
        )
        ring = store.spans()
        assert len(ring) == min(i + 1, 5)
        assert store.trace_ids() == list(dict.fromkeys(s.trace_id for s in ring))
        for trace_id in ("long", "b", "c", "d"):
            assert store.for_trace(trace_id) == [s for s in ring if s.trace_id == trace_id]
    assert [s.span_id for s in store.for_trace("long")] == [f"{i:016x}" for i in range(19, 23)]
    assert store.total_recorded == len(plan)
