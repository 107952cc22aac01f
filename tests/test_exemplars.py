"""Exemplar pipeline: storage, capture, sampling, endpoints, parity.

The end-to-end exemplar story (registry capture → exposition →
scrape, both lanes → CircularExemplarStorage → /api/v1/query_exemplars)
is covered layer by layer here; the full drill-down against a running
simulation lives in tests/integration/test_exemplars_e2e.py.
"""

import math

import pytest

from repro.common.errors import ScrapeError, StorageError
from repro.common.httpx import App, Request, Response
from repro.obs import registry as registry_mod
from repro.obs.registry import Counter, Histogram, set_exemplars_enabled
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Span, SpanStore, TailSampler, TraceContext, activate, deactivate
from repro.tsdb import exposition
from repro.tsdb.exposition import Exemplar
from repro.tsdb.http import PromAPI
from repro.tsdb.model import Labels, Matcher
from repro.tsdb.scrape import ScrapeConfig, ScrapeManager, ScrapeTarget
from repro.tsdb.storage import TSDB, CircularExemplarStorage
from tests.reference.list_head import ListHeadTSDB
from tests.reference.scrape import MANAGERS


def _labels(**kv):
    return Labels({"__name__": kv.pop("name", "m"), **kv})


def _ex(tid="t1", value=1.0, ts=None):
    return Exemplar({"trace_id": tid}, value, ts)


# -- CircularExemplarStorage ------------------------------------------------


class TestExemplarStorage:
    def test_caps_must_be_positive(self):
        with pytest.raises(StorageError):
            CircularExemplarStorage(capacity=0)
        with pytest.raises(StorageError):
            CircularExemplarStorage(per_series=0)

    def test_add_and_select(self):
        store = CircularExemplarStorage()
        labels = _labels(job="j")
        assert store.add(1, labels, _ex("a", 0.5, 10.0), scrape_ts=15.0)
        [(got_labels, records)] = store.select([Matcher.eq("job", "j")])
        assert got_labels == labels
        assert records[0].labels == {"trace_id": "a"}
        assert records[0].value == 0.5
        assert records[0].timestamp == 10.0  # exposition ts wins
        assert records[0].scrape_ts == 15.0

    def test_scrape_ts_substituted_when_exemplar_has_none(self):
        store = CircularExemplarStorage()
        store.add(1, _labels(), _ex(ts=None), scrape_ts=42.0)
        [(_, records)] = store.select([])
        assert records[0].timestamp == 42.0

    def test_duplicate_newest_dropped(self):
        store = CircularExemplarStorage()
        labels = _labels()
        assert store.add(1, labels, _ex("a", 1.0, 5.0), 5.0)
        assert not store.add(1, labels, _ex("a", 1.0, 5.0), 20.0)
        assert store.appended_total == 1
        assert store.dropped_total == 1
        assert len(store) == 1

    def test_nan_duplicate_dropped(self):
        store = CircularExemplarStorage()
        labels = _labels()
        assert store.add(1, labels, _ex("a", math.nan, 5.0), 5.0)
        assert not store.add(1, labels, _ex("a", math.nan, 5.0), 5.0)

    def test_timestampless_repeat_across_scrapes_dropped(self):
        """What every exporter in the stack emits: no timestamp of its
        own.  The scrape time it would be stamped with moves every
        scrape; the observation does not."""
        store = CircularExemplarStorage()
        labels = _labels()
        assert store.add(1, labels, _ex("a", 1.0), 15.0)
        for scrape_ts in (30.0, 45.0, 60.0):
            assert not store.add(1, labels, _ex("a", 1.0), scrape_ts)
        [(_, records)] = store.select([])
        assert [(r.labels["trace_id"], r.timestamp, r.own_timestamp) for r in records] == [("a", 15.0, False)]
        assert (store.appended_total, store.dropped_total) == (1, 3)

    def test_timestampless_nan_repeat_dropped(self):
        store = CircularExemplarStorage()
        assert store.add(1, _labels(), _ex("a", math.nan), 15.0)
        assert not store.add(1, _labels(), _ex("a", math.nan), 30.0)

    def test_new_value_or_trace_under_the_same_series_stored(self):
        store = CircularExemplarStorage()
        labels = _labels()
        assert store.add(1, labels, _ex("a", 1.0), 15.0)
        assert store.add(1, labels, _ex("a", 2.0), 30.0)  # same trace observed again
        assert store.add(1, labels, _ex("b", 2.0), 45.0)
        assert store.add(1, labels, _ex("a", 2.0), 60.0)  # only the newest record is compared
        assert store.add(2, _labels(job="other"), _ex("a", 2.0), 60.0)  # per series
        assert (store.appended_total, store.dropped_total) == (5, 0)

    def test_own_timestamp_behaviour_unchanged(self):
        store = CircularExemplarStorage()
        labels = _labels()
        assert store.add(1, labels, _ex("a", 1.0, 15.0), 15.0)
        assert not store.add(1, labels, _ex("a", 1.0, 15.0), 30.0)  # same stamp: the same observation
        assert store.add(1, labels, _ex("a", 1.0, 16.0), 30.0)  # a new stamp: a new one
        # One that brings no stamp does not repeat one that brought its own.
        assert store.add(1, labels, _ex("a", 1.0), 45.0)
        assert not store.add(1, labels, _ex("a", 1.0), 60.0)
        [(_, records)] = store.select([])
        assert [(r.timestamp, r.own_timestamp) for r in records] == [(15.0, True), (16.0, True), (45.0, False)]

    def test_changed_exemplar_replaces_not_drops(self):
        store = CircularExemplarStorage()
        labels = _labels()
        store.add(1, labels, _ex("a", 1.0, 5.0), 5.0)
        assert store.add(1, labels, _ex("b", 1.0, 6.0), 6.0)
        [(_, records)] = store.select([])
        assert [r.labels["trace_id"] for r in records] == ["a", "b"]

    def test_per_series_ring_evicts_oldest(self):
        store = CircularExemplarStorage(per_series=3)
        labels = _labels()
        for i in range(5):
            store.add(1, labels, _ex(f"t{i}", float(i), float(i)), float(i))
        [(_, records)] = store.select([])
        assert [r.labels["trace_id"] for r in records] == ["t2", "t3", "t4"]
        assert len(store) == 3
        assert store.dropped_total == 2

    def test_global_capacity_evicts_across_series(self):
        store = CircularExemplarStorage(capacity=4, per_series=10)
        for ref in range(1, 7):
            store.add(ref, _labels(ref=str(ref)), _ex(f"t{ref}", 1.0, float(ref)), 1.0)
        assert len(store) == 4
        remaining = {
            labels.get("ref") for labels, _ in store.select([])
        }
        assert remaining == {"3", "4", "5", "6"}

    def test_tombstones_do_not_starve_global_eviction(self):
        # Per-series eviction leaves tombstones in the FIFO; global
        # eviction must skip them and still evict real records.
        store = CircularExemplarStorage(capacity=3, per_series=1)
        labels_a = _labels(s="a")
        for i in range(5):  # ref 1 churns, leaving tombstones
            store.add(1, labels_a, _ex(f"a{i}", float(i), float(i)), 1.0)
        store.add(2, _labels(s="b"), _ex("b", 1.0, 1.0), 1.0)
        store.add(3, _labels(s="c"), _ex("c", 1.0, 1.0), 1.0)
        store.add(4, _labels(s="d"), _ex("d", 1.0, 1.0), 1.0)
        assert len(store) == 3
        kept = {labels.get("s") for labels, _ in store.select([])}
        assert kept == {"b", "c", "d"}

    def test_time_window_filtering(self):
        store = CircularExemplarStorage()
        labels = _labels()
        for t in (10.0, 20.0, 30.0):
            store.add(1, labels, _ex(f"t{t}", t, t), t)
        [(_, records)] = store.select([], start=15.0, end=25.0)
        assert [r.timestamp for r in records] == [20.0]
        assert store.select([], start=100.0) == []

    def test_exemplars_survive_series_deletion(self):
        db = TSDB()
        labels = _labels(uuid="x")
        db.append(labels, 10.0, 1.0)
        db.append_exemplar(labels, _ex("keepme", 1.0, 10.0), 10.0)
        db.delete_series([Matcher.eq("uuid", "x")])
        [(got, records)] = db.select_exemplars([Matcher.eq("uuid", "x")])
        assert got == labels
        assert records[0].labels["trace_id"] == "keepme"


def test_no_ring_of_a_live_deployment_holds_one_trace_twice(small_sim):
    """One exemplar per distinct observation, however many scrapes
    re-expose it: two hours of 15 s scrapes re-offer every exemplar the
    stack's own components hold, none of which brings a timestamp.
    (A trace captured twice by one series would also show here, but the
    registry replaces a slot's exemplar at most every 0.25 s of real
    time and no trace of this deployment lives that long.)"""
    store = small_sim.hot_tsdb.exemplars
    rings = store.select([])
    assert len(rings) > 20 and store.dropped_total > store.appended_total
    for labels, records in rings:
        trace_ids = [r.labels["trace_id"] for r in records]
        assert len(set(trace_ids)) == len(trace_ids), (labels, trace_ids)
    response = small_sim.prom_apis[0].app.get("/api/v1/query_exemplars?query=ceems_http_request_duration_seconds_bucket")
    served = response.decode_json()["data"]
    assert served
    for series in served:
        trace_ids = [e["labels"]["trace_id"] for e in series["exemplars"]]
        assert len(set(trace_ids)) == len(trace_ids), series["seriesLabels"]


class TestTSDBExemplarAppend:
    def test_append_by_labels_creates_series(self):
        db = TSDB()
        labels = _labels(job="j")
        assert db.append_exemplar(labels, _ex(), 5.0)
        assert len(db.exemplars) == 1

    def test_append_by_ref(self):
        db = TSDB()
        labels = _labels(job="j")
        ref = db.get_ref(labels)
        assert db.append_exemplar_ref(ref, labels, _ex("via-ref"), 5.0)
        [(got, records)] = db.select_exemplars([])
        assert records[0].labels["trace_id"] == "via-ref"

    def test_dead_ref_falls_back_to_labels(self):
        db = TSDB()
        labels = _labels(uuid="x")
        ref = db.get_ref(labels)
        db.append(labels, 1.0, 1.0)
        db.delete_series([Matcher.eq("uuid", "x")])
        assert db.append_exemplar_ref(ref, labels, _ex("healed"), 9.0)
        [(got, records)] = db.select_exemplars([])
        assert got == labels and records[0].labels["trace_id"] == "healed"


# -- registry capture -------------------------------------------------------


class _InSpan:
    """Context manager activating a fixed trace context."""

    def __init__(self, trace_id="ab" * 16):
        self.ctx = TraceContext(trace_id=trace_id, span_id="cd" * 8)

    def __enter__(self):
        self._token = activate(self.ctx)
        return self.ctx

    def __exit__(self, *exc):
        deactivate(self._token)


class TestRegistryCapture:
    def test_counter_captures_trace_id(self):
        c = Counter("hits_total")
        with _InSpan("aa" * 16):
            c.inc(2.0, path="/x")
        [family] = c.collect()
        assert family.points[0].exemplar.labels == {"trace_id": "aa" * 16}
        assert family.points[0].exemplar.value == 2.0  # the increment

    def test_no_span_no_exemplar(self):
        c = Counter("hits_total")
        c.inc()
        [family] = c.collect()
        assert family.points[0].exemplar is None

    def test_disabled_capture(self):
        old = set_exemplars_enabled(False)
        try:
            c = Counter("hits_total")
            with _InSpan():
                c.inc()
            [family] = c.collect()
            assert family.points[0].exemplar is None
        finally:
            set_exemplars_enabled(old)

    def test_histogram_exemplar_rides_landing_bucket(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        with _InSpan("ee" * 16):
            h.observe(0.5)
        marker, buckets, sums, counts = h.collect()
        by_le = {p.labels["le"]: p for p in buckets.points}
        assert by_le["1.0"].exemplar is not None
        assert by_le["1.0"].exemplar.value == 0.5
        assert by_le["0.1"].exemplar is None

    def test_histogram_overflow_lands_on_inf(self):
        h = Histogram("lat", buckets=(0.1,))
        with _InSpan():
            h.observe(5.0)
        by_le = {p.labels["le"]: p for p in h.collect()[1].points}
        assert by_le["+Inf"].exemplar is not None
        assert by_le["0.1"].exemplar is None

    def test_rate_limited_replacement(self, monkeypatch):
        h = Histogram("lat", buckets=(1.0,))
        monkeypatch.setattr(registry_mod, "_EXEMPLAR_MIN_INTERVAL", 3600.0)
        with _InSpan("11" * 16):
            h.observe(0.5)
        with _InSpan("22" * 16):
            h.observe(0.5)  # within the interval: not replaced
        by_le = {p.labels["le"]: p for p in h.collect()[1].points}
        assert by_le["1.0"].exemplar.labels["trace_id"] == "11" * 16
        monkeypatch.setattr(registry_mod, "_EXEMPLAR_MIN_INTERVAL", 0.0)
        with _InSpan("33" * 16):
            h.observe(0.5)
        by_le = {p.labels["le"]: p for p in h.collect()[1].points}
        assert by_le["1.0"].exemplar.labels["trace_id"] == "33" * 16

    def test_rendered_and_scraped_back(self):
        """Capture → render → scrape: the full write side."""
        h = Histogram("lat_seconds", buckets=(1.0,))
        with _InSpan("fe" * 16):
            h.observe(0.5)
        text = exposition.render(h.collect())
        assert '# {trace_id="' + "fe" * 16 + '"} 0.5' in text
        db = TSDB()
        app = App("fake")
        app.router.get("/metrics", lambda req: Response.text(text))
        manager = ScrapeManager(db, ScrapeConfig())
        manager.add_target(ScrapeTarget(app=app, instance="i", job="j"))
        manager.scrape_all(now=15.0)
        [(labels, records)] = db.select_exemplars([])
        assert labels.metric_name == "lat_seconds_bucket"
        assert records[0].labels["trace_id"] == "fe" * 16
        assert records[0].timestamp == 15.0  # scrape ts substituted


# -- tail sampling ----------------------------------------------------------


def _span(trace_id="ab" * 16, duration=0.001, status="ok"):
    return Span(
        trace_id=trace_id,
        span_id="11" * 8,
        parent_id="",
        name="op",
        component="c",
        start=0.0,
        duration=duration,
        status=status,
    )


class TestTailSampler:
    def test_errors_always_kept(self):
        sampler = TailSampler(rate=0.0, keep_slow_ms=1e9)
        assert sampler.keep(_span(status="error"))

    def test_slow_always_kept(self):
        sampler = TailSampler(rate=0.0, keep_slow_ms=100.0)
        assert sampler.keep(_span(duration=0.2))
        assert not sampler.keep(_span(duration=0.01))

    def test_rate_one_keeps_everything(self):
        sampler = TailSampler(rate=1.0, keep_slow_ms=1e9)
        assert all(sampler.keep(_span(trace_id=f"{i:032x}")) for i in range(1, 50))

    def test_decision_deterministic_per_trace(self):
        sampler = TailSampler(rate=0.5, keep_slow_ms=1e9)
        decisions = {
            tid: sampler.keep(_span(trace_id=tid))
            for tid in (f"{i:032x}" for i in range(1, 100))
        }
        again = TailSampler(rate=0.5, keep_slow_ms=1e9)
        for tid, decision in decisions.items():
            assert again.keep(_span(trace_id=tid)) == decision
        kept = sum(decisions.values())
        assert 20 < kept < 80  # roughly half, hash-spread

    def test_counters(self):
        sampler = TailSampler(rate=0.0, keep_slow_ms=100.0)
        sampler.keep(_span(duration=1.0))
        sampler.keep(_span(duration=0.0))
        assert (sampler.kept_total, sampler.dropped_total) == (1, 1)

    def test_store_counts_sampled_out_spans(self):
        store = SpanStore(capacity=10)
        store.sampler = TailSampler(rate=0.0, keep_slow_ms=1e9)
        store.record(_span(duration=0.0))
        assert store.total_recorded == 1
        assert len(store) == 0


# -- span store trace index -------------------------------------------------


class TestSpanStoreIndex:
    def test_for_trace_uses_index(self):
        store = SpanStore(capacity=100)
        for i in range(10):
            store.record(_span(trace_id=f"{i % 3:032x}"))
        target = f"{1:032x}"
        got = store.for_trace(target)
        assert [s.trace_id for s in got] == [target] * len(got)
        assert got == [s for s in store.spans() if s.trace_id == target]

    def test_eviction_never_leaks_trace_ids(self):
        store = SpanStore(capacity=8)
        for i in range(50):
            store.record(_span(trace_id=f"{i:032x}"))
        live = {s.trace_id for s in store.spans()}
        assert set(store._by_trace) == live
        # evicted ids resolve to nothing, not stale spans
        assert store.for_trace(f"{0:032x}") == []
        assert sum(len(b) for b in store._by_trace.values()) == len(store)

    def test_interleaved_traces_survive_partial_eviction(self):
        store = SpanStore(capacity=3)
        a, b = "aa" * 16, "bb" * 16
        for tid in (a, b, a, b):
            store.record(_span(trace_id=tid))
        # ring: [b, a, b] — a's first span evicted, second retained
        assert len(store.for_trace(a)) == 1
        assert len(store.for_trace(b)) == 2

    def test_clear_clears_index(self):
        store = SpanStore(capacity=10)
        store.record(_span())
        store.clear()
        assert store._by_trace == {} and len(store) == 0


# -- /debug/traces params ---------------------------------------------------


class TestDebugTraces:
    def _app(self):
        app = App("t")
        app.expose_telemetry()
        store = app.telemetry.spans
        store.record(_span(trace_id="aa" * 16, duration=0.5))
        store.record(_span(trace_id="aa" * 16, duration=0.001))
        store.record(_span(trace_id="bb" * 16, duration=0.01))
        return app

    def _spans(self, app, qs):
        resp = app.handle(Request.from_url("GET", f"/debug/traces{qs}"))
        assert resp.status == 200
        import json

        return json.loads(resp.body)["spans"]

    def test_trace_id_filter(self):
        spans = self._spans(self._app(), "?trace_id=" + "aa" * 16)
        assert len(spans) == 2

    def test_min_ms_filter(self):
        spans = self._spans(self._app(), "?min_ms=100")
        assert [s["duration"] for s in spans] == [0.5]

    def test_min_ms_with_trace_id(self):
        spans = self._spans(self._app(), "?trace_id=" + "aa" * 16 + "&min_ms=100")
        assert len(spans) == 1

    def test_limit(self):
        spans = self._spans(self._app(), "?limit=1")
        assert len(spans) == 1

    def test_bad_min_ms_rejected(self):
        app = self._app()
        resp = app.handle(Request.from_url("GET", "/debug/traces?min_ms=zzz"))
        assert resp.status == 400


# -- PromAPI endpoints ------------------------------------------------------


class TestPromAPIEndpoints:
    def _api(self):
        db = TSDB()
        labels = Labels({"__name__": "lat_bucket", "le": "1.0", "job": "lb"})
        db.append(labels, 10.0, 3.0)
        db.append_exemplar(labels, _ex("fe" * 16, 0.4, 10.0), 10.0)
        return PromAPI(db, name="prom-test")

    def _get(self, api, url):
        import json

        resp = api.app.handle(Request.from_url("GET", url))
        return resp.status, json.loads(resp.body)

    def test_query_exemplars_basic(self):
        status, body = self._get(
            self._api(), '/api/v1/query_exemplars?query=lat_bucket{job="lb"}'
        )
        assert status == 200
        [series] = body["data"]
        assert series["seriesLabels"]["__name__"] == "lat_bucket"
        [ex] = series["exemplars"]
        assert ex["labels"]["trace_id"] == "fe" * 16
        assert ex["value"] == "0.4"
        assert ex["timestamp"] == 10.0

    def test_query_exemplars_walks_function_calls(self):
        status, body = self._get(
            self._api(),
            "/api/v1/query_exemplars?query="
            "histogram_quantile(0.99, rate(lat_bucket[5m]))",
        )
        assert status == 200 and len(body["data"]) == 1

    def test_query_exemplars_time_window(self):
        status, body = self._get(
            self._api(), "/api/v1/query_exemplars?query=lat_bucket&start=20&end=30"
        )
        assert status == 200 and body["data"] == []

    def test_query_exemplars_missing_query(self):
        status, _ = self._get(self._api(), "/api/v1/query_exemplars")
        assert status == 400

    def test_query_exemplars_bad_query(self):
        status, _ = self._get(self._api(), "/api/v1/query_exemplars?query=((")
        assert status == 400

    def test_buildinfo(self):
        status, body = self._get(self._api(), "/api/v1/status/buildinfo")
        assert status == 200
        assert body["data"]["version"]
        assert body["data"]["features"]["exemplar-storage"] == "true"

    def test_runtimeinfo(self):
        status, body = self._get(self._api(), "/api/v1/status/runtimeinfo")
        assert status == 200
        assert body["data"]["timeSeriesCount"] == 1
        assert body["data"]["exemplarCount"] == 1


# -- differential: fast lane vs reference -----------------------------------


def make_exporter(families_fn) -> App:
    app = App("fake")
    app.router.get(
        "/metrics", lambda req: Response.text(exposition.render(families_fn()))
    )
    return app


def dump_exemplars(db: TSDB):
    """Canonical exemplar contents; NaN-safe via repr of values."""
    out = []
    for labels, records in db.exemplars.select([]):
        for r in records:
            out.append(
                (
                    tuple(labels),
                    tuple(sorted(r.labels.items())),
                    repr(r.value),
                    r.timestamp,
                    r.scrape_ts,
                )
            )
    return out


def exemplar_churn_families(cycle: int):
    """Exemplar-carrying payload whose structure and exemplars churn."""
    fam = exposition.MetricFamily("req_total", type="counter")
    fam.add(
        float(cycle * 10),
        exemplar=Exemplar({"trace_id": f"{cycle:032x}"}, 1.0),
        path='we"ird\\x,y}{',
    )
    buckets = exposition.MetricFamily("lat_bucket", type="counter")
    buckets.add(
        float(cycle),
        exemplar=Exemplar({"trace_id": f"{cycle + 100:032x}"}, 0.5, 7.0 * cycle),
        le="1.0",
    )
    # a bucket whose exemplar never changes: dup-dropped identically
    buckets.add(2.0, exemplar=Exemplar({"trace_id": "ff" * 16}, math.nan, 3.0), le="+Inf")
    if cycle % 2 == 0:
        extra = exposition.MetricFamily("churn_total", type="counter")
        extra.add(1.0, exemplar=Exemplar({}, -math.inf), uuid=f"job-{cycle}")
        fam2 = [fam, buckets, extra]
    else:
        fam2 = [fam, buckets]
    return fam2


def run_exemplar_cycles(use_cache: bool, cycles: int = 6, delete_at: int | None = None):
    db = TSDB()
    db.exemplars.per_series = 3  # force per-series eviction in the run
    manager = MANAGERS[use_cache](db)
    state = {"n": -1}

    def families():
        state["n"] += 1
        return exemplar_churn_families(state["n"])

    manager.add_target(
        ScrapeTarget(app=make_exporter(families), instance="n0:9010", job="ceems")
    )
    for i in range(cycles):
        if delete_at is not None and i == delete_at:
            db.delete_series([Matcher.eq("__name__", "lat_bucket")])
        manager.scrape_all(now=15.0 * (i + 1))
    return db


class TestExemplarDifferential:
    def test_bit_identical_across_churn_and_ring_eviction(self):
        ref = run_exemplar_cycles(use_cache=False)
        fast = run_exemplar_cycles(use_cache=True)
        assert dump_exemplars(ref) == dump_exemplars(fast)
        assert ref.exemplars.appended_total == fast.exemplars.appended_total
        assert ref.exemplars.dropped_total == fast.exemplars.dropped_total
        assert dump_exemplars(ref)  # non-vacuous

    def test_bit_identical_across_series_deletion(self):
        ref = run_exemplar_cycles(use_cache=False, delete_at=3)
        fast = run_exemplar_cycles(use_cache=True, delete_at=3)
        assert dump_exemplars(ref) == dump_exemplars(fast)

    def test_bit_identical_for_list_head_layout(self):
        def run(use_cache):
            db = ListHeadTSDB()
            manager = MANAGERS[use_cache](db)
            state = {"n": -1}

            def families():
                state["n"] += 1
                return exemplar_churn_families(state["n"])

            manager.add_target(
                ScrapeTarget(app=make_exporter(families), instance="i", job="j")
            )
            for i in range(4):
                manager.scrape_all(now=15.0 * (i + 1))
            return db

        assert dump_exemplars(run(False)) == dump_exemplars(run(True))

    def test_doubly_malformed_line_same_error_both_paths(self):
        """Bad sample value AND bad exemplar: the sample error wins on
        both lanes (error-ordering parity)."""
        line = 'm{a="b"} notafloat # {trace_id="x" 1'
        with pytest.raises(ScrapeError) as ref_err:
            exposition.parse_sample_line(line, 1)
        # Fast lane: warm the cache with a good line first, then feed
        # the malformed one through a scrape.
        db = TSDB()
        payloads = iter(
            ['m{a="b"} 1\n', 'm{a="b"} notafloat # {trace_id="x" 1\n']
        )
        app = App("fake")
        app.router.get("/metrics", lambda req: Response.text(next(payloads)))
        manager = ScrapeManager(db)
        target = ScrapeTarget(app=app, instance="i", job="j")
        manager.add_target(target)
        manager.scrape_all(now=15.0)
        manager.scrape_all(now=30.0)
        assert not target.last_scrape_ok
        assert str(ref_err.value).split(":", 1)[1] in repr(ref_err.value)

    def test_exemplar_self_telemetry_gauges(self):
        db = run_exemplar_cycles(use_cache=True, cycles=3)
        manager = ScrapeManager(db, ScrapeConfig())
        telemetry = Telemetry("t")
        manager.register_metrics(telemetry.registry)
        text = telemetry.render()
        assert "ceems_exemplars_appended_total" in text
        assert "ceems_exemplars_dropped_total" in text
        assert f"ceems_exemplar_storage_exemplars {len(db.exemplars)}" in text
