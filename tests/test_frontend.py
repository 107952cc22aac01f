"""Query-frontend tests: differential parity, cache, coalescing,
admission, limits, and the LB forwarding fixes.

The core contract is bit-identity: whatever the frontend does — split
a range at day boundaries, serve part of it from the results cache,
coalesce identical in-flight requests — the response body must be
byte-for-byte what the direct backend path returns for the same
request (the PR-1/PR-5/PR-6 differential methodology applied to the
serving tier).
"""

from __future__ import annotations

import math
import threading
import urllib.parse

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import StackSimulation, small_topology
from repro.cluster.simulation import SimulationConfig
from repro.common.httpx import App, Response
from repro.frontend import (
    AdmissionGate,
    AdmissionRejected,
    QueryFrontend,
    QueryLimits,
    ResultsCache,
    SingleFlight,
    clamp_runs_to_parts,
    grid_parts,
    uncovered_runs,
)
from repro.lb.server import LoadBalancer
from repro.lb.strategies import Backend
from repro.tsdb.http import PromAPI
from repro.tsdb.promql.engine import range_steps

ADMIN = {"x-grafana-user": "admin"}


@pytest.fixture(scope="module")
def fe_sim() -> StackSimulation:
    """A deployment with the frontend enabled, split interval shrunk
    to 15 minutes so a 2 h history exercises many split boundaries."""
    sim = StackSimulation(
        small_topology(cpu_nodes=2, gpu_nodes=1),
        SimulationConfig(
            seed=13, frontend=True, split_interval=900.0, probe_interval=0
        ),
    )
    sim.run(2 * 3600)
    return sim


def _range_url(query: str, start: float, end: float, step: float) -> str:
    return "/api/v1/query_range?" + urllib.parse.urlencode(
        {"query": query, "start": start, "end": end, "step": step}
    )


def _direct(sim: StackSimulation, url: str) -> Response:
    return sim.prom_apis[0].app.get(url, headers=ADMIN)


PARITY_QUERIES = [
    "sum by (hostname) (rate(ceems_cpu_seconds_total[5m]))",
    "ceems:node:power_watts",
    "quantile(0.9, ceems:node:power_watts)",
    "sum(ceems_compute_unit_cpu_user_seconds_total)",
    "42",  # scalar literal
    "0 / 0",  # NaN at every step
]


class TestParity:
    def test_cold_and_warm_across_split_boundaries(self, fe_sim):
        now = fe_sim.clock.now()
        for query in PARITY_QUERIES:
            url = _range_url(query, now - 7000, now - 120, 60)
            direct = _direct(fe_sim, url)
            assert direct.status == 200
            cold = fe_sim.lb.app.get(url, headers=ADMIN)
            warm = fe_sim.lb.app.get(url, headers=ADMIN)
            assert cold.body == direct.body
            assert warm.body == direct.body
        assert fe_sim.frontend.split_requests > 0
        assert fe_sim.frontend.cache.hits > 0

    def test_partial_and_overlapping_extents(self, fe_sim):
        now = fe_sim.clock.now()
        query = "sum by (hostname) (rate(ceems_cpu_seconds_total[5m]))"
        # Seed the middle, then ask for a superset, a subset, and a
        # disjoint range — every answer must match direct evaluation.
        windows = [
            (now - 3600, now - 1800),
            (now - 5400, now - 900),
            (now - 3000, now - 2400),
            (now - 7000, now - 6000),
        ]
        for start, end in windows:
            url = _range_url(query, start, end, 30)
            assert fe_sim.lb.app.get(url, headers=ADMIN).body == _direct(fe_sim, url).body

    def test_post_form_matches_direct_get(self, fe_sim):
        now = fe_sim.clock.now()
        query = "ceems:node:power_watts"
        params = {"query": query, "start": now - 2000, "end": now - 300, "step": 60}
        get_url = _range_url(query, now - 2000, now - 300, 60)
        direct = _direct(fe_sim, get_url)
        posted = fe_sim.lb.app.post(
            "/api/v1/query_range",
            headers={
                **ADMIN,
                "content-type": "application/x-www-form-urlencoded",
            },
            body=urllib.parse.urlencode(params).encode(),
        )
        assert posted.status == 200
        assert posted.body == direct.body

    def test_instant_query_parity(self, fe_sim):
        now = fe_sim.clock.now()
        url = "/api/v1/query?" + urllib.parse.urlencode(
            {"query": "sum(ceems:node:power_watts)", "time": now - 600}
        )
        assert fe_sim.lb.app.get(url, headers=ADMIN).body == _direct(fe_sim, url).body

    def test_strategy_parameter_is_ignored_everywhere(self, fe_sim):
        """There is one evaluator per query kind, so ``strategy`` is
        just an unknown parameter: with either old value or without
        it, direct and frontend bodies are byte-identical and the
        three requests share one results-cache entry."""
        backends = [Backend(name=a.app.name, app=a.app) for a in fe_sim.prom_apis]
        fe = QueryFrontend(backends, split_interval=900.0, clock=fe_sim.clock)
        now = fe_sim.clock.now()
        variants = ("", "&strategy=per_step", "&strategy=columnar", "&strategy=bogus")
        base = _range_url("sum by (hostname) (rate(ceems_cpu_seconds_total[5m]))", now - 7000, now - 900, 60)
        bodies = set()
        for suffix in variants:
            direct = _direct(fe_sim, base + suffix)
            assert direct.status == 200
            bodies |= {direct.body, fe.app.get(base + suffix).body}
        assert len(bodies) == 1
        assert len(fe.cache) == 1
        instant = "/api/v1/query?" + urllib.parse.urlencode(
            {"query": "sum(ceems:node:power_watts)", "time": now - 600}
        )
        bodies = set()
        for suffix in variants:
            bodies |= {_direct(fe_sim, instant + suffix).body, fe.app.get(instant + suffix).body}
        assert len(bodies) == 1

    def test_stats_all_bypasses_cache(self, fe_sim):
        now = fe_sim.clock.now()
        url = (
            _range_url("ceems:node:power_watts", now - 2000, now - 600, 60)
            + "&stats=all"
        )
        before = fe_sim.frontend.passthrough_requests
        response = fe_sim.lb.app.get(url, headers=ADMIN)
        assert response.status == 200
        assert "stats" in response.decode_json()["data"]
        assert fe_sim.frontend.passthrough_requests == before + 1

    def test_error_responses_forward_verbatim(self, fe_sim):
        # The LB rejects unparseable queries itself, so exercise the
        # frontend → backend hop directly: the backend's 400 body must
        # come back untouched.
        now = fe_sim.clock.now()
        url = _range_url("sum(", now - 2000, now - 600, 60)
        direct = _direct(fe_sim, url)
        via = fe_sim.frontend.app.get(url)
        assert direct.status == 400
        assert via.status == 400
        assert via.body == direct.body

    def test_eviction_between_coverage_and_assembly_keeps_parity(self, fe_sim):
        """Coverage and its backing points are snapshotted atomically.

        Regression: the served set used to be computed up front while
        assembly re-read the cache afterwards, so an eviction in
        between — here the request's own ingest tripping the
        single-oversized-entry rule — silently dropped the served grid
        points from a 200 response, and the truncated body was then
        memoised for every settled repeat.
        """
        backends = [Backend(name=a.app.name, app=a.app) for a in fe_sim.prom_apis]
        fe = QueryFrontend(backends, split_interval=900.0, clock=fe_sim.clock)
        now = fe_sim.clock.now()
        query = "sum by (hostname) (rate(ceems_cpu_seconds_total[5m]))"
        seeded = fe.app.get(_range_url(query, now - 3600, now - 2700, 60))
        assert seeded.status == 200
        assert fe.cache.total_bytes > 0
        # Shrink the budget to exactly what is cached: the superset
        # request below finds the seeded window covered, then its own
        # ingest of the remainder overflows the budget and drops the
        # entry before assembly.
        fe.cache.max_bytes = fe.cache.total_bytes
        # Same grid phase as the seed (offsets are multiples of the
        # step), so the seeded window is found covered.
        url = _range_url(query, now - 7080, now - 900, 60)
        direct = _direct(fe_sim, url)
        got = fe.app.get(url)
        assert fe.cache.evictions > 0
        assert got.status == 200
        assert got.body == direct.body
        # The settled repeat replays from the memo — it must be the
        # complete body too, not a truncated one frozen forever.
        assert fe.app.get(url).body == direct.body

    def test_cache_churn_under_tiny_budget(self, fe_sim):
        """Evictions must never break parity — only speed."""
        backends = [Backend(name=a.app.name, app=a.app) for a in fe_sim.prom_apis]
        tiny = QueryFrontend(
            backends,
            split_interval=900.0,
            cache_max_bytes=2048,
            clock=fe_sim.clock,
        )
        now = fe_sim.clock.now()
        for round_ in range(3):
            for query in PARITY_QUERIES:
                url = _range_url(query, now - 6000, now - 300, 60)
                assert tiny.app.get(url).body == _direct(fe_sim, url).body
        assert tiny.cache.evictions > 0


class TestNonFiniteValues:
    """Prometheus spells non-finite sample values ``NaN`` / ``+Inf`` /
    ``-Inf`` (Grafana does not read Python's ``inf``), directly and
    through the LB with the frontend on, split or not."""

    SPELLED = {"0 / 0": "NaN", "1 / 0": "+Inf", "-1 / 0": "-Inf"}

    def test_instant_and_range_direct_and_through_the_frontend(self, fe_sim):
        now = fe_sim.clock.now()
        for query, text in self.SPELLED.items():
            instant = "/api/v1/query?" + urllib.parse.urlencode({"query": query, "time": now - 600})
            ranges = [
                _range_url(query, now - 7000, now - 120, 60),  # crosses split boundaries: assembled
                _range_url(f"vector({query})", now - 600, now - 300, 60),  # inside one bucket
            ]
            for url in (instant, *ranges):
                direct = _direct(fe_sim, url)
                via = fe_sim.lb.app.get(url, headers=ADMIN)
                assert direct.status == via.status == 200, url
                assert via.body == direct.body, url
            data = _direct(fe_sim, instant).decode_json()["data"]
            assert data == {"resultType": "scalar", "result": [now - 600, text]}
            values = _direct(fe_sim, ranges[0]).decode_json()["data"]["result"][0]["values"]
            assert {v for _t, v in values} == {text}

    def test_the_dashboard_data_source_reads_them(self, fe_sim):
        from repro.dashboard.datasource import PrometheusDataSource

        source = PrometheusDataSource(fe_sim.lb.app, "admin")
        now = fe_sim.clock.now()
        for query, expected in (("0 / 0", math.nan), ("1 / 0", math.inf), ("-1 / 0", -math.inf)):
            [(ts, vs)] = source.query_range(query, now - 7000, now - 120, 60).values()
            assert len(ts) == len(vs) > 100
            assert np.array_equal(vs, np.full(len(vs), expected), equal_nan=True)
            [element] = source.query(f"vector({query})", now - 600)
            value = float(element["value"][1])
            assert value == expected or (math.isnan(value) and math.isnan(expected))


class TestSplitInvariance:
    @settings(max_examples=12, deadline=None)
    @given(
        interval=st.sampled_from([120.0, 300.0, 450.0, 700.0, 900.0, 3600.0, 86400.0]),
        step=st.sampled_from([30.0, 60.0, 75.0, 120.0]),
        span=st.floats(min_value=600.0, max_value=7000.0),
    )
    def test_split_merge_invariant_to_interval(self, fe_sim, interval, step, span):
        """The hypothesis property: whatever the split interval, the
        merged response equals the unsplit direct evaluation."""
        backends = [Backend(name=a.app.name, app=a.app) for a in fe_sim.prom_apis]
        frontend = QueryFrontend(backends, split_interval=interval, clock=fe_sim.clock)
        now = fe_sim.clock.now()
        url = _range_url(
            "sum by (hostname) (rate(ceems_cpu_seconds_total[5m]))",
            now - span,
            now - 120,
            step,
        )
        direct = _direct(fe_sim, url)
        assert frontend.app.get(url).body == direct.body
        # And again with the cache warm.
        assert frontend.app.get(url).body == direct.body


class TestFreshness:
    def test_live_tail_never_cached(self, fe_sim):
        fe = fe_sim.frontend
        fe.cache.clear()
        now = fe_sim.clock.now()
        url = _range_url("ceems:node:power_watts", now - 3000, now, 60)
        direct = _direct(fe_sim, url)
        assert fe_sim.lb.app.get(url, headers=ADMIN).body == direct.body
        assert fe_sim.lb.app.get(url, headers=ADMIN).body == direct.body
        cutoff = now - fe.freshness_seconds
        for entry in fe.cache._entries.values():
            assert all(t <= cutoff for t in entry.covered)


class TestCoalescing:
    def _fake_backend(self, hold: threading.Event, entered: threading.Event):
        calls = []

        def handler(request):
            calls.append(request.param("query"))
            entered.set()
            hold.wait(timeout=5)
            return Response.json(
                {"status": "success", "data": {"resultType": "matrix", "result": []}}
            )

        app = App(name="fake-prom")
        app.router.get("/api/v1/query_range", handler)
        app.router.get("/api/v1/query", handler)
        return app, calls

    def test_identical_inflight_requests_share_one_evaluation(self):
        hold, entered = threading.Event(), threading.Event()
        backend_app, calls = self._fake_backend(hold, entered)
        frontend = QueryFrontend([Backend(name="b", app=backend_app)])
        url = _range_url("up", 0, 600, 60)
        results: list[Response] = []

        def issue():
            results.append(frontend.app.get(url))

        leader = threading.Thread(target=issue)
        leader.start()
        assert entered.wait(timeout=5)
        followers = [threading.Thread(target=issue) for _ in range(4)]
        for t in followers:
            t.start()
        # Followers must be parked on the flight, not the backend.
        deadline = [t for t in followers if not _joinable(t, 0.2)]
        assert deadline  # still waiting while the leader holds
        hold.set()
        leader.join(timeout=5)
        for t in followers:
            t.join(timeout=5)
        assert len(calls) == 1
        assert frontend.single_flight.coalesced == 4
        bodies = {r.body for r in results}
        assert len(bodies) == 1
        assert all(r.status == 200 for r in results)


def _joinable(thread: threading.Thread, timeout: float) -> bool:
    thread.join(timeout=timeout)
    return not thread.is_alive()


class TestAdmission:
    def test_gate_rejects_on_overflow(self):
        gate = AdmissionGate(1, queue_timeout=0.05)
        with gate.admit("alice"):
            with pytest.raises(AdmissionRejected):
                with gate.admit("bob"):
                    pass
        # Slot freed: admits again.
        with gate.admit("carol"):
            pass

    def test_per_tenant_cap(self):
        gate = AdmissionGate(8, max_per_tenant=1, queue_timeout=0.05)
        with gate.admit("alice"):
            with pytest.raises(AdmissionRejected):
                with gate.admit("alice"):
                    pass
            with gate.admit("bob"):
                pass

    def test_frontend_answers_503_with_retry_after(self):
        hold, entered = threading.Event(), threading.Event()

        def handler(request):
            entered.set()
            hold.wait(timeout=5)
            return Response.json(
                {"status": "success", "data": {"resultType": "matrix", "result": []}}
            )

        backend_app = App(name="slow-prom")
        backend_app.router.get("/api/v1/query_range", handler)
        frontend = QueryFrontend(
            [Backend(name="b", app=backend_app)],
            max_inflight=1,
            queue_timeout=0.05,
        )
        holder = threading.Thread(
            target=lambda: frontend.app.get(_range_url("up", 0, 600, 60))
        )
        holder.start()
        assert entered.wait(timeout=5)
        # A *different* query cannot coalesce; it must queue and bounce.
        rejected = frontend.app.get(_range_url("down", 0, 600, 60))
        hold.set()
        holder.join(timeout=5)
        assert rejected.status == 503
        assert rejected.headers.get("retry-after")
        assert rejected.decode_json()["errorType"] == "unavailable"
        assert frontend.admission.rejected == 1


class _AllowAll:
    def allowed(self, user, uuids, unbounded=False):
        return True


class TestLBForwarding:
    def test_backend_503_and_retry_after_forward_verbatim(self):
        canned = Response.json(
            {"status": "error", "error": "queue full"}, status=503, retry_after="7"
        )
        app = App(name="busy")
        app.router.get("/api/v1/query", lambda _r: canned)
        lb = LoadBalancer([Backend(name="busy", app=app)], _AllowAll())
        response = lb.app.get("/api/v1/query?query=up&time=0", headers=ADMIN)
        assert response.status == 503
        assert response.headers["retry-after"] == "7"
        assert response.body == canned.body

    def test_no_healthy_backend_is_retryable_503(self):
        app = App(name="down")
        lb = LoadBalancer([Backend(name="down", app=app, healthy=False)], _AllowAll())
        response = lb.app.get("/api/v1/query?query=up&time=0", headers=ADMIN)
        assert response.status == 503
        assert response.headers.get("retry-after") == "1"
        assert response.decode_json()["errorType"] == "unavailable"
        assert lb.upstream_errors == 1

    def test_frontend_no_healthy_backend_is_retryable_503(self):
        """The frontend path maps a no-healthy-backend outage to the
        same retryable 503 + Retry-After as the plain proxy path, not
        a generic 502."""
        down = [Backend(name="down", app=App(name="down"), healthy=False)]
        lb = LoadBalancer(down, _AllowAll(), frontend=QueryFrontend(down))
        for url in (
            "/api/v1/query?query=up&time=0",
            _range_url("up", 0, 600, 60),
        ):
            response = lb.app.get(url, headers=ADMIN)
            assert response.status == 503
            assert response.headers.get("retry-after") == "1"
            assert response.decode_json()["errorType"] == "unavailable"
        assert lb.upstream_errors == 2

    def test_crashing_backend_is_502(self):
        app = App(name="crashy")

        def boom(_request):
            raise RuntimeError("kaput")

        app.router.get("/api/v1/query", boom)
        lb = LoadBalancer([Backend(name="crashy", app=app)], _AllowAll())
        response = lb.app.get("/api/v1/query?query=up&time=0", headers=ADMIN)
        assert response.status == 502
        assert "kaput" in response.decode_json()["error"]
        assert lb.upstream_errors == 1

    def test_lb_dispatches_query_paths_into_frontend(self, fe_sim):
        before = fe_sim.frontend.cache.hits + fe_sim.frontend.cache.misses
        now = fe_sim.clock.now()
        response = fe_sim.lb.app.get(
            _range_url("ceems_cpu_count", now - 1200, now - 700, 60), headers=ADMIN
        )
        assert response.status == 200
        assert response.headers["x-ceems-backend"] == fe_sim.frontend.app.name
        assert fe_sim.frontend.cache.hits + fe_sim.frontend.cache.misses > before

    def test_longterm_routing_wins_over_frontend(self):
        from repro.common.clock import SimClock

        day = 86400.0
        clock = SimClock(start=100 * day)

        def echo(name):
            app = App(name=name)
            for path in ("/api/v1/query", "/api/v1/query_range"):
                app.router.get(path, lambda _r, n=name: Response.json({"from": n}))
            return app

        hot = [Backend(name="hot-0", app=echo("hot-0"))]
        frontend = QueryFrontend(hot, clock=clock)
        lb = LoadBalancer(
            hot,
            _AllowAll(),
            longterm_backends=[Backend(name="thanos-0", app=echo("thanos-0"))],
            hot_retention=30 * day,
            clock=clock,
            frontend=frontend,
        )
        # Recent range: frontend path (hot pool behind it).
        recent = lb.app.get(
            _range_url("up", clock.now() - 2 * day, clock.now() - day, 60),
            headers=ADMIN,
        )
        assert recent.headers["x-ceems-backend"] == frontend.app.name
        assert lb.longterm_routed == 0
        # Ancient range: age-based routing bypasses the frontend.
        old = lb.app.get(
            _range_url("up", clock.now() - 90 * day, clock.now() - 89 * day, 60),
            headers=ADMIN,
        )
        assert old.headers["x-ceems-backend"] == "thanos-0"
        assert lb.longterm_routed == 1

    def test_promapi_queue_full_503_carries_retry_after(self, fe_sim):
        api = PromAPI(
            fe_sim.fanout, name="tiny", max_concurrent_queries=1, queue_timeout=0.05
        )
        hold, entered = threading.Event(), threading.Event()
        original = api.engine.query_range

        def slow(ast, start, end, step):
            entered.set()
            hold.wait(timeout=5)
            return original(ast, start, end, step)

        api.engine.query_range = slow
        now = fe_sim.clock.now()
        url = _range_url("ceems:node:power_watts", now - 600, now - 60, 60)
        holder = threading.Thread(target=lambda: api.app.get(url))
        holder.start()
        assert entered.wait(timeout=5)
        rejected = api.app.get(
            _range_url("ceems_cpu_count", now - 600, now - 60, 60)
        )
        hold.set()
        holder.join(timeout=5)
        assert rejected.status == 503
        assert rejected.headers.get("retry-after")


class TestLimits:
    def test_structured_422_at_promapi(self, fe_sim):
        api = PromAPI(
            fe_sim.fanout,
            name="limited",
            limits=QueryLimits(
                max_query_length=50, max_range_seconds=3600, max_resolved_steps=100
            ),
        )
        now = fe_sim.clock.now()
        # Query too long.
        long_query = "sum(" + "ceems_cpu_count + " * 10 + "ceems_cpu_count)"
        response = api.app.get(_range_url(long_query, now - 600, now - 60, 60))
        assert response.status == 422
        payload = response.decode_json()
        assert payload["limit"] == "max_query_length"
        assert payload["errorType"] == "bad_data"
        assert payload["actual"] == len(long_query)
        # Range too wide.
        response = api.app.get(_range_url("up", now - 7200, now, 60))
        assert response.status == 422
        assert response.decode_json()["limit"] == "max_range_seconds"
        # Too many steps.
        response = api.app.get(_range_url("up", now - 3000, now, 1))
        assert response.status == 422
        assert response.decode_json()["limit"] == "max_resolved_steps"
        # Instant query honours the length limit too.
        response = api.app.get(
            "/api/v1/query?" + urllib.parse.urlencode({"query": long_query, "time": now})
        )
        assert response.status == 422

    def test_malformed_numbers_beat_limit_checks_on_both_paths(self, fe_sim):
        """Check ordering parity: a request with an over-long query AND
        malformed start/end/step gets the backend's 400 (numbers are
        parsed before limits there), not a frontend-only 422."""
        limits = QueryLimits(max_query_length=50)
        api = PromAPI(fe_sim.fanout, name="limited-ordering", limits=limits)
        backends = [Backend(name=api.app.name, app=api.app)]
        frontend = QueryFrontend(backends, limits=limits, clock=fe_sim.clock)
        long_query = "sum(" + "ceems_cpu_count + " * 10 + "ceems_cpu_count)"
        url = "/api/v1/query_range?" + urllib.parse.urlencode(
            {"query": long_query, "start": "oops", "end": 600, "step": 60}
        )
        direct = api.app.get(url)
        via = frontend.app.get(url)
        assert direct.status == 400
        assert via.status == 400
        assert via.body == direct.body
        # With well-formed numbers the same query is a 422 on both.
        now = fe_sim.clock.now()
        ok_url = _range_url(long_query, now - 600, now - 60, 60)
        direct = api.app.get(ok_url)
        via = frontend.app.get(ok_url)
        assert direct.status == via.status == 422
        assert via.body == direct.body

    def test_frontend_enforces_same_limits_through_lb(self, fe_sim):
        limits = QueryLimits(max_range_seconds=1800)
        backends = [Backend(name=a.app.name, app=a.app) for a in fe_sim.prom_apis]
        frontend = QueryFrontend(backends, limits=limits, clock=fe_sim.clock)
        lb = LoadBalancer([Backend(name="fe", app=frontend.app)], _AllowAll())
        now = fe_sim.clock.now()
        response = lb.app.get(
            _range_url("ceems_cpu_count", now - 7200, now, 60), headers=ADMIN
        )
        assert response.status == 422
        payload = response.decode_json()
        assert payload["limit"] == "max_range_seconds"
        assert payload["max"] == 1800
        # Within the limit: normal success.
        ok = lb.app.get(
            _range_url("ceems_cpu_count", now - 1200, now - 60, 60), headers=ADMIN
        )
        assert ok.status == 200


class TestSplitPrimitives:
    def test_grid_parts_partition_and_bit_identity(self):
        grid = range_steps(0.0, 7200.0, 60.0)
        parts = grid_parts(grid, 60.0, 3600.0)
        assert parts is not None
        # A partition: contiguous, covering, non-overlapping.
        assert parts[0][0] == 0 and parts[-1][1] == len(grid) - 1
        for (a0, a1), (b0, b1) in zip(parts, parts[1:]):
            assert b0 == a1 + 1
        # No timestamp crosses an interval boundary inside one part.
        for i0, i1 in parts:
            assert len({int(t // 3600.0) for t in grid[i0 : i1 + 1].tolist()}) == 1

    def test_grid_parts_rejects_drifting_grids(self):
        # An irrational-ish step whose sub-grids drift bitwise.
        step = 0.1
        grid = range_steps(0.05, 40.0, step)
        parts = grid_parts(grid, step, 10.0)
        if parts is not None:
            # If it did split, each part must be bit-identical.
            for i0, i1 in parts:
                sub = range_steps(float(grid[i0]), float(grid[i1]), step)
                assert np.array_equal(sub, grid[i0 : i1 + 1])

    def test_uncovered_runs_and_clamp(self):
        grid = range_steps(0.0, 600.0, 60.0)
        covered = {120.0, 180.0, 480.0}
        runs = uncovered_runs(grid, covered)
        assert runs == [(0, 1), (4, 7), (9, 10)]
        parts = [(0, 5), (6, 10)]
        assert clamp_runs_to_parts(runs, parts) == [
            (0, 1),
            (4, 5),
            (6, 7),
            (9, 10),
        ]

    def test_results_cache_exact_membership(self):
        cache = ResultsCache(max_bytes=10_000)
        key = ("t", "q", "", "60.0", "0.0")
        steps = [0.0, 60.0, 120.0]
        result = [{"metric": {"a": "1"}, "values": [[0.0, "1"], [120.0, "3"]]}]
        cache.ingest(key, steps, result, cutoff=float("inf"))
        served, columns = cache.snapshot(key, steps)
        assert served == set(steps)
        assert columns[0][2] == [0.0, 120.0]
        assert columns[0][3] == ["1", "3"]
        # A drifted grid point is simply not covered.
        assert cache.snapshot(key, [60.000000001]) == (set(), [])
        # Only the asked-for grid points come back.
        served, columns = cache.snapshot(key, [0.0, 60.0])
        assert served == {0.0, 60.0}
        assert (columns[0][2], columns[0][3]) == ([0.0], ["1"])

    def test_snapshot_is_atomic_copy(self):
        cache = ResultsCache(max_bytes=10_000)
        key = ("t", "q", "", "60.0", "0.0")
        steps = [0.0, 60.0, 120.0]
        result = [{"metric": {"a": "1"}, "values": [[0.0, "1"], [120.0, "3"]]}]
        cache.ingest(key, steps, result, cutoff=float("inf"))
        served, columns = cache.snapshot(key, steps)
        assert served == set(steps)
        # Evicting the entry after the snapshot cannot take the data
        # with it: assembly works from the copied columns.
        cache.clear()
        assert cache.snapshot(key, steps) == (set(), [])
        assert columns[0][2] == [0.0, 120.0]
        assert columns[0][3] == ["1", "3"]

    def test_results_cache_respects_cutoff(self):
        cache = ResultsCache()
        key = ("t", "q", "", "60.0", "0.0")
        steps = [0.0, 60.0, 120.0]
        result = [{"metric": {}, "values": [[0.0, "1"], [60.0, "2"], [120.0, "3"]]}]
        cache.ingest(key, steps, result, cutoff=60.0)
        assert cache.snapshot(key, steps)[0] == {0.0, 60.0}


class TestSingleFlightUnit:
    def test_sequential_calls_do_not_coalesce(self):
        sf = SingleFlight()
        out1 = sf.do(("k",), lambda: Response.text("a"))
        out2 = sf.do(("k",), lambda: Response.text("b"))
        assert out1.body == b"a" and out2.body == b"b"
        assert sf.coalesced == 0

    def test_leader_exception_propagates_to_followers(self):
        sf = SingleFlight()
        entered, hold = threading.Event(), threading.Event()
        errors: list[BaseException] = []

        def failing():
            entered.set()
            hold.wait(timeout=5)
            raise RuntimeError("boom")

        def leader():
            try:
                sf.do(("k",), failing)
            except RuntimeError as exc:
                errors.append(exc)

        def follower():
            try:
                sf.do(("k",), lambda: Response.text("never"))
            except RuntimeError as exc:
                errors.append(exc)

        t1 = threading.Thread(target=leader)
        t1.start()
        assert entered.wait(timeout=5)
        t2 = threading.Thread(target=follower)
        t2.start()
        hold.set()
        t1.join(timeout=5)
        t2.join(timeout=5)
        assert len(errors) == 2


class TestTelemetry:
    def test_frontend_metrics_exposed(self, fe_sim):
        now = fe_sim.clock.now()
        fe_sim.lb.app.get(
            _range_url("ceems_cpu_count", now - 3000, now - 120, 60), headers=ADMIN
        )
        text = fe_sim.frontend.app.get("/metrics").body.decode()
        for name in (
            "ceems_frontend_cache_hits_total",
            "ceems_frontend_cache_misses_total",
            "ceems_frontend_split_queries_total",
            "ceems_frontend_coalesced_total",
            "ceems_frontend_queue_depth",
            "ceems_frontend_rejected_total",
        ):
            assert name in text

    def test_meta_monitoring_scrapes_frontend(self, fe_sim):
        url = "/api/v1/query?" + urllib.parse.urlencode(
            {
                "query": 'up{job="ceems-frontend"}',
                "time": fe_sim.clock.now(),
            }
        )
        payload = _direct(fe_sim, url).decode_json()
        assert payload["data"]["result"], "frontend must be a meta-monitoring target"

    def test_non_query_paths_proxy_through_frontend(self, fe_sim):
        response = fe_sim.lb.app.get("/api/v1/status/buildinfo", headers=ADMIN)
        assert response.status == 200
        assert response.decode_json()["data"]["version"]
        values = fe_sim.lb.app.get("/api/v1/label/hostname/values", headers=ADMIN)
        assert values.status == 200
        assert values.decode_json()["data"]
