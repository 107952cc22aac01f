"""Which lane a range request takes through the query frontend.

A grid that lies inside one split bucket goes to a backend verbatim,
whether or not the step cache holds anything for it; only a grid that
crosses a split boundary is looked up in, and stored into, the step
cache.  Either way the bytes must be those of the serving path without
a frontend, and the settled-response memo, single-flight and admission
stay in front of both lanes.
"""

from __future__ import annotations

import threading
import urllib.parse

import numpy as np
import pytest

from repro.cluster import StackSimulation, small_topology
from repro.cluster.simulation import SimulationConfig
from repro.common.httpx import App, Response
from repro.frontend import QueryFrontend, QueryLimits
from repro.lb.server import LoadBalancer
from repro.lb.strategies import Backend
from repro.tsdb.http import PromAPI
from repro.tsdb.model import Labels
from repro.tsdb.storage import TSDB

ADMIN = {"x-grafana-user": "admin"}
WINDOW, STEP, ADVANCE = 600.0, 30.0, 30.0  # the dash_live shape, at test size
SPLIT = 900.0
PANELS = [
    "ceems:node:power_watts",  # fleet-wide
    'sum by (hostname) (rate(ceems_cpu_seconds_total{hostname=~".+0"}[5m]))',
    "sum(ceems_compute_unit_cpu_user_seconds_total)",
]


class _AllowAll:
    def allowed(self, user, uuids, unbounded=False):
        return True


@pytest.fixture(scope="module")
def sim() -> StackSimulation:
    """A live deployment; each test below slides it further along."""
    sim = StackSimulation(
        small_topology(cpu_nodes=2, gpu_nodes=1),
        SimulationConfig(seed=29, probe_interval=0),
    )
    sim.run(3600)
    return sim


class Lanes:
    """One long-lived frontend behind an LB, a frontend-less LB over the
    same backends as the reference, and a count of step-cache reads."""

    def __init__(self, sim: StackSimulation, **options) -> None:
        backends = [Backend(name=api.app.name, app=api.app) for api in sim.prom_apis]
        self.frontend = QueryFrontend(backends, clock=sim.clock, **options)
        self.lb = LoadBalancer(backends, _AllowAll(), frontend=self.frontend)
        self.reference = LoadBalancer(backends, _AllowAll())
        self.snapshots = 0
        snapshot = self.frontend.cache.snapshot

        def counting(key, grid):
            self.snapshots += 1
            return snapshot(key, grid)

        self.frontend.cache.snapshot = counting

    def ask(self, url: str) -> Response:
        """Through the frontend; asserts the reference's status and bytes."""
        got = self.lb.app.get(url, headers=ADMIN)
        want = self.reference.app.get(url, headers=ADMIN)
        assert (got.status, got.body) == (want.status, want.body), url
        return got


def range_url(query: str, start: float, end: float, step: float = STEP, **extra) -> str:
    params = {"query": query, "start": repr(start), "end": repr(end), "step": repr(step), **extra}
    return "/api/v1/query_range?" + urllib.parse.urlencode(params)


def one_bucket(start: float, end: float, split: float) -> bool:
    return start // split == end // split


class TestSlidingLiveWindows:
    def test_single_bucket_windows_never_touch_the_step_cache(self, sim):
        """The dash_live shape: every refresh re-asks a window that ends
        at "now" (live tail inside) and has slid by one step."""
        lanes = Lanes(sim)  # day buckets: the deployment never leaves its first
        fe = lanes.frontend
        for round_ in range(12):
            now = sim.clock.now()
            assert one_bucket(now - WINDOW, now, fe.split_interval)
            for query in PANELS:
                assert lanes.ask(range_url(query, now - WINDOW, now)).status == 200
            assert fe.subqueries == len(PANELS) * (round_ + 1)  # each one whole, upstream
            sim.run(ADVANCE)
        assert lanes.snapshots == 0 and len(fe.cache) == 0 and fe.cache.total_bytes == 0
        assert fe.cache.hits == 0 and fe.cache.misses == 12 * len(PANELS)
        # The live tail was inside every window: nothing may be replayed.
        assert len(fe.memo) == 0 and fe.memo.hits == 0
        assert fe.split_requests == 0 and fe.passthrough_requests == 0

    def test_window_that_slides_across_a_split_boundary_and_back(self, sim):
        # A live tail shorter than the window, so its older part is cacheable.
        lanes = Lanes(sim, split_interval=SPLIT, freshness_seconds=240.0)
        fe = lanes.frontend
        inside: list[bool] = []
        for _round in range(int(SPLIT / ADVANCE) + 8):
            now = sim.clock.now()
            inside.append(one_bucket(now - WINDOW, now, SPLIT))
            before = (lanes.snapshots, fe.subqueries)
            for query in PANELS:
                lanes.ask(range_url(query, now - WINDOW, now))
            asked, forwarded = lanes.snapshots - before[0], fe.subqueries - before[1]
            if inside[-1]:
                assert (asked, forwarded) == (0, len(PANELS))
            else:
                assert asked == len(PANELS) and forwarded >= len(PANELS)
            sim.run(ADVANCE)
        # The window slid out of one bucket, and came back into one
        # after the step cache had filled for its key.
        assert False in inside[inside.index(True) :] and True in inside[inside.index(False) :]
        assert fe.split_requests > 0 and fe.cache.hits > 0 and len(fe.cache) == len(PANELS)

    def test_a_covered_single_bucket_grid_still_goes_upstream(self, sim):
        """parent: once a crossing window had filled the key, a window
        inside one bucket was assembled from cached points."""
        lanes = Lanes(sim, split_interval=SPLIT)
        fe = lanes.frontend
        now = sim.clock.now()
        boundary = (now - 1200.0) // SPLIT * SPLIT  # settled, well behind the tail
        query = PANELS[0]
        lanes.ask(range_url(query, boundary - 300.0, boundary + 300.0))  # crosses: fills the cache
        assert lanes.snapshots == 1 and len(fe.cache) == 1
        before = fe.subqueries
        lanes.ask(range_url(query, boundary, boundary + 300.0))  # inside one bucket, all of it covered
        assert lanes.snapshots == 1 and fe.subqueries == before + 1 and fe.cache.hits == 0


class TestAssembledAnswers:
    """A grid crossing a split boundary is answered from cached text
    columns plus fresh sub-results, written by PromAPI's own renderer;
    the bytes must be a frontend-less LB's over the same backends."""

    BOUNDARY = 7200.0  # a multiple of SPLIT

    @pytest.fixture(scope="class")
    def db(self) -> TSDB:
        """``m{k="a"}`` throughout, cycling 0, 1, 2 (so ``m / (m - 1)``
        is +Inf every third step); ``m{k="b"}`` only after the first
        window; ``m{k="c"}`` only before the boundary."""
        db = TSDB()
        b0 = self.BOUNDARY
        for i, t in enumerate(np.arange(b0 - 1800.0, b0 + 1800.0, 15.0)):
            db.append(Labels(__name__="m", k="a"), float(t), float(i % 3))
            if t > b0 + 600.0:
                db.append(Labels(__name__="m", k="b", note='q"\\\n日'), float(t), float(i))
            if t < b0 - 300.0:
                db.append(Labels(__name__="m", k="c"), float(t), -float(i))
        return db

    def lanes(self, db: TSDB, split: float = SPLIT) -> tuple[QueryFrontend, LoadBalancer, LoadBalancer]:
        backends = [Backend(name="p", app=PromAPI(db).app)]
        frontend = QueryFrontend(backends, split_interval=split)  # no clock: all settled
        return frontend, LoadBalancer(backends, _AllowAll(), frontend=frontend), LoadBalancer(backends, _AllowAll())

    def ask(self, frontend, lb, reference, url: str) -> bytes:
        got, want = lb.app.get(url, headers=ADMIN), reference.app.get(url, headers=ADMIN)
        assert got.status == want.status == 200, url
        assert got.body == want.body, url
        return got.body

    @pytest.mark.parametrize("query", ["m", "m / (m - 1)", "(m - 1) / (m - 1)", "-m / (m - 1)", "sum by (k) (m)"])
    def test_partly_cached_crossing_windows(self, db, query):
        frontend, lb, reference = self.lanes(db)
        b0 = self.BOUNDARY
        # The first window crosses the boundary and fills the step cache;
        # the second keeps its start and grid, so its older part is
        # served from the cache and only the newer part is evaluated.
        first = self.ask(frontend, lb, reference, range_url(query, b0 - 900.0, b0 + 600.0, 15.0))
        assert frontend.cache.hits == 0 and len(frontend.cache) == 1
        subqueries = frontend.subqueries
        second = self.ask(frontend, lb, reference, range_url(query, b0 - 900.0, b0 + 1500.0, 15.0))
        assert frontend.cache.hits == 1 and frontend.subqueries > subqueries
        if query == "m":
            assert b'"k": "b"' not in first and b'"k": "b", "note": "q\\"\\\\\\n\\u65e5"' in second
        if "/" in query:  # the cached texts and the fresh ones are spelled alike
            assert b"nan" not in second and b"inf" not in second
            assert (b'"NaN"' in second) == (query.startswith("(")) and (b'"+Inf"' in second) == (query == "m / (m - 1)")
        # Fully covered now: no backend round trip at all.
        subqueries = frontend.subqueries
        self.ask(frontend, lb, reference, range_url(query, b0 - 600.0, b0 + 1200.0, 15.0))
        assert frontend.subqueries == subqueries


class TestSettledMemo:
    def test_settled_window_is_replayed_on_its_second_ask_and_not_before(self, sim):
        lanes = Lanes(sim)
        fe = lanes.frontend
        now = sim.clock.now()
        url = range_url(PANELS[1], now - 1500.0, now - fe.freshness_seconds - 60.0)
        first = lanes.ask(url)
        assert (fe.memo.hits, len(fe.memo), fe.subqueries) == (0, 1, 1)
        second = lanes.ask(url)
        assert (fe.memo.hits, len(fe.memo), fe.subqueries) == (1, 1, 1)
        assert second.body == first.body
        sim.run(ADVANCE)  # settled history does not move
        assert lanes.ask(url).body == first.body and fe.memo.hits == 2
        assert lanes.snapshots == 0

    def test_window_reaching_into_the_live_tail_is_never_remembered(self, sim):
        lanes = Lanes(sim)
        fe = lanes.frontend
        now = sim.clock.now()
        # One step past the cutoff is enough to keep it out.
        url = range_url(PANELS[0], now - 1500.0, now - fe.freshness_seconds + STEP)
        for _ask in range(3):
            lanes.ask(url)
        assert (fe.memo.hits, len(fe.memo), fe.subqueries) == (0, 0, 3)

    def test_an_error_answer_is_not_remembered(self, sim):
        hold = threading.Event()
        calls: list[str] = []

        def handler(request):
            calls.append(request.param("query"))
            if not hold.is_set():
                return Response.error(500, "backend down")
            return Response.json({"status": "success", "data": {"resultType": "matrix", "result": []}})

        app = App(name="flaky-prom")
        app.router.get("/api/v1/query_range", handler)
        fe = QueryFrontend([Backend(name="b", app=app)])  # no clock: everything is settled
        url = range_url("up", 0.0, 600.0, 60.0)
        assert fe.app.get(url).status == 500 and len(fe.memo) == 0
        hold.set()
        assert fe.app.get(url).status == 200 and len(fe.memo) == 1
        assert fe.app.get(url).status == 200 and len(calls) == 2


class TestOtherAnswersUnchanged:
    def test_stats_all_is_passed_through_with_the_direct_result(self, sim):
        lanes = Lanes(sim)
        now = sim.clock.now()
        plain = range_url(PANELS[0], now - 1500.0, now - 900.0)
        via = lanes.lb.app.get(plain + "&stats=all", headers=ADMIN)
        assert via.status == 200 and lanes.frontend.passthrough_requests == 1
        data = via.decode_json()["data"]
        assert "samples" in str(data.pop("stats"))
        assert data == lanes.ask(plain).decode_json()["data"]
        assert len(lanes.frontend.memo) == 1  # the plain ask; never the stats one

    def test_400_and_422_bodies_equal_the_direct_path(self, sim):
        limits = QueryLimits(max_query_length=80, max_range_seconds=1800.0, max_resolved_steps=100)
        api = PromAPI(sim.fanout, name="limited-lanes", limits=limits)
        backends = [Backend(name=api.app.name, app=api.app)]
        fe = QueryFrontend(backends, clock=sim.clock, limits=limits)
        now = sim.clock.now()
        long_query = "sum(" + "ceems_cpu_count + " * 10 + "ceems_cpu_count)"
        cases = [
            (range_url("sum(", now - 600.0, now), 400),
            (range_url("1.2.3", now - 600.0, now), 400),
            (range_url("up", now, now - 600.0), 400),
            (range_url("up", now - 600.0, now, 0.0), 400),
            ("/api/v1/query_range?query=up&start=oops&end=1&step=1", 400),
            (range_url(long_query, now - 600.0, now), 422),
            (range_url("up", now - 3600.0, now), 422),
            (range_url("up", now - 600.0, now, 1.0), 422),
        ]
        for url, status in cases:
            direct, via = api.app.get(url), fe.app.get(url)
            assert direct.status == via.status == status, url
            assert via.body == direct.body, url
        assert b"float" not in fe.app.get(cases[1][0]).body  # no Python ValueError text
        assert fe.subqueries == 0 and len(fe.memo) == 0

    def test_admission_503_body_and_header(self):
        hold, entered = threading.Event(), threading.Event()

        def handler(request):
            entered.set()
            hold.wait(timeout=5)
            return Response.json({"status": "success", "data": {"resultType": "matrix", "result": []}})

        app = App(name="slow-prom")
        app.router.get("/api/v1/query_range", handler)
        fe = QueryFrontend([Backend(name="b", app=app)], max_inflight=1, queue_timeout=0.05, retry_after=2.5)
        holder = threading.Thread(target=lambda: fe.app.get(range_url("up", 0.0, 600.0, 60.0)))
        holder.start()
        assert entered.wait(timeout=5)
        url = range_url("down", 0.0, 600.0, 60.0)  # one bucket, settled: the lane that forwards
        rejected = fe.app.get(url)
        hold.set()
        holder.join(timeout=5)
        assert not holder.is_alive()
        assert rejected.status == 503 and rejected.headers["retry-after"] == "3"
        assert rejected.decode_json() == {
            "status": "error",
            "errorType": "unavailable",
            "error": "query frontend pool full: 1/1 workers busy for 0.1s",
        }
        assert fe.subqueries == 1 and len(fe.memo) == 1  # the holder's; the 503 left nothing
        assert fe.app.get(url).status == 200 and fe.subqueries == 2
