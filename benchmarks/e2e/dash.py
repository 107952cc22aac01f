"""``dash_cold`` and ``dash_live``: users reading Grafana off the stack.

Both run on a deployment with a settled history and replay the shipped
dashboards' queries (read from the provisioning bundle, ``$job`` bound
to a real unit) through the serving path the paper describes: API
server for the unit tables, LB authz -> query frontend -> PromAPI for
the panels.  One generator thread; every call is an in-process
``App.handle``.

* ``dash_cold`` is an *open loop*: job-page opens arrive on a seeded
  schedule whatever the stack is doing, every page asks for a window
  nobody asked for before, so the results cache never hits and latency
  is counted from the moment a page was due.
* ``dash_live`` is a *closed loop tied to sim time*: the deployment
  ingests 30 s, then every watcher refreshes the same sliding window —
  the Grafana auto-refresh shape, reads beside writes, where the
  frontend's prefix reuse and its uncacheable live tail both matter.
"""

from __future__ import annotations

import statistics
import time
import urllib.parse
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import StackSimulation
from repro.common.httpx import App, Request, Response
from repro.dashboard.grafana_json import all_dashboards
from repro.lb.authz import DBAuthorizer
from repro.lb.server import LoadBalancer
from repro.lb.strategies import Backend

from benchmarks.e2e import deploy, harness, stats
from benchmarks.e2e.harness import Outcome
from benchmarks.e2e.ingest import CycleLog, check_power_vector
from benchmarks.e2e.trace import Tracer

DASH_SHAPE = deploy.Shape(
    # 17 nodes, 48 GPUs, ~30 targets, ~2.7k series: a job page's cost
    # depends on the job's own series, not on the fleet, and the
    # history has to be rebuilt SETUP_REPEATS times per run.
    scale=0.01,
    scrape_interval=15.0,
    rule_interval=30.0,
    update_interval=600.0,
    mean_interarrival=60.0,
    backlog=20,
)
HISTORY = 21 * 60.0  # sim-seconds ingested before anything is served: freshness + phase + window
FRESHNESS = 600.0  # the frontend's uncacheable live tail
COLD_WINDOW = 600.0
COLD_STEPS = (15.0, 30.0, 60.0)
#: Open-loop ladder: (pages/s, share of --seconds).  The middle rate is
#: the reference the gated latencies come from and gets most of the
#: time, because a p90 needs the pages; one page costs ~7.5 ms, so the
#: rungs load the single serving thread to ~15%, ~30% and ~60%.
LADDER = ((20.0, 0.07), (40.0, 0.66), (80.0, 0.07))
REFERENCE_RATE = 40.0
CLOSED_PAGES_PER_SECOND = 32.0  # closed-loop pages per --seconds second (~0.24 of it)
CLOSED_SLICE = 16  # pages per throughput slice of the closed loop
REPLAY_PAGES = 120  # reference-rate pages replayed against the memo
LATENCY_LIMIT_MS = 100.0  # a rung "holds" if its p90 stays under this

LIVE_WINDOW = 1200.0
LIVE_STEP = 30.0
LIVE_ADVANCE = 30.0
LIVE_ROUNDS_PER_SECOND = 5.0
WATCHERS = 8
CHECK_SAMPLE = 200  # requests compared byte-for-byte against a direct LB

USER_HEADER = "X-Grafana-User"


def panel_queries(uid: str) -> list[tuple[bool, str]]:
    """``(is_range, expr)`` of every Prometheus target a dashboard fires."""
    out = []
    for panel in all_dashboards()[uid]["panels"]:
        for target in panel.get("targets", []):
            if "expr" in target:
                out.append((panel["type"] == "timeseries", target["expr"]))
    return out


def panel_url(is_range: bool, expr: str, start: float, end: float, step: float) -> str:
    if is_range:
        params = {"query": expr, "start": repr(start), "end": repr(end), "step": repr(step)}
        return "/api/v1/query_range?" + urllib.parse.urlencode(params)
    return "/api/v1/query?" + urllib.parse.urlencode({"query": expr, "time": repr(end)})


@dataclass
class Call:
    """One request of a page or refresh, and what came back."""

    layer: str  # top-level span name: "lb" or "apiserver.api"
    app: App
    url: str
    user: str
    response: Response | None = None

    def request(self) -> Request:
        # Built before the clock starts; a Request is single-use (the
        # router writes the matched route into it).
        return Request.from_url("GET", self.url, headers={USER_HEADER: self.user})


@dataclass
class Visit:
    """One unit of dashboard work: a page open or a panel refresh."""

    calls: list[Call]
    offset: float = 0.0  # open loop: due this long after the phase starts
    due: float = 0.0  # open loop: the perf_counter instant it was due
    started: float = 0.0
    ended: float = 0.0
    traced: bool = False
    requests: list[Request] = field(default_factory=list)

    def prepare(self) -> None:
        self.requests = [call.request() for call in self.calls]

    def serve(self, tracer: Tracer | None) -> None:
        """Issue the calls back-to-back; the clock covers only them."""
        if tracer is None or not self.traced:
            self.started = time.perf_counter()
            for call, request in zip(self.calls, self.requests):
                call.response = call.app.handle(request)
            self.ended = time.perf_counter()
            return
        self.started = time.perf_counter()
        for call, request in zip(self.calls, self.requests):
            with tracer.span(call.layer):
                call.response = call.app.handle(request)
        self.ended = time.perf_counter()

    @property
    def service(self) -> float:
        return self.ended - self.started


def units_of(sim: StackSimulation) -> list[dict]:
    """Every unit the API server knows, as an admin sees them."""
    response = sim.api_server.app.handle(
        Request.from_url("GET", "/api/v1/units?all=true&limit=100000", headers={USER_HEADER: deploy.ADMIN})
    )
    return sorted(response.decode_json()["data"], key=lambda unit: int(unit["uuid"]))


def direct_lb(sim: StackSimulation) -> LoadBalancer:
    """The serving path without the frontend, over the same backends:
    the reference the frontend's answers must equal byte for byte."""
    backends = [Backend(name=api.app.name, app=api.app) for api in sim.prom_apis]
    return LoadBalancer(backends, DBAuthorizer(sim.db, admin_users=(deploy.ADMIN,)), slow_request_ms=-1.0)


def count_failures(visits: list[Visit], outcome: Outcome) -> None:
    for visit in visits:
        for call in visit.calls:
            outcome.attempted += 1
            outcome.failed += call.response is None or call.response.status != 200


def equals_direct(call: Call, reference: LoadBalancer) -> bool:
    """The LB's answer equals the frontend-less path's, status and bytes."""
    expected = reference.app.handle(call.request())
    return expected.status == call.response.status and expected.body == call.response.body


class FrontendCounters:
    """Frontend and LB counters, accumulated across cache clears."""

    def __init__(self, sim: StackSimulation) -> None:
        self.sim = sim
        self._mark = self._read()
        self.totals = dict.fromkeys(self._mark, 0.0)
        #: Largest results-cache + memo footprint seen at a collect.
        self.cache_bytes = 0.0

    def _read(self) -> dict[str, float]:
        frontend, lb = self.sim.frontend, self.sim.lb
        return {
            "subqueries": frontend.subqueries,
            "cache_hits": frontend.cache.stats()["hits"],
            "memo_hits": frontend.memo.hits,
            "rejected": frontend.admission.rejected,
            "requests": lb.requests_proxied + lb.requests_denied,
            "denied": lb.requests_denied,
        }

    def collect(self, *, clear: bool = False, into: dict[str, float] | None = None) -> None:
        """Add what happened since the last call to ``into`` (default:
        the run's totals).  Cache and memo sizes are read *before* any
        clear — reading them after is how ``BENCH_serving.json`` came
        to report 0 bytes beside 977 hits."""
        frontend = self.sim.frontend
        into = self.totals if into is None else into
        now = self._read()
        for key, value in now.items():
            into[key] = into.get(key, 0.0) + value - self._mark[key]
        self.cache_bytes = max(self.cache_bytes, frontend.cache.stats()["bytes"] + frontend.memo.total_bytes)
        if clear:
            frontend.cache.clear()
            frontend.memo.clear()
            now = self._read()
        self._mark = now


def serving_layers(tracer: Tracer, counters: FrontendCounters, units: int) -> dict[str, float]:
    counts, totals = tracer.counts, counters.totals
    asked = counts["frontend.steps_asked"]
    return {
        "tsdb.http.bytes_out": counts["tsdb.http.bytes_out"] / units,
        "lb.requests": totals["requests"] / units,
        "lb.denied": totals["denied"],
        "frontend.cache_hit_ratio": counts["frontend.steps_served"] / asked if asked else 0.0,
        "frontend.subqueries": totals["subqueries"] / units,
        "frontend.cache_bytes": counters.cache_bytes,
        "frontend.memo_hits": totals["memo_hits"],
        "frontend.rejected": totals["rejected"],
    }


HISTORY_CHUNK = 60.0


def build_history(seed: int, horizon: float, tracer: Tracer | None, meter) -> tuple[StackSimulation, float]:
    """A deployment with ``HISTORY`` ingested, and the speed-normalised
    seconds that took."""
    return deploy.metered_setup(
        lambda: deploy.build(seed, DASH_SHAPE, HISTORY + horizon, tracer=tracer),
        round(HISTORY / HISTORY_CHUNK),
        HISTORY_CHUNK,
        meter,
    )


# -- dash_cold -----------------------------------------------------------


def job_page(sim: StackSimulation, unit: dict, step: float, phase: float, panels) -> Visit:
    """One user opening one of their own jobs: the usage header, the
    job table, then the four ``ceems-fig2c`` panels."""
    user, uuid = unit["user"], unit["uuid"]
    end = sim.now - FRESHNESS - phase
    start = end - COLD_WINDOW
    api, lb = sim.api_server.app, sim.lb.app
    calls = [
        Call("apiserver.api", api, "/api/v1/usage/current", user),
        Call("apiserver.api", api, "/api/v1/units", user),
    ]
    for is_range, expr in panels:
        calls.append(Call("lb", lb, panel_url(is_range, expr.replace("$job", uuid), start, end, step), user))
    return Visit(calls)


def cold_pages(sim: StackSimulation, rng: np.random.Generator, n: int) -> list[Visit]:
    """``n`` job pages, each with a (uuid, step, grid phase) no other
    page has: distinct phases make every window, and so every cache
    key and memo fingerprint, new.  Jobs and steps are dealt round
    robin from seeded shuffles, so every seed's pages have the same mix
    of steps and visit every job equally often."""
    latest_start = sim.now - FRESHNESS - 60.0 - 300.0  # >= 5 min of data in the window
    units = [
        u for u in units_of(sim)
        if u["user"] != deploy.ADMIN and u["started_at"] is not None and u["started_at"] <= latest_start
    ]  # fmt: skip
    panels = panel_queries("ceems-fig2c")
    phases = (rng.permutation(n) + rng.uniform(size=n)) * (60.0 / n)
    unit_order = rng.permutation(len(units))
    step_order = rng.permutation(len(COLD_STEPS))
    pages = [
        job_page(
            sim,
            units[int(unit_order[i % len(units)])],
            COLD_STEPS[int(step_order[i % len(COLD_STEPS)])],
            float(phases[i]),
            panels,
        )
        for i in range(n)
    ]
    return [pages[i] for i in rng.permutation(n)]


def open_loop(visits: list[Visit], tracer: Tracer | None, unit0: int, meter=None) -> list[float]:
    """Serve each visit at its due time (or as soon after as the one
    generator thread is free).  Returns the generator's own lateness
    per visit: how long after both the due time and the previous
    visit's end the request actually went out."""
    for visit in visits:
        visit.prepare()
    tick_room = 3.0 * harness.Speedometer.NOMINAL_S
    lateness = []
    if meter is not None:
        meter.tick()
    origin = time.perf_counter()
    free_at = origin
    for index, visit in enumerate(visits):
        due = visit.due = origin + visit.offset
        # One calibration tick per idle gap that has room for it, right
        # after the previous page (so every tick finds the caches as a
        # page leaves them); then sleep most of the gap and spin the
        # last millisecond, because sleep() overshoots by more than the
        # latencies being measured.
        if meter is not None and index and due - time.perf_counter() > tick_room:
            meter.tick()
        while True:
            gap = due - time.perf_counter()
            if gap <= 0:
                break
            if gap > 0.001:
                time.sleep(gap - 0.001)
        if tracer is not None:
            tracer.unit = unit0 + index
            tracer.enabled = visit.traced
        visit.serve(tracer)
        lateness.append(visit.started - max(due, free_at))
        free_at = visit.ended
    if tracer is not None:
        tracer.enabled = False
    if meter is not None:
        meter.tick()
    return lateness


def replay_panels(visits: list[Visit]) -> tuple[list[float], int, int]:
    """Untimed: ask for the same pages' panels again, while the caches
    still hold them.  The range panels are now whole-response memo
    replays (their time per page is returned) and every answer must be
    the same bytes as the first (equal and total counts returned)."""
    replay_ms = []
    equal = total = 0
    for visit in visits:
        elapsed = 0.0
        for call in visit.calls:
            if call.layer != "lb":
                continue
            request = call.request()
            started = time.perf_counter()
            body = call.app.handle(request).body
            if request.path.endswith("query_range"):  # the memoised requests
                elapsed += time.perf_counter() - started
            total += 1
            equal += body == call.response.body
        replay_ms.append(elapsed * 1000.0)
    return replay_ms, equal, total


def latencies_ms(visits: list[Visit], meter=None) -> list[float]:
    """Latency of each visit from the moment it was due, at calibration
    speed when a ``meter`` is given."""
    if meter is None:
        return [(visit.ended - visit.due) * 1000.0 for visit in visits]
    return [
        (visit.ended - visit.due) * 1000.0 / meter.slowdown(visit.started, visit.ended) for visit in visits
    ]


def run_cold(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    outcome = Outcome()
    meter = harness.Speedometer()
    sim, setup_s = harness.repeated_setup(
        lambda: build_history(seed, 0.0, tracer, meter), outcome, lambda old: deploy.discard(old, tracer)
    )
    rng = np.random.default_rng(seed)
    rungs = []
    for rate, share in LADDER:
        # Exponential gaps, stratified like the job stream: every seed
        # draws the same gaps (one from each 1/n slice of the
        # distribution) and the seed orders them, so seeds differ in
        # where arrivals clump, not in how many arrive.
        n = max(4, round(rate * share * seconds))
        gaps = -np.log1p(-(np.arange(n) + 0.5) / n) / rate
        rungs.append((rate, [float(t) for t in np.cumsum(rng.permutation(gaps))]))
    closed = max(CLOSED_SLICE, round(CLOSED_PAGES_PER_SECOND * seconds))
    total = sum(len(due) for _rate, due in rungs) + closed
    pages = cold_pages(sim, rng, total)
    for index, page in enumerate(pages):
        page.traced = tracer is not None and harness.traced_unit(index)

    counters = FrontendCounters(sim)
    if tracer is not None:
        tracer.counts.clear()
    served: list[Visit] = []
    lateness: list[float] = []
    by_rate: dict[float, list[Visit]] = {}
    replayed: dict[str, float] = {}
    for rate, due in rungs:
        visits = pages[len(served) : len(served) + len(due)]
        for visit, at in zip(visits, due):
            visit.offset = at
        lateness += open_loop(visits, tracer, len(served), meter)
        served += visits
        by_rate[rate] = visits
        counters.collect()
        if rate == REFERENCE_RATE:
            replay_ms, replay_equal, replay_total = replay_panels(visits[:REPLAY_PAGES])
        counters.collect(clear=True, into=replayed)

    # Saturating closed loop: one client, next page the moment the last
    # one answered.
    visits = pages[len(served) :]
    for visit in visits:
        visit.prepare()
    for index, visit in enumerate(visits):
        if index % 8 == 0:
            if tracer is not None:
                tracer.enabled = False
            meter.tick()
        if tracer is not None:
            tracer.unit = len(served) + index
            tracer.enabled = visit.traced
        visit.serve(tracer)
    if tracer is not None:
        tracer.enabled = False
    meter.tick()
    # Back to back, so a slice's wall is its services' sum (ticks
    # aside); the median slice shrugs off one hiccup, as in ingest.
    services = [meter.normalised(visit.started, visit.ended) for visit in visits]
    slice_rates = [
        CLOSED_SLICE / sum(services[i : i + CLOSED_SLICE])
        for i in range(0, len(services) - CLOSED_SLICE + 1, CLOSED_SLICE)
    ]
    served += visits
    counters.collect()

    reference = latencies_ms(by_rate[REFERENCE_RATE], meter)
    q, tail_ms = stats.tail(reference, cap=0.90)
    outcome.end_to_end.update(
        setup_s=setup_s,
        op_p50_ms=statistics.median(reference),
        op_tail_ms=tail_ms,
        work_per_s=statistics.median(slice_rates),
        peak_rss_mb=harness.rss_mb(),
    )
    outcome.notes.append(
        f"op = one job page (6 requests), latency from its due time at {REFERENCE_RATE:g} pages/s; "
        f"{len(reference)} pages, op_tail_ms is p{round(q * 100)}; "
        f"work = pages, closed loop of {len(visits)} pages with one client, median of {len(slice_rates)} slices"
    )
    harness.note_speed(meter, [(v.started, v.ended) for v in served], outcome)
    ladder = {}
    max_rate_ok = 0.0
    for rate, visits_at in by_rate.items():
        lat = latencies_ms(visits_at, meter)
        p50, p90 = statistics.median(lat), stats.percentile(lat, 0.90)
        # No backlog at the end: the last page went out when it was due.
        backlog_ms = (visits_at[-1].started - visits_at[-1].due) * 1000.0
        held = p90 <= LATENCY_LIMIT_MS and backlog_ms <= LATENCY_LIMIT_MS
        if held:
            max_rate_ok = max(max_rate_ok, rate)
        ladder[rate] = (p50, p90)
        outcome.notes.append(
            f"bench.ladder {rate:g} pages/s: {len(lat)} pages, p50 {p50:.3f} ms, p90 {p90:.3f} ms, "
            f"end backlog {backlog_ms:.3f} ms, {'holds' if held else 'does not hold'} "
            f"p90 <= {LATENCY_LIMIT_MS:g} ms"
        )
    late_p99 = stats.percentile(lateness, 0.99) * 1000.0
    outcome.notes.append(
        f"generator lateness p99 {late_p99:.3f} ms, max {max(lateness) * 1000.0:.3f} ms over {len(lateness)} pages"
    )
    count_failures(served, outcome)
    outcome.check("memo_replay_byte_equal", replay_equal == replay_total, f"{replay_equal}/{replay_total}")
    range_panels = sum(is_range for is_range, _expr in panel_queries("ceems-fig2c"))
    outcome.check(
        "cache_bypassed_when_timed",
        counters.totals["cache_hits"] == 0 and counters.totals["memo_hits"] == 0,
        f"{counters.totals['cache_hits']:g} cache hits, {counters.totals['memo_hits']:g} memo hits",
    )
    outcome.check(
        "memo_served_every_replay",
        replayed.get("memo_hits") == min(REPLAY_PAGES, len(by_rate[REFERENCE_RATE])) * range_panels,
        f"{replayed.get('memo_hits', 0):g} memo hits",
    )
    lb_calls = [call for visit in served for call in visit.calls if call.layer == "lb"]
    sample = [lb_calls[i] for i in rng.choice(len(lb_calls), size=min(CHECK_SAMPLE, len(lb_calls)), replace=False)]
    reference_lb = direct_lb(sim)
    equal = sum(equals_direct(call, reference_lb) for call in sample)
    outcome.check("lb_equals_direct", equal == len(sample), f"{equal}/{len(sample)} byte-equal")
    vector = check_power_vector(sim, outcome)
    outcome.note_digest(
        {
            "scrape samples": sim.scrape_manager.samples_appended_total,
            "series": sim.hot_tsdb.num_series,
            "jobs": sim.slurm.jobs_submitted,
            "pages": len(served),
        },
        vector,
    )

    if tracer is not None:
        traced = [v.service for v in served if v.traced]
        plain = [v.service for v in served if not v.traced]
        layers = harness.fold_trace(tracer, traced, outcome)
        layers.update(serving_layers(tracer, counters, len(served)))
        low, high = LADDER[0][0], LADDER[-1][0]
        layers.update(
            {
                "tsdb.storage.series": sim.hot_tsdb.num_series,
                "apiserver.units": sim.db.count_units(),
                "frontend.memo_replay_p50_ms": statistics.median(replay_ms),
                "bench.ladder.low_p50_ms": ladder[low][0],
                "bench.ladder.low_p90_ms": ladder[low][1],
                "bench.ladder.high_p50_ms": ladder[high][0],
                "bench.ladder.high_p90_ms": ladder[high][1],
                "bench.ladder.max_rate_ok": max_rate_ok,
                "bench.trace_overhead_ratio": statistics.median(traced) / statistics.median(plain),
                "bench.gen_late_p99_ms": late_p99,
                "bench.page_p99_ms": stats.percentile(reference, 0.99),
            }
        )
        outcome.layers.update(layers)
    return outcome


# -- dash_live -----------------------------------------------------------


def refresh(sim: StackSimulation, user: str, panels: list[tuple[bool, str]]) -> Visit:
    """One auto-refresh of a dashboard: every panel over ``[now-W, now]``."""
    end = sim.now
    start = end - LIVE_WINDOW
    lb = sim.lb.app
    return Visit([Call("lb", lb, panel_url(is_range, expr, start, end, LIVE_STEP), user) for is_range, expr in panels])


def run_live(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    outcome = Outcome()
    rounds = max(8, round(LIVE_ROUNDS_PER_SECOND * seconds))
    meter = harness.Speedometer()
    sim, setup_s = harness.repeated_setup(
        lambda: build_history(seed, rounds * LIVE_ADVANCE, tracer, meter),
        outcome,
        lambda old: deploy.discard(old, tracer),
    )
    rng = np.random.default_rng(seed)
    running = [u for u in units_of(sim) if u["user"] != deploy.ADMIN and u["state"] == "running"]
    watched = [running[i] for i in rng.choice(len(running), size=WATCHERS, replace=False)]
    job_panels = panel_queries("ceems-fig2c")
    watch_panels = [
        (unit["user"], [(is_range, expr.replace("$job", unit["uuid"])) for is_range, expr in job_panels])
        for unit in watched
    ]
    ops_panels = panel_queries("ceems-ops-alerting") + [p for p in panel_queries("ceems-fig2a") if p[0]]
    reference = direct_lb(sim)
    per_round = -(-CHECK_SAMPLE // rounds)

    counters = FrontendCounters(sim)
    log = CycleLog(sim, tracer)
    job_visits: list[Visit] = []
    ops_visits: list[Visit] = []
    round_walls: list[float] = []
    checked: list[bool] = []
    for index in range(rounds):
        meter.tick()
        on = tracer is not None and harness.traced_unit(index)
        if tracer is not None:
            tracer.unit = index
            tracer.enabled = on
        wall = log.advance(LIVE_ADVANCE)
        visits = [refresh(sim, user, panels) for user, panels in watch_panels]
        ops = refresh(sim, deploy.ADMIN, ops_panels)
        for visit in visits + [ops]:
            visit.traced = on
            visit.prepare()
            visit.serve(tracer)
            wall += visit.service
        round_walls.append(wall)
        if tracer is not None:
            tracer.enabled = False
        meter.tick()
        job_visits += visits
        ops_visits.append(ops)
        # Untimed and untraced: a seeded few of this round's answers
        # against the frontend-less path, while "now" is still theirs.
        calls = [call for visit in visits + [ops] for call in visit.calls]
        for i in rng.choice(len(calls), size=per_round, replace=False):
            checked.append(equals_direct(calls[i], reference))
    log.close(outcome)
    counters.collect()

    job_ms = [meter.normalised(v.started, v.ended) * 1000.0 for v in job_visits]
    ops_ms = [meter.normalised(v.started, v.ended) * 1000.0 for v in ops_visits]
    q, tail_ms = stats.tail(job_ms, cap=0.95)
    panels_served = sum(len(v.calls) for v in job_visits + ops_visits)
    outcome.end_to_end.update(
        setup_s=setup_s,
        op_p50_ms=statistics.median(job_ms),
        op_tail_ms=tail_ms,
        work_per_s=panels_served / (sum(job_ms) + sum(ops_ms)) * 1000.0,
        peak_rss_mb=harness.rss_mb(),
    )
    outcome.notes.append(
        f"op = one watcher's 4-panel refresh; {len(job_ms)} refreshes in {rounds} rounds, "
        f"op_tail_ms is p{round(q * 100)}; work = panels served per second of serving time "
        f"({WATCHERS} watchers x {len(job_panels)} + 1 admin x {len(ops_panels)} per round)"
    )
    harness.note_speed(meter, [(v.started, v.ended) for v in job_visits], outcome)
    outcome.notes.append(
        f"ops_refresh_p50_ms {statistics.median(ops_ms):.3f} ms over {len(ops_ms)} admin refreshes "
        f"of {len(ops_panels)} panels"
    )
    count_failures(job_visits + ops_visits, outcome)
    outcome.check("lb_equals_direct", all(checked) and bool(checked), f"{sum(checked)}/{len(checked)} byte-equal")
    vector = check_power_vector(sim, outcome)
    outcome.note_digest(
        {
            "scrape samples": log.after.scrape_samples,
            "series": sim.hot_tsdb.num_series,
            "jobs": sim.slurm.jobs_submitted,
            "panels": panels_served,
        },
        vector,
    )

    if tracer is not None:
        traced = [w for w, on in zip(round_walls, log.traced) if on]
        plain = [w for w, on in zip(round_walls, log.traced) if not on]
        layers = harness.fold_trace(tracer, traced, outcome)
        layers.update(log.layers())
        layers.update(serving_layers(tracer, counters, rounds))
        layers.update(
            {
                "bench.ops_refresh_p50_ms": statistics.median(ops_ms),
                "bench.trace_overhead_ratio": statistics.median(traced) / statistics.median(plain),
                "bench.page_p99_ms": stats.percentile(job_ms, 0.99),
            }
        )
        outcome.layers.update(layers)
    return outcome
