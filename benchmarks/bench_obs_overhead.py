"""E16 — self-telemetry overhead: the middleware must stay cheap.

Every request through every component pays the observability
middleware (trace resolution, in-flight gauge, counter + histogram
update, span record).  The stack scrapes itself every 15 s on top of
user traffic, so this cost multiplies across the whole deployment —
this bench guards it with a hard per-request bound, and prints next to
it what one child span costs inside an active trace (every traced
query opens three or four).

The second half guards the query-introspection hooks: the profiler
and per-query-stats call sites left inside the PromQL evaluators must
add <5% to a range eval when disabled.  The baseline monkeypatches
the hooks away entirely (possible because every call site goes
through a module attribute); the guarded run takes the normal path
with no stats active and the profiler off.  The bypassed, disabled
and enabled runs alternate round by round, each keeping its best.  Results land in
``BENCH_obs_overhead.json`` for the CI artifact.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import time

from repro.common.httpx import App, Request, Response
from repro.obs import Telemetry
from repro.obs import prof as prof_mod
from repro.obs import query as query_mod
from repro.obs.prof import PROFILER
from repro.obs.query import QueryStats, activate_stats, deactivate_stats
from repro.obs.trace import TraceContext, activate, deactivate
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine, range_steps
from repro.tsdb.storage import TSDB

#: Mean extra cost the middleware may add per request.  Generous
#: against CI-runner noise — the observed overhead is ~10–30 µs.
OVERHEAD_BOUND_SECONDS = 500e-6

REQUESTS = 2000


def build_app() -> App:
    app = App(name="bench")
    app.router.get("/ping/{name}", lambda req: Response.text("pong"))
    return app


def _time_per_request(fn) -> float:
    fn()  # warm caches / lazy imports outside the timed section
    started = time.perf_counter()
    for _ in range(REQUESTS):
        fn()
    return (time.perf_counter() - started) / REQUESTS


def _child_span_seconds() -> float:
    """One ``Telemetry.child_span`` block inside an active trace: what
    every traced query pays per storage select, parse and eval span."""
    telemetry = Telemetry("bench")
    token = activate(TraceContext("ab" * 16, "cd" * 8))

    def child() -> None:
        with telemetry.child_span("bench.child"):
            pass

    try:
        return _time_per_request(child)
    finally:
        deactivate(token)


def test_middleware_overhead_bounded():
    app = build_app()
    request = Request(method="GET", path="/ping/a")

    bare = _time_per_request(lambda: app._handle_inner(request))
    full = _time_per_request(lambda: app.handle(request))
    overhead = full - bare
    child_span = _child_span_seconds()
    print(
        f"\n[E16] per-request: bare={bare * 1e6:.1f}µs "
        f"full={full * 1e6:.1f}µs overhead={overhead * 1e6:.1f}µs "
        f"child_span={child_span * 1e6:.1f}µs"
    )
    _merge_artifact(
        "middleware",
        {
            "requests": REQUESTS,
            "bare_seconds": bare,
            "full_seconds": full,
            "overhead_seconds": overhead,
            "child_span_seconds": child_span,
            "bound": OVERHEAD_BOUND_SECONDS,
        },
    )
    assert overhead < OVERHEAD_BOUND_SECONDS


def test_full_request_with_middleware(benchmark):
    app = build_app()
    request = Request(method="GET", path="/ping/a")
    response = benchmark(lambda: app.handle(request))
    assert response.status == 200


def test_span_store_stays_bounded():
    """The span ring must not grow without limit under load."""
    app = build_app()
    request = Request(method="GET", path="/ping/a")
    for _ in range(REQUESTS):
        app.handle(request)
    assert len(app.telemetry.spans) <= app.telemetry.spans.capacity
    assert app.telemetry.spans.total_recorded >= REQUESTS


# -- query-introspection hook overhead ----------------------------------

#: Relative slowdown the disabled profiler/query-stats hooks may add
#: to a PromQL range eval versus having no hooks at all.
HOOK_OVERHEAD_BOUND = 0.05

BENCH_SERIES = 50
BENCH_SAMPLES = 2000
BENCH_SCRAPE_STEP = 15.0
EVAL_RUNS = 7

ARTIFACT_PATH = "BENCH_obs_overhead.json"


def _merge_artifact(section: str, payload: dict) -> None:
    """Read-modify-write one section of the shared CI artifact so the
    hook bench and the control-plane bench don't clobber each other."""
    try:
        with open(ARTIFACT_PATH, encoding="utf-8") as fh:
            artifact = json.load(fh)
        if not isinstance(artifact, dict):
            artifact = {}
    except (OSError, ValueError):
        artifact = {}
    artifact[section] = payload
    with open(ARTIFACT_PATH, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2)


def build_query_engine() -> PromQLEngine:
    db = TSDB(name="bench-obs-hooks")
    for i in range(BENCH_SERIES):
        labels = Labels({"__name__": "power", "uuid": str(i)})
        for j in range(BENCH_SAMPLES):
            db.append(labels, j * BENCH_SCRAPE_STEP, float((i * 31 + j) % 97))
    return PromQLEngine(db)


def _eval_runner(engine: PromQLEngine, kind: str):
    """One realistic dashboard evaluation: the grid as one range
    query, or as an instant query per step (the hooks sit in both
    evaluators)."""
    query = "sum by (uuid) (rate(power[120s]))"
    end = (BENCH_SAMPLES - 1) * BENCH_SCRAPE_STEP

    def run() -> None:
        if kind == "range":
            engine.query_range(query, 120.0, end, 60.0)
        else:
            for t in range_steps(120.0, end, 60.0).tolist():
                engine.query(query, t)

    return run


def _timed(run) -> float:
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


@contextlib.contextmanager
def _hooks_bypassed():
    """Replace every introspection hook with a no-op.

    Call sites reference the hooks as module attributes precisely so
    this baseline can exist: it measures the evaluator as if the
    instrumentation had never been written.
    """
    saved = (query_mod.tracked_select, query_mod.record_samples, prof_mod.profile)
    query_mod.tracked_select = lambda storage, matchers: storage.select(matchers)
    query_mod.record_samples = lambda n: None
    prof_mod.profile = lambda name: prof_mod._NULL_TIMER
    try:
        yield
    finally:
        query_mod.tracked_select, query_mod.record_samples, prof_mod.profile = saved


def test_query_hook_overhead_disabled_under_bound():
    """Disabled hooks must cost <5% of an eval — per query kind."""
    engine = build_query_engine()
    PROFILER.disable()
    PROFILER.reset()
    report: dict[str, dict[str, float]] = {}
    try:
        for kind in ("range", "instant"):
            run = _eval_runner(engine, kind)
            run()  # warm parser caches / lazy imports outside the timed runs

            def bypassed_run() -> float:
                with _hooks_bypassed():
                    return _timed(run)

            def enabled_run() -> float:
                PROFILER.enable()
                token = activate_stats(QueryStats(query="bench"))
                try:
                    return _timed(run)
                finally:
                    deactivate_stats(token)
                    PROFILER.disable()

            # The three configurations alternate within each round, in
            # an order rotated every round, and each keeps its best:
            # machine drift between rounds hits all three alike, and no
            # configuration always runs first (or right after another).
            # A collection before every run keeps one configuration's
            # garbage out of the next one's timer.
            configurations = (("bypassed", bypassed_run), ("disabled", lambda: _timed(run)), ("enabled", enabled_run))
            best = dict.fromkeys(("bypassed", "disabled", "enabled"), math.inf)
            for round_ in range(EVAL_RUNS):
                for step in range(len(configurations)):
                    name, timed = configurations[(round_ + step) % len(configurations)]
                    gc.collect()
                    best[name] = min(best[name], timed())
            bypassed, disabled, enabled = best["bypassed"], best["disabled"], best["enabled"]
            report[kind] = {
                "bypassed_seconds": bypassed,
                "disabled_seconds": disabled,
                "enabled_seconds": enabled,
                "disabled_overhead_ratio": disabled / bypassed - 1.0,
                "enabled_overhead_ratio": enabled / bypassed - 1.0,
            }
            print(
                f"\n[obs-hooks] {kind}: bypassed={bypassed * 1e3:.2f}ms "
                f"disabled={disabled * 1e3:.2f}ms enabled={enabled * 1e3:.2f}ms "
                f"disabled-overhead={report[kind]['disabled_overhead_ratio'] * 100:+.2f}%"
            )
    finally:
        PROFILER.reset()
        _merge_artifact(
            "query_hooks",
            {
                "series": BENCH_SERIES,
                "samples_per_series": BENCH_SAMPLES,
                "eval_runs": EVAL_RUNS,
                "bound": HOOK_OVERHEAD_BOUND,
                "kinds": report,
            },
        )
    for kind, row in report.items():
        assert row["disabled_overhead_ratio"] < HOOK_OVERHEAD_BOUND, (kind, row)


# -- exemplar capture overhead -------------------------------------------

#: Relative slowdown exemplar capture may add to the request path.
#: Capture fires inside Counter.inc/Histogram.observe while a span is
#: active, so the middleware bench above is the realistic workload.
EXEMPLAR_OVERHEAD_BOUND = 0.05

EXEMPLAR_RUNS = 9


def test_exemplar_capture_overhead_bounded():
    """Exemplar capture on the hot request path must cost <5%.

    Every handled request updates one counter and one histogram while
    its span is active, so each request pays exactly two capture
    attempts (rate-limited to a monotonic-clock read after the first).
    """
    from repro.obs.registry import set_exemplars_enabled

    app = build_app()
    request = Request(method="GET", path="/ping/a")

    def drive() -> None:
        for _ in range(REQUESTS):
            app.handle(request)

    # Pair the two configurations back to back within each round and
    # take the median paired ratio: machine-speed drift between rounds
    # (CPU frequency scaling, noisy CI neighbours) hits both halves of
    # a pair roughly equally, and the median shrugs off the odd round
    # that lands on a scheduling hiccup.  Which half runs first
    # alternates by round, so neither always pays for a cold start or
    # the other's garbage; a collection before each half keeps that
    # garbage out of the timers.
    old = set_exemplars_enabled(False)
    ratios: list[float] = []
    disabled_best = enabled_best = math.inf
    try:
        drive()  # warm caches outside the timed rounds
        for round_ in range(EXEMPLAR_RUNS):
            seconds: dict[bool, float] = {}
            for enabled in (False, True) if round_ % 2 == 0 else (True, False):
                set_exemplars_enabled(enabled)
                gc.collect()
                started = time.perf_counter()
                drive()
                seconds[enabled] = time.perf_counter() - started
            ratios.append(seconds[True] / seconds[False] - 1.0)
            disabled_best = min(disabled_best, seconds[False])
            enabled_best = min(enabled_best, seconds[True])
    finally:
        set_exemplars_enabled(old)
    ratio = sorted(ratios)[len(ratios) // 2]
    print(
        f"\n[exemplars] per-{REQUESTS}-requests: disabled={disabled_best * 1e3:.2f}ms "
        f"enabled={enabled_best * 1e3:.2f}ms median-overhead={ratio * 100:+.2f}%"
    )
    _merge_artifact(
        "exemplars",
        {
            "requests": REQUESTS,
            "runs": EXEMPLAR_RUNS,
            "disabled_seconds": disabled_best,
            "enabled_seconds": enabled_best,
            "overhead_ratio": ratio,
            "bound": EXEMPLAR_OVERHEAD_BOUND,
        },
    )
    assert ratio < EXEMPLAR_OVERHEAD_BOUND, ratio


# -- alerting control plane overhead -------------------------------------

#: Amortized per-second cost the alerting control plane (live alert
#: evaluation + blackbox probing) may add relative to the monitoring
#: data plane (scraping + recording rules) it rides alongside.
CONTROL_PLANE_BOUND = 0.05

CONTROL_PLANE_RUNS = 7


def _best_of(fn, runs: int = CONTROL_PLANE_RUNS) -> float:
    fn()  # warm caches outside the timed runs
    best = math.inf
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_alerting_control_plane_overhead_bounded():
    """Alert evaluation + probing must stay <5% of the data plane.

    Each loop runs on its own interval, so costs are amortized to
    per-second rates before comparing: a 60 s alert cycle may cost
    4x a 15 s scrape cycle and still be the cheaper loop.
    """
    from repro.cluster import StackSimulation, small_topology
    from repro.cluster.simulation import SimulationConfig

    sim = StackSimulation(
        small_topology(cpu_nodes=2, gpu_nodes=1),
        SimulationConfig(seed=5, update_interval=600.0),
    )
    sim.run(600.0)  # realistic series population before timing
    now, cfg = sim.now, sim.config

    scrape = _best_of(lambda: sim.scrape_manager.scrape_all(now))
    record = _best_of(lambda: sim.rule_evaluator.evaluate_all(now))
    alert = _best_of(lambda: sim.rule_evaluator.evaluate_alerts(now))
    probe = _best_of(lambda: sim.prober.probe_all(now))

    data_plane = scrape / cfg.scrape_interval + record / cfg.rule_interval
    control_plane = alert / cfg.alert_interval + probe / cfg.probe_interval
    ratio = control_plane / data_plane
    print(
        f"\n[control-plane] per-cycle: scrape={scrape * 1e3:.2f}ms "
        f"record={record * 1e3:.2f}ms alert={alert * 1e3:.2f}ms "
        f"probe={probe * 1e3:.2f}ms ratio={ratio * 100:.2f}%"
    )
    _merge_artifact(
        "control_plane",
        {
            "scrape_cycle_seconds": scrape,
            "recording_cycle_seconds": record,
            "alert_cycle_seconds": alert,
            "probe_cycle_seconds": probe,
            "intervals": {
                "scrape": cfg.scrape_interval,
                "rules": cfg.rule_interval,
                "alerts": cfg.alert_interval,
                "probes": cfg.probe_interval,
            },
            "bound": CONTROL_PLANE_BOUND,
            "overhead_ratio": ratio,
        },
    )
    assert ratio < CONTROL_PLANE_BOUND, ratio
