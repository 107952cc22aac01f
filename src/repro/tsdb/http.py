"""Prometheus HTTP API facade over a storage + engine pair.

The load balancer proxies to, and Grafana reads from, the Prometheus
HTTP API.  This app reproduces the endpoints the stack uses, with the
documented response envelope (``{"status":"success","data":{...}}``):

* ``GET/POST /api/v1/query`` — instant query (``query``, ``time``),
* ``GET/POST /api/v1/query_range`` — range query (``query``,
  ``start``, ``end``, ``step``),

  ``stats=all`` attaches the per-query statistics (phase timings,
  series/samples counts) to the response, as in Prometheus.

* ``GET /api/v1/series`` — series metadata for ``match[]`` selectors,
* ``GET /api/v1/label/{name}/values``,
* ``GET /debug/queries`` — the active-query tracker (queued/running/
  recent queries with live phase timings) plus the slow-query log,
* ``GET /-/healthy``.

A query answer is written by one renderer, :func:`query_response`
over :func:`instant_result` / :func:`range_result` /
:func:`matrix_text`: the body text is built straight from the engine's
arrays, and the query frontend writes the answers it assembles through
the same functions, so the two paths' bytes agree by construction.
Non-finite sample values are spelled ``NaN`` / ``+Inf`` / ``-Inf``.
A refreshed dashboard asks for nearly the same answer again, so the
renderer writes each distinct sample value (:func:`value_texts`), each
label set's ``"metric"`` object (:func:`metric_text`) and each step's
point head (:func:`step_heads`) once, through three bounded
process-wide memos.

POST form bodies are honoured (Grafana sends long queries that way).
Query-path requests are read, validated and parsed by
:func:`repro.tsdb.plan.plan_query` — here when a client reaches this
backend directly, by the LB or the frontend when the request came
through them, in which case the plan arrives with the request.

Every query runs through the introspection pipeline of
:mod:`repro.obs.query`: a :class:`~repro.obs.query.QueryStats` is
activated around evaluation (the engine's selector paths report into
it), the :class:`~repro.obs.query.ActiveQueryTracker` gates admission
(503 when all slots stay busy past the queue timeout), and the
:class:`~repro.obs.query.SlowQueryLog` records queries over the
threshold together with the trace id they ran under.
"""

from __future__ import annotations

import json
import math
import time
from itertools import compress
from operator import add, not_
from time import perf_counter

from repro.common.errors import QueryError, StorageError
from repro.common.httpx import App, Request, Response
from repro.obs.query import (
    ActiveQueryTracker,
    QueryQueueFullError,
    QueryStats,
    SlowQueryLog,
    activate_stats,
    deactivate_stats,
)
from repro.obs.trace import current_trace
from repro.tsdb.model import Labels, Matcher
from repro.tsdb.plan import QueryLimits, plan_query
from repro.tsdb.promql.ast import VectorSelector, iter_selectors
from repro.tsdb.promql.engine import InstantResult, PromQLEngine, RangeResult
from repro.tsdb.promql.parser import parse_expr, plan_memo


def _selector_texts(ast) -> tuple[str, ...]:
    """The active-query tracker's fingerprint of a query: its selectors."""
    return tuple(str(sel) for sel in iter_selectors(ast))


def _selector_matchers(selector_text: str) -> list[Matcher]:
    ast = parse_expr(selector_text)
    if not isinstance(ast, VectorSelector):
        raise QueryError("match[] must be a plain series selector")
    return list(ast.matchers)


# -- query answers: one renderer ---------------------------------------------
#: Prometheus spells the non-finite values Python writes ``nan`` /
#: ``inf`` / ``-inf`` this way (and Grafana reads only this spelling).
_NON_FINITE = {"nan": "NaN", "inf": "+Inf", "-inf": "-Inf"}


def sample_text(value: float) -> str:
    """One sample value as the API writes it inside its quotes."""
    text = str(value)
    return _NON_FINITE.get(text, text)


#: Bounds of the two render memos below.  Each is emptied wholesale
#: when full (as the storage selector memo is).  A ``dash_live`` round
#: renders ~5k values, ~2.4k of them distinct and 98.4-99.0 % rendered
#: by the round before, under ~80 label sets; its 50 rounds leave
#: ~5.5k values in the memo.
VALUE_TEXT_MAX = 1 << 13
METRIC_TEXT_MAX = 1 << 11

#: Sample value -> its ``repr``, the 17-digit float formatting that
#: costs ~1 µs a value.  ``+0.0`` and ``-0.0`` never enter (equal keys,
#: different texts), nor does NaN (equal to nothing, so a NaN key would
#: only fill the memo).  Threads share it: every access is one dict
#: operation, and a racing clear only costs misses.
_VALUE_TEXT: dict[float, str] = {}

#: Label set -> its ``"metric"`` JSON object.  A refresh whose plans
#: are remembered hands back the very label objects of last time.
_METRIC_TEXT: dict[Labels, str] = {}

#: Step timestamp -> its ``[t, "`` point head, under ``_VALUE_TEXT``'s
#: rules and bound: an aligned dashboard grid that slides one step
#: repeats all its other steps.
_STEP_TEXT: dict[float, str] = {}


def value_texts(values: list[float]) -> list[str]:
    """The ``repr`` of every value (``json`` writes a float alike),
    each distinct value formatted once across answers."""
    memo = _VALUE_TEXT
    texts = list(map(memo.get, values))
    if None in texts:
        if len(memo) >= VALUE_TEXT_MAX:
            memo.clear()
        for i in compress(range(len(texts)), map(not_, texts)):
            value = values[i]
            text = texts[i] = repr(value)
            if value and value == value:
                memo[value] = text
    return texts


def step_heads(grid: list[float]) -> dict[float, str]:
    """Every step's ``[t, "`` (``json`` writes a float with the same
    ``repr``) by its timestamp, each distinct step formatted once
    across answers."""
    memo = _STEP_TEXT
    heads = list(map(memo.get, grid))
    if None in heads:
        if len(memo) >= VALUE_TEXT_MAX:
            memo.clear()
        for i in compress(range(len(heads)), map(not_, heads)):
            t = grid[i]
            head = heads[i] = f'[{t!r}, "'
            if t and t == t:
                memo[t] = head
    return dict(zip(grid, heads))


def metric_text(labels: Labels) -> str:
    """``labels`` as the ``"metric"`` JSON object of an answer."""
    text = _METRIC_TEXT.get(labels)
    if text is None:
        if len(_METRIC_TEXT) >= METRIC_TEXT_MAX:
            _METRIC_TEXT.clear()
        text = _METRIC_TEXT[labels] = json.dumps(labels.as_dict())
    return text


def _points_text(heads: dict[float, str], ts: list[float], texts: list[str]) -> str:
    """One series' ``[[t, "v"], ...]`` from its timestamps and value texts."""
    if not texts:
        return "[]"
    text = '"], '.join(map(add, map(heads.__getitem__, ts), texts))
    if "n" in text:  # only a nan or an inf puts an "n" among the points
        text = '"], '.join(map(add, map(heads.__getitem__, ts), map(_NON_FINITE.get, texts, texts)))
    return f'[{text}"]]'


def matrix_text(series: list[tuple[str, list[float], list[str]]], grid: list[float]) -> str:
    """The ``result`` array of a matrix answer, from ``(metric text,
    timestamps, value texts)`` per series in response order; every
    timestamp is a step of ``grid``."""
    if not series:
        return "[]"
    # Looked up by value: series covering different steps share one
    # text per step, never one per position.
    heads = step_heads(grid)
    return "[" + ", ".join(
        f'{{"metric": {metric}, "values": {_points_text(heads, ts, texts)}}}'
        for metric, ts, texts in series
    ) + "]"


def range_result(result: RangeResult) -> tuple[str, str]:
    """``(resultType, result text)`` of a range query: series sorted by
    their label items."""
    series = [
        (metric_text(labels), ts.tolist(), value_texts(vs.tolist()))
        for labels, (ts, vs) in sorted(result.series.items(), key=lambda kv: tuple(kv[0]))
    ]
    return "matrix", matrix_text(series, result.timestamps().tolist())


def instant_result(result: InstantResult) -> tuple[str, str]:
    """``(resultType, result text)`` of an instant query, in the
    engine's element order."""
    if result.is_scalar:
        return "scalar", json.dumps([result.timestamp, sample_text(result.scalar)])
    at = json.dumps(result.timestamp)
    texts = value_texts(result.values)
    return "vector", "[" + ", ".join(
        f'{{"metric": {metric}, "value": [{at}, "{_NON_FINITE.get(text, text)}"]}}'
        for metric, text in zip(map(metric_text, result.labels), texts)
    ) + "]"


def query_response(result_type: str, result: str, stats: dict | None = None) -> Response:
    """The 200 answer around a rendered ``result``; ``stats`` (for
    ``stats=all``) follows the result."""
    tail = "" if stats is None else f', "stats": {json.dumps(stats)}'
    body = f'{{"status": "success", "data": {{"resultType": "{result_type}", "result": {result}{tail}}}}}'
    return Response(status=200, headers={"content-type": "application/json"}, body=body.encode())


class PromAPI:
    """One queryable Prometheus endpoint (hot TSDB or Thanos querier)."""

    def __init__(
        self,
        storage,
        name: str = "prometheus",
        lookback: float = 300.0,
        *,
        slow_query_ms: float = 100.0,
        query_log_path: str = "",
        active_query_journal: str = "",
        max_concurrent_queries: int = 20,
        queue_timeout: float = 5.0,
        limits: QueryLimits | None = None,
        rules=None,
        alertmanager=None,
        exemplars=None,
    ) -> None:
        self.storage = storage
        #: Pre-evaluation guardrails (query length / range duration /
        #: resolved steps), enforced here too so the limits hold even
        #: for clients that reach a backend directly, not only through
        #: the query frontend.
        self.limits = limits
        self.queue_timeout = queue_timeout
        #: optional RuleEvaluator — backs /api/v1/rules and /api/v1/alerts
        self.rules = rules
        #: optional Alertmanager — silences plus alert suppression status
        self.alertmanager = alertmanager
        #: Exemplar storage backing /api/v1/query_exemplars.  Passed
        #: explicitly when ``storage`` is a fan-out querier (exemplars
        #: live in the hot TSDB, not the fan-out); falls back to the
        #: storage's own ring when it has one.
        self.exemplars = exemplars if exemplars is not None else getattr(
            storage, "exemplars", None
        )
        self.started_at = time.time()
        self.engine = PromQLEngine(storage, lookback=lookback)
        self.app = App(name=name)
        self.app.expose_telemetry()
        self.tracker = ActiveQueryTracker(
            max_concurrent_queries,
            journal_path=active_query_journal,
            queue_timeout=queue_timeout,
            logger=self.app.telemetry.log,
        )
        self.slow_log = SlowQueryLog(slow_query_ms, sink_path=query_log_path)
        r = self.app.router
        r.get("/debug/queries", self._debug_queries)
        r.get("/api/v1/query", self._query)
        r.post("/api/v1/query", self._query)
        r.get("/api/v1/query_range", self._query_range)
        r.post("/api/v1/query_range", self._query_range)
        r.get("/api/v1/query_exemplars", self._query_exemplars)
        r.post("/api/v1/query_exemplars", self._query_exemplars)
        r.get("/api/v1/status/buildinfo", self._buildinfo)
        r.get("/api/v1/status/runtimeinfo", self._runtimeinfo)
        r.get("/api/v1/series", self._series)
        r.get("/api/v1/label/{name}/values", self._label_values)
        r.get("/api/v1/rules", self._rules)
        r.get("/api/v1/alerts", self._alerts)
        r.get("/api/v1/silences", self._silences_proxy)
        r.post("/api/v1/silences", self._silences_proxy)
        r.get("/api/v1/silence/{id}", self._silences_proxy)
        r.delete("/api/v1/silence/{id}", self._silences_proxy)
        r.get("/-/healthy", lambda _req: Response.text("ok"))
        self.queries_served = 0
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Expose engine/storage internals on this endpoint's /metrics."""
        registry = self.app.telemetry.registry
        registry.gauge_func(
            "ceems_promapi_queries_served_total",
            lambda: float(self.queries_served),
            help="PromQL queries served by this endpoint.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_promapi_queries_inflight",
            lambda: float(len(self.tracker.active())),
            help="Queries currently queued or running.",
        )
        registry.gauge_func(
            "ceems_promapi_query_queue_timeouts_total",
            lambda: float(self.tracker.queue_timeouts),
            help="Queries rejected because every tracker slot stayed busy.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_promapi_slow_queries_total",
            lambda: float(self.slow_log.total_slow),
            help="Queries that exceeded the slow-query threshold.",
            type="counter",
        )
        registry.collector(self._collect_engine_stats)

    def _collect_engine_stats(self):
        from repro.tsdb.exposition import MetricFamily
        from repro.tsdb.persist.chunkio import DECODE_CACHE_STATS
        from repro.tsdb.promql.columnar import COLUMNAR_STATS
        from repro.tsdb.storage import SNAPSHOT_STATS

        families = []
        seconds = MetricFamily(
            "ceems_promql_eval_seconds_total",
            help="Wall seconds spent evaluating PromQL, per query kind.",
            type="counter",
        )
        queries = MetricFamily(
            "ceems_promql_eval_queries_total",
            help="PromQL evaluations, per query kind.",
            type="counter",
        )
        for kind, count in self.engine.eval_queries.items():
            if count:  # a kind gets its series with its first query
                seconds.add(self.engine.eval_seconds[kind], kind=kind)
                queries.add(float(count), kind=kind)
        families.extend([seconds, queries])

        # Storage selector memo (the hot TSDB and the Thanos fan-out
        # both expose {hits, misses}).
        stats_fn = getattr(self.storage, "selector_cache_stats", None)
        if stats_fn is not None:
            stats = stats_fn()
            hits = MetricFamily(
                "ceems_tsdb_select_cache_hits_total",
                help="Selector memo hits in the storage backend.",
                type="counter",
            )
            misses = MetricFamily(
                "ceems_tsdb_select_cache_misses_total",
                help="Selector memo misses in the storage backend.",
                type="counter",
            )
            hits.add(float(stats["hits"]))
            misses.add(float(stats["misses"]))
            families.extend([hits, misses])

        snapshots = MetricFamily(
            "ceems_tsdb_snapshot_cache_total",
            help="Head series arrays() snapshot-cache events, process-wide.",
            type="counter",
        )
        snapshots.add(float(SNAPSHOT_STATS["hits"]), event="hit")
        snapshots.add(float(SNAPSHOT_STATS["builds"]), event="build")
        families.append(snapshots)

        # Flat aliases of the snapshot counters (a build is a cache
        # miss): one sample per family, the conventional Prometheus
        # shape for recording rules and dashboards.
        snap_hits = MetricFamily(
            "ceems_tsdb_snapshot_cache_hits_total",
            help="Head series arrays() snapshot-cache hits, process-wide.",
            type="counter",
        )
        snap_hits.add(float(SNAPSHOT_STATS["hits"]))
        snap_misses = MetricFamily(
            "ceems_tsdb_snapshot_cache_misses_total",
            help="Head series arrays() snapshot rebuilds (cache misses), process-wide.",
            type="counter",
        )
        snap_misses.add(float(SNAPSHOT_STATS["builds"]))
        families.extend([snap_hits, snap_misses])

        # Decoded-chunk LRU (query-over-chunks): hit/miss/eviction
        # counters of the process-wide Gorilla decode cache.
        for event in ("hits", "misses", "evictions"):
            family = MetricFamily(
                f"ceems_tsdb_chunk_decode_cache_{event}_total",
                help=f"Decoded-chunk LRU {event}, process-wide.",
                type="counter",
            )
            family.add(float(DECODE_CACHE_STATS[event]))
            families.append(family)

        columnar = MetricFamily(
            "ceems_promql_columnar_total",
            help="Columnar-evaluator events, process-wide.",
            type="counter",
        )
        for event, count in COLUMNAR_STATS.items():
            columnar.add(float(count), event=event)
        families.append(columnar)

        # Tail-sampler totals, process-wide (every component's sampler
        # feeds the same aggregate; see repro.obs.trace.SAMPLER_STATS).
        from repro.obs.trace import SAMPLER_STATS

        for outcome in ("kept", "dropped"):
            family = MetricFamily(
                f"ceems_trace_sampler_{outcome}_total",
                help=f"Spans {outcome} by tail-based sampling, process-wide.",
                type="counter",
            )
            family.add(float(SAMPLER_STATS[outcome]))
            families.append(family)
        return families

    # -- query introspection pipeline ---------------------------------------
    def _introspected(self, request: Request, eval_fn, render_fn) -> Response:
        """Plan, admit, evaluate and render one query with accounting.

        ``eval_fn(plan)`` runs the engine; ``render_fn(result)`` writes
        its ``(resultType, result text)``.  The tracker gates the eval
        phase only (planning and render are cheap and must not hold a
        concurrency slot).  The parse phase is what obtaining the plan
        cost *here*: reading, validating and parsing when this backend
        is the first hop, next to nothing when the plan came with the
        request.
        """
        stats = QueryStats()
        telemetry = self.app.telemetry
        # The parse span and the parse phase time the same block: they
        # share its clock pair, and the slow log starts where it ends.
        parsing = telemetry.child_span("promql.parse")
        with parsing:
            plan = plan_query(request, self.limits)
        stats.add_phase("parse", parsing.seconds)
        if isinstance(plan, Response):
            return plan
        self.queries_served += 1
        query = stats.query = plan.query
        ctx = current_trace()
        trace_id = ctx.trace_id if ctx is not None else ""
        token = activate_stats(stats)
        started = parsing.ended
        try:
            fingerprint = plan_memo(plan.ast).fixed("tracker", _selector_texts, plan.ast)
            try:
                with self.tracker.track(
                    query, fingerprint=fingerprint, stats=stats
                ) as record:
                    record.trace_id = trace_id
                    evaluating = telemetry.child_span("promql.eval")
                    with evaluating as span:
                        # The eval phase starts on the span's reading.
                        try:
                            result = eval_fn(plan)
                        finally:
                            stats.add_phase("eval", perf_counter() - evaluating.started)
                        if span is not None:
                            # Exemplar-style span event: the finished
                            # eval-phase breakdown rides on the span.
                            span.attrs["stats"] = stats.to_dict()
            except QueryQueueFullError as exc:
                # 503 with Retry-After: the client (and the LB, which
                # must forward both verbatim) knows when to back off
                # until a tracker slot is likely free again.
                return Response.json(
                    {"status": "error", "error": str(exc)},
                    status=503,
                    retry_after=f"{max(1, math.ceil(self.queue_timeout))}",
                )
            except (QueryError, StorageError, ValueError) as exc:
                return Response.error(400, str(exc))
            with stats.phase("render"):
                result_type, text = render_fn(result)
            return query_response(result_type, text, stats.to_dict() if plan.stats else None)
        finally:
            deactivate_stats(token)
            self.slow_log.observe(
                query,
                perf_counter() - started,
                stats=stats,
                trace_id=trace_id,
                endpoint=request.path,
            )

    # -- endpoints ---------------------------------------------------------------
    def _query(self, request: Request) -> Response:
        return self._introspected(
            request, lambda plan: self.engine.query(plan.ast, plan.time), instant_result
        )

    def _query_range(self, request: Request) -> Response:
        return self._introspected(
            request,
            lambda plan: self.engine.query_range(
                plan.ast, plan.start, plan.end, plan.step
            ),
            range_result,
        )

    def _query_exemplars(self, request: Request) -> Response:
        """Prometheus ``/api/v1/query_exemplars``: exemplars of every
        series matched by the query's selectors, within [start, end].

        Grafana sends the *panel expression* (e.g. a
        ``histogram_quantile(...)`` over buckets), so the handler
        walks the AST for vector selectors instead of requiring a
        plain selector, exactly like Prometheus.
        """
        plan = plan_query(request, self.limits)
        if isinstance(plan, Response):
            return plan
        start = -math.inf if plan.start is None else plan.start
        end = math.inf if plan.end is None else plan.end
        self.queries_served += 1
        if self.exemplars is None:
            return Response.json({"status": "success", "data": []})
        merged: dict = {}
        for selector in iter_selectors(plan.ast):
            for labels, records in self.exemplars.select(
                list(selector.matchers), start, end
            ):
                merged.setdefault(labels, []).extend(records)
        data = []
        for labels, records in sorted(merged.items(), key=lambda kv: tuple(kv[0])):
            # A series matched by several selectors must not repeat
            # its exemplars; identity dedup is enough because select()
            # hands back the same record objects.
            seen_ids: set[int] = set()
            exemplars = []
            for record in sorted(records, key=lambda r: r.timestamp):
                if id(record) in seen_ids:
                    continue
                seen_ids.add(id(record))
                exemplars.append(
                    {
                        "labels": dict(record.labels),
                        "value": sample_text(record.value),
                        "timestamp": record.timestamp,
                    }
                )
            data.append({"seriesLabels": labels.as_dict(), "exemplars": exemplars})
        return Response.json({"status": "success", "data": data})

    def _buildinfo(self, request: Request) -> Response:
        """Prometheus ``/api/v1/status/buildinfo`` (Grafana probes it
        on data-source load to pick API features)."""
        from repro import __version__

        return Response.json(
            {
                "status": "success",
                "data": {
                    "version": __version__,
                    "revision": "ceems-sim",
                    "branch": "main",
                    "buildUser": "",
                    "buildDate": "",
                    "goVersion": "",
                    "features": {"exemplar-storage": "true"},
                },
            }
        )

    def _runtimeinfo(self, request: Request) -> Response:
        """Prometheus ``/api/v1/status/runtimeinfo``."""
        retention = getattr(self.storage, "retention", 0.0)
        num_series = getattr(self.storage, "num_series", 0)
        data = {
            "startTime": self.started_at,
            "reloadConfigSuccess": True,
            "corruptionCount": 0,
            "storageRetention": f"{float(retention):g}s",
            "timeSeriesCount": int(num_series() if callable(num_series) else num_series),
            "queriesServed": self.queries_served,
        }
        if self.exemplars is not None:
            data["exemplarCount"] = len(self.exemplars)
        return Response.json({"status": "success", "data": data})

    def _series(self, request: Request) -> Response:
        selectors = request.params("match[]")
        if not selectors:
            return Response.error(400, "missing match[] parameter")
        try:
            out = []
            seen = set()
            for selector in selectors:
                for series in self.storage.select(_selector_matchers(selector)):
                    if series.labels not in seen:
                        seen.add(series.labels)
                        out.append(series.labels.as_dict())
        except (QueryError, StorageError) as exc:
            return Response.error(400, str(exc))
        return Response.json({"status": "success", "data": out})

    def _label_values(self, request: Request) -> Response:
        name = request.path_params["name"]
        values = self.storage.label_values(name)
        return Response.json({"status": "success", "data": values})

    def _debug_queries(self, request: Request) -> Response:
        """Active-query tracker state plus the slow-query log."""
        data = self.tracker.to_dict()
        data["slow_query_threshold_ms"] = self.slow_log.threshold_ms
        data["slow_queries"] = self.slow_log.entries()
        return Response.json({"status": "success", "component": self.app.name, **data})

    # -- alerting surface ---------------------------------------------

    def _alert_status(self, labels) -> dict:
        if self.alertmanager is None:
            return {"state": "active", "silencedBy": [], "inhibitedBy": []}
        return self.alertmanager.status_of(labels)

    def _rules(self, request: Request) -> Response:
        """Prometheus ``/api/v1/rules``: recording + alerting groups."""
        groups = []
        if self.rules is not None:
            for group in self.rules.groups:
                plan_hits, plan_rebuilds = group.plan_counts()
                groups.append(
                    {
                        "name": group.name,
                        "interval": group.interval,
                        "evaluations": group.evaluations,
                        "lastError": group.last_error,
                        "lastEvaluation": group.last_evaluation,
                        "evaluationTime": group.evaluation_seconds,
                        "planHits": plan_hits,
                        "planRebuilds": plan_rebuilds,
                        "rules": [
                            {
                                "type": "recording",
                                "name": rule.record,
                                "query": rule.expr,
                                "labels": dict(rule.labels),
                                "health": "err" if rule.last_error else "ok",
                                "lastError": rule.last_error,
                            }
                            for rule in group.rules
                        ],
                    }
                )
            for group in getattr(self.rules, "alert_groups", []):
                groups.append(
                    {
                        "name": group.name,
                        "interval": group.interval,
                        "evaluations": group.evaluations,
                        "lastError": group.last_error,
                        "rules": [
                            {
                                "type": "alerting",
                                "name": rule.name,
                                "query": rule.expr,
                                "duration": rule.hold,
                                "labels": dict(rule.labels),
                                "annotations": dict(rule.annotations),
                                "health": "err" if rule.last_error else "ok",
                                "state": rule.state.value if rule.state else "inactive",
                                "alerts": [
                                    {
                                        "labels": {
                                            "alertname": a.name,
                                            **a.labels.as_dict(),
                                        },
                                        "state": a.state.value,
                                        "activeAt": a.active_since,
                                        "value": a.value,
                                    }
                                    for a in rule.active_alerts()
                                ],
                            }
                            for rule in group.rules
                        ],
                    }
                )
        return Response.json({"status": "success", "data": {"groups": groups}})

    def _alerts(self, request: Request) -> Response:
        """Prometheus ``/api/v1/alerts``: pending + firing instances,
        annotated with the Alertmanager suppression status."""
        alerts = []
        if self.rules is not None and hasattr(self.rules, "active_alerts"):
            for a in self.rules.active_alerts():
                alerts.append(
                    {
                        "labels": {"alertname": a.name, **a.labels.as_dict()},
                        "annotations": dict(a.annotations),
                        "state": a.state.value,
                        "activeAt": a.active_since,
                        "value": a.value,
                        "status": self._alert_status(
                            a.labels.merge({"alertname": a.name})
                        ),
                    }
                )
        return Response.json({"status": "success", "data": {"alerts": alerts}})

    def _silences_proxy(self, request: Request) -> Response:
        """Delegate silence CRUD to the wired Alertmanager."""
        if self.alertmanager is None:
            return Response.error(404, "no alertmanager configured")
        return self.alertmanager.app.handle(request)
