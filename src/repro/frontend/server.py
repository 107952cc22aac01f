"""The query frontend: split, cache, coalesce, admit.

Sits between the LB and the PromQL backends (the Thanos/Cortex
query-frontend position in the serving path):

* **range splitting** — long ``query_range`` requests are cut into
  split-interval-aligned (day by default) sub-ranges evaluated
  independently against the backend pool and merged;
* **step-aligned results cache** — for a range that crosses a split
  boundary, evaluated matrix chunks are cached per ``(tenant, query,
  step, grid phase)`` and later requests only evaluate the uncovered
  remainder (the live tail stays uncacheable, see
  :mod:`repro.frontend.cache`); a range inside one split bucket goes
  to a backend verbatim, which evaluates it faster than cached points
  re-assemble;
* **request coalescing** — concurrent in-flight requests with the
  same fingerprint share one evaluation through a single-flight map;
* **bounded worker pool with per-tenant admission** — a fixed number
  of requests evaluate at once; excess requests queue briefly and are
  rejected with ``503`` + ``Retry-After`` on overflow, per tenant and
  globally (the PR-4 active-query tracker's backpressure, moved to
  the serving edge).

The contract throughout is *bit-identity*: any response produced by
the frontend — split, partially cached, fully cached, or error — must
be byte-for-byte the response the direct backend path would have
produced for the same request.  Malformed requests get the backends'
own validation (:func:`repro.tsdb.plan.plan_query`, run here unless
the LB already did); requests the frontend cannot prove it can
reproduce exactly (``stats=all``, non-step-exact grids) are forwarded
verbatim.  What goes upstream — the request or a sub-range of it —
carries the plan, so no backend reads or parses it again.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator

from repro.common.errors import CEEMSError
from repro.common.httpx import App, Request, Response
from repro.frontend.cache import DEFAULT_FRESHNESS, ResponseMemo, ResultsCache
from repro.frontend.limits import QueryLimits
from repro.frontend.split import (
    DEFAULT_SPLIT_INTERVAL,
    clamp_runs_to_parts,
    grid_parts,
    uncovered_runs,
)
from repro.lb.strategies import Backend, Strategy, make_strategy
from repro.tsdb.http import matrix_text, metric_text, query_response
from repro.tsdb.model import Labels
from repro.tsdb.plan import INSTANT_PATH, PASSTHROUGH_ROUTES, RANGE_PATH, QueryPlan, plan_query
from repro.tsdb.promql.engine import range_steps

USER_HEADER = "x-grafana-user"


class AdmissionRejected(CEEMSError):
    """Worker pool (global or per-tenant) stayed full past the queue
    timeout — the request must be rejected with 503 + Retry-After."""


class AdmissionGate:
    """Bounded worker slots with per-tenant fairness and a queue.

    ``max_inflight`` requests evaluate concurrently; a tenant may hold
    at most ``max_per_tenant`` of them (0 disables the per-tenant
    bound).  Excess requests wait up to ``queue_timeout`` seconds for
    a slot, then fail — the closed-loop client is told when to come
    back via ``Retry-After``.
    """

    def __init__(
        self,
        max_inflight: int = 16,
        *,
        max_per_tenant: int = 0,
        queue_timeout: float = 5.0,
        retry_after: float = 1.0,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.max_inflight = max_inflight
        self.max_per_tenant = max_per_tenant
        self.queue_timeout = queue_timeout
        self.retry_after = retry_after
        self._cond = threading.Condition()
        self._inflight = 0
        self._per_tenant: dict[str, int] = {}
        self.waiting = 0
        self.rejected = 0

    def _tenant_full(self, tenant: str) -> bool:
        return (
            self.max_per_tenant > 0
            and self._per_tenant.get(tenant, 0) >= self.max_per_tenant
        )

    def acquire(self, tenant: str) -> None:
        """Take a worker slot, queueing up to ``queue_timeout``.

        Raises :class:`AdmissionRejected` if no slot frees up in time.
        """
        deadline = time.perf_counter() + self.queue_timeout
        with self._cond:
            while self._inflight >= self.max_inflight or self._tenant_full(tenant):
                remaining = deadline - time.perf_counter()
                self.waiting += 1
                try:
                    if remaining <= 0 or not self._cond.wait(timeout=remaining):
                        self.rejected += 1
                        scope = (
                            f"tenant {tenant!r}" if self._tenant_full(tenant) else "pool"
                        )
                        raise AdmissionRejected(
                            f"query frontend {scope} full: "
                            f"{self._inflight}/{self.max_inflight} workers busy "
                            f"for {self.queue_timeout:.1f}s"
                        )
                finally:
                    self.waiting -= 1
            self._inflight += 1
            self._per_tenant[tenant] = self._per_tenant.get(tenant, 0) + 1

    def release(self, tenant: str) -> None:
        with self._cond:
            self._inflight -= 1
            left = self._per_tenant.get(tenant, 1) - 1
            if left <= 0:
                self._per_tenant.pop(tenant, None)
            else:
                self._per_tenant[tenant] = left
            if self.waiting:
                self._cond.notify_all()

    @contextmanager
    def admit(self, tenant: str) -> Iterator[None]:
        self.acquire(tenant)
        try:
            yield
        finally:
            self.release(tenant)


class _Flight:
    """One in-flight evaluation other identical requests wait on.

    The event is allocated lazily by the first follower — a request
    nobody coalesces with (the overwhelmingly common case) pays only
    a dict insert/remove.
    """

    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        self.event: threading.Event | None = None
        self.response: Response | None = None
        self.error: BaseException | None = None


class SingleFlight:
    """Per-fingerprint request coalescing (``singleflight`` pattern)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[tuple, _Flight] = {}
        self.coalesced = 0

    def do(self, key: tuple, fn) -> Response:
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = _Flight()
            elif flight.event is None:
                flight.event = threading.Event()
        if not leader:
            flight.event.wait()
            with self._lock:
                self.coalesced += 1
            if flight.error is not None:
                raise flight.error
            response = flight.response
            # Followers get their own copy: headers are mutated
            # downstream (trace ids, LB backend tag) per caller.
            return Response(
                status=response.status,
                headers=dict(response.headers),
                body=response.body,
            )
        try:
            flight.response = fn()
        except BaseException as exc:  # re-raised in every waiter too
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._flights.pop(key, None)
                event = flight.event
            if event is not None:
                event.set()
        return flight.response


class QueryFrontend:
    """Query-frontend HTTP app over a pool of PromQL backends."""

    def __init__(
        self,
        backends: list[Backend],
        *,
        name: str = "query-frontend",
        strategy: str = "round-robin",
        split_interval: float = DEFAULT_SPLIT_INTERVAL,
        cache_max_bytes: int = 64 * 1024 * 1024,
        memo_max_bytes: int = 16 * 1024 * 1024,
        freshness_seconds: float = DEFAULT_FRESHNESS,
        clock=None,
        limits: QueryLimits | None = None,
        max_inflight: int = 16,
        max_per_tenant: int = 0,
        queue_timeout: float = 5.0,
        retry_after: float = 1.0,
    ) -> None:
        self.strategy: Strategy = make_strategy(strategy, backends)
        self.split_interval = split_interval
        self.cache = ResultsCache(max_bytes=cache_max_bytes)
        #: Full-response replay for repeats whose whole grid is
        #: settled history (immutable, so never invalidated).
        self.memo = ResponseMemo(max_bytes=memo_max_bytes)
        self.freshness_seconds = freshness_seconds
        #: ``clock.now()`` defines "now" for the uncacheable live
        #: tail; without a clock everything is treated as settled
        #: history (tests construct static storages).
        self.clock = clock
        self.limits = limits
        self.admission = AdmissionGate(
            max_inflight,
            max_per_tenant=max_per_tenant,
            queue_timeout=queue_timeout,
            retry_after=retry_after,
        )
        self.single_flight = SingleFlight()
        self.app = App(name=name)
        self.app.expose_telemetry()
        r = self.app.router
        for path in (INSTANT_PATH, RANGE_PATH):
            r.get(path, self.handle_query)
            r.post(path, self.handle_query)
        # Everything else — metadata, exemplars, rules, status — is
        # proxied untouched to a backend (single-segment catch-all
        # plus the nested API paths the LB mounts too).
        r.add("GET", "/{rest}", self._forward)
        r.add("POST", "/{rest}", self._forward)
        for method, path in PASSTHROUGH_ROUTES:
            r.add(method, path, self._forward)
        self.split_requests = 0
        self.subqueries = 0
        self.passthrough_requests = 0
        self._register_metrics()

    # -- telemetry -------------------------------------------------------
    def _register_metrics(self) -> None:
        registry = self.app.telemetry.registry
        registry.gauge_func(
            "ceems_frontend_cache_hits_total",
            lambda: float(self.cache.hits),
            help="Range requests served at least partially from the results cache.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_frontend_cache_misses_total",
            lambda: float(self.cache.misses),
            help="Range requests that needed at least one backend evaluation.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_frontend_cache_evictions_total",
            lambda: float(self.cache.evictions),
            help="Results-cache entries evicted by the byte budget.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_frontend_cache_bytes",
            lambda: float(self.cache.total_bytes),
            help="Approximate bytes held by the results cache.",
        )
        registry.gauge_func(
            "ceems_frontend_memo_hits_total",
            lambda: float(self.memo.hits),
            help="Range requests replayed whole from the settled-response memo.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_frontend_memo_bytes",
            lambda: float(self.memo.total_bytes),
            help="Approximate bytes held by the settled-response memo.",
        )
        registry.gauge_func(
            "ceems_frontend_split_queries_total",
            lambda: float(self.split_requests),
            help="Range requests split into more than one sub-query.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_frontend_subqueries_total",
            lambda: float(self.subqueries),
            help="Backend sub-queries issued by the frontend.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_frontend_coalesced_total",
            lambda: float(self.single_flight.coalesced),
            help="Requests that shared an identical in-flight evaluation.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_frontend_queue_depth",
            lambda: float(self.admission.waiting),
            help="Requests waiting for a frontend worker slot.",
        )
        registry.gauge_func(
            "ceems_frontend_rejected_total",
            lambda: float(self.admission.rejected),
            help="Requests rejected 503 by worker-pool admission.",
            type="counter",
        )

    # -- plumbing --------------------------------------------------------
    def _forward(self, request: Request) -> Response:
        """Send one request to a backend picked by the LB strategy."""
        backend = self.strategy.choose()
        backend.acquire()
        try:
            return backend.app.handle(request)
        finally:
            backend.release()

    def _rejected(self, exc: AdmissionRejected) -> Response:
        return Response.json(
            {"status": "error", "errorType": "unavailable", "error": str(exc)},
            status=503,
            retry_after=f"{max(1, math.ceil(self.admission.retry_after))}",
        )

    def _coalesced(self, fingerprint: tuple, tenant: str, fn) -> Response:
        """Admission inside single-flight: followers hold no slot."""

        def leader():
            try:
                self.admission.acquire(tenant)
            except AdmissionRejected as exc:
                return self._rejected(exc)
            try:
                return fn()
            finally:
                self.admission.release(tenant)

        return self.single_flight.do(fingerprint, leader)

    def _now_cutoff(self) -> float:
        """Newest timestamp the cache may store (live tail excluded)."""
        if self.clock is None:
            return math.inf
        return self.clock.now() - self.freshness_seconds

    # -- query paths -----------------------------------------------------
    def handle_query(self, request: Request) -> Response:
        """Serve ``/api/v1/query`` or ``/api/v1/query_range``: the
        standalone app's routes, and the entry point an embedding LB
        calls directly (no second App middleware per hop)."""
        plan = plan_query(request, self.limits)
        if isinstance(plan, Response):
            return plan
        if request.plan is None:  # planned here: forward our own request
            request = replace(request, plan=plan)
        tenant = request.header(USER_HEADER, "") or ""
        # Everything that distinguishes one evaluation from another.
        fingerprint = (tenant, plan.path, plan.query, plan.time, plan.start, plan.end, plan.step, plan.stats)
        if plan.path == INSTANT_PATH:
            return self._coalesced(fingerprint, tenant, lambda: self._forward(request))
        body = self.memo.get(fingerprint)
        if body is not None:
            # Whole-response replay: this exact request was answered
            # before and its grid lies entirely in settled history.
            self.cache.record_hit()
            return Response(
                status=200, headers={"content-type": "application/json"}, body=body
            )
        return self._coalesced(
            fingerprint,
            tenant,
            lambda: self._range_inner(request, plan, tenant, fingerprint),
        )

    def _range_inner(
        self, request: Request, plan: QueryPlan, tenant: str, fingerprint: tuple
    ) -> Response:
        if plan.stats:
            # stats=all embeds per-evaluation timings that a cache hit
            # could not reproduce: bypass the split/cache machinery.
            self.passthrough_requests += 1
            return self._forward(request)
        query, start, end, step = plan.query, plan.start, plan.end, plan.step
        grid = range_steps(start, end, step)
        last = float(grid[-1])
        cutoff = self._now_cutoff()
        settled = last <= cutoff
        split = self.split_interval
        if split <= 0 or math.floor(start / split) == math.floor(last / split):
            # The whole grid fits one split bucket: the backend
            # evaluates it in one columnar pass faster than cached
            # points can be re-assembled, so the request goes upstream
            # verbatim and the response bytes are the backend's own.
            self.cache.record_miss()
            self.subqueries += 1
            response = self._forward(request)
            if settled and response.status == 200:
                self.memo.put(fingerprint, response.body)
            return response

        # Only a grid that crosses a split boundary reaches the step
        # cache.  Coverage and the covered points are taken in one
        # locked call: the entry can be evicted at any moment afterwards
        # (a concurrent request's ingest under byte pressure, or this
        # request's own), and served steps are never re-evaluated, so
        # assembly must work from this copy — never a later re-read.
        grid_list: list[float] = grid.tolist()
        key = (tenant, query, repr(step), repr(math.fmod(start, step)))
        served, cached_columns = self.cache.snapshot(key, grid_list)
        runs = uncovered_runs(grid, served)
        if served:
            self.cache.record_hit()
        if not runs:
            # Fully covered: assemble from the snapshot alone, zero
            # backend round-trips.
            response = self._assemble(grid_list, cached_columns, [])
            if settled:
                self.memo.put(fingerprint, response.body)
            return response
        self.cache.record_miss()
        parts = grid_parts(grid, step, self.split_interval)
        if parts is None:
            # Non-exact float grid: splitting could drift timestamps
            # by an ulp.  Serve unsplit and uncached.
            self.passthrough_requests += 1
            return self._forward(request)
        sub_runs = clamp_runs_to_parts(runs, parts)
        if len(sub_runs) > 1:
            self.split_requests += 1

        # Evaluate every uncovered sub-range; any backend error is
        # returned verbatim (its body is range-independent for parse/
        # authz errors and must reach the client unchanged anyway).
        part_results: list[tuple[int, int, list]] = []
        for i0, i1 in sub_runs:
            self.subqueries += 1
            lo, hi = float(grid[i0]), float(grid[i1])
            sub = Request(
                method="GET",
                path=RANGE_PATH,
                query={
                    "query": [query],
                    "start": [repr(lo)],
                    "end": [repr(hi)],
                    "step": [repr(step)],
                },
                headers=dict(request.headers),
                # The same plan, narrowed: same AST, new start/end.
                plan=replace(plan, start=lo, end=hi),
            )
            response = self._forward(sub)
            if response.status != 200:
                return response
            try:
                data = json.loads(response.body.decode())["data"]
                result = data["result"]
            except (ValueError, KeyError, TypeError):
                return response
            part_results.append((i0, i1, result))
            self.cache.ingest(key, grid_list[i0 : i1 + 1], result, cutoff)

        response = self._assemble(grid_list, cached_columns, part_results)
        if settled:
            self.memo.put(fingerprint, response.body)
        return response

    def _assemble(
        self,
        grid: list[float],
        cached_columns: list[tuple[tuple, dict, list[float], list[str]]],
        part_results: list[tuple[int, int, list]],
    ) -> Response:
        """Merge snapshotted cache slices + fresh sub-results into one
        response.

        ``cached_columns`` is the copy :meth:`ResultsCache.snapshot`
        took atomically with the coverage set — re-reading the cache
        here could silently lose served steps to a concurrent eviction.
        The merge orders series by their label items and each series'
        points by step, as PromAPI does; the bytes are then written by
        PromAPI's own renderer (:func:`repro.tsdb.http.matrix_text`)
        from the backends' label sets and value texts, so they are the
        direct path's by construction.
        """
        merged: dict[tuple, list] = {}
        for series_key, _metric, ts, vals in cached_columns:
            merged.setdefault(series_key, []).extend(zip(ts, vals))
        for _i0, _i1, result in part_results:
            for item in result:
                series_key = tuple(sorted(item["metric"].items()))
                merged.setdefault(series_key, []).extend((float(t), v) for t, v in item["values"])
        columns = []
        for series_key in sorted(merged):
            pairs = merged[series_key]
            pairs.sort(key=lambda tv: tv[0])
            # A backend wrote each ``metric`` object from a label set,
            # names sorted, so the key's label set renders the same
            # text; it serves only as the render memo's key.
            labels = Labels.from_sorted_items(series_key)
            columns.append((metric_text(labels), [t for t, _v in pairs], [v for _t, v in pairs]))
        return query_response("matrix", matrix_text(columns, grid))
