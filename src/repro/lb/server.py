"""The load balancer itself: reverse proxy + access control + balancing.

Request flow for ``/api/v1/query``, ``/api/v1/query_range`` and
``/api/v1/query_exemplars``:

1. read the user identity from ``X-Grafana-User`` (reject if absent —
   without an identity there is nothing to authorize against);
2. plan the request (:func:`repro.tsdb.plan.plan_query`): parameters
   (GET or POST form), numbers, limits and the PromQL AST are read and
   checked once, here at the first hop, and a failure is answered with
   the status and body a backend would have sent;
3. authorize against the plan's AST: admins pass, regular users must
   own every unit a selector touches and the scope must be bounded;
4. route by the plan's earliest time (long-term pool, else the
   embedded frontend, else a backend picked by the strategy) and
   forward the LB's own upstream request carrying the plan, through
   one call that times it and maps outages to 503, crashes to 502.

Non-query endpoints (``/api/v1/label/...``, ``/-/healthy``) pass
through with only the identity requirement, as they expose no
per-unit samples (series metadata is considered public here, matching
the CEEMS deployment default).
"""

from __future__ import annotations

import time

from repro.common.errors import CEEMSError
from repro.common.httpx import App, Request, Response
from repro.lb.authz import Authorizer
from repro.lb.introspect import extract_uuids
from repro.lb.strategies import Backend, Strategy, make_strategy
from repro.tsdb.plan import (
    API_ROUTES,
    INSTANT_PATH,
    QUERY_PATHS,
    RANGE_PATH,
    QueryPlan,
    plan_query,
)
from repro.tsdb.promql.parser import plan_memo

USER_HEADER = "x-grafana-user"


class LoadBalancer:
    """CEEMS LB over one or more Prometheus/Thanos backends.

    Optional time-range-aware routing: when ``longterm_backends`` and
    ``hot_retention`` are set, queries whose evaluation time (or range
    start) reaches further back than the hot TSDB's retention are
    routed to the long-term (Thanos) pool instead — so dashboard
    queries on recent data never pay the object-store path and
    year-scale queries never miss data the hot instance dropped.
    ``clock`` provides "now" for the age computation (logical time in
    the simulation).
    """

    def __init__(
        self,
        backends: list[Backend],
        authorizer: Authorizer,
        *,
        strategy: str = "round-robin",
        longterm_backends: list[Backend] | None = None,
        hot_retention: float = 0.0,
        clock=None,
        slow_request_ms: float = 250.0,
        frontend=None,
    ) -> None:
        self.strategy: Strategy = make_strategy(strategy, backends)
        self.longterm_strategy: Strategy | None = (
            make_strategy(strategy, longterm_backends) if longterm_backends else None
        )
        self.hot_retention = hot_retention
        self.clock = clock
        self.authorizer = authorizer
        #: Optional :class:`repro.frontend.QueryFrontend`.  When set,
        #: authorized ``/api/v1/query`` and ``/api/v1/query_range``
        #: requests are dispatched into the frontend (split + cache +
        #: coalesce + admission) instead of straight to a backend; all
        #: other paths keep the plain proxy path.
        self.frontend = frontend
        self.app = App(name="ceems-lb")
        # Telemetry and readiness must be registered before the
        # catch-all /{rest} proxy route — the router matches in
        # registration order.
        self.app.expose_telemetry()
        self.app.router.get("/-/ready", self._ready)
        self.app.router.add("GET", "/{rest}", self._proxy)
        self.app.router.add("POST", "/{rest}", self._proxy)
        # Router patterns match single segments; register the API paths
        # explicitly so nested paths route too.
        for method, path in API_ROUTES:
            self.app.router.add(method, path, self._proxy)
        self.requests_proxied = 0
        self.requests_denied = 0
        self.longterm_routed = 0
        self.upstream_errors = 0
        #: Proxied requests slower than this log a structured warning
        #: (trace-correlated, so the backend's eval spans are one
        #: ``/debug/traces?trace_id=`` lookup away).  ``<0`` disables.
        self.slow_request_ms = slow_request_ms
        self.slow_requests = 0
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Expose routing decisions and per-backend state on /metrics."""
        registry = self.app.telemetry.registry
        registry.gauge_func(
            "ceems_lb_requests_proxied_total",
            lambda: float(self.requests_proxied),
            help="Requests forwarded to a backend.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_lb_requests_denied_total",
            lambda: float(self.requests_denied),
            help="Requests rejected before reaching a backend.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_lb_longterm_routed_total",
            lambda: float(self.longterm_routed),
            help="Queries routed to the long-term (Thanos) pool.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_lb_upstream_errors_total",
            lambda: float(self.upstream_errors),
            help="Requests that found no healthy backend (503) or a crashing one (502).",
            type="counter",
        )
        registry.gauge_func(
            "ceems_lb_slow_requests_total",
            lambda: float(self.slow_requests),
            help="Proxied requests slower than the slow-request threshold.",
            type="counter",
        )
        #: Per-backend families, kept between scrapes (made by the
        #: first), and their label dicts by (backend, pool).
        self._backend_families = None
        self._backend_label_sets: dict[tuple[str, str], dict[str, str]] = {}
        registry.collector(self._collect_backends)

    def _collect_backends(self):
        if self._backend_families is None:
            from repro.tsdb.exposition import KeptFamilies

            self._backend_families = KeptFamilies(
                ("ceems_lb_backend_healthy", "Whether the backend is considered healthy (1/0).", "gauge"),
                ("ceems_lb_backend_in_flight", "In-flight requests per backend.", "gauge"),
                ("ceems_lb_backend_requests_total", "Requests forwarded, per backend.", "counter"),
            )
        pools: list[tuple[str, Strategy]] = [("hot", self.strategy)]
        if self.longterm_strategy is not None:
            pools.append(("longterm", self.longterm_strategy))
        return self._backend_families.fill(
            (
                self._backend_labels(backend.name, pool),
                (1.0 if backend.healthy else 0.0, float(backend.active_connections), float(backend.total_requests)),
            )
            for pool, strategy in pools
            for backend in strategy.backends
        )

    def _backend_labels(self, backend: str, pool: str) -> dict[str, str]:
        """The kept label dict of one backend's series."""
        labels = self._backend_label_sets.get((backend, pool))
        if labels is None:
            labels = self._backend_label_sets[(backend, pool)] = {"backend": backend, "pool": pool}
        return labels

    def _ready(self, request: Request) -> Response:
        """503 until at least one hot backend is healthy."""
        if not self.strategy.healthy_backends():
            return Response.error(503, "no healthy backends")
        return Response.json({"status": "success", "ready": True})

    # -- core ---------------------------------------------------------------
    def _deny(self, request: Request, denied: Response, user: str = "") -> Response:
        self.requests_denied += 1
        self.app.telemetry.log.warning(
            "request denied",
            path=request.path,
            status=denied.status,
            user=user,
            reason=denied.decode_json()["error"],
        )
        return denied

    def _proxy(self, request: Request) -> Response:
        user = request.header(USER_HEADER, "") or ""
        if not user:
            return self._deny(request, Response.error(401, f"missing {USER_HEADER} header"))
        plan = None
        if request.path in QUERY_PATHS:
            # The embedded frontend's limits, so that every door checks
            # in one order; a backend holding others applies its own.
            limits = self.frontend.limits if self.frontend is not None else None
            plan = plan_query(request, limits)
            if isinstance(plan, Response):
                return self._deny(request, plan, user)
            # The scope depends on the text alone: worked out once per
            # parsed expression, shared (read-only) by its requests.
            scope = plan_memo(plan.ast).fixed("uuid_scope", extract_uuids, plan.ast)
            if not self.authorizer.allowed(user, scope.uuids, unbounded=scope.unbounded):
                reason = f"user {user} is not allowed to query units {sorted(scope.uuids) or '(all)'}"
                return self._deny(request, Response.error(403, reason), user)
            if request.plan is None:
                # On the LB's own upstream request: the client may keep
                # its request object, so nothing of ours lives on it.
                request = request.with_plan(plan)
        # Age-based routing wins over the frontend: the frontend's
        # backend pool is the hot pool, so queries older than the hot
        # retention go to the long-term (Thanos) backends.
        longterm = plan is not None and self._routes_longterm(plan)
        if self.frontend is not None and not longterm and request.path in (INSTANT_PATH, RANGE_PATH):
            return self._upstream(request, self.frontend.app.name, self.frontend.handle_query)
        try:
            if longterm:
                self.longterm_routed += 1
                backend = self.longterm_strategy.choose()
            else:
                backend = self.strategy.choose()
        except CEEMSError as exc:
            return self._unavailable(exc)
        backend.acquire()
        try:
            return self._upstream(request, backend.name, backend.app.handle)
        finally:
            backend.release()

    def _unavailable(self, exc: CEEMSError) -> Response:
        """No healthy backend to forward to: a retryable outage, not a
        crash — tell the client when to come back."""
        self.upstream_errors += 1
        return Response.json(
            {"status": "error", "errorType": "unavailable", "error": str(exc)},
            status=503,
            retry_after="1",
        )

    def _upstream(self, request: Request, name: str, handle) -> Response:
        """The one upstream call — a backend's ``App.handle`` or the
        frontend's ``handle_query`` — timed, counted and error-mapped
        the same way whichever it is."""
        started = time.perf_counter()
        try:
            response = handle(request)
        except CEEMSError as exc:
            # The frontend found no healthy backend (strategy.choose
            # raised inside it): the same outage as above, not a 502.
            response = self._unavailable(exc)
        except Exception as exc:  # upstream crashed mid-request
            self.upstream_errors += 1
            self.app.telemetry.log.error(
                "backend error", path=request.path, backend=name, error=str(exc)
            )
            response = Response.json(
                {"status": "error", "errorType": "internal", "error": f"backend {name} failed: {exc}"},
                status=502,
            )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if 0 <= self.slow_request_ms <= elapsed_ms:
            self.slow_requests += 1
            self.app.telemetry.log.warning(
                "slow proxied request",
                path=request.path,
                backend=name,
                duration_ms=elapsed_ms,
                threshold_ms=self.slow_request_ms,
            )
        self.requests_proxied += 1
        response.headers["x-ceems-backend"] = name
        return response

    def _routes_longterm(self, plan: QueryPlan) -> bool:
        """Would age-based routing send this query to the long-term pool?"""
        earliest = plan.earliest
        return (
            self.longterm_strategy is not None
            and self.hot_retention > 0
            and self.clock is not None
            and earliest is not None
            and self.clock.now() - earliest > self.hot_retention
        )
