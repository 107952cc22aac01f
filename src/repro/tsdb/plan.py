"""One read request, read once: its parameters, numbers, limits and AST.

The query paths have three doors — the LB, the query frontend, a
PromAPI backend — and a request usually crosses more than one.
:func:`plan_query` is the one place that turns a
:class:`~repro.common.httpx.Request` into a validated
:class:`QueryPlan`: the first hop to see the request calls it and
attaches the plan to the request *it* sends upstream, where every
later hop's call returns that plan instead of reading, checking and
parsing again.  Checks run in one order and the first failure is the
answer, so a malformed request gets one status and body at every door:

1. ``query`` present (400);
2. every number given is a finite float, all three on a range (400);
3. query length, range duration, resolved steps (structured 422);
4. ``time`` given on an instant (400: a simulation has no wall clock);
5. the PromQL parses (400);
6. no subquery grid resolves to more steps than a range may (422);
7. ``step > 0`` and ``end >= start`` on a range (400).

Imports nothing from ``repro.frontend``, ``repro.lb`` or
``repro.apiserver``: all three import this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import QueryError
from repro.common.httpx import Request, Response
from repro.tsdb.promql.ast import Expr, Subquery, iter_nodes
from repro.tsdb.promql.parser import parse_expr

INSTANT_PATH = "/api/v1/query"
RANGE_PATH = "/api/v1/query_range"
EXEMPLARS_PATH = "/api/v1/query_exemplars"

#: Per path: the numeric parameters and the 400 a malformed one gets.
_NUMBERS = {
    INSTANT_PATH: (("time",), "time must be a number"),
    RANGE_PATH: (("start", "end", "step"), "start/end/step must be numbers"),
    EXEMPLARS_PATH: (("start", "end"), "start/end must be numbers"),
}
QUERY_PATHS = tuple(_NUMBERS)

#: Every ``(method, pattern)`` route of the Prometheus HTTP API that a
#: PromAPI backend serves, in mount order.  Router patterns match
#: single segments, so the nested paths are listed one by one.  The
#: query paths come first and the ``{param}`` patterns last, so that no
#: literal route tries a pattern before its own.
API_ROUTES = (
    ("GET", INSTANT_PATH),
    ("POST", INSTANT_PATH),
    ("GET", RANGE_PATH),
    ("POST", RANGE_PATH),
    ("GET", EXEMPLARS_PATH),
    ("POST", EXEMPLARS_PATH),
    ("GET", "/api/v1/status/buildinfo"),
    ("GET", "/api/v1/status/runtimeinfo"),
    ("GET", "/api/v1/series"),
    ("GET", "/api/v1/rules"),
    ("GET", "/api/v1/alerts"),
    ("GET", "/api/v1/silences"),
    ("POST", "/api/v1/silences"),
    ("GET", "/-/healthy"),
    ("GET", "/api/v1/label/{name}/values"),
    ("GET", "/api/v1/silence/{id}"),
    ("DELETE", "/api/v1/silence/{id}"),
)
#: What the LB and the query frontend pass to a backend untouched:
#: every API route but the two evaluated query paths they mount
#: themselves.
PASSTHROUGH_ROUTES = tuple(
    route for route in API_ROUTES if route[1] not in (INSTANT_PATH, RANGE_PATH)
)

#: Conservative default on the query text itself; ranges and step
#: counts default to unlimited (deployments opt in via CLI flags).
DEFAULT_MAX_QUERY_LENGTH = 8192


def limit_error(limit: str, actual: float, maximum: float, message: str) -> Response:
    """A structured 422: machine-readable limit name, actual and max."""
    return Response.json(
        {
            "status": "error",
            "errorType": "bad_data",
            "error": message,
            "limit": limit,
            "actual": actual,
            "max": maximum,
        },
        status=422,
    )


@dataclass(frozen=True)
class QueryLimits:
    """Bounds enforced before evaluation; ``0`` disables a bound.

    Oversized requests fail fast with a *structured* 422 so dashboards
    and API clients can show which limit was hit and by how much; the
    frontend and every PromAPI hold the same limits, whichever door a
    query comes through.
    """

    max_query_length: int = DEFAULT_MAX_QUERY_LENGTH
    max_range_seconds: float = 0.0
    max_resolved_steps: int = 0

    def check(
        self, query: str, start: float | None = None, end: float | None = None, step: float | None = None
    ) -> Response | None:
        """Query length, then — for a range grid — duration and resolved steps."""
        if self.max_query_length > 0 and len(query) > self.max_query_length:
            return limit_error(
                "max_query_length",
                len(query),
                self.max_query_length,
                f"query of {len(query)} chars exceeds the "
                f"{self.max_query_length}-char limit",
            )
        if step is None:
            return None
        duration = end - start
        if self.max_range_seconds > 0 and duration > self.max_range_seconds:
            return limit_error(
                "max_range_seconds",
                duration,
                self.max_range_seconds,
                f"range of {duration:.0f}s exceeds the "
                f"{self.max_range_seconds:.0f}s limit",
            )
        if self.max_resolved_steps > 0 and step > 0 and end >= start:
            return self._check_steps("query", duration, step)
        return None

    def _check_steps(self, what: str, duration: float, step: float) -> Response | None:
        steps = int(math.floor(duration / step + 1e-9)) + 1
        if steps <= self.max_resolved_steps:
            return None
        return limit_error(
            "max_resolved_steps",
            steps,
            self.max_resolved_steps,
            f"{what} resolves to {steps} steps, over the "
            f"{self.max_resolved_steps}-step limit "
            "(increase the step or narrow the range)",
        )

    def check_subqueries(self, ast: Expr, span: float) -> Response | None:
        """The resolved-step limit, for each ``[range:step]`` inside: a
        grid of its own (one union grid over the outer ``span``) that
        the top-level bound never saw."""
        if self.max_resolved_steps > 0:
            for node in iter_nodes(ast):
                if isinstance(node, Subquery) and node.step_seconds > 0:
                    failed = self._check_steps(
                        f"subquery [{node.range_seconds:.0f}s:{node.step_seconds:g}s]",
                        node.range_seconds + max(span, 0.0),
                        node.step_seconds,
                    )
                    if failed is not None:
                        return failed
        return None


@dataclass(frozen=True)
class QueryPlan:
    """Everything the hops need to know about one read request."""

    path: str
    query: str
    ast: Expr
    time: float | None = None  # instant
    #: The grid of a range; ``start``/``end`` also bound an exemplar
    #: query, ``None`` meaning unbounded.
    start: float | None = None
    end: float | None = None
    step: float | None = None
    stats: bool = False  # ``stats=all``
    #: What the plan was validated against; a hop holding other limits
    #: still applies its own.
    limits: QueryLimits | None = None

    @property
    def earliest(self) -> float | None:
        """Earliest time evaluation reaches (the LB routes by its age)."""
        return self.start if self.path == RANGE_PATH else self.time

    @property
    def span(self) -> float:
        return self.end - self.start if self.path == RANGE_PATH else 0.0


def plan_query(request: Request, limits: QueryLimits | None) -> QueryPlan | Response:
    """The validated plan of a query-path request, or the error to send.

    A request forwarded by an earlier hop carries its plan; only this
    hop's limits, if they differ, are left to apply.
    """
    plan = request.plan
    if plan is not None:
        if limits is None or limits == plan.limits:
            return plan
        return (
            limits.check(plan.query, plan.start, plan.end, plan.step)
            or limits.check_subqueries(plan.ast, plan.span)
            or plan
        )

    path, param = request.path, request.param
    query = param("query")
    if not query:
        return Response.error(400, "missing query parameter")
    names, malformed = _NUMBERS[path]
    numbers: dict[str, float] = {}
    for name in names:
        raw = param(name)
        if raw is None:
            continue
        try:
            numbers[name] = float(raw)
        except ValueError:
            numbers[name] = math.nan  # malformed and non-finite fail alike
        if not math.isfinite(numbers[name]):
            return Response.error(400, malformed)
    if path == RANGE_PATH and len(numbers) < len(names):
        return Response.error(400, malformed)
    if limits is not None:
        failed = limits.check(query, numbers.get("start"), numbers.get("end"), numbers.get("step"))
        if failed is not None:
            return failed
    if path == INSTANT_PATH and not numbers:
        return Response.error(400, "missing time parameter (no wall clock in simulation)")
    try:
        ast = parse_expr(query)
    except (QueryError, ValueError) as exc:
        return Response.error(400, str(exc))
    plan = QueryPlan(path, query, ast, stats=param("stats") == "all", limits=limits, **numbers)
    if limits is not None:
        failed = limits.check_subqueries(ast, plan.span)
        if failed is not None:
            return failed
    if path == RANGE_PATH:
        if plan.step <= 0:
            return Response.error(400, "step must be positive")
        if plan.end < plan.start:
            return Response.error(400, "end before start")
    return plan
