"""In-process HTTP abstraction used by every stack component.

The CEEMS components speak HTTP to each other (exporter ← Prometheus
scrapes, Grafana → LB → Prometheus, API server ← LB / Grafana).  For a
deterministic simulation we model HTTP as plain function calls over
:class:`Request`/:class:`Response` values routed by a :class:`Router`.
Components expose an :class:`App`; clients call :meth:`App.handle`.

A thin adapter (:func:`serve_threading`) mounts the very same ``App``
on a real :class:`http.server.ThreadingHTTPServer`, which the
integration tests use to prove the components genuinely speak HTTP —
the routing, auth, and handler code is identical in both modes.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from functools import cached_property
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.common.auth import BasicAuth, TLSConfig
from repro.common.errors import AuthError
from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    TRACEPARENT_HEADER,
    Span,
    TraceContext,
    activate,
    current_trace,
    deactivate,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    wall_time,
)

#: Exposition content type served by ``/metrics`` endpoints.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass
class Request:
    """An HTTP request in the in-process model."""

    method: str
    path: str
    query: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: Transport security marker; stands in for "arrived over TLS".
    secure: bool = False
    #: Filled by the router from the path pattern (e.g. ``{uuid}``).
    path_params: dict[str, str] = field(default_factory=dict)
    #: The route pattern that matched (set by the router) — the
    #: bounded-cardinality ``handler`` label of the HTTP metrics.
    matched_route: str = ""
    #: The validated query plan (:mod:`repro.tsdb.plan`): set by the hop
    #: that built it, on the request it sends upstream.
    plan: Any = field(default=None, repr=False, compare=False)

    @classmethod
    def from_url(
        cls,
        method: str,
        url: str,
        *,
        headers: dict[str, str] | None = None,
        body: bytes = b"",
        secure: bool = False,
    ) -> "Request":
        """Build a request from a path-with-querystring URL.

        Trace propagation: a request built while a trace context is
        active (i.e. from inside a handler or an instrumented periodic
        activity) automatically carries the ``traceparent`` header, so
        every in-process hop — LB → backend, scrape manager →
        exporter — continues the caller's trace without each call site
        knowing about tracing.
        """
        parsed = urllib.parse.urlsplit(url)
        query = urllib.parse.parse_qs(parsed.query, keep_blank_values=True)
        hdrs = {k.lower(): v for k, v in (headers or {}).items()}
        if TRACEPARENT_HEADER not in hdrs:
            ambient = current_trace()
            if ambient is not None:
                hdrs[TRACEPARENT_HEADER] = ambient.header_value()
        return cls(
            method=method.upper(),
            path=parsed.path or "/",
            query=query,
            headers=hdrs,
            body=body,
            secure=secure,
        )

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)

    def with_plan(self, plan: Any) -> "Request":
        """A shallow copy of this request carrying ``plan``: what a hop
        forwards upstream when the caller's request must stay as it
        was sent (fields, headers dict and parsed form are shared)."""
        forwarded = object.__new__(type(self))
        forwarded.__dict__.update(self.__dict__)
        forwarded.plan = plan
        return forwarded

    def param(self, name: str, default: str | None = None) -> str | None:
        """First value of a parameter: query string, else POST form
        (Grafana sends long queries as forms)."""
        values = self.query.get(name)
        if not values and self.body:
            values = self.form.get(name)
        return values[0] if values else default

    def params(self, name: str) -> list[str]:
        """All values of a repeated query parameter (e.g. ``match[]``)."""
        return self.query.get(name, [])

    def json(self) -> Any:
        return json.loads(self.body.decode() or "null")

    @cached_property
    def form(self) -> dict[str, list[str]]:
        """The ``application/x-www-form-urlencoded`` body, parsed on
        first use and at most once however many hops read it."""
        ctype = self.header("content-type", "")
        if ctype and "application/x-www-form-urlencoded" in ctype:
            return urllib.parse.parse_qs(self.body.decode(), keep_blank_values=True)
        return {}


@dataclass
class Response:
    """An HTTP response in the in-process model."""

    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @classmethod
    def json(cls, payload: Any, status: int = 200, **headers: str) -> "Response":
        hdrs = {"content-type": "application/json"}
        hdrs.update({k.replace("_", "-").lower(): v for k, v in headers.items()})
        return cls(status=status, headers=hdrs, body=json.dumps(payload).encode())

    @classmethod
    def text(cls, payload: str, status: int = 200, content_type: str = "text/plain; charset=utf-8") -> "Response":
        return cls(status=status, headers={"content-type": content_type}, body=payload.encode())

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json({"status": "error", "error": message}, status=status)

    def decode_json(self) -> Any:
        return json.loads(self.body.decode() or "null")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


Handler = Callable[[Request], Response]

#: A pattern holding any of these is matched by its regex; any other
#: pattern matches exactly its own text.
_REGEX_SYNTAX = re.compile(r"[{}\[\]().*+?^$|\\]")


class Router:
    """Method+path router with ``{param}`` captures.

    Routes are matched in registration order; path parameters capture a
    single segment and are stored in ``request.path_params``.  A literal
    pattern is found by one dict lookup on the path, so a request tries
    only the ``{param}`` patterns registered before the literal route
    that would serve it.
    """

    def __init__(self) -> None:
        self._routes: list[tuple[str, re.Pattern[str], str, Handler]] = []
        #: Literal patterns by path: (position, method, pattern, handler),
        #: in registration order.
        self._literal: dict[str, list[tuple[int, str, str, Handler]]] = {}
        #: Every other pattern, in registration order, with its position.
        self._captures: list[tuple[int, str, re.Pattern[str], str, Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        method = method.upper()
        regex = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern) + "$"
        )
        position = len(self._routes)
        self._routes.append((method, regex, pattern, handler))
        if _REGEX_SYNTAX.search(pattern) is None:
            self._literal.setdefault(pattern, []).append((position, method, pattern, handler))
        else:
            self._captures.append((position, method, regex, pattern, handler))

    def has_route(self, method: str, pattern: str) -> bool:
        return any(
            m == method.upper() and p == pattern for m, _rx, p, _h in self._routes
        )

    def get(self, pattern: str, handler: Handler) -> None:
        self.add("GET", pattern, handler)

    def post(self, pattern: str, handler: Handler) -> None:
        self.add("POST", pattern, handler)

    def delete(self, pattern: str, handler: Handler) -> None:
        self.add("DELETE", pattern, handler)

    def dispatch(self, request: Request) -> Response:
        path, method = request.path, request.method
        # ``$`` also matches before one trailing newline: a literal
        # pattern's regex accepts ``pattern + "\n"``, and so does this.
        literal = self._literal.get(path[:-1] if path.endswith("\n") else path, ())
        first = None
        for route in literal:
            if route[1] == method:
                first = route
                break
        bound = first[0] if first is not None else len(self._routes)
        path_matched = bool(literal)
        for position, route_method, regex, pattern, handler in self._captures:
            if position > bound:
                break
            match = regex.match(path)
            if match is None:
                continue
            path_matched = True
            if route_method != method:
                continue
            request.path_params = {k: urllib.parse.unquote(v) for k, v in match.groupdict().items()}
            request.matched_route = pattern
            return handler(request)
        if first is not None:
            request.path_params = {}
            request.matched_route = first[2]
            return first[3](request)
        if path_matched:
            return Response.error(405, "method not allowed")
        return Response.error(404, f"no route for {request.path}")


class App:
    """A routable HTTP application with optional basic auth and TLS.

    This is the single code path shared by the in-process transport and
    the real socket server: auth enforcement, TLS requirement, error
    mapping — and, since the self-telemetry subsystem, the uniform
    observability middleware — all live here.  Every request is
    counted (total, latency histogram by handler pattern, status code,
    in-flight gauge) and recorded as a span continuing the caller's
    ``traceparent`` trace (or rooting a new one at the edge).
    """

    def __init__(
        self,
        name: str,
        *,
        auth: BasicAuth | None = None,
        tls: TLSConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.name = name
        self.router = Router()
        self.auth = auth or BasicAuth()
        self.tls = tls or TLSConfig()
        self.tls.validate()
        self._requests_total = 0
        self._errors_total = 0
        self._in_flight = 0
        self.telemetry = telemetry or Telemetry(name)
        reg = self.telemetry.registry
        self._http_requests = reg.counter(
            "ceems_http_requests_total",
            "HTTP requests handled, by method/handler/status code.",
        )
        self._http_latency = reg.histogram(
            "ceems_http_request_duration_seconds",
            "HTTP request latency by handler pattern.",
        )
        reg.gauge_func(
            "ceems_http_requests_in_flight",
            lambda: float(self._in_flight),
            "Requests currently being handled.",
        )

    # Stats used by the exporter self-metrics and the LB bench.
    @property
    def requests_total(self) -> int:
        return self._requests_total

    @property
    def errors_total(self) -> int:
        return self._errors_total

    def handle(self, request: Request) -> Response:
        """Observability middleware around the auth/dispatch pipeline.

        Trace context resolution order: an incoming ``traceparent``
        header wins (forwarded hop), then an ambient in-process
        context (instrumented periodic activity), then a fresh trace
        (this component is the edge).  The request's header is
        rewritten to this span before dispatch, so anything the
        handler forwards — the same request object or a new one built
        with :meth:`Request.from_url` — carries this span as parent.
        """
        headers = request.headers
        incoming = parse_traceparent(headers.get(TRACEPARENT_HEADER))
        if incoming is None:
            incoming = current_trace()
        if incoming is None:
            trace_id, parent_id = new_trace_id(), ""
        else:
            trace_id, parent_id = incoming.trace_id, incoming.span_id
        ctx = TraceContext(trace_id, new_span_id())
        headers[TRACEPARENT_HEADER] = ctx.header_value()
        token = activate(ctx)
        self._in_flight += 1
        # One clock pair times the span, the histogram and the
        # exemplars' rate limit alike.
        started = perf_counter()
        status = 500
        try:
            response = self._handle_inner(request)
            status = response.status
        finally:
            ended = perf_counter()
            self._in_flight -= 1
            duration = ended - started
            method = request.method
            handler = request.matched_route or "(unrouted)"
            # Label keys written in sorted label-name order, as the
            # registry keys them.
            self._http_requests.inc_key(
                (("code", str(status)), ("handler", handler), ("method", method)), 1.0, ended
            )
            self._http_latency.observe_key((("handler", handler),), duration, ended)
            self.telemetry.spans.record(
                Span(
                    trace_id,
                    ctx.span_id,
                    parent_id,
                    f"{method} {handler}",
                    self.name,
                    wall_time(started),
                    duration,
                    "ok" if status < 500 else "error",
                    {"path": request.path, "status": status},
                )
            )
            if status >= 500:
                # Logged before deactivate() so the structured log
                # entry auto-correlates with this request's trace.
                self.telemetry.log.error(
                    "request failed",
                    method=method,
                    path=request.path,
                    status=status,
                )
            deactivate(token)
        response.headers.setdefault("x-trace-id", trace_id)
        return response

    def _handle_inner(self, request: Request) -> Response:
        self._requests_total += 1
        if self.tls.enabled and not request.secure:
            self._errors_total += 1
            return Response.error(400, "TLS required")
        try:
            request.headers.setdefault("x-auth-user", self.auth.check_header(request.header("authorization")))
        except AuthError as exc:
            self._errors_total += 1
            return Response(
                status=exc.status,
                headers={"www-authenticate": f'Basic realm="{self.name}"'},
                body=json.dumps({"status": "error", "error": str(exc)}).encode(),
            )
        try:
            response = self.router.dispatch(request)
        except AuthError as exc:
            response = Response.error(exc.status, str(exc))
        if response.status >= 400:
            self._errors_total += 1
        return response

    # -- telemetry endpoints ------------------------------------------------
    def expose_telemetry(
        self, *, metrics: bool = True, traces: bool = True, prof: bool = True
    ) -> None:
        """Mount ``/metrics``, ``/debug/traces`` and ``/debug/prof``.

        Call *before* registering catch-all routes (the router matches
        in registration order).  The exporter mounts only the trace
        endpoint and merges telemetry families into its own scrape
        payload instead.  ``/debug/prof`` serves (and can toggle) the
        process-wide phase profiler of :mod:`repro.obs.prof`.
        """
        if metrics and not self.router.has_route("GET", "/metrics"):
            self.router.get("/metrics", self._serve_metrics)
        if traces and not self.router.has_route("GET", "/debug/traces"):
            self.router.get("/debug/traces", self._serve_traces)
        if prof and not self.router.has_route("GET", "/debug/prof"):
            self.router.get("/debug/prof", self._serve_prof)

    def _serve_metrics(self, request: Request) -> Response:
        return Response.text(
            self.telemetry.render(), content_type=EXPOSITION_CONTENT_TYPE
        )

    def _serve_traces(self, request: Request) -> Response:
        trace_id = request.param("trace_id")
        try:
            limit = int(request.param("limit", "100"))
        except ValueError:
            return Response.error(400, "limit must be an integer")
        try:
            min_ms = float(request.param("min_ms", "0"))
        except ValueError:
            return Response.error(400, "min_ms must be a number")
        store = self.telemetry.spans
        if trace_id:
            spans = store.for_trace(trace_id)
        else:
            spans = store.spans()
        if min_ms > 0:
            # Slow-span filter: the exemplar drill-down's "show me
            # only the expensive part of this trace" knob.
            spans = [s for s in spans if s.duration * 1000.0 >= min_ms]
        if not trace_id:
            spans = spans[-limit:]
        return Response.json(
            {
                "status": "success",
                "component": self.name,
                "total_recorded": store.total_recorded,
                "spans": [s.to_dict() for s in spans],
            }
        )

    def _serve_prof(self, request: Request) -> Response:
        """The process-wide flat profile; ``?enable=1/0`` toggles it,
        ``?reset=1`` clears accumulated phases."""
        from repro.obs.prof import PROFILER

        enable = request.param("enable")
        if enable is not None:
            PROFILER.enabled = enable not in ("0", "false", "off")
        if request.param("reset") in ("1", "true"):
            PROFILER.reset()
        return Response.json(
            {
                "status": "success",
                "enabled": PROFILER.enabled,
                "profile": PROFILER.snapshot(),
            }
        )

    # Convenience client methods for in-process calls.
    def get(self, url: str, **kwargs: Any) -> Response:
        return self.handle(Request.from_url("GET", url, **kwargs))

    def post(self, url: str, **kwargs: Any) -> Response:
        return self.handle(Request.from_url("POST", url, **kwargs))


class _AppHTTPHandler(BaseHTTPRequestHandler):
    """Adapter from the stdlib HTTP server onto an :class:`App`."""

    app: App  # injected by serve_threading

    def _serve(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        request = Request.from_url(
            self.command,
            self.path,
            headers={k: v for k, v in self.headers.items()},
            body=body,
        )
        response = self.app.handle(request)
        self.send_response(response.status)
        for key, value in response.headers.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        self.wfile.write(response.body)

    do_GET = do_POST = do_DELETE = do_PUT = _serve

    def log_message(self, fmt: str, *args: Any) -> None:  # silence
        pass


@dataclass
class RunningServer:
    """Handle for a live socket server started by :func:`serve_threading`."""

    server: ThreadingHTTPServer
    thread: threading.Thread

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def serve_threading(app: App, port: int = 0) -> RunningServer:
    """Mount ``app`` on a real threaded HTTP server (ephemeral port)."""
    handler = type("Handler", (_AppHTTPHandler,), {"app": app})
    server = ThreadingHTTPServer(("127.0.0.1", port), handler)
    thread = threading.Thread(target=server.serve_forever, name=f"http-{app.name}", daemon=True)
    thread.start()
    return RunningServer(server=server, thread=thread)


def http_get(url: str, headers: dict[str, str] | None = None, timeout: float = 5.0) -> tuple[int, bytes]:
    """Tiny urllib GET helper for integration tests (no external deps)."""
    req = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def iter_chunks(data: bytes, size: int) -> Iterator[bytes]:
    """Yield ``data`` in ``size``-byte chunks (backup streaming helper)."""
    for i in range(0, len(data), size):
        yield data[i : i + size]
