"""Route dispatch: the literal-pattern lookup picks the route the
try-every-pattern loop picks.

Every app a deployment serves is copied into a table of stub handlers
that name their route, and each request — registered, unregistered and
colliding paths under every method — must reach the same route, with
the same path parameters, or get the same 404/405, from
:meth:`Router.dispatch` and from ``tests/reference/router.py``.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cluster import StackSimulation, small_topology
from repro.cluster.simulation import SimulationConfig
from repro.common.httpx import App, Request, Response, Router
from tests.reference import router as reference

METHODS = ("GET", "POST", "DELETE", "PUT", "HEAD")

UNREGISTERED = (
    "",
    "/",
    "/nope",
    "/api",
    "/api/v1",
    "/api/v1/nope",
    "/api/v1/units/1/extra",
    "/api/v1/label//values",
    "/metrics/",
    "/metrics/x",
    "//metrics",
    "/METRICS",
)

#: Paths a ``{param}`` pattern and a literal one may both claim, or
#: that only a regex quirk matches (``$`` before one trailing newline).
COLLIDING = (
    "/metrics",
    "/-/ready",
    "/-/healthy",
    "/health",
    "/ready",
    "/debug",
    "/x%2Fy",
    "/a%20b",
    "/metrics\n",
    "/metrics\n\n",
    "/api/v1/query\n",
    "/api/v1/units/1\n",
)


def _apps(sim: StackSimulation) -> list[App]:
    apps = {id(app): app for app, *_ in sim.services}
    apps.update((id(target.app), target.app) for target in sim.scrape_manager.targets)
    return list(apps.values())


def _stub_router(router: Router) -> Router:
    """The same table, each handler answering with its own position."""
    stub = Router()
    for position, (method, _regex, pattern, _handler) in enumerate(router._routes):
        stub.add(method, pattern, lambda _request, p=position: Response(200, {}, str(p).encode()))
    return stub


def _fill(pattern: str, value: str) -> str:
    out, rest = [], pattern
    while "{" in rest:
        head, _, tail = rest.partition("{")
        out.append(head + value)
        rest = tail.partition("}")[2]
    return "".join(out) + rest


def _paths(router: Router) -> list[str]:
    patterns = {pattern for _m, _rx, pattern, _h in router._routes}
    paths = set(UNREGISTERED) | set(COLLIDING)
    for pattern in patterns:
        paths.add(pattern)
        paths.add(pattern + "/")
        paths.add(pattern + "\n")
        for value in ("x", "1234", "a%20b", "metrics"):
            paths.add(_fill(pattern, value))
    return sorted(paths)


def _outcome(response: Response, request: Request) -> tuple:
    return response.status, response.body, request.path_params, request.matched_route


def _assert_same(router: Router, method: str, path: str) -> None:
    ours = Request(method=method, path=path)
    theirs = Request(method=method, path=path)
    assert _outcome(router.dispatch(ours), ours) == _outcome(
        reference.dispatch(router, theirs), theirs
    ), (method, path)


@pytest.fixture(scope="module")
def deployment_routers() -> list[tuple[str, Router]]:
    sim = StackSimulation(
        small_topology(cpu_nodes=1, gpu_nodes=1),
        SimulationConfig(seed=3, frontend=True),
    )
    return [(app.name, _stub_router(app.router)) for app in _apps(sim)]


def test_every_served_app_is_covered(deployment_routers):
    names = {name for name, _ in deployment_routers}
    assert {"ceems-lb", "ceems-api-server", "prom-0", "query-frontend", "ceems-emissions"} <= names
    assert any(name.startswith("ceems-exporter") for name in names)


def test_deployment_tables_dispatch_like_the_loop(deployment_routers):
    checked = 0
    for _name, router in deployment_routers:
        for method, path in itertools.product(METHODS, _paths(router)):
            _assert_same(router, method, path)
            checked += 1
    assert checked > 1000


def test_post_to_an_lb_literal_falls_through_to_the_catch_all(deployment_routers):
    lb = dict(deployment_routers)["ceems-lb"]
    request = Request(method="POST", path="/metrics")
    assert lb.dispatch(request).status == 200
    assert request.matched_route == "/{rest}"
    assert request.path_params == {"rest": "metrics"}
    get = Request(method="GET", path="/metrics")
    lb.dispatch(get)
    assert get.matched_route == "/metrics"


def test_lb_and_frontend_mount_exactly_the_backends_api_routes(deployment_routers):
    """A route the LB or the frontend passes through is one a backend
    serves, under the same method: no request is proxied only to be
    refused with a 405, and no backend route is unreachable."""

    def api_routes(router: Router) -> set[tuple[str, str]]:
        return {
            (method, pattern)
            for method, _rx, pattern, _h in router._routes
            if pattern.startswith("/api/") or pattern == "/-/healthy"
        }

    routers = dict(deployment_routers)
    backend = routers["prom-0"]
    assert ("GET", "/api/v1/series") in api_routes(backend)
    for name in ("ceems-lb", "query-frontend"):
        for method, pattern in api_routes(routers[name]) | api_routes(backend):
            assert routers[name].has_route(method, pattern) == backend.has_route(
                method, pattern
            ), (name, method, pattern)


def test_synthetic_orders():
    """Captures before and after a literal, duplicates, a pattern with
    regex syntax in it, and a method only some routes serve."""
    table = [
        ("GET", "/a/{x}"),
        ("GET", "/a/b"),
        ("POST", "/a/b"),
        ("POST", "/{top}"),
        ("GET", "/c"),
        ("GET", "/c"),
        ("DELETE", "/a/{x}"),
        ("GET", "/d.e"),
        ("PUT", "/c"),
        ("GET", "/f/{x}/g"),
        ("GET", "/f/h/g"),
    ]
    router = Router()
    for position, (method, pattern) in enumerate(table):
        router.add(method, pattern, lambda _request, p=position: Response(200, {}, str(p).encode()))
    paths = ["/a/b", "/a/c", "/c", "/d.e", "/dXe", "/f/h/g", "/f/q/g", "/q", "/a", "/c\n", "/a/b\n"]
    for method, path in itertools.product(METHODS, paths):
        _assert_same(router, method, path)
