"""One read path: every request is read, validated and parsed once.

The LB, the query frontend and a PromAPI backend are three doors onto
the same query paths.  These tests pin what the single plan function
(``repro.tsdb.plan.plan_query``) buys: one PromQL parse and one form
parse per client request however many hops it crosses, one check order
(so one status and one body) whichever door a malformed request comes
through, and one upstream call in the LB whichever destination it
forwards to.
"""

from __future__ import annotations

import subprocess
import sys
import urllib.parse
from pathlib import Path

import pytest

from repro.common.httpx import Request
from repro.frontend import QueryFrontend
from repro.lb.server import LoadBalancer
from repro.lb.strategies import Backend
from repro.tsdb.http import PromAPI
from repro.tsdb.model import Labels
from repro.tsdb.plan import QueryLimits
from repro.tsdb.storage import TSDB

USER = {"x-grafana-user": "alice"}
FORM = {"content-type": "application/x-www-form-urlencoded"}
LIMITS = QueryLimits(max_query_length=60, max_range_seconds=7200.0, max_resolved_steps=500)
SELECTOR = 'm{uuid="1"}'


class AllowAll:
    def allowed(self, user, uuids, unbounded=False):
        return True


class Stack:
    """LB → frontend → PromAPI over two hours of one series."""

    def __init__(self, limits: QueryLimits | None = None, **lb_options) -> None:
        db = TSDB()
        for i in range(481):
            db.append(Labels({"__name__": "m", "uuid": "1"}), 15.0 * i, float(i % 50))
        self.api = PromAPI(db, limits=limits)
        backends = [Backend(name="prom", app=self.api.app)]
        self.frontend = QueryFrontend(backends, split_interval=900.0, limits=limits)
        self.lb = LoadBalancer(backends, AllowAll(), frontend=self.frontend, **lb_options)

    @property
    def doors(self) -> dict:
        return {
            "direct": self.api.app,
            "frontend": self.frontend.app,
            "lb+frontend": self.lb.app,
        }


def send(app, path: str, params: dict, transport: str):
    encoded = urllib.parse.urlencode(params)
    if transport == "GET":
        return app.handle(Request.from_url("GET", f"{path}?{encoded}", headers=USER))
    return app.handle(
        Request.from_url("POST", path, headers={**USER, **FORM}, body=encoded.encode())
    )


# -- (b) one PromQL parse per client request -----------------------------
@pytest.fixture
def parse_calls(monkeypatch) -> list[str]:
    """Every ``parse_expr`` call, through whichever module's binding."""
    from repro.tsdb.promql import parser

    original = parser.parse_expr
    calls: list[str] = []

    def counting(text):
        calls.append(text)
        return original(text)

    for module in list(sys.modules.values()):
        if getattr(module, "parse_expr", None) is original:
            monkeypatch.setattr(module, "parse_expr", counting)
    return calls


class TestParsedOnce:
    def test_cold_instant_and_range(self, parse_calls):
        stack = Stack()
        instant = send(stack.lb.app, "/api/v1/query", {"query": SELECTOR, "time": 600}, "GET")
        assert instant.status == 200 and parse_calls == [SELECTOR]
        del parse_calls[:]
        # One split bucket: the frontend's cold fast path.
        cold = send(
            stack.lb.app,
            "/api/v1/query_range",
            {"query": SELECTOR, "start": 0, "end": 600, "step": 60},
            "GET",
        )
        assert cold.status == 200 and stack.frontend.subqueries == 1
        assert parse_calls == [SELECTOR]

    def test_range_split_into_sub_queries(self, parse_calls):
        stack = Stack()
        params = {"query": f"sum({SELECTOR})", "start": 0, "end": 3600, "step": 60}
        via = send(stack.lb.app, "/api/v1/query_range", params, "GET")
        assert via.status == 200
        assert stack.frontend.subqueries >= 3  # the split did happen
        assert parse_calls == [params["query"]]  # parent: 1 at the LB + 1 per sub-query
        del parse_calls[:]
        direct = send(stack.api.app, "/api/v1/query_range", params, "GET")
        assert via.body == direct.body
        assert len(parse_calls) == 1  # a backend reached directly parses for itself

    def test_exemplar_queries_too(self, parse_calls):
        stack = Stack()
        response = send(stack.lb.app, "/api/v1/query_exemplars", {"query": SELECTOR}, "GET")
        assert response.status == 200 and parse_calls == [SELECTOR]


# -- (d) one form parse per client request -------------------------------
def test_posted_form_is_parsed_once_end_to_end(monkeypatch):
    stack = Stack()
    body = urllib.parse.urlencode({"query": SELECTOR, "start": 0, "end": 3600, "step": 60})
    original = urllib.parse.parse_qs
    parsed: list[str] = []

    def counting(qs, *args, **kwargs):
        parsed.append(qs)
        return original(qs, *args, **kwargs)

    monkeypatch.setattr(urllib.parse, "parse_qs", counting)
    response = stack.lb.app.handle(
        Request.from_url("POST", "/api/v1/query_range", headers={**USER, **FORM}, body=body.encode())
    )
    assert response.status == 200 and stack.frontend.subqueries >= 3
    assert parsed.count(body) == 1  # parent: 7


# -- (c) one check order, one status, one body ---------------------------
LONG = "sum(" + "m + " * 20 + "m)"  # over LIMITS.max_query_length
RANGE, INSTANT = "/api/v1/query_range", "/api/v1/query"
GRID = {"start": 0, "end": 600, "step": 60}

MALFORMED = [
    # (what is wrong, path, parameters, status of the first failing check)
    ("missing query", RANGE, {**GRID}, 400),
    ("missing query (instant)", INSTANT, {"time": 0}, 400),
    ("empty query", RANGE, {**GRID, "query": ""}, 400),
    ("missing step", RANGE, {"query": "m", "start": 0, "end": 600}, 400),
    ("bad start", RANGE, {**GRID, "query": "m", "start": "oops"}, 400),
    ("start=nan", RANGE, {**GRID, "query": "m", "start": "nan"}, 400),
    ("end=inf", RANGE, {**GRID, "query": "m", "end": "inf"}, 400),
    ("end=-inf", RANGE, {**GRID, "query": "m", "end": "-inf"}, 400),
    ("step=inf", RANGE, {**GRID, "query": "m", "step": "inf"}, 400),
    ("step=nan", RANGE, {**GRID, "query": "m", "step": "NaN"}, 400),
    ("bad time", INSTANT, {"query": "m", "time": "noon"}, 400),
    ("time=nan", INSTANT, {"query": "m", "time": "nan"}, 400),
    ("time=inf", INSTANT, {"query": "m", "time": "Infinity"}, 400),
    ("over-long query", RANGE, {**GRID, "query": LONG}, 422),
    ("over-long query (instant)", INSTANT, {"query": LONG, "time": 0}, 422),
    ("over-range", RANGE, {"query": "m", "start": 0, "end": 7201, "step": 60}, 422),
    ("over-steps", RANGE, {"query": "m", "start": 0, "end": 600, "step": 1}, 422),
    ("over-steps in a subquery", INSTANT, {"query": "max_over_time(m[1000000d:1s])", "time": 0}, 422),
    ("over-steps in a range's subquery", RANGE, {**GRID, "query": "max_over_time(m[40m:5s])"}, 422),
    ("missing time", INSTANT, {"query": "m"}, 400),
    ("unparseable PromQL", RANGE, {**GRID, "query": "sum("}, 400),
    ("unparseable PromQL (instant)", INSTANT, {"query": "m{", "time": 0}, 400),
    ("malformed number in PromQL", RANGE, {**GRID, "query": "m * 1.2.3"}, 400),
    ("step=0", RANGE, {**GRID, "query": "m", "step": 0}, 400),
    ("step<0", RANGE, {**GRID, "query": "m", "step": -5}, 400),
    ("end<start", RANGE, {"query": "m", "start": 600, "end": 0, "step": 60}, 400),
    # Pairs: the earlier check in the one order wins at every door.
    ("missing query + bad numbers", RANGE, {"start": "x", "end": 1, "step": 1}, 400),
    ("bad numbers + over-long", RANGE, {**GRID, "query": LONG, "start": "oops"}, 400),
    ("non-finite + over-long", RANGE, {**GRID, "query": LONG, "end": "inf"}, 400),
    ("bad numbers + unparseable", RANGE, {**GRID, "query": "sum(", "step": "x"}, 400),
    ("over-long + unparseable", RANGE, {**GRID, "query": LONG + "("}, 422),
    ("over-range + unparseable", RANGE, {"query": "sum(", "start": 0, "end": 9000, "step": 60}, 422),
    ("over-steps + end<start is not over-steps", RANGE, {"query": "m", "start": 600, "end": 0, "step": 0.001}, 400),
    ("over-long + missing time", INSTANT, {"query": LONG}, 422),
    ("missing time + unparseable", INSTANT, {"query": "sum("}, 400),
    ("bad time + unparseable", INSTANT, {"query": "sum(", "time": "noon"}, 400),
    ("unparseable + step=0", RANGE, {**GRID, "query": "sum(", "step": 0}, 400),
    ("unparseable + end<start", RANGE, {"query": "sum(", "start": 600, "end": 0, "step": 60}, 400),
    ("subquery over-steps + step=0", RANGE, {**GRID, "query": "max_over_time(m[1h:1s])", "step": 0}, 422),
    ("step=0 + end<start", RANGE, {"query": "m", "start": 600, "end": 0, "step": 0}, 400),
]


@pytest.fixture(scope="module")
def limited_stack() -> Stack:
    return Stack(LIMITS)


@pytest.mark.parametrize("transport", ["GET", "POST"])
@pytest.mark.parametrize("case", MALFORMED, ids=[case[0] for case in MALFORMED])
def test_malformed_requests_fail_alike_at_every_door(limited_stack, case, transport):
    _what, path, params, status = case
    answers = {
        door: send(app, path, params, transport) for door, app in limited_stack.doors.items()
    }
    direct = answers["direct"]
    assert direct.status == status
    payload = direct.decode_json()  # a bare NaN would not be JSON
    assert payload["status"] == "error"
    for door, answer in answers.items():
        assert (answer.status, answer.body) == (direct.status, direct.body), door


def test_first_failure_of_each_pair_is_the_earlier_check(limited_stack):
    """The order itself, read off the messages of the pair rows."""
    expect = {
        "bad numbers + over-long": "start/end/step must be numbers",
        "over-long + unparseable": "max_query_length",
        "over-long + missing time": "max_query_length",
        "missing time + unparseable": "missing time parameter",
        "bad time + unparseable": "time must be a number",
        "unparseable + step=0": "unexpected token",
        "malformed number in PromQL": "malformed number '1.2.3' (at offset 4)",  # parent: float()'s own text
        "subquery over-steps + step=0": "max_resolved_steps",
        "step=0 + end<start": "step must be positive",
    }
    cases = {case[0]: case for case in MALFORMED}
    for what, fragment in expect.items():
        _what, path, params, _status = cases[what]
        body = send(limited_stack.api.app, path, params, "GET").body.decode()
        assert fragment in body, (what, body)


def test_well_formed_request_still_equal_at_every_door(limited_stack):
    params = {"query": f"sum({SELECTOR})", "start": 0, "end": 3600, "step": 60}
    bodies = {send(app, RANGE, params, "POST").body for app in limited_stack.doors.values()}
    assert len(bodies) == 1 and b'"success"' in bodies.pop()


#: A selector regex that does not compile: the parser's error, so the
#: first door that plans the request answers it.
BAD_SELECTOR = 'm{uuid=~"("}'


@pytest.mark.parametrize("door", ["direct", "frontend", "lb+frontend", "series"])
def test_malformed_selector_regex_is_a_400_at_every_door(limited_stack, door):
    if door == "series":  # parent: re.error out of App.handle at every door
        response = send(limited_stack.api.app, "/api/v1/series", {"match[]": BAD_SELECTOR}, "GET")
    else:
        response = send(limited_stack.doors[door], RANGE, {**GRID, "query": BAD_SELECTOR}, "GET")
    assert response.status == 400
    assert response.decode_json()["error"] == (
        "invalid regular expression '(' in matcher: missing ), unterminated subpattern (at offset 2)"
    )


#: Arguments of ``label_replace`` / ``label_join`` that Prometheus
#: rejects, with its messages; found when the query runs, not planned.
BAD_LABEL_ARGUMENTS = [
    ('label_replace(m, "d", "v", "uuid", "(")', "invalid regular expression in label_replace(): ("),
    ('label_replace(m, "1d", "v", "uuid", ".*")', "invalid destination label name in label_replace(): 1d"),
    ('label_join(m, "d", ",", "u-id")', "invalid source label name in label_join(): u-id"),
    ('label_join(m, "d-x", ",", "uuid")', "invalid destination label name in label_join(): d-x"),
]


@pytest.mark.parametrize("path", [INSTANT, RANGE])
@pytest.mark.parametrize("query, error", BAD_LABEL_ARGUMENTS)
def test_bad_label_function_argument_is_a_400_through_the_lb(query, error, path):
    stack = Stack()
    plain_lb = LoadBalancer([Backend(name="prom", app=stack.api.app)], AllowAll())
    params = {**GRID, "query": query} if path == RANGE else {"query": query, "time": 600}
    for door, app in {**stack.doors, "lb": plain_lb.app}.items():
        response = send(app, path, params, "GET")  # parent: re.error, or the LB's 502
        assert (response.status, response.decode_json()["error"]) == (400, error), door


class TestLimitsFollowThePlan:
    def test_subquery_grid_counts_against_max_resolved_steps(self):
        api = PromAPI(TSDB(), limits=QueryLimits(max_resolved_steps=1000))
        response = api.app.get("/api/v1/query?query=max_over_time(m[1000000d:1s])&time=0")
        assert response.status == 422  # parent: walks 8.6e10 inner steps
        payload = response.decode_json()
        assert payload["limit"] == "max_resolved_steps" and payload["max"] == 1000
        assert payload["actual"] == 1000000 * 86400 + 1
        assert api.app.get("/api/v1/query?query=max_over_time(m[15m:1s])&time=0").status == 200

    def test_backend_applies_its_own_limits_to_a_plan_built_without_them(self):
        """An LB with no frontend knows no limits; the plan it forwards
        is still held to the backend's."""
        api = PromAPI(TSDB(), limits=QueryLimits(max_range_seconds=600.0))
        lb = LoadBalancer([Backend(name="prom", app=api.app)], AllowAll())
        wide = {"query": "m", "start": 0, "end": 3600, "step": 60}
        via, direct = (send(app, RANGE, wide, "GET") for app in (lb.app, api.app))
        assert via.status == direct.status == 422 and via.body == direct.body


def test_plan_never_lands_on_the_callers_request():
    """A client may keep its request objects (the pipeline bench keeps
    every one until the run ends): the plan, AST included, travels on
    the hop's own upstream request."""
    stack = Stack()
    for app in stack.doors.values():
        request = Request.from_url("GET", f"{INSTANT}?query=m&time=60", headers=USER)
        assert app.handle(request).status == 200
        assert request.plan is None and "form" not in vars(request)


# -- (e) one upstream call in the LB -------------------------------------
def test_slow_queries_through_the_frontend_are_counted_and_logged():
    stack = Stack(slow_request_ms=0.0)
    response = send(stack.lb.app, INSTANT, {"query": SELECTOR, "time": 600}, "GET")
    assert response.status == 200
    assert response.headers["x-ceems-backend"] == stack.frontend.app.name
    assert stack.lb.slow_requests == 1  # parent: 0 — only the plain proxy path timed its call
    metrics = stack.lb.app.get("/metrics").body.decode()
    assert "ceems_lb_slow_requests_total 1" in metrics
    (record,) = [r for r in stack.lb.app.telemetry.log.records() if r.event == "slow proxied request"]
    assert record.fields["backend"] == stack.frontend.app.name


# -- (f) no import cycle --------------------------------------------------
@pytest.mark.parametrize(
    "module", ["repro.tsdb.http", "repro.frontend.server", "repro.lb.server", "repro.apiserver.api"]
)
def test_module_imports_in_a_fresh_interpreter(module):
    """pytest's own import order hid a ``tsdb.http`` ↔ ``apiserver``
    cycle: whichever test module came first had imported the package
    that breaks it."""
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={"PYTHONPATH": "src", "PATH": ""},
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr[-800:]
