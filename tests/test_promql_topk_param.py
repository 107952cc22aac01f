"""``topk``/``bottomk`` refuse a ``k`` that no int64 holds, as Prometheus does.

A NaN, ±Inf or out-of-range parameter is Prometheus's error ``Scalar
value NaN overflows int64`` (``+Inf``, ``-Inf``, ``1e+19`` …, the value
as Go's ``%v`` writes it): a 400 at a PromAPI and through the load
balancer, for the instant and the range form alike, and a rule's
``last_error`` in a recording rule — never an escaped ``OverflowError``
or ``ValueError``, and never a range answer that quietly drops every
series.
"""

from __future__ import annotations

import urllib.parse

import pytest

from repro.common.errors import QueryError
from repro.frontend import QueryFrontend
from repro.lb.server import LoadBalancer
from repro.lb.strategies import Backend
from repro.tsdb.http import PromAPI
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.rules import RecordingRule, RuleGroup
from repro.tsdb.storage import TSDB

ADMIN = {"x-grafana-user": "admin"}

#: query -> the value its error names.
REFUSED = {
    "topk(1/0, m)": "+Inf",
    "bottomk(1/0, m)": "+Inf",
    "topk(-1/0, m)": "-Inf",
    "topk(0/0, m)": "NaN",
    "topk(scalar(vector(0)/0), m)": "NaN",
    "bottomk(scalar(vector(0)/0), m)": "NaN",
    "topk(1e19, m)": "1e+19",
    "bottomk(-9.3e18, m)": "-9.3e+18",
}

#: Parameters an int64 holds still answer (2**63 - 1024 is the largest).
ACCEPTED = {
    "topk(1, m)": ["b"],
    "bottomk(1.9, m)": ["a"],
    "topk(9223372036854774784, m)": ["a", "b"],
    "topk(-5, m)": [],
}


class _AllowAll:
    def allowed(self, user, uuids, unbounded=False):
        return True


def _db() -> TSDB:
    db = TSDB()
    for t in range(0, 165, 15):
        db.append(Labels({"__name__": "m", "i": "a"}), float(t), 1.0)
        db.append(Labels({"__name__": "m", "i": "b"}), float(t), 2.0)
    return db


@pytest.fixture(scope="module")
def apps():
    api = PromAPI(_db())
    backends = [Backend(name="prom", app=api.app)]
    return {
        "promapi": api.app,
        "lb": LoadBalancer(backends, _AllowAll()).app,
        "lb+frontend": LoadBalancer(backends, _AllowAll(), frontend=QueryFrontend(backends)).app,
    }


def _ask(app, query: str):
    quoted = urllib.parse.quote(query)
    instant = app.get(f"/api/v1/query?query={quoted}&time=150", headers=ADMIN)
    ranged = app.get(
        f"/api/v1/query_range?query={quoted}&start=120&end=150&step=15", headers=ADMIN
    )
    return instant, ranged


@pytest.mark.parametrize("door", ["promapi", "lb", "lb+frontend"])
@pytest.mark.parametrize("query", sorted(REFUSED))
def test_http_refuses_k_beyond_int64(apps, door, query):
    """parent: an escaped ``OverflowError`` for ``1/0`` (a 502 through
    the LB), ``int()``'s text for NaN, and 200s with an empty matrix
    from the range form."""
    want = {"status": "error", "error": f"Scalar value {REFUSED[query]} overflows int64"}
    for response in _ask(apps[door], query):
        assert response.status == 400, response.body
        assert response.decode_json() == want


@pytest.mark.parametrize("door", ["promapi", "lb"])
@pytest.mark.parametrize("query", sorted(ACCEPTED))
def test_http_accepts_k_an_int64_holds(apps, door, query):
    instant, ranged = _ask(apps[door], query)
    assert instant.status == 200 and ranged.status == 200, (instant.body, ranged.body)
    assert sorted(el["metric"]["i"] for el in instant.decode_json()["data"]["result"]) == ACCEPTED[query]
    assert sorted(el["metric"]["i"] for el in ranged.decode_json()["data"]["result"]) == ACCEPTED[query]


@pytest.mark.parametrize("query", sorted(REFUSED))
def test_walk_and_grid_raise_the_same_query_error(query):
    engine = PromQLEngine(_db())
    with pytest.raises(QueryError) as walk:
        engine.query(query, 150.0)
    with pytest.raises(QueryError) as grid:
        engine.query_range(query, 120.0, 150.0, 15.0)
    assert str(walk.value) == str(grid.value) == f"Scalar value {REFUSED[query]} overflows int64"


def test_recording_rule_reports_the_error_and_goes_on():
    """parent: both errors escaped ``RuleGroup.evaluate``."""
    db = _db()
    group = RuleGroup(
        name="k",
        interval=15.0,
        rules=[
            RecordingRule(record="r_inf", expr="topk(1/0, m)"),
            RecordingRule(record="r_nan", expr="bottomk(scalar(vector(0)/0), m)"),
            RecordingRule(record="r_ok", expr="topk(1, m)"),
        ],
    )
    assert group.evaluate(db, 150.0) == 1
    assert [rule.last_error for rule in group.rules] == [
        "Scalar value +Inf overflows int64",
        "Scalar value NaN overflows int64",
        "",
    ]
    assert group.last_error == "r_inf: Scalar value +Inf overflows int64"
