"""Element functions and operators answer as Prometheus does at IEEE edges.

A square root of a negative, a division by zero, an ``exp`` overflow or
a negative base to a fractional power is a value — NaN or ±Inf — never
an error: at a PromAPI, through the load balancer (with and without the
query frontend) and in a recording rule, whose output series must read
back.  ``round`` rounds half up and ``sgn(NaN)`` is NaN.  The walk and
the grid agree on these byte for byte (``IEEE_QUERIES`` runs in the
differential of ``tests/test_promql_reference.py``).
"""

from __future__ import annotations

import math
import urllib.parse

import numpy as np
import pytest

from repro.frontend import QueryFrontend
from repro.lb.server import LoadBalancer
from repro.lb.strategies import Backend
from repro.tsdb.http import PromAPI
from repro.tsdb.model import Labels, Matcher, MatchOp
from repro.tsdb.rules import RecordingRule, RuleGroup
from repro.tsdb.storage import TSDB
from tests.test_promql_reference import IEEE_QUERIES

ADMIN = {"x-grafana-user": "admin"}
#: The series the table's expected values are for, by their ``v`` label.
SERIES = {"zero": 0.0, "neg": -4.0}


class _AllowAll:
    def allowed(self, user, uuids, unbounded=False):
        return True


def _db() -> TSDB:
    db = TSDB()
    for t in range(0, 165, 15):
        for v, value in SERIES.items():
            db.append(Labels({"__name__": "m", "v": v}), float(t), value)
    return db


def _apps():
    api = PromAPI(_db())
    backends = [Backend(name="prom", app=api.app)]
    return {
        "promapi": api.app,
        "lb": LoadBalancer(backends, _AllowAll()).app,
        "lb+frontend": LoadBalancer(backends, _AllowAll(), frontend=QueryFrontend(backends)).app,
    }


def _check(text: str, expected: float) -> None:
    """``text`` is Prometheus's rendering of ``expected``."""
    if math.isnan(expected):
        assert text == "NaN"
    elif math.isinf(expected):
        assert text == ("+Inf" if expected > 0 else "-Inf")
    else:
        assert float(text) == expected and math.copysign(1, float(text)) == math.copysign(1, expected)


@pytest.fixture(scope="module")
def apps():
    return _apps()


@pytest.mark.parametrize("door", ["promapi", "lb", "lb+frontend"])
@pytest.mark.parametrize("query", sorted(IEEE_QUERIES))
def test_http_answers_are_prometheus_values(apps, door, query):
    """parent: 400s (``math domain error``), an escaped ``OverflowError``
    (a 502 through the LB) and a complex-number string."""
    quoted = urllib.parse.quote(query)
    expected = dict(zip(SERIES, IEEE_QUERIES[query]))
    instant = apps[door].get(f"/api/v1/query?query={quoted}&time=150", headers=ADMIN)
    assert instant.status == 200, instant.body
    result = instant.decode_json()["data"]["result"]
    assert sorted(el["metric"]["v"] for el in result) == sorted(SERIES)
    for el in result:
        _check(el["value"][1], expected[el["metric"]["v"]])
    ranged = apps[door].get(f"/api/v1/query_range?query={quoted}&start=120&end=150&step=15", headers=ADMIN)
    assert ranged.status == 200, ranged.body
    result = ranged.decode_json()["data"]["result"]
    assert sorted(el["metric"]["v"] for el in result) == sorted(SERIES)
    for el in result:
        assert [t for t, _text in el["values"]] == [120, 135, 150]
        for _t, text in el["values"]:
            _check(text, expected[el["metric"]["v"]])


def test_a_recording_rule_records_nan_and_inf_and_reads_back():
    """parent: ``sqrt`` and ``exp`` escaped ``RuleGroup.evaluate``, and
    ``^`` staged a complex number the series' next read raised on."""
    db = _db()
    rules = {"r_sqrt": "sqrt(m)", "r_exp": "exp(-m * 1000)", "r_pow": "m ^ 0.5"}
    group = RuleGroup(
        name="ieee", interval=15.0, rules=[RecordingRule(record=name, expr=expr) for name, expr in rules.items()]
    )
    assert group.evaluate(db, 150.0) == 2 * len(rules)
    assert group.last_error == "" and all(rule.last_error == "" for rule in group.rules)
    for name, expr in rules.items():
        (series,) = db.select([Matcher("__name__", MatchOp.EQ, name), Matcher("v", MatchOp.EQ, "neg")])
        ts, vs = series.arrays()
        assert ts.tolist() == [150.0]
        want = IEEE_QUERIES[expr][1]
        assert vs.dtype == np.float64 and (math.isnan(vs[0]) if math.isnan(want) else vs[0] == want), name
    # The next evaluation appends after what was recorded.
    assert group.evaluate(db, 165.0) == 2 * len(rules) and group.last_error == ""
