"""Tests for PromQL subqueries (``expr[range:step]``)."""

import pytest

from repro.common.errors import QueryError
from repro.lb import extract_uuids
from repro.tsdb.model import Labels
from repro.tsdb.promql.ast import Subquery
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.promql.parser import parse_expr
from repro.tsdb.storage import TSDB
from tests.reference.promql import ElementWalkEngine


def mk(name: str, **labels: str) -> Labels:
    return Labels({"__name__": name, **labels})


@pytest.fixture
def db() -> TSDB:
    """A counter with a rate step: 1/s until t=600, then 5/s."""
    db = TSDB()
    labels = mk("c", uuid="1")
    value = 0.0
    for i in range(0, 1201, 15):
        rate = 1.0 if i <= 600 else 5.0
        if i:
            value += rate * 15.0
        db.append(labels, float(i), value)
        db.append(mk("g"), float(i), float(i % 100))
    return db


class TestParsing:
    def test_subquery_on_expression(self):
        ast = parse_expr("max_over_time(rate(c[2m])[10m:30s])")
        inner = ast.args[0]
        assert isinstance(inner, Subquery)
        assert inner.range_seconds == 600.0
        assert inner.step_seconds == 30.0

    def test_default_step(self):
        ast = parse_expr("avg_over_time(g[10m:])")
        assert isinstance(ast.args[0], Subquery)
        assert ast.args[0].step_seconds == 60.0  # range/10

    def test_subquery_offset(self):
        ast = parse_expr("max_over_time(g[10m:1m] offset 5m)")
        assert ast.args[0].offset == 300.0

    def test_range_on_expression_still_rejected(self):
        with pytest.raises(QueryError):
            parse_expr("(a + b)[5m]")

    def test_bare_subquery_rejected_at_eval(self, db):
        engine = PromQLEngine(db)
        with pytest.raises(QueryError):
            engine.query("g[5m:1m]", at=600.0)

    def test_recording_rule_names_still_parse(self):
        """Removing ':' from ident-start must not break rule names."""
        ast = parse_expr("ceems:compute_unit:power_watts")
        assert ast.name == "ceems:compute_unit:power_watts"


class TestEvaluation:
    def test_max_over_time_of_rate_catches_peak(self, db):
        """The canonical use: peak rate over a long window."""
        engine = PromQLEngine(db)
        result = engine.query("max_over_time(rate(c[2m])[15m:30s])", at=1200.0)
        assert result.vector[0].value == pytest.approx(5.0, rel=0.05)
        # while the plain rate over the full window sees the average
        flat = engine.query("rate(c[15m])", at=1200.0)
        assert flat.vector[0].value < 4.0

    def test_min_over_time_of_rate(self, db):
        engine = PromQLEngine(db)
        result = engine.query("min_over_time(rate(c[2m])[15m:30s])", at=1200.0)
        assert result.vector[0].value == pytest.approx(1.0, rel=0.05)

    def test_subquery_of_scalar_expression(self, db):
        engine = PromQLEngine(db)
        result = engine.query("avg_over_time(vector(3)[5m:1m])", at=600.0)
        assert result.vector[0].value == pytest.approx(3.0)

    def test_step_alignment_stable(self, db):
        """Aligned steps: eval times within the same step bucket see
        identical inner points (Prometheus absolute-step alignment)."""
        engine = PromQLEngine(db)
        # [421, 601] and [459, 639] both contain steps 480..600
        a = engine.query("sum_over_time(g[3m:1m])", at=601.0).vector[0].value
        b = engine.query("sum_over_time(g[3m:1m])", at=639.0).vector[0].value
        assert a == b

    def test_labels_flow_through(self, db):
        engine = PromQLEngine(db)
        result = engine.query("max_over_time(rate(c[2m])[10m:1m])", at=1200.0)
        assert result.vector[0].labels.get("uuid") == "1"

    def test_quantile_over_time_subquery(self, db):
        engine = PromQLEngine(db)
        result = engine.query("quantile_over_time(0.5, rate(c[2m])[15m:30s])", at=1200.0)
        assert 1.0 <= result.vector[0].value <= 5.0


class TestOneSelectPerSubquery:
    """The dashboard's peak-power panel (``ceems-fig2c``) is the one
    subquery the stack ships: 288 inner steps.  The walk asks the
    columnar evaluator for the whole inner grid, so the storage is
    selected once — not once per inner step."""

    QUERY = 'max_over_time((sum by (uuid) (m{uuid="1"}))[24h:5m])'

    class CountingStorage:
        def __init__(self, db):
            self.db, self.selects = db, 0

        def select(self, matchers):
            self.selects += 1
            return self.db.select(matchers)

    @pytest.fixture
    def day(self) -> TSDB:
        db = TSDB()
        rng_values = [100.0 + (i * 37) % 91 for i in range(2 * 24 * 60)]
        for host in ("a", "b"):
            for i, v in enumerate(rng_values):
                db.append(mk("m", uuid="1", hostname=host), 60.0 * i, v + (host == "b"))
        return db

    def test_one_select_and_oracle_identical(self, day):
        at = 2 * 86400.0 - 600.0
        storage = self.CountingStorage(day)
        got = PromQLEngine(storage).query(self.QUERY, at)
        assert storage.selects == 1
        oracle_storage = self.CountingStorage(day)
        ref = ElementWalkEngine(oracle_storage).query(self.QUERY, at)
        assert oracle_storage.selects == 289  # [at - 24h, at] holds 289 grid points
        assert [(el.labels, repr(el.value)) for el in got.vector] == [
            (el.labels, repr(el.value)) for el in ref.vector
        ]
        assert len(got.vector) == 1 and got.vector[0].labels.get("uuid") == "1"

    def test_walk_does_not_count_as_a_range_query(self, day):
        """The borrowed window code is not a range query: an instant
        with a subquery must not mint the ``kind="range"`` series of
        ``ceems_promql_eval_queries_total`` on a backend that served
        only instants."""
        engine = PromQLEngine(day)
        engine.query(self.QUERY, 86400.0)
        assert engine.eval_queries == {"instant": 1, "range": 0}


class TestLBIntrospection:
    def test_uuid_found_inside_subquery(self):
        scope = extract_uuids('max_over_time(rate(c{uuid="42"}[2m])[30m:1m])')
        assert scope.uuids == {"42"} and not scope.unbounded
