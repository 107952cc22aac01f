"""Tests for the PromQL evaluation engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.storage import TSDB


def mk(name: str, **labels: str) -> Labels:
    return Labels({"__name__": name, **labels})


@pytest.fixture
def db() -> TSDB:
    """Counters and gauges for two jobs on one node, 15 s cadence."""
    db = TSDB()
    for i in range(101):
        t = i * 15.0
        db.append(mk("cpu_total", uuid="j1", instance="n1"), t, 0.9 * t)
        db.append(mk("cpu_total", uuid="j2", instance="n1"), t, 0.3 * t)
        db.append(mk("node_cpu", instance="n1"), t, 1.25 * t)
        db.append(mk("power", instance="n1"), t, 500.0)
        db.append(mk("power", instance="n2"), t, 300.0)
    return db


@pytest.fixture
def engine(db) -> PromQLEngine:
    return PromQLEngine(db)


class TestSelectors:
    def test_instant_selector(self, engine):
        result = engine.query("power", at=1500.0)
        assert {el.labels.get("instance"): el.value for el in result.vector} == {
            "n1": 500.0,
            "n2": 300.0,
        }

    def test_selector_keeps_metric_name(self, engine):
        result = engine.query("power", at=1500.0)
        assert all(el.labels.metric_name == "power" for el in result.vector)

    def test_label_filter(self, engine):
        result = engine.query('power{instance="n2"}', at=1500.0)
        assert len(result.vector) == 1 and result.vector[0].value == 300.0

    def test_lookback_window(self, engine):
        # samples end at t=1500; within 5m lookback they are visible
        assert len(engine.query("power", at=1500.0 + 299).vector) == 2
        assert len(engine.query("power", at=1500.0 + 301).vector) == 0

    def test_offset(self, engine):
        result = engine.query('cpu_total{uuid="j1"} offset 5m', at=1500.0)
        assert result.vector[0].value == pytest.approx(0.9 * 1200.0)

    def test_scalar_literal(self, engine):
        result = engine.query("42", at=0.0)
        assert result.is_scalar and result.scalar == 42.0

    def test_range_selector_alone_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.query("power[5m]", at=1500.0)


class TestRateFamily:
    def test_rate_of_linear_counter(self, engine):
        result = engine.query('rate(cpu_total{uuid="j1"}[5m])', at=1500.0)
        assert result.vector[0].value == pytest.approx(0.9, rel=1e-6)

    def test_rate_drops_metric_name(self, engine):
        result = engine.query('rate(cpu_total{uuid="j1"}[5m])', at=1500.0)
        assert result.vector[0].labels.metric_name == ""

    def test_increase_is_rate_times_range(self, engine):
        result = engine.query('increase(cpu_total{uuid="j1"}[5m])', at=1500.0)
        assert result.vector[0].value == pytest.approx(0.9 * 300.0, rel=1e-6)

    def test_rate_handles_counter_reset(self):
        db = TSDB()
        labels = mk("c")
        values = [0, 100, 200, 50, 150]  # reset after 200
        for i, v in enumerate(values):
            db.append(labels, i * 15.0, float(v))
        engine = PromQLEngine(db)
        result = engine.query("increase(c[1m])", at=60.0)
        # true increase: 200 + 150 = 350 over 60s window (extrapolated)
        assert result.vector[0].value == pytest.approx(350.0, rel=0.15)

    def test_irate_uses_last_two_samples(self, engine):
        result = engine.query('irate(cpu_total{uuid="j2"}[5m])', at=1500.0)
        assert result.vector[0].value == pytest.approx(0.3, rel=1e-6)

    def test_rate_needs_two_samples(self):
        db = TSDB()
        db.append(mk("c"), 0.0, 1.0)
        engine = PromQLEngine(db)
        assert engine.query("rate(c[5m])", at=0.0).vector == []

    def test_delta_on_gauge(self):
        db = TSDB()
        labels = mk("g")
        for i in range(11):
            db.append(labels, i * 10.0, 100.0 - i * 5.0)
        engine = PromQLEngine(db)
        result = engine.query("delta(g[100s])", at=100.0)
        assert result.vector[0].value == pytest.approx(-50.0, rel=0.1)

    def test_deriv_least_squares(self):
        db = TSDB()
        labels = mk("g")
        for i in range(11):
            db.append(labels, i * 10.0, 3.0 * (i * 10.0) + 7)
        engine = PromQLEngine(db)
        result = engine.query("deriv(g[100s])", at=100.0)
        assert result.vector[0].value == pytest.approx(3.0, rel=1e-9)

    def test_changes_and_resets(self):
        db = TSDB()
        labels = mk("c")
        for i, v in enumerate([1, 1, 2, 0, 5]):
            db.append(labels, i * 10.0, float(v))
        engine = PromQLEngine(db)
        assert engine.query("changes(c[1m])", at=40.0).vector[0].value == 3.0
        assert engine.query("resets(c[1m])", at=40.0).vector[0].value == 1.0


class TestOverTime:
    def setup_method(self):
        self.db = TSDB()
        labels = mk("g")
        for i, v in enumerate([1.0, 5.0, 3.0, 9.0, 2.0]):
            self.db.append(labels, i * 10.0, v)
        self.engine = PromQLEngine(self.db)

    def test_avg_over_time(self):
        assert self.engine.query("avg_over_time(g[1m])", at=40.0).vector[0].value == 4.0

    def test_minmax_over_time(self):
        assert self.engine.query("min_over_time(g[1m])", at=40.0).vector[0].value == 1.0
        assert self.engine.query("max_over_time(g[1m])", at=40.0).vector[0].value == 9.0

    def test_sum_count_last(self):
        assert self.engine.query("sum_over_time(g[1m])", at=40.0).vector[0].value == 20.0
        assert self.engine.query("count_over_time(g[1m])", at=40.0).vector[0].value == 5.0
        assert self.engine.query("last_over_time(g[1m])", at=40.0).vector[0].value == 2.0

    def test_quantile_over_time(self):
        result = self.engine.query("quantile_over_time(0.5, g[1m])", at=40.0)
        assert result.vector[0].value == 3.0

    def test_stddev_over_time(self):
        result = self.engine.query("stddev_over_time(g[1m])", at=40.0)
        assert result.vector[0].value == pytest.approx(np.std([1, 5, 3, 9, 2]))

    def test_present_over_time(self):
        assert self.engine.query("present_over_time(g[1m])", at=40.0).vector[0].value == 1.0


class TestAggregations:
    def test_sum(self, engine):
        result = engine.query("sum(power)", at=1500.0)
        assert result.vector[0].value == 800.0
        assert result.vector[0].labels == Labels()

    def test_sum_by(self, engine):
        result = engine.query("sum by (instance) (power)", at=1500.0)
        assert {el.labels.get("instance"): el.value for el in result.vector} == {
            "n1": 500.0,
            "n2": 300.0,
        }

    def test_avg_min_max_count(self, engine):
        assert engine.query("avg(power)", at=1500.0).vector[0].value == 400.0
        assert engine.query("min(power)", at=1500.0).vector[0].value == 300.0
        assert engine.query("max(power)", at=1500.0).vector[0].value == 500.0
        assert engine.query("count(power)", at=1500.0).vector[0].value == 2.0

    def test_without(self, engine):
        result = engine.query("sum without (uuid) (cpu_total)", at=1500.0)
        assert len(result.vector) == 1
        assert result.vector[0].labels.get("instance") == "n1"
        assert result.vector[0].value == pytest.approx(1.2 * 1500.0)

    def test_topk(self, engine):
        result = engine.query("topk(1, power)", at=1500.0)
        assert len(result.vector) == 1
        assert result.vector[0].labels.get("instance") == "n1"

    def test_bottomk(self, engine):
        result = engine.query("bottomk(1, power)", at=1500.0)
        assert result.vector[0].labels.get("instance") == "n2"

    def test_quantile(self, engine):
        result = engine.query("quantile(0.5, power)", at=1500.0)
        assert result.vector[0].value == 400.0

    def test_stddev(self, engine):
        result = engine.query("stddev(power)", at=1500.0)
        assert result.vector[0].value == pytest.approx(100.0)


class TestBinaryOps:
    def test_vector_scalar_arithmetic(self, engine):
        result = engine.query("power * 2", at=1500.0)
        assert sorted(el.value for el in result.vector) == [600.0, 1000.0]

    def test_scalar_vector(self, engine):
        result = engine.query("1000 - power", at=1500.0)
        assert sorted(el.value for el in result.vector) == [500.0, 700.0]

    def test_arithmetic_drops_name(self, engine):
        result = engine.query("power + 0", at=1500.0)
        assert all(el.labels.metric_name == "" for el in result.vector)

    def test_one_to_one_matching(self, engine):
        result = engine.query(
            'cpu_total{uuid="j1"} / ignoring(uuid) node_cpu', at=1500.0
        )
        assert result.vector[0].value == pytest.approx(0.9 / 1.25)

    def test_on_matching_keeps_only_on_labels(self, engine):
        result = engine.query('cpu_total{uuid="j1"} / on(instance) node_cpu', at=1500.0)
        assert result.vector[0].labels == Labels({"instance": "n1"})

    def test_group_left_many_to_one(self, engine):
        result = engine.query("cpu_total / on(instance) group_left() node_cpu", at=1500.0)
        values = {el.labels.get("uuid"): el.value for el in result.vector}
        assert values["j1"] == pytest.approx(0.72)
        assert values["j2"] == pytest.approx(0.24)

    def test_group_right_mirrors_group_left(self, engine):
        result = engine.query("node_cpu * on(instance) group_right() cpu_total", at=1500.0)
        values = {el.labels.get("uuid"): el.value for el in result.vector}
        assert values["j1"] == pytest.approx(1.25 * 1500 * 0.9 * 1500)

    def test_group_left_include_copies_label(self):
        db = TSDB()
        db.append(mk("child", instance="n1", uuid="j"), 0.0, 2.0)
        db.append(mk("parent", instance="n1", role="gpu"), 0.0, 3.0)
        engine = PromQLEngine(db)
        result = engine.query("child * on(instance) group_left(role) parent", at=0.0)
        assert result.vector[0].labels.get("role") == "gpu"
        assert result.vector[0].value == 6.0

    def test_many_to_many_rejected(self, engine):
        with pytest.raises(QueryError, match="many-to-many"):
            engine.query("cpu_total + on(instance) cpu_total", at=1500.0)

    def test_unmatched_elements_dropped(self, engine):
        result = engine.query('power * on(instance) node_cpu', at=1500.0)
        assert len(result.vector) == 1  # n2 has no node_cpu

    def test_comparison_filters(self, engine):
        result = engine.query("power > 400", at=1500.0)
        assert len(result.vector) == 1
        assert result.vector[0].labels.metric_name == "power"  # name kept
        assert result.vector[0].value == 500.0

    def test_comparison_bool(self, engine):
        result = engine.query("power > bool 400", at=1500.0)
        values = {el.labels.get("instance"): el.value for el in result.vector}
        assert values == {"n1": 1.0, "n2": 0.0}

    def test_scalar_comparison_requires_bool(self, engine):
        with pytest.raises(QueryError):
            engine.query("1 > 2", at=0.0)
        assert engine.query("1 > bool 2", at=0.0).scalar == 0.0

    def test_division_by_zero_vector(self):
        db = TSDB()
        db.append(mk("a"), 0.0, 1.0)
        db.append(mk("z"), 0.0, 0.0)
        engine = PromQLEngine(db)
        result = engine.query("a / ignoring() z", at=0.0)
        assert math.isinf(result.vector[0].value)

    def test_and_or_unless(self, engine):
        both = engine.query("power and power", at=1500.0)
        assert len(both.vector) == 2
        neither = engine.query("power unless power", at=1500.0)
        assert neither.vector == []
        merged = engine.query('power{instance="n1"} or power', at=1500.0)
        assert len(merged.vector) == 2

    def test_unary_minus_on_vector(self, engine):
        result = engine.query("-power", at=1500.0)
        assert sorted(el.value for el in result.vector) == [-500.0, -300.0]

    @pytest.mark.parametrize(
        "query, value",
        [
            ("-2 ^ 2", -4.0),  # parent: 4 — the sign was folded into the base
            ("-(2) ^ 2", -4.0),  # parent: 4
            ("(-2) ^ 2", 4.0),
            ("--2 ^ 2", 4.0),
            ("1 - -2 ^ 2", 5.0),
            ("2 ^ -1", 0.5),
            ("2 ^ -1 ^ 2", 0.5),
            ("-2 * 3", -6.0),
            ("-2 % 3 * 4", -8.0),
            ("2 ^ 3 ^ 2", 512.0),
        ],
    )
    def test_unary_minus_binds_looser_than_power(self, engine, query, value):
        """Prometheus: ``unary_expr: unary_op expr %prec MUL``, ``^`` above it."""
        assert engine.query(query, at=0.0).scalar == value
        ((_ts, vs),) = engine.query_range(query, 0.0, 30.0, 15.0).series.values()
        assert vs.tolist() == [value] * 3

    def test_negated_vector_is_squared_before_the_sign(self, engine):
        """parent: ``-x ^ 2`` squared the negated vector (+250000, +90000)."""
        result = engine.query("-power ^ 2", at=1500.0)
        assert sorted(el.value for el in result.vector) == [-250000.0, -90000.0]
        ranged = engine.query_range("-power ^ 2", 1470.0, 1500.0, 15.0)
        assert sorted(vs.tolist() for _ts, vs in ranged.series.values()) == [[-250000.0] * 3, [-90000.0] * 3]
        kept = engine.query("(-power) ^ 2", at=1500.0)
        assert sorted(el.value for el in kept.vector) == [90000.0, 250000.0]


class TestFunctions:
    def test_clamp_family(self, engine):
        result = engine.query("clamp_max(power, 400)", at=1500.0)
        assert sorted(el.value for el in result.vector) == [300.0, 400.0]
        result = engine.query("clamp(power, 350, 450)", at=1500.0)
        assert sorted(el.value for el in result.vector) == [350.0, 450.0]

    def test_math_functions(self, engine):
        result = engine.query("sqrt(power)", at=1500.0)
        assert sorted(el.value for el in result.vector) == pytest.approx(
            [math.sqrt(300), math.sqrt(500)]
        )

    def test_scalar_and_vector_conversion(self, engine):
        assert engine.query('scalar(power{instance="n1"})', at=1500.0).scalar == 500.0
        assert math.isnan(engine.query("scalar(power)", at=1500.0).scalar)  # 2 series
        result = engine.query("vector(7)", at=0.0)
        assert result.vector[0].value == 7.0

    def test_time(self, engine):
        assert engine.query("time()", at=123.0).scalar == 123.0

    def test_absent(self, engine):
        assert engine.query("absent(power)", at=1500.0).vector == []
        result = engine.query('absent(missing_metric{uuid="9"})', at=1500.0)
        assert result.vector[0].value == 1.0
        assert result.vector[0].labels.get("uuid") == "9"

    def test_sort(self, engine):
        values = [el.value for el in engine.query("sort(power)", at=1500.0).vector]
        assert values == [300.0, 500.0]
        values = [el.value for el in engine.query("sort_desc(power)", at=1500.0).vector]
        assert values == [500.0, 300.0]

    def test_label_replace(self, engine):
        result = engine.query(
            'label_replace(power, "host", "$1", "instance", "(n.)")', at=1500.0
        )
        hosts = {el.labels.get("host") for el in result.vector}
        assert hosts == {"n1", "n2"}

    def test_label_replace_no_match_keeps_element(self, engine):
        result = engine.query(
            'label_replace(power, "host", "$1", "instance", "(zzz)")', at=1500.0
        )
        assert len(result.vector) == 2
        assert all("host" not in el.labels for el in result.vector)

    def test_label_join(self, engine):
        result = engine.query(
            'label_join(power, "combined", "-", "instance", "__name__")', at=1500.0
        )
        combined = {el.labels.get("combined") for el in result.vector}
        assert combined == {"n1-power", "n2-power"}

    def test_round(self, engine):
        result = engine.query("round(power / 7, 0.1)", at=1500.0)
        for el in result.vector:
            assert el.value == pytest.approx(round(el.value, 1))


@pytest.fixture
def pair_engine() -> PromQLEngine:
    """``m{grp="a", idx="0"} = 1`` and ``m{grp="a", idx="1"} = 2`` at 0, 15 and 30 s."""
    db = TSDB()
    for t in (0.0, 15.0, 30.0):
        db.append(mk("m", grp="a", idx="0"), t, 1.0)
        db.append(mk("m", grp="a", idx="1"), t, 2.0)
    return PromQLEngine(db)


def both_evaluators(engine: PromQLEngine, query: str) -> tuple[dict, dict]:
    """The walk's answer at 30 s and the columnar one over 0–30 s."""
    walk = engine.query(query, at=30.0).by_labels()
    grid = {labels: vs.tolist() for labels, (_ts, vs) in engine.query_range(query, 0.0, 30.0, 15.0).series.items()}
    return walk, grid


class TestPrometheusLabelRules:
    """Hand-computed answers of both evaluators where a label ends up
    empty: an empty label value is an absent label."""

    @pytest.mark.parametrize(
        "query, expected",
        [
            # parent: dst="" on every element, and a {dst=""} group
            ('label_join(m, "dst", ",", "nope")', {mk("m", grp="a", idx="0"): 1.0, mk("m", grp="a", idx="1"): 2.0}),
            ('sum by (dst) (label_join(m, "dst", ",", "nope"))', {Labels(): 3.0}),
            ('label_join(m, "grp", "", "nope", "nope")', {mk("m", idx="0"): 1.0, mk("m", idx="1"): 2.0}),
        ],
    )
    def test_empty_joined_value_deletes_dst(self, pair_engine, query, expected):
        walk, grid = both_evaluators(pair_engine, query)
        assert walk == expected
        assert grid == {labels: [value] * 3 for labels, value in expected.items()}

    @pytest.mark.parametrize(
        "query, expected",
        [
            ('absent(nope{job=""})', Labels()),  # parent: {job=""}
            ('absent(nope{job="a", job="b"})', Labels()),  # parent: {job="b"}
            ('absent(nope{job="a", job!="b", env="x"})', Labels({"env": "x"})),  # parent: job="a" too
        ],
    )
    def test_absent_labels_follow_prometheus(self, pair_engine, query, expected):
        walk, grid = both_evaluators(pair_engine, query)
        assert walk == {expected: 1.0}
        assert grid == {expected: [1.0, 1.0, 1.0]}


class TestRangeQueries:
    def test_range_of_gauge(self, engine):
        result = engine.query_range("power", 0.0, 150.0, 15.0)
        assert len(result.series) == 2
        for _labels, (ts, vs) in result.series.items():
            assert len(ts) == 11

    def test_range_of_expression(self, engine):
        result = engine.query_range("sum(power)", 0.0, 60.0, 30.0)
        (_labels, (ts, vs)), = result.series.items()
        assert vs.tolist() == [800.0, 800.0, 800.0]

    def test_range_of_scalar(self, engine):
        result = engine.query_range("1 + 1", 0.0, 30.0, 15.0)
        (_labels, (ts, vs)), = result.series.items()
        assert vs.tolist() == [2.0, 2.0, 2.0]

    def test_bad_step_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.query_range("power", 0.0, 100.0, 0.0)
        with pytest.raises(QueryError):
            engine.query_range("power", 100.0, 0.0, 10.0)

    def test_timestamps_are_aligned(self, engine):
        result = engine.query_range("power", 0.0, 45.0, 15.0)
        for _labels, (ts, _vs) in result.series.items():
            assert ts.tolist() == [0.0, 15.0, 30.0, 45.0]


class TestStaleness:
    def test_stale_marker_ends_series_in_instant_queries(self):
        db = TSDB()
        labels = mk("m", uuid="gone")
        db.append(labels, 0.0, 5.0)
        db.append(labels, 15.0, 5.0)
        db.append(labels, 30.0, math.nan)  # stale
        engine = PromQLEngine(db)
        assert len(engine.query("m", at=20.0).vector) == 1
        assert engine.query("m", at=35.0).vector == []

    def test_rate_ignores_stale_markers(self):
        db = TSDB()
        labels = mk("c")
        for i in range(5):
            db.append(labels, i * 15.0, i * 10.0)
        db.append(labels, 75.0, math.nan)
        engine = PromQLEngine(db)
        result = engine.query("rate(c[2m])", at=75.0)
        # Window [-45, 75] holds samples 0..40 at t=0..60 (NaN dropped).
        # Counter starts at 0, so the zero-point rule forbids start
        # extrapolation; end gap (15 s) is fully extrapolated:
        # delta 40 * (60+0+15)/60 = 50 over the 120 s window.
        assert result.vector[0].value == pytest.approx(50.0 / 120.0, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=30
    )
)
def test_aggregation_consistency_property(values):
    """sum/avg/count over a vector agree with numpy on the same data."""
    db = TSDB()
    for i, v in enumerate(values):
        db.append(mk("m", series=str(i)), 0.0, v)
    engine = PromQLEngine(db)
    assert engine.query("sum(m)", at=0.0).vector[0].value == pytest.approx(sum(values), rel=1e-9, abs=1e-6)
    assert engine.query("avg(m)", at=0.0).vector[0].value == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
    assert engine.query("count(m)", at=0.0).vector[0].value == len(values)
    assert engine.query("max(m)", at=0.0).vector[0].value == max(values)
    assert engine.query("min(m)", at=0.0).vector[0].value == min(values)
