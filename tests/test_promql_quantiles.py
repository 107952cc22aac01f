"""Quantiles as Prometheus defines them, with hand-computed answers.

``quantile(q, v)`` and ``histogram_quantile`` each have three
implementations here — the instant walk, the columnar range evaluator
and the per-step oracle under ``tests/reference`` — and the
differential harness only proves they agree with each other.  These
tests pin them (and the shared ``histogram_bucket_quantile`` helper) to
numbers worked out by hand from Prometheus's ``quantile`` and
``bucketQuantile``:

* ``quantile`` with ``q < 0`` is ``-Inf``, with ``q > 1`` ``+Inf``, with
  a NaN ``q`` NaN — never the clamped extreme member, never an error;
* ``bucketQuantile`` coalesces buckets with the same bound (``le="1"``
  beside ``le="1.0"``, counts added) and raises a cumulative count
  that is below an earlier one to it before it searches for the rank.
"""

import math

import pytest

from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.promql.functions import histogram_bucket_quantile
from repro.tsdb.storage import TSDB
from tests.reference.promql import ElementWalkEngine, query_range_per_step

INF = math.inf


def _db(series: dict[tuple[tuple[str, str], ...], float]) -> TSDB:
    db = TSDB()
    for items, value in series.items():
        for t in (0.0, 15.0, 30.0):
            db.append(Labels(dict(items)), t, value)
    return db


def _instant(db: TSDB, query: str, at: float = 30.0) -> dict[Labels, float]:
    """The walk's and the oracle's answer at ``at``, which must agree."""
    engine = PromQLEngine(db)
    got = {el.labels: el.value for el in engine.query(query, at).vector}
    ref = {el.labels: el.value for el in ElementWalkEngine.like(engine).query(query, at).vector}
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in ref.items()}
    return got


def _range(db: TSDB, query: str) -> dict[Labels, list[float]]:
    """The columnar range answer over 0..30 s, equal to the oracle's."""
    engine = PromQLEngine(db)
    got = engine.query_range(query, 0.0, 30.0, 15.0)
    ref = query_range_per_step(engine, query, 0.0, 30.0, 15.0)
    out = {labels: vs.tolist() for labels, (_ts, vs) in got.series.items()}
    assert {k: repr(v) for k, v in out.items()} == {
        k: repr(vs.tolist()) for k, (_ts, vs) in ref.series.items()
    }
    return out


class TestBucketQuantileHelper:
    def test_equal_bounds_coalesce(self):
        # Counts 2, 3 + 5 = 8, 10 over bounds 0.5, 1, +Inf; rank
        # 0.5 * 10 = 5 falls in (0.5, 1]: 0.5 + 0.5 * (5 - 2) / (8 - 2).
        buckets = [(0.5, 2.0), (1.0, 3.0), (1.0, 5.0), (INF, 10.0)]
        assert histogram_bucket_quantile(0.5, buckets) == 0.75

    def test_decreasing_count_is_raised(self):
        # Counts forced to 4, 4, 8, 8; rank 0.75 * 8 = 6 falls in
        # (1, 2]: 1 + 1 * (6 - 4) / (8 - 4).
        buckets = [(0.5, 4.0), (1.0, 3.0), (2.0, 8.0), (INF, 8.0)]
        assert histogram_bucket_quantile(0.75, buckets) == 1.5

    def test_total_is_the_raised_inf_count(self):
        # +Inf's 8 is raised to 10; rank 0.5 * 10 = 5 in (0, 1]: 5 / 10.
        assert histogram_bucket_quantile(0.5, [(1.0, 10.0), (INF, 8.0)]) == 0.5

    def test_coalesced_to_one_bucket_is_nan(self):
        assert math.isnan(histogram_bucket_quantile(0.5, [(INF, 3.0), (INF, 4.0)]))


class TestHistogramQuantileQuery:
    def db(self) -> TSDB:
        # One histogram exposing its 1-second bucket twice ("1" and
        # "1.0"), the 0.5 bucket above the 1 bucket's first half.
        return _db(
            {
                (("__name__", "lat_bucket"), ("le", "0.5")): 2.0,
                (("__name__", "lat_bucket"), ("le", "1")): 3.0,
                (("__name__", "lat_bucket"), ("le", "1.0")): 5.0,
                (("__name__", "lat_bucket"), ("le", "+Inf")): 10.0,
            }
        )

    def test_walk_and_oracle(self):
        assert _instant(self.db(), "histogram_quantile(0.5, lat_bucket)") == {Labels(): 0.75}

    def test_columnar(self):
        assert _range(self.db(), "histogram_quantile(0.5, lat_bucket)") == {
            Labels(): [0.75, 0.75, 0.75]
        }


class TestQuantileParameter:
    def db(self) -> TSDB:
        return _db(
            {
                (("__name__", "m"), ("i", "0")): 3.0,
                (("__name__", "m"), ("i", "1")): 1.0,
                (("__name__", "m"), ("i", "2")): 2.0,
            }
        )

    @pytest.mark.parametrize(
        ("q", "expected"),
        [("-0.5", -INF), ("1.5", INF), ("0.5", 2.0), ("0", 1.0), ("1", 3.0)],
    )
    def test_walk_columnar_and_oracle(self, q, expected):
        query = f"quantile({q}, m)"
        assert _instant(self.db(), query) == {Labels(): expected}
        assert _range(self.db(), query) == {Labels(): [expected] * 3}

    def test_nan_q_is_nan(self):
        query = "quantile(0 / 0, m)"
        (value,) = _instant(self.db(), query).values()
        assert math.isnan(value)
        (values,) = _range(self.db(), query).values()
        assert all(math.isnan(v) for v in values)

    def test_nan_q_over_time_is_nan(self):
        (value,) = _instant(self.db(), 'quantile_over_time(0 / 0, m{i="0"}[1m])').values()
        assert math.isnan(value)
