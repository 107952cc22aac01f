"""PromQL engine benchmarks: query cost vs series count (E21).

How instant selectors, rate() and aggregations scale with the number
of matching series — the quantity the Jean-Zay deployment multiplies
by 1400.  The ``query_range`` rows are EXPERIMENTS.md's E21
("range-query cost per series at Jean-Zay width"): the fleet-panel
shapes at 100 / 1000 / 5000 series over a 41-step grid, a width the
17-node ``dash_*`` deployments of ``benchmarks/e2e`` never reach.

``PYTHONPATH=src python -m pytest benchmarks/bench_promql.py -q``
prints one timing row per test; ``-k range`` keeps the E21 rows.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np
import pytest

from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.storage import TSDB

SAMPLES_PER_SERIES = 120  # 30 min at 15 s


def make_db(nseries: int) -> TSDB:
    db = TSDB()
    for s in range(nseries):
        labels = Labels(
            {
                "__name__": "m",
                "uuid": str(s),
                "hostname": f"n{s % 100:03d}",
                "nodegroup": "intel-cpu",
            }
        )
        for i in range(SAMPLES_PER_SERIES):
            db.append(labels, i * 15.0, float(s + i))
    return db


AT = (SAMPLES_PER_SERIES - 1) * 15.0


@pytest.mark.parametrize("nseries", [100, 1000, 5000])
def test_instant_selector_scaling(benchmark, nseries):
    engine = PromQLEngine(make_db(nseries))
    result = benchmark(engine.query, "m", AT)
    assert len(result.vector) == nseries


@pytest.mark.parametrize("nseries", [100, 1000, 5000])
def test_rate_scaling(benchmark, nseries):
    engine = PromQLEngine(make_db(nseries))
    result = benchmark(engine.query, "rate(m[2m])", AT)
    assert len(result.vector) == nseries


@pytest.mark.parametrize("nseries", [100, 1000, 5000])
def test_sum_by_scaling(benchmark, nseries):
    engine = PromQLEngine(make_db(nseries))
    result = benchmark(engine.query, "sum by (hostname) (rate(m[2m]))", AT)
    assert len(result.vector) == min(nseries, 100)


def test_indexed_selection_beats_scan(benchmark):
    """The inverted label index: selecting 1 of 5000 series is O(1)-ish."""
    engine = PromQLEngine(make_db(5000))
    result = benchmark(engine.query, 'm{uuid="42"}', AT)
    assert len(result.vector) == 1
    # Timed here rather than read from ``benchmark.stats``, which
    # ``--benchmark-disable`` leaves unset: the mean of 200 calls.
    calls = 200
    t0 = time.perf_counter()
    for _ in range(calls):
        engine.query('m{uuid="42"}', AT)
    assert (time.perf_counter() - t0) / calls < 1e-3


def test_group_left_join_scaling(benchmark):
    """The Eq. (1) join shape at 1000 units over 100 hosts."""
    db = make_db(1000)
    for h in range(100):
        labels = Labels({"__name__": "node_m", "hostname": f"n{h:03d}", "nodegroup": "intel-cpu"})
        for i in range(SAMPLES_PER_SERIES):
            db.append(labels, i * 15.0, 500.0)
    engine = PromQLEngine(db)
    result = benchmark(
        engine.query, "m / on(hostname) group_left() node_m", AT
    )
    assert len(result.vector) == 1000


# -- E21: range queries at Jean-Zay width ------------------------------------

#: A 41-step grid over the last 10 minutes of the data, 15 s apart: a
#: Grafana panel's auto-refresh window.
RANGE_STEP = 15.0
RANGE_START = AT - 40 * RANGE_STEP

#: Upper bounds of the bucket histograms; 10 bucket series a histogram.
BUCKET_BOUNDS = ("0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "+Inf")

#: The fleet-panel shapes E21 times, by name.
RANGE_SHAPES = {
    "rate": "rate(m[2m])",
    "sum_by_rate": "sum by (hostname) (rate(m[2m]))",
    "max_by": "max by (hostname) (m)",
    "sum": "sum(m)",
    "histogram_quantile": "histogram_quantile(0.9, rate(h_bucket[5m]))",
}


@lru_cache(maxsize=None)
def make_range_db(nseries: int) -> TSDB:
    """``m`` as :func:`make_db`, plus ``nseries`` ``h_bucket`` series:
    ``nseries / 10`` histograms whose cumulative bucket counters grow
    at seeded random rates.  Built once per width; queries only read."""
    db = make_db(nseries)
    rng = np.random.default_rng(21)
    for h in range(nseries // len(BUCKET_BOUNDS)):
        increments = rng.poisson(5.0, size=(SAMPLES_PER_SERIES, len(BUCKET_BOUNDS)))
        cumulative = np.cumsum(np.cumsum(increments, axis=1), axis=0).astype(np.float64)
        for b, le in enumerate(BUCKET_BOUNDS):
            labels = Labels(
                {"__name__": "h_bucket", "histogram": str(h), "hostname": f"n{h % 100:03d}", "le": le}
            )
            for i in range(SAMPLES_PER_SERIES):
                db.append(labels, i * 15.0, float(cumulative[i, b]))
    return db


@pytest.mark.parametrize("shape", list(RANGE_SHAPES))
@pytest.mark.parametrize("nseries", [100, 1000, 5000])
def test_range_query_width(benchmark, nseries, shape):
    engine = PromQLEngine(make_range_db(nseries))
    result = benchmark(engine.query_range, RANGE_SHAPES[shape], RANGE_START, AT, RANGE_STEP)
    expected = {
        "rate": nseries,
        "sum_by_rate": min(nseries, 100),
        "max_by": min(nseries, 100),
        "sum": 1,
        "histogram_quantile": nseries // len(BUCKET_BOUNDS),
    }[shape]
    assert len(result.series) == expected
    assert all(len(ts) == 41 for ts, _vs in result.series.values())
