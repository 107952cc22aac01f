"""PromQL engine micro-benchmarks: query cost vs series count.

Not a paper table, but the foundation every other latency number
stands on: how instant selectors, rate() and aggregations scale with
the number of matching series — the quantity the Jean-Zay deployment
multiplies by 1400.
"""

from __future__ import annotations

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
    assert benchmark.stats.stats.mean < 1e-3


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
