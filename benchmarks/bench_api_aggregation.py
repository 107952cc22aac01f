"""E8 — why the API server exists: long-range aggregates.

Paper §II.B.b: *"Although Prometheus is a highly performant TSDB, it
is not suitable to make queries that span a long duration.  An
example of such a query can be the total energy usage of a given user
or a project on a given cluster for all the workloads during the last
year."*

We materialise one year of recorded per-unit power (300 units, 20
users) at Thanos's 1-hour downsampled resolution, then answer the
same question three ways:

1. raw PromQL over the TSDB: a year-long ``sum_over_time`` range
   aggregation per query;
2. the same query over 5m-resolution data (more points — worse);
3. the CEEMS API server: one indexed SQLite rollup lookup.

The paper's claim reproduces as an orders-of-magnitude gap.

Both sides are timed the way a first page open pays for them.  The raw
path is a first evaluation: on a copy of the TSDB nothing has read yet,
with the parser's memo emptied (the median of five such copies).  The
API server remembers its answers until the database is written, so
every timed lookup follows a write made in the round's setup, outside
the timed call; the replayed answer (no write since) is printed on its
own line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import replayed_s
from repro.apiserver.api import APIServer
from repro.apiserver.db import Database
from repro.resourcemgr.base import ComputeUnit, UnitState
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.promql.parser import parse_expr
from repro.tsdb.storage import TSDB

YEAR = 365 * 86400.0
NUNITS = 300
NUSERS = 20
STEP_1H = 3600.0
USER_USAGE = "/api/v1/users/user000/usage"
ROUNDS = 200


def first_evaluation_s(tsdb: TSDB, query: str, at: float, copies: int = 5, flushed: bool = False) -> float:
    """Median seconds of the first evaluation of ``query``, each on a copy
    of ``tsdb`` no query has read (appends still staged, no selector
    memo) with the parser's memo emptied.  ``flushed``: the copy's
    staged appends are moved into its series' arrays first, so the
    timed evaluation pays for the query alone."""
    times = []
    for _ in range(copies):
        fresh = TSDB(name=tsdb.name)
        for series in tsdb.all_series():
            fresh.append_array(series.labels, *series.arrays())
        if flushed:
            for series in fresh.all_series():
                series.arrays()
        parse_expr.cache_clear()
        engine = PromQLEngine(fresh)
        started = time.perf_counter()
        engine.query(query, at)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def touch(db: Database):
    """A write that changes no row: the next API answer reads the DB."""
    return lambda: db.set_last_sync("jz", YEAR)


@pytest.fixture(scope="module")
def year_env():
    rng = np.random.default_rng(7)
    tsdb_1h = TSDB(name="thanos-1h")
    db = Database()
    units = []
    ts_grid = np.arange(0.0, YEAR, STEP_1H)
    user_energy: dict[str, float] = {}
    for i in range(NUNITS):
        uuid = str(2000 + i)
        user = f"user{i % NUSERS:03d}"
        start = float(rng.uniform(0, YEAR * 0.9))
        duration = float(rng.uniform(3600, 14 * 86400))
        end = min(start + duration, YEAR)
        power = float(rng.uniform(50, 800))
        labels = Labels({"__name__": "ceems:compute_unit:power_watts", "uuid": uuid, "user": user})
        window = ts_grid[(ts_grid >= start) & (ts_grid <= end)]
        for t in window:
            tsdb_1h.append(labels, float(t), power)
        energy = power * max(end - start, 0.0)
        user_energy[user] = user_energy.get(user, 0.0) + energy
        units.append(
            ComputeUnit(
                uuid=uuid, name=f"job-{uuid}", manager="slurm", cluster="jz",
                user=user, project=f"proj{i % 7}", created_at=start,
                started_at=start, ended_at=end, state=UnitState.COMPLETED,
                cpus=8, memory_bytes=2**33,
            )
        )
    db.upsert_units(units, now=YEAR)
    # fold the energy into unit records the way the updater does
    class U:
        def __init__(self, e):
            self.energy_joules = e
            self.emissions_g = e / 3.6e6 * 56
            self.avg_power_watts = 0.0
            self.avg_cpu_usage = 0.0
            self.avg_memory_bytes = 0.0
            self.peak_memory_bytes = 0.0
            self.avg_gpu_power_watts = 0.0

    per_unit = {}
    for i in range(NUNITS):
        uuid = str(2000 + i)
        series = tsdb_1h.select([__import__("repro.tsdb.model", fromlist=["Matcher"]).Matcher.eq("uuid", uuid)])
        total = sum(float(np.sum(np.asarray(s.values)) * STEP_1H) for s in series)
        per_unit[uuid] = U(total)
    db.add_unit_usage("jz", per_unit, now=YEAR)
    db.rebuild_usage_rollups("jz", now=YEAR)
    return {"tsdb_1h": tsdb_1h, "db": db, "user_energy": user_energy}


def test_raw_tsdb_year_query(benchmark, year_env):
    """PromQL over 1h-downsampled data: the 'fast' raw path."""
    engine = PromQLEngine(year_env["tsdb_1h"])
    query = 'sum by (user) (sum_over_time(ceems:compute_unit:power_watts{user="user000"}[366d])) * 3600'

    result = benchmark(engine.query, query, YEAR)

    energy = result.vector[0].value
    print(f"\n[E8] raw year query (1h resolution): user000 = {energy / 3.6e6:.1f} kWh")
    benchmark.extra_info["samples_scanned"] = year_env["tsdb_1h"].num_samples
    assert energy == pytest.approx(year_env["user_energy"]["user000"], rel=0.05)


def test_api_server_rollup_lookup(benchmark, year_env):
    """The CEEMS answer: one indexed read of the usage table."""
    api = APIServer(year_env["db"])

    def lookup():
        response = api.app.get(USER_USAGE, headers={"x-grafana-user": "user000"})
        return sum(r["total_energy_joules"] for r in response.decode_json()["data"])

    energy = benchmark.pedantic(lookup, setup=touch(year_env["db"]), rounds=ROUNDS)
    print(f"\n[E8] API-server rollup lookup: user000 = {energy / 3.6e6:.1f} kWh")
    assert energy == pytest.approx(year_env["user_energy"]["user000"], rel=0.05)


@pytest.fixture(scope="module")
def year_5m(year_env):
    """One user's units re-materialised at Thanos 5m resolution.

    The realistic raw path: CEEMS series carry no ``user`` label (the
    unit→user mapping lives only in the API server's DB), so a raw
    per-user query must enumerate the user's uuids in a regex matcher
    and scan twelve times more points than the 1h resolution.
    """
    tsdb_5m = TSDB(name="thanos-5m")
    uuids = []
    for series in year_env["tsdb_1h"].all_series():
        if series.labels.get("user") != "user000":
            continue
        uuids.append(series.labels.get("uuid"))
        labels = series.labels.drop("user")
        ts = np.asarray(series.timestamps)
        vs = np.asarray(series.values)
        for t, v in zip(ts.tolist(), vs.tolist()):
            for sub in range(12):
                tsdb_5m.append(labels, t + sub * 300.0, v)
    return {"tsdb": tsdb_5m, "uuids": uuids}


def test_raw_tsdb_year_query_5m(benchmark, year_env, year_5m):
    """The realistic raw path: uuid-regex over 5m-resolution data."""
    engine = PromQLEngine(year_5m["tsdb"])
    selector = "|".join(year_5m["uuids"])
    query = (
        f'sum(sum_over_time(ceems:compute_unit:power_watts{{uuid=~"{selector}"}}[367d])) * 300'
    )

    result = benchmark(engine.query, query, YEAR + 3600.0)

    energy = result.vector[0].value
    print(f"\n[E8] raw year query (5m resolution, uuid regex): "
          f"user000 = {energy / 3.6e6:.1f} kWh over "
          f"{year_5m['tsdb'].num_samples} samples")
    benchmark.extra_info["samples_scanned"] = year_5m["tsdb"].num_samples
    assert energy == pytest.approx(year_env["user_energy"]["user000"], rel=0.05)


def test_speedup_summary(benchmark, year_env, year_5m):
    """Head-to-head: identical answers, orders-of-magnitude apart."""
    api = APIServer(year_env["db"])
    selector = "|".join(year_5m["uuids"])

    raw_5m_s = first_evaluation_s(
        year_5m["tsdb"],
        f'sum(sum_over_time(ceems:compute_unit:power_watts{{uuid=~"{selector}"}}[367d])) * 300',
        YEAR + 3600.0,
    )
    raw_5m_flushed_s = first_evaluation_s(
        year_5m["tsdb"],
        f'sum(sum_over_time(ceems:compute_unit:power_watts{{uuid=~"{selector}"}}[367d])) * 300',
        YEAR + 3600.0,
        flushed=True,
    )
    raw_1h_s = first_evaluation_s(
        year_env["tsdb_1h"],
        'sum(sum_over_time(ceems:compute_unit:power_watts{user="user000"}[366d])) * 3600',
        YEAR,
    )

    def lookup():
        return api.app.get(USER_USAGE, headers={"x-grafana-user": "user000"})

    benchmark.pedantic(lookup, setup=touch(year_env["db"]), rounds=ROUNDS)
    api_s = benchmark.stats.stats.mean
    replay_s = replayed_s(lookup)

    print(f"\n[E8] year-long per-user energy query (identical answers):")
    print(f"  raw TSDB, 5m resolution:   {raw_5m_s * 1000:9.2f} ms")
    print(f"  ... on a flushed copy:     {raw_5m_flushed_s * 1000:9.2f} ms")
    print(f"  raw TSDB, 1h downsampled:  {raw_1h_s * 1000:9.2f} ms")
    print(f"  CEEMS API server rollup:   {api_s * 1000:9.2f} ms")
    print(f"  ... replayed, DB unchanged:{replay_s * 1000:9.2f} ms")
    print(f"  speedup vs 5m raw: {raw_5m_s / api_s:,.0f}x — the paper's case "
          f"for the API server")
    print(f"  ... vs 5m raw on a flushed copy (the query alone): {raw_5m_flushed_s / api_s:,.1f}x")
    benchmark.extra_info["raw_5m_ms"] = raw_5m_s * 1000
    benchmark.extra_info["raw_5m_flushed_ms"] = raw_5m_flushed_s * 1000
    benchmark.extra_info["speedup_vs_5m_flushed"] = raw_5m_flushed_s / api_s
    benchmark.extra_info["raw_1h_ms"] = raw_1h_s * 1000
    benchmark.extra_info["replayed_ms"] = replay_s * 1000
    benchmark.extra_info["speedup_vs_5m"] = raw_5m_s / api_s
    assert raw_5m_s / api_s > 20.0
