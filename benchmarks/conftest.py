"""Shared builders for the benchmark harness.

Benchmarks regenerate the paper's tables/figures/claims (see
DESIGN.md's experiment index).  Expensive deployments are built once
per module via session fixtures; the timed sections are the
operations whose cost the paper talks about.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.cluster import StackSimulation, small_topology
from repro.cluster.simulation import SimulationConfig
from repro.resourcemgr.workload import SizeClass, WorkloadMix

BENCH_MIX = WorkloadMix(
    mean_interarrival=150.0,
    duration_mu=7.0,
    sizes=(
        SizeClass("small", weight=0.55, ncores=4, memory_gb=8),
        SizeClass("medium", weight=0.30, ncores=16, memory_gb=32),
        SizeClass("gpu", weight=0.15, ncores=8, ngpus=1, memory_gb=64, partition="gpu"),
    ),
)


@pytest.fixture(scope="session")
def bench_sim() -> StackSimulation:
    """A 2-hour small deployment shared by dashboard/LB benches."""
    sim = StackSimulation(
        small_topology(cpu_nodes=3, gpu_nodes=1),
        SimulationConfig(seed=7, update_interval=600.0),
        workload=BENCH_MIX,
    )
    sim.run(2 * 3600)
    return sim


def heaviest_user(sim: StackSimulation) -> str:
    usage = sim.ceems_datasource("admin").global_usage()
    return max(usage, key=lambda r: r["num_units"])["user"]


def replayed_s(call, rounds: int = 200) -> float:
    """Median seconds of ``call`` repeated with nothing written in
    between: what a remembered answer costs to replay."""
    call()
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return statistics.median(times)
