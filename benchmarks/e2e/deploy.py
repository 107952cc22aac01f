"""Deployments the workloads run on, and the job stream that loads them.

Every deployment is a real ``StackSimulation`` on default production
paths (no ``head_layout``, ``scrape_cache``, ``lazy_blocks`` or
``strategy=``), at Jean-Zay's node-group shape scaled down to what a
2-core box ingests in seconds.

The job stream is the ``SCALE_MIX`` shape of ``bench_scale_jeanzay``
(re-declared here so that file can be deleted), but *stratified*: every
seed submits the same number of jobs with the same multiset of sizes
and durations, and the seed decides their order, owners and usage
profiles.  A plain Poisson/log-normal draw makes the running-job count
— and with it the per-cycle cost — differ by ±18% between seeds, which
would bury the 10% regression bounds; stratifying keeps the marginals
and removes that spread.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

import repro.cluster.simulation as simulation
from repro.cluster import StackSimulation, jean_zay_topology
from repro.cluster.simulation import SimulationConfig
from repro.common.clock import SimClock
from repro.hwsim.node import UsageProfile
from repro.resourcemgr.slurm import JobSpec
from repro.tsdb.promql.engine import PromQLEngine

from benchmarks.e2e.trace import Tracer, tracing_clock

#: (name, share of jobs, cores, gpus, memory GiB, partition)
SIZE_CLASSES = (
    ("small", 5, 8, 0, 16, "cpu"),
    ("medium", 3, 40, 0, 64, "cpu"),
    ("gpu", 2, 16, 4, 128, "gpu"),
)
DURATION_MU = 6.5  # log-normal, median ~11 min
DURATION_SIGMA = 1.2
NUSERS = 50
NPROJECTS = 12
USER_ZIPF_S = 1.3
#: Jobs per stratum: each block of this many consecutive arrivals holds
#: the full size mix and an even spread of duration quantiles.
BLOCK = 10

ADMIN = "admin"
#: Scrape jobs whose targets render hardware metrics (the rest are the
#: stack's own components, scraped for meta-monitoring).
EXPORTER_JOBS = ("ceems", "dcgm", "emissions")


@dataclass
class Shape:
    """What distinguishes one workload's deployment from another's."""

    scale: float
    scrape_interval: float
    rule_interval: float
    update_interval: float
    mean_interarrival: float
    #: Jobs already queued when the cluster starts, so measurement sees
    #: a loaded cluster and not its fill-up ramp.
    backlog: int
    start_offset: float = 0.0
    sidecar_interval: float = 3600.0
    compactor_interval: float = 6 * 3600.0


class JobFeed:
    """Seeded, stratified job submissions on the sim clock."""

    def __init__(self, seed: int, start: float, horizon: float, shape: Shape) -> None:
        rng = np.random.default_rng(seed)
        n = shape.backlog + int(horizon / shape.mean_interarrival)
        n += -n % BLOCK
        nblocks = n // BLOCK
        normal = statistics.NormalDist(DURATION_MU, DURATION_SIGMA)
        ranks = np.arange(1, NUSERS + 1, dtype=np.float64) ** -USER_ZIPF_S
        user_probs = ranks / ranks.sum()
        user_project = rng.integers(0, NPROJECTS, size=NUSERS)
        class_pattern = [c for c in SIZE_CLASSES for _ in range(c[1])]
        self.jobs: list[tuple[float, JobSpec]] = []
        for block in range(nblocks):
            classes = [class_pattern[i] for i in rng.permutation(BLOCK)]
            # Quantile ranks block, block+nblocks, block+2*nblocks, ...:
            # one from each tenth of the duration distribution.
            quantiles = (np.arange(BLOCK) * nblocks + block + 0.5) / n
            durations = [normal.inv_cdf(float(q)) for q in rng.permutation(quantiles)]
            for slot in range(BLOCK):
                index = block * BLOCK + slot
                arrival = index - shape.backlog
                at = start if arrival < 0 else start + (arrival + rng.uniform()) * shape.mean_interarrival
                name, _share, ncores, ngpus, memory_gb, partition = classes[slot]
                user = int(rng.choice(NUSERS, p=user_probs))
                duration = float(np.clip(np.exp(durations[slot]), 60.0, 20 * 3600.0))
                profile = UsageProfile(
                    cpu_base=float(np.clip(rng.beta(5, 2), 0.05, 1.0)),
                    cpu_amplitude=float(rng.uniform(0.0, 0.15)),
                    cpu_period=float(rng.uniform(600, 7200)),
                    mem_base=float(np.clip(rng.beta(2, 3), 0.05, 0.9)),
                    gpu_base=float(np.clip(rng.beta(5, 2), 0.1, 1.0)) if ngpus else 0.0,
                    ramp_seconds=float(rng.uniform(0, 300)),
                    phase=float(rng.uniform(0, 2 * np.pi)),
                    read_bps=float(rng.uniform(0, 20e6)),
                    write_bps=float(rng.uniform(0, 5e6)),
                )
                spec = JobSpec(
                    user=f"user{user:03d}",
                    account=f"project{int(user_project[user]):02d}",
                    ncores=ncores,
                    ngpus=ngpus,
                    memory_bytes=memory_gb * 1024**3,
                    walltime=duration * 2.0,
                    duration=duration,
                    profile=profile,
                    partition=partition,
                    name=f"{name}-{index}",
                )
                self.jobs.append((at, spec))
        self.jobs.sort(key=lambda job: job[0])
        self._next = 0
        self.slurm = None

    def attach(self, sim: StackSimulation) -> None:
        """Submit the backlog now and the rest as sim time reaches them."""
        self.slurm = sim.slurm
        self.submit_due(sim.now)
        # Registered through every() so a traced clock sees the feed;
        # the scheduler only looks at its queue on its own 30 s step.
        sim.clock.every(sim.config.slurm_step, self.submit_due)

    def submit_due(self, now: float) -> None:
        jobs = self.jobs
        while self._next < len(jobs) and jobs[self._next][0] <= now:
            self.slurm.submit(jobs[self._next][1], now)
            self._next += 1


def build(
    seed: int,
    shape: Shape,
    horizon: float | None,
    *,
    persist_dir: str = "",
    tracer: Tracer | None = None,
) -> StackSimulation:
    """Assemble one deployment and attach its job feed.

    ``horizon`` is how many sim-seconds of arrivals to generate
    (``None``: no feed — a reopened deployment only has to recover).
    With a ``tracer`` the clock class is swapped for the span-recording
    one only while the deployment is constructed, and child-span
    wrappers are installed on the finished deployment.
    """
    config = SimulationConfig(
        seed=seed,
        cluster_name="jean-zay",
        start_time=SimClock.DEFAULT_START + shape.start_offset,
        scrape_interval=shape.scrape_interval,
        node_step=shape.scrape_interval,
        rule_interval=shape.rule_interval,
        update_interval=shape.update_interval,
        sidecar_interval=shape.sidecar_interval,
        compactor_interval=shape.compactor_interval,
        frontend=True,
        with_workload=False,
        persist_dir=persist_dir,
    )
    topology = jean_zay_topology(scale=shape.scale)
    if tracer is None:
        sim = StackSimulation(topology, config)
    else:
        original = simulation.SimClock
        simulation.SimClock = tracing_clock(tracer)
        try:
            sim = StackSimulation(topology, config)
        finally:
            simulation.SimClock = original
        instrument(sim, tracer)
        tracer.enabled = False  # the workload switches it on per unit
    if horizon is not None:
        JobFeed(seed, sim.now, horizon, shape).attach(sim)
    return sim


def metered_setup(make_sim, chunks: int, chunk: float, meter) -> tuple[StackSimulation, float]:
    """Build a deployment and ingest ``chunks`` x ``chunk`` sim-seconds
    of warm-up or history, with a speed-calibration tick between the
    pieces.  Returns the deployment and the speed-normalised seconds
    the pieces took (the ticks themselves not counted)."""
    meter.tick()
    started = time.perf_counter()
    sim = make_sim()
    ended = time.perf_counter()
    meter.tick()
    total = meter.normalised(started, ended)
    for _ in range(chunks):
        started = time.perf_counter()
        sim.run(chunk)
        ended = time.perf_counter()
        meter.tick()
        total += meter.normalised(started, ended)
    return sim, total


def discard(sim: StackSimulation, tracer: Tracer | None) -> None:
    """Let go of a deployment that will not be used again: its WAL file
    is closed so the directory can be wiped, and the tracer stops
    holding its wrapped objects alive."""
    if sim.config.persist_dir:
        sim.hot_tsdb.close()
    if tracer is not None:
        tracer.unwrap_all()


def _is_metrics_scrape(request) -> bool:
    return request.path == "/metrics"


def instrument(sim: StackSimulation, tracer: Tracer) -> None:
    """Child spans around public methods of a traced deployment."""
    counts = tracer.counts

    def exporter_bytes(_args, response) -> None:
        counts["exporter.bytes"] += len(response.body)

    def http_bytes(_args, response) -> None:
        counts["tsdb.http.bytes_out"] += len(response.body)

    def steps_served(args, snapshot) -> None:
        counts["frontend.steps_asked"] += len(args[1])
        counts["frontend.steps_served"] += len(snapshot[0])

    for target in sim.scrape_manager.targets:
        if target.job in EXPORTER_JOBS:
            tracer.wrap(target.app, "handle", "exporter.render", after=exporter_bytes)
    hot = sim.hot_tsdb
    for method in ("append_refs", "append", "append_array"):
        tracer.wrap(hot, method, "tsdb.storage.append")
    if sim.config.persist_dir:
        tracer.wrap(hot.wal, "append", "tsdb.persist.wal_append")
        tracer.wrap(hot, "checkpoint", "tsdb.persist.checkpoint")
        tracer.wrap(sim.object_store, "persist_block", "tsdb.persist.block_write")
    # Every engine — the rule evaluator's, the updater's, each
    # backend's — without reaching for a private attribute.
    tracer.wrap(PromQLEngine, "query", "tsdb.promql")
    tracer.wrap(PromQLEngine, "query_range", "tsdb.promql")
    tracer.wrap(sim.fanout, "select", "tsdb.storage.select")
    tracer.wrap(hot, "select", "tsdb.storage.select")
    tracer.wrap(sim.frontend, "handle_query", "frontend")
    tracer.wrap(sim.frontend.cache, "snapshot", "frontend", after=steps_served)
    for api in sim.prom_apis:
        # The backends are also scrape targets; only API calls are the
        # tsdb.http layer.
        tracer.wrap(api.app, "handle", "tsdb.http", skip=_is_metrics_scrape, after=http_bytes)
