"""Deterministic workload generation.

Produces the job streams that drive the experiments: Poisson arrivals,
log-normal durations (the canonical HPC job-duration shape), a Zipfian
user population (few heavy users, long tail — what makes the Fig. 2a
per-user rollups interesting), and a configurable mix of job sizes
including GPU jobs.

Everything derives from one :class:`numpy.random.Generator` seed, so a
90-day Jean-Zay history is bit-reproducible across runs — the property
every benchmark in this repo leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hwsim.node import UsageProfile
from repro.resourcemgr.slurm import JobSpec, SlurmCluster


@dataclass(frozen=True)
class SizeClass:
    """One entry of the job-size mix."""

    name: str
    weight: float
    ncores: int
    ngpus: int = 0
    nnodes: int = 1
    memory_gb: int = 8
    partition: str = "cpu"


@dataclass
class WorkloadMix:
    """The statistical description of a cluster's workload."""

    #: Mean job inter-arrival time in seconds.
    mean_interarrival: float = 120.0
    #: Log-normal duration parameters (median ~ exp(mu)).
    duration_mu: float = 7.5  # median ≈ 30 min
    duration_sigma: float = 1.2
    max_duration: float = 20 * 3600.0
    #: Walltime request = duration * this factor (users over-request).
    walltime_factor: float = 2.0
    nusers: int = 40
    nprojects: int = 12
    #: Zipf exponent for user activity skew.
    user_zipf_s: float = 1.3
    #: Diurnal arrival modulation in [0, 1): 0 = flat Poisson; 0.6
    #: means the 2pm submission peak runs 1.6x the mean rate and the
    #: 2am trough 0.4x — the shape real sacct logs show.
    diurnal_amplitude: float = 0.0
    sizes: tuple[SizeClass, ...] = (
        SizeClass("small", weight=0.45, ncores=4, memory_gb=8),
        SizeClass("medium", weight=0.30, ncores=16, memory_gb=32),
        SizeClass("large", weight=0.15, ncores=40, memory_gb=96),
        SizeClass("multinode", weight=0.05, ncores=40, nnodes=2, memory_gb=96),
        SizeClass("gpu", weight=0.05, ncores=8, ngpus=1, memory_gb=64, partition="gpu"),
    )

    def __post_init__(self) -> None:
        total = sum(s.weight for s in self.sizes)
        if not np.isclose(total, 1.0):
            raise ValueError(f"size-class weights must sum to 1, got {total}")


@dataclass
class WorkloadGenerator:
    """Samples job submissions from a :class:`WorkloadMix`."""

    mix: WorkloadMix = field(default_factory=WorkloadMix)
    seed: int = 42

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        mix = self.mix
        ranks = np.arange(1, mix.nusers + 1, dtype=np.float64)
        weights = ranks**-mix.user_zipf_s
        self._user_probs = weights / weights.sum()
        self._users = [f"user{u:03d}" for u in range(mix.nusers)]
        self._projects = [f"project{p:02d}" for p in range(mix.nprojects)]
        # Fixed user→project assignment (users belong to one project).
        self._user_project = {
            user: self._projects[int(self._rng.integers(0, mix.nprojects))] for user in self._users
        }
        self._size_probs = np.array([s.weight for s in mix.sizes])
        self._counter = 0

    def user_project(self, user: str) -> str:
        return self._user_project[user]

    # -- sampling ---------------------------------------------------------
    def arrival_intensity(self, at: float) -> float:
        """Relative submission rate at wall-clock time ``at``.

        Peaks at 14:00, troughs at 02:00 (working-hours shape).
        """
        amplitude = self.mix.diurnal_amplitude
        if amplitude <= 0.0:
            return 1.0
        hour = (at % 86400.0) / 3600.0
        return 1.0 + amplitude * np.cos(2 * np.pi * (hour - 14.0) / 24.0)

    def next_interarrival(self, at: float | None = None) -> float:
        """Exponential gap, scaled down when the diurnal rate is high."""
        base = float(self._rng.exponential(self.mix.mean_interarrival))
        if at is None:
            return base
        return base / self.arrival_intensity(at)

    def sample_job(self) -> JobSpec:
        """One job submission."""
        mix = self.mix
        user = self._users[int(self._rng.choice(len(self._users), p=self._user_probs))]
        size = mix.sizes[int(self._rng.choice(len(mix.sizes), p=self._size_probs))]
        duration = float(
            np.clip(self._rng.lognormal(mix.duration_mu, mix.duration_sigma), 60.0, mix.max_duration)
        )
        cpu_level = float(np.clip(self._rng.beta(5, 2), 0.05, 1.0))  # mostly busy
        profile = UsageProfile(
            cpu_base=cpu_level,
            cpu_amplitude=float(self._rng.uniform(0.0, 0.15)),
            cpu_period=float(self._rng.uniform(600, 7200)),
            mem_base=float(np.clip(self._rng.beta(2, 3), 0.05, 0.9)),
            gpu_base=float(np.clip(self._rng.beta(5, 2), 0.1, 1.0)) if size.ngpus else 0.0,
            ramp_seconds=float(self._rng.uniform(0, 300)),
            phase=float(self._rng.uniform(0, 2 * np.pi)),
            read_bps=float(self._rng.uniform(0, 20e6)),
            write_bps=float(self._rng.uniform(0, 5e6)),
        )
        self._counter += 1
        return JobSpec(
            user=user,
            account=self._user_project[user],
            ncores=size.ncores,
            ngpus=size.ngpus,
            nnodes=size.nnodes,
            memory_bytes=size.memory_gb * 1024**3,
            walltime=duration * mix.walltime_factor,
            duration=duration,
            profile=profile,
            partition=size.partition,
            name=f"{size.name}-{self._counter}",
        )

    # -- driving a cluster ------------------------------------------------
    def submit_stream(self, cluster: SlurmCluster, start: float, end: float) -> list[str]:
        """Pre-materialise all submissions in ``[start, end]``.

        Returns the submitted job ids.  Used by benchmarks that build a
        history in one pass rather than stepping a clock.
        """
        t = start + self.next_interarrival(start)
        job_ids = []
        while t < end:
            job_ids.append(cluster.submit(self.sample_job(), t))
            t += self.next_interarrival(t)
        return job_ids

    def register_timer(self, clock, cluster: SlurmCluster) -> None:
        """Drive submissions from a :class:`SimClock`."""

        def submit_and_reschedule(now: float) -> None:
            cluster.submit(self.sample_job(), now)
            clock.at(now + self.next_interarrival(now), submit_and_reschedule)

        clock.at(clock.now() + self.next_interarrival(clock.now()), submit_and_reschedule)
