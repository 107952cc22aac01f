"""SLURM simulator: partitions, FIFO+first-fit scheduler, accounting.

Reproduces the slice of SLURM the stack interacts with:

* jobs are submitted to a partition with core/GPU/memory/walltime
  requests and run inside per-job cgroups under
  ``/system.slice/slurmstepd.scope/job_<id>`` on every allocated node
  (the path the exporter's ``slurm`` pattern matches);
* a scheduling pass (FIFO with first-fit placement, one pass per
  ``step``) starts pending jobs when nodes have capacity — enough
  realism to generate the churn and co-location patterns Eq. (1) must
  cope with, without reimplementing backfill;
* an accounting database (``sacct``-like) records the fields the
  CEEMS API server syncs: user, account, resources, timestamps, state
  and exit code;
* jobs end by natural completion, timeout (walltime exceeded),
  cancellation, or OOM (observed from the cgroup's oom events).

Multi-node jobs allocate the same core count on each of ``nnodes``
nodes and appear in every node's cgroup tree with the same job id —
as on a real SLURM cluster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.common.errors import SimulationError
from repro.hwsim.node import SimulatedNode, UsageProfile
from repro.resourcemgr.base import ComputeUnit, ResourceManager, UnitState


@dataclass
class JobSpec:
    """A batch job submission (``sbatch``)."""

    user: str
    account: str
    ncores: int
    memory_bytes: int
    walltime: float
    #: Real runtime; the job completes after min(duration, walltime).
    duration: float
    profile: UsageProfile = field(default_factory=lambda: UsageProfile.constant(0.8))
    ngpus: int = 0
    nnodes: int = 1
    partition: str = "cpu"
    name: str = "job"

    def __post_init__(self) -> None:
        if self.ncores <= 0 or self.nnodes <= 0:
            raise SimulationError("job must request at least one core on one node")
        if self.duration < 0 or self.walltime <= 0:
            raise SimulationError("job durations must be positive")


@dataclass
class _RunningJob:
    unit: ComputeUnit
    spec: JobSpec
    nodes: list[SimulatedNode]
    ends_at: float
    timeout_at: float


class SlurmCluster(ResourceManager):
    """A SLURM-managed cluster over simulated nodes."""

    manager = "slurm"
    CGROUP_TEMPLATE = "/system.slice/slurmstepd.scope/job_{job_id}"

    def __init__(self, cluster_name: str, partitions: dict[str, list[SimulatedNode]]) -> None:
        all_nodes = [n for nodes in partitions.values() for n in nodes]
        if len({n.spec.name for n in all_nodes}) != len(all_nodes):
            raise SimulationError("duplicate node names across partitions")
        super().__init__(cluster_name, all_nodes)
        self.partitions = partitions
        self._job_ids = itertools.count(1000)
        self._queue: list[tuple[str, JobSpec]] = []  # (uuid, spec) FIFO
        self._running: dict[str, _RunningJob] = {}
        #: Nodes drained out of scheduling (down or admin-drained).
        self._down_nodes: set[str] = set()
        #: uuid -> node names, retained after job end (the GPU map
        #: problem from §II.A.d does not apply to *nodes*: sacct keeps
        #: the nodelist, and so do we).
        self.jobs_completed = 0
        self.jobs_submitted = 0

    # -- submission ----------------------------------------------------------
    def submit(self, spec: JobSpec, now: float) -> str:
        """Queue a job; returns its job id (the unit uuid)."""
        if spec.partition not in self.partitions:
            raise SimulationError(f"no partition {spec.partition!r}")
        job_id = str(next(self._job_ids))
        unit = ComputeUnit(
            uuid=job_id,
            name=spec.name,
            manager=self.manager,
            cluster=self.cluster_name,
            user=spec.user,
            project=spec.account,
            created_at=now,
            cpus=spec.ncores * spec.nnodes,
            memory_bytes=spec.memory_bytes * spec.nnodes,
            gpus=spec.ngpus * spec.nnodes,
        )
        self._record_unit(unit)
        self._queue.append((job_id, spec))
        self.jobs_submitted += 1
        return job_id

    def cancel(self, job_id: str, now: float) -> None:
        """``scancel``: drop a pending or running job."""
        for i, (uuid, _spec) in enumerate(self._queue):
            if uuid == job_id:
                del self._queue[i]
                unit = self._units[job_id]
                unit.state = UnitState.CANCELLED
                unit.ended_at = now
                return
        running = self._running.get(job_id)
        if running is None:
            raise SimulationError(f"no pending or running job {job_id}")
        self._finish(running, now, UnitState.CANCELLED, exit_code=130)

    # -- scheduling ------------------------------------------------------------
    def step(self, now: float) -> None:
        self._reap(now)
        self._schedule(now)

    def _schedule(self, now: float) -> None:
        """One FIFO pass with first-fit placement (no backfill)."""
        still_pending: list[tuple[str, JobSpec]] = []
        for uuid, spec in self._queue:
            nodes = self._find_nodes(spec)
            if nodes is None:
                still_pending.append((uuid, spec))
                continue
            self._start(uuid, spec, nodes, now)
        self._queue = still_pending

    def _find_nodes(self, spec: JobSpec) -> list[SimulatedNode] | None:
        candidates = [
            n
            for n in self.partitions[spec.partition]
            if n.spec.name not in self._down_nodes and n.can_fit(spec.ncores, spec.ngpus)
        ]
        if len(candidates) < spec.nnodes:
            return None
        return candidates[: spec.nnodes]

    def _start(self, uuid: str, spec: JobSpec, nodes: list[SimulatedNode], now: float) -> None:
        cgroup_path = self.CGROUP_TEMPLATE.format(job_id=uuid)
        for node in nodes:
            node.place_task(
                uuid=uuid,
                cgroup_path=cgroup_path,
                ncores=spec.ncores,
                memory_limit_bytes=spec.memory_bytes,
                profile=spec.profile,
                start_time=now,
                ngpus=spec.ngpus,
            )
        unit = self._units[uuid]
        unit.state = UnitState.RUNNING
        unit.started_at = now
        unit.nodelist = tuple(n.spec.name for n in nodes)
        self._running[uuid] = _RunningJob(
            unit=unit,
            spec=spec,
            nodes=nodes,
            ends_at=now + min(spec.duration, spec.walltime),
            timeout_at=now + spec.walltime,
        )

    def _reap(self, now: float) -> None:
        done = [job for job in self._running.values() if now >= job.ends_at]
        for job in done:
            if job.spec.duration > job.spec.walltime:
                self._finish(job, now, UnitState.TIMEOUT, exit_code=1)
            else:
                oomed = any(
                    node.cgroupfs.exists(self.CGROUP_TEMPLATE.format(job_id=job.unit.uuid))
                    and node.cgroupfs.get(
                        self.CGROUP_TEMPLATE.format(job_id=job.unit.uuid)
                    ).memory_oom_events
                    > 0
                    for node in job.nodes
                )
                if oomed:
                    self._finish(job, now, UnitState.OOM, exit_code=137)
                else:
                    self._finish(job, now, UnitState.COMPLETED, exit_code=0)

    def _finish(self, job: _RunningJob, now: float, state: UnitState, exit_code: int) -> None:
        for node in job.nodes:
            node.remove_task(job.unit.uuid)
        job.unit.state = state
        job.unit.ended_at = min(now, job.ends_at) if state is not UnitState.CANCELLED else now
        job.unit.exit_code = exit_code
        del self._running[job.unit.uuid]
        self.jobs_completed += 1

    # -- node failures -----------------------------------------------------
    def fail_node(self, node_name: str, now: float, *, requeue: bool = False) -> list[str]:
        """A node crashes: its jobs die (or requeue), it leaves scheduling.

        Multi-node jobs die with any of their nodes, as on real SLURM.
        Returns the affected job ids.  The node stays out of the
        scheduler until :meth:`resume_node`.
        """
        if node_name not in self.nodes:
            raise SimulationError(f"no node {node_name}")
        self._down_nodes.add(node_name)
        affected = [
            job for job in self._running.values()
            if node_name in (n.spec.name for n in job.nodes)
        ]
        job_ids = []
        for job in affected:
            spec = job.spec
            self._finish(job, now, UnitState.FAILED, exit_code=1)
            job_ids.append(job.unit.uuid)
            if requeue:
                # SLURM's --requeue: resubmit as a fresh job id.
                self.submit(spec, now)
        return job_ids

    def resume_node(self, node_name: str) -> None:
        """Return a repaired node to the scheduler."""
        self._down_nodes.discard(node_name)

    @property
    def down_nodes(self) -> set[str]:
        return set(self._down_nodes)

    # -- sacct-like accounting ------------------------------------------------
    def sacct(self, start: float, end: float, user: str | None = None) -> list[ComputeUnit]:
        """Accounting query, as the API server issues against slurmdbd."""
        units = self.list_units(start, end)
        if user is not None:
            units = [u for u in units if u.user == user]
        return units

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def running_count(self) -> int:
        return len(self._running)
