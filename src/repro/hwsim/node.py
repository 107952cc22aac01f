"""One simulated compute node: hardware + workloads + accounting.

:class:`SimulatedNode` is where the physical closure happens.  Each
integration step (:meth:`SimulatedNode.advance`):

1. evaluates every running task's :class:`UsageProfile` to get its CPU
   utilisation, memory footprint, GPU activity and IO rates;
2. charges the task's cgroup (CPU µs, memory bytes, IO bytes) and the
   node's procfs totals — the numerators and denominators of the
   paper's Eq. (1);
3. computes ground-truth component power from the
   :class:`~repro.hwsim.power_model.NodePowerModel` and integrates it
   into the RAPL counters, the IPMI sensor and the GPU energy
   counters.

The node also exposes a per-task *ground-truth power attribution*
oracle (:meth:`SimulatedNode.true_task_power`) used by the tests and
benchmarks to quantify how well the CEEMS estimation recovers reality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import SimulationError
from repro.hwsim.cgroupfs import CgroupFS
from repro.hwsim.gpu import GPU_PROFILES, GPUDevice
from repro.hwsim.ipmi import IPMIDCMISensor
from repro.hwsim.power_model import (
    CPU_PROFILES,
    DRAM_PROFILES,
    CPUPowerParams,
    DRAMPowerParams,
    NodePowerModel,
    PowerBreakdown,
)
from repro.hwsim.perf import TaskTelemetry
from repro.hwsim.procfs import ProcFS
from repro.hwsim.rapl import RAPLPackage


@dataclass(frozen=True)
class ActivitySample:
    """One task's instantaneous activity."""

    cpu_util: float  # fraction of the task's allocated cores in use
    mem_fraction: float  # fraction of the task's memory limit resident
    gpu_util: float  # SM utilisation on each bound GPU
    gpu_mem_fraction: float
    read_bps: float = 0.0
    write_bps: float = 0.0


@dataclass(frozen=True)
class UsageProfile:
    """Deterministic parametric activity profile for a task.

    Activity at relative time ``t`` (seconds since task start) is a
    base level plus an optional sinusoidal modulation plus an optional
    initial ramp, clamped to [0, 1].  This family covers the workload
    shapes the benches need (steady solvers, bursty pipelines,
    ramp-up trainings) while staying fully deterministic.
    """

    cpu_base: float = 0.8
    cpu_amplitude: float = 0.0
    cpu_period: float = 3600.0
    mem_base: float = 0.5
    mem_growth_per_hour: float = 0.0  # linear growth, clamped at 0.95
    gpu_base: float = 0.0
    gpu_amplitude: float = 0.0
    gpu_period: float = 1800.0
    ramp_seconds: float = 0.0
    read_bps: float = 0.0
    write_bps: float = 0.0
    phase: float = 0.0

    def evaluate(self, t: float) -> ActivitySample:
        ramp = 1.0 if self.ramp_seconds <= 0 else min(t / self.ramp_seconds, 1.0)
        cpu = self.cpu_base + self.cpu_amplitude * math.sin(2 * math.pi * (t / self.cpu_period) + self.phase)
        gpu = self.gpu_base + self.gpu_amplitude * math.sin(2 * math.pi * (t / self.gpu_period) + self.phase)
        mem = self.mem_base + self.mem_growth_per_hour * (t / 3600.0)
        return ActivitySample(
            cpu_util=min(max(cpu * ramp, 0.0), 1.0),
            mem_fraction=min(max(mem, 0.0), 0.95),
            gpu_util=min(max(gpu * ramp, 0.0), 1.0),
            gpu_mem_fraction=min(max(0.8 * gpu, 0.0), 0.9),
            read_bps=self.read_bps,
            write_bps=self.write_bps,
        )

    @classmethod
    def constant(cls, cpu: float, mem: float = 0.5, gpu: float = 0.0) -> "UsageProfile":
        return cls(cpu_base=cpu, mem_base=mem, gpu_base=gpu)


@dataclass
class Task:
    """A workload placed on this node by a resource manager."""

    uuid: str
    cgroup_path: str
    cores: tuple[int, ...]
    memory_limit_bytes: int
    profile: UsageProfile
    start_time: float
    gpu_indices: tuple[int, ...] = ()
    nprocs: int = 4

    def activity(self, now: float) -> ActivitySample:
        return self.profile.evaluate(now - self.start_time)


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a node's hardware."""

    name: str
    cpu_model: str = "intel-cascadelake"
    sockets: int = 2
    cores_per_socket: int = 20
    memory_gb: int = 192
    gpus: tuple[str, ...] = ()
    #: Whether the BMC's DCMI reading includes GPU power (both server
    #: classes exist on Jean-Zay, paper §III.A).
    ipmi_includes_gpu: bool = True
    dram_profile: str = "ddr4-192g"

    @property
    def ncores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def memory_bytes(self) -> int:
        return self.memory_gb * 1024**3

    @property
    def has_dram_rapl(self) -> bool:
        """Intel parts expose a DRAM RAPL domain; AMD parts do not."""
        return self.cpu_model.startswith("intel")


class SimulatedNode:
    """A live compute node: hardware simulation + task accounting."""

    #: Baseline OS noise: a sliver of CPU and memory not owned by any
    #: task (system daemons).  Keeps node totals strictly above the
    #: sum of task usage, like a real node.
    OS_CPU_UTIL = 0.004
    OS_MEMORY_FRACTION = 0.02

    def __init__(self, spec: NodeSpec, *, seed: int = 0) -> None:
        self.spec = spec
        self.cgroupfs = CgroupFS()
        self.procfs = ProcFS(ncpus=spec.ncores, memory_total_bytes=spec.memory_bytes)
        cpu_params: CPUPowerParams = CPU_PROFILES[spec.cpu_model]
        dram_params: DRAMPowerParams = DRAM_PROFILES[spec.dram_profile]
        self.power_model = NodePowerModel(sockets=spec.sockets, cpu=cpu_params, dram=dram_params)
        maker = RAPLPackage.intel if spec.has_dram_rapl else RAPLPackage.amd
        self.rapl: list[RAPLPackage] = [maker(s) for s in range(spec.sockets)]
        for pkg in self.rapl:
            # The long_term constraint's advertised maximum is the
            # part's peak package power, as real firmware reports it.
            pkg.package.max_power_uw = int(cpu_params.max_w * 1e6)
        self.ipmi = IPMIDCMISensor(includes_gpu=spec.ipmi_includes_gpu, seed=seed)
        self.gpus: list[GPUDevice] = [
            GPUDevice(index=i, profile=GPU_PROFILES[sku]) for i, sku in enumerate(spec.gpus)
        ]
        self.tasks: dict[str, Task] = {}
        #: perf/eBPF counters per task (paper §IV future work).
        self.telemetry: dict[str, TaskTelemetry] = {}
        self._free_cores: set[int] = set(range(spec.ncores))
        self._free_gpus: set[int] = set(range(len(self.gpus)))
        self.last_breakdown = PowerBreakdown(0.0, 0.0, 0.0, 0.0)
        self._now: float | None = None
        #: Ground-truth accumulated energy per task uuid (test oracle).
        self.true_task_energy_j: dict[str, float] = {}

    # -- placement -------------------------------------------------------
    def can_fit(self, ncores: int, ngpus: int = 0) -> bool:
        return len(self._free_cores) >= ncores and len(self._free_gpus) >= ngpus

    def place_task(
        self,
        uuid: str,
        cgroup_path: str,
        ncores: int,
        memory_limit_bytes: int,
        profile: UsageProfile,
        start_time: float,
        ngpus: int = 0,
    ) -> Task:
        """Allocate cores/GPUs, create the cgroup, register the task."""
        if uuid in self.tasks:
            raise SimulationError(f"duplicate task uuid {uuid} on {self.spec.name}")
        if not self.can_fit(ncores, ngpus):
            raise SimulationError(
                f"node {self.spec.name} cannot fit task {uuid} "
                f"({ncores} cores / {ngpus} GPUs requested)"
            )
        cores = tuple(sorted(self._free_cores)[:ncores])
        self._free_cores -= set(cores)
        gpu_indices = tuple(sorted(self._free_gpus)[:ngpus])
        self._free_gpus -= set(gpu_indices)
        self.cgroupfs.create(
            cgroup_path,
            memory_limit=memory_limit_bytes,
            cpuset_cpus=cores,
            pids_current=4,
        )
        task = Task(
            uuid=uuid,
            cgroup_path=cgroup_path,
            cores=cores,
            memory_limit_bytes=memory_limit_bytes,
            profile=profile,
            start_time=start_time,
            gpu_indices=gpu_indices,
        )
        self.tasks[uuid] = task
        self.telemetry[uuid] = TaskTelemetry.for_task(uuid, network_heavy=ngpus > 0)
        self.true_task_energy_j.setdefault(uuid, 0.0)
        return task

    def remove_task(self, uuid: str) -> Task:
        """Tear the task down (resource manager epilogue)."""
        task = self.tasks.pop(uuid, None)
        if task is None:
            raise SimulationError(f"no task {uuid} on node {self.spec.name}")
        self._free_cores |= set(task.cores)
        self._free_gpus |= set(task.gpu_indices)
        for gi in task.gpu_indices:
            self.gpus[gi].idle()
        if self.cgroupfs.exists(task.cgroup_path):
            self.cgroupfs.delete(task.cgroup_path)
        self.telemetry.pop(uuid, None)
        return task

    # -- simulation step ---------------------------------------------------
    def advance(self, now: float, dt: float) -> PowerBreakdown:
        """Integrate the node state from ``now - dt`` to ``now``.

        Activity is evaluated at the *end* of the step (right-endpoint
        rule); with the default 5 s step and the slow profile dynamics
        used in the experiments the integration error is negligible
        compared to the sensor artefacts being modelled.
        """
        if dt <= 0:
            raise SimulationError("dt must be positive")
        if self._now is not None and now < self._now:
            raise SimulationError("node time went backwards")
        self._now = now

        busy_core_seconds = self.OS_CPU_UTIL * self.spec.ncores * dt
        os_mem = int(self.OS_MEMORY_FRACTION * self.spec.memory_bytes)
        total_mem = os_mem
        task_busy: dict[str, float] = {}
        task_mem: dict[str, int] = {}

        for task in self.tasks.values():
            sample = task.activity(now)
            core_seconds = sample.cpu_util * len(task.cores) * dt
            task_busy[task.uuid] = core_seconds
            busy_core_seconds += core_seconds
            mem_bytes = int(sample.mem_fraction * task.memory_limit_bytes)
            task_mem[task.uuid] = mem_bytes
            total_mem += mem_bytes

            cg = self.cgroupfs.get(task.cgroup_path)
            usec = int(core_seconds * 1e6)
            # Typical HPC split: ~92% user, 8% system time.
            cg.charge_cpu(user_usec=int(usec * 0.92), system_usec=usec - int(usec * 0.92))
            cg.set_memory(mem_bytes)
            if sample.read_bps or sample.write_bps:
                cg.charge_io(
                    "259:0",
                    rbytes=int(sample.read_bps * dt),
                    wbytes=int(sample.write_bps * dt),
                    rios=int(sample.read_bps * dt / 65536) if sample.read_bps else 0,
                    wios=int(sample.write_bps * dt / 65536) if sample.write_bps else 0,
                )
            for gi in task.gpu_indices:
                gpu = self.gpus[gi]
                gpu.set_activity(sample.gpu_util, int(sample.gpu_mem_fraction * gpu.profile.memory_bytes))
            telemetry = self.telemetry[task.uuid]
            telemetry.perf.charge(core_seconds)
            telemetry.net.charge(core_seconds)

        # Node totals (procfs).
        self.procfs.advance(dt)
        busy_usec = int(busy_core_seconds * 1e6)
        self.procfs.charge_cpu(user_usec=int(busy_usec * 0.92), system_usec=busy_usec - int(busy_usec * 0.92))
        self.procfs.set_memory(min(total_mem, self.spec.memory_bytes))

        # Ground-truth power and sensor integration.
        cpu_util = busy_core_seconds / (self.spec.ncores * dt)
        mem_activity_struct = total_mem / self.spec.memory_bytes
        # Memory activity blends footprint with compute intensity.
        mem_activity = min(0.5 * mem_activity_struct + 0.5 * cpu_util, 1.0)
        gpu_w = sum(gpu.advance(dt) for gpu in self.gpus)
        breakdown = self.power_model.evaluate(cpu_util, mem_activity, gpu_w)
        self.last_breakdown = breakdown

        per_socket_cpu_j = breakdown.cpu_w * dt / self.spec.sockets
        per_socket_dram_j = breakdown.dram_w * dt / self.spec.sockets
        for package in self.rapl:
            package.package.add_energy(per_socket_cpu_j)
            if package.dram is not None:
                package.dram.add_energy(per_socket_dram_j)
        self.ipmi.observe(now, breakdown.total_w, gpu_w)

        # Ground-truth per-task attribution (oracle).
        self._accumulate_true_energy(dt, breakdown, task_busy, task_mem, busy_core_seconds, total_mem)
        return breakdown

    def _accumulate_true_energy(
        self,
        dt: float,
        breakdown: PowerBreakdown,
        task_busy: dict[str, float],
        task_mem: dict[str, int],
        busy_core_seconds: float,
        total_mem: int,
    ) -> None:
        """Attribute ground-truth power to tasks.

        The oracle's convention: dynamic CPU power splits by busy-core
        share, DRAM by resident-memory share, each task owns its bound
        GPUs' power, and platform + idle power splits equally among
        running tasks (there is no non-arbitrary owner for it — the
        same choice the paper makes for network power).
        """
        if not self.tasks:
            return
        ntasks = len(self.tasks)
        sockets_idle_w = self.power_model.sockets * self.power_model.cpu.idle_w
        cpu_dyn_w = max(breakdown.cpu_w - sockets_idle_w, 0.0)
        dram_idle_w = self.power_model.sockets * self.power_model.dram.idle_w
        dram_dyn_w = max(breakdown.dram_w - dram_idle_w, 0.0)
        shared_w = breakdown.platform_w + sockets_idle_w + dram_idle_w
        for uuid, task in self.tasks.items():
            cpu_share = task_busy[uuid] / busy_core_seconds if busy_core_seconds > 0 else 0.0
            mem_share = task_mem[uuid] / total_mem if total_mem > 0 else 0.0
            gpu_power = sum(self.gpus[i].power_w for i in task.gpu_indices)
            watts = cpu_dyn_w * cpu_share + dram_dyn_w * mem_share + gpu_power + shared_w / ntasks
            self.true_task_energy_j[uuid] += watts * dt

    # -- oracle ------------------------------------------------------------
    def true_task_power(self, uuid: str) -> float:
        """Instantaneous ground-truth power of a task (last step), watts."""
        if uuid not in self.tasks:
            raise SimulationError(f"no task {uuid}")
        # Recompute from the last breakdown with current shares.
        if self._now is None:
            return 0.0
        task = self.tasks[uuid]
        sample = task.activity(self._now)
        busy = {u: t.activity(self._now).cpu_util * len(t.cores) for u, t in self.tasks.items()}
        mem = {
            u: t.activity(self._now).mem_fraction * t.memory_limit_bytes for u, t in self.tasks.items()
        }
        total_busy = sum(busy.values()) + self.OS_CPU_UTIL * self.spec.ncores
        total_mem = sum(mem.values()) + self.OS_MEMORY_FRACTION * self.spec.memory_bytes
        bd = self.last_breakdown
        sockets_idle_w = self.power_model.sockets * self.power_model.cpu.idle_w
        dram_idle_w = self.power_model.sockets * self.power_model.dram.idle_w
        cpu_dyn = max(bd.cpu_w - sockets_idle_w, 0.0)
        dram_dyn = max(bd.dram_w - dram_idle_w, 0.0)
        shared = bd.platform_w + sockets_idle_w + dram_idle_w
        gpu_power = sum(self.gpus[i].power_w for i in task.gpu_indices)
        del sample  # activity already folded into busy/mem maps
        return (
            cpu_dyn * (busy[uuid] / total_busy if total_busy else 0.0)
            + dram_dyn * (mem[uuid] / total_mem if total_mem else 0.0)
            + gpu_power
            + shared / len(self.tasks)
        )
