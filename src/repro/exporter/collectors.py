"""The CEEMS exporter's collectors.

Each collector reads its pseudo-filesystem / sensor *through the same
textual interfaces the real exporter uses* (kernel-format cgroup
files, ``/proc`` text, DCMI readings, powercap counters) rather than
reaching into simulation objects, so the parsing logic being tested is
real.

Compute-unit identity: the cgroup collector extracts the workload
``uuid`` from the cgroup path with per-resource-manager patterns —
SLURM job cgroups (``…/slurmstepd.scope/job_<id>``), libvirt machine
slices and kubelet pod slices — which is precisely how CEEMS stays
resource-manager agnostic while exporting one unified metric set.
"""

from __future__ import annotations

import operator
import re

from repro.hwsim.cgroupfs import Cgroup, parse_cpuset
from repro.hwsim.node import SimulatedNode
from repro.hwsim.procfs import parse_meminfo, parse_proc_stat
from repro.hwsim.rapl import RAPLDomain
from repro.tsdb.exposition import KeptFamilies, MetricFamily

from repro.exporter.collector import Collector

#: cgroup path -> uuid extraction, one pattern per resource manager.
UNIT_PATTERNS: dict[str, re.Pattern[str]] = {
    "slurm": re.compile(r"/system\.slice/slurmstepd\.scope/job_(?P<uuid>\d+)$"),
    "libvirt": re.compile(r"/machine\.slice/machine-qemu[^/]*?instance-(?P<uuid>[0-9a-f][0-9a-f-]*)\.scope$"),
    "k8s": re.compile(r"/kubepods\.slice/(?:[^/]+/)?kubepods-[a-z]+-pod(?P<uuid>[0-9a-f_]+)\.slice$"),
}


#: ``/proc/stat`` field -> the label dict of its ``ceems_cpu_seconds_total``
#: point.  Like a unit's or a RAPL domain's ``labelset`` below, one dict
#: under every point that carries it and read-only: a rendered body
#: remembers the dict each line was built from (``exposition.Body``).
_CPU_MODES = tuple((f"{mode}_usec", {"mode": mode}) for mode in ("user", "system", "idle", "iowait"))


def extract_unit_uuid(cgroup_path: str) -> tuple[str, str] | None:
    """Identify a compute-unit cgroup.

    Returns ``(manager, uuid)`` or ``None`` when the path is not a
    workload cgroup (parent slices, system services…).
    """
    for manager, pattern in UNIT_PATTERNS.items():
        match = pattern.search(cgroup_path)
        if match:
            uuid = match.group("uuid")
            if manager == "k8s":
                uuid = uuid.replace("_", "-")
            return manager, uuid
    return None


def _parse_kv_file(text: str) -> dict[str, int]:
    """Parse a flat ``key value`` cgroup file (``cpu.stat`` etc.)."""
    out: dict[str, int] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                out[parts[0]] = int(parts[1])
            except ValueError:
                continue
    return out


#: The families of the two cgroup hierarchies, in body order.
_CGROUP_HEADS = {
    "v1": (
        ("ceems_compute_unit_cpu_user_seconds_total", "Total user CPU time of the compute unit.", "counter"),
        ("ceems_compute_unit_cpu_system_seconds_total", "Total system CPU time of the compute unit.", "counter"),
        ("ceems_compute_unit_memory_current_bytes", "Resident memory of the compute unit.", "gauge"),
        ("ceems_compute_unit_memory_peak_bytes", "Peak resident memory of the compute unit.", "gauge"),
        ("ceems_compute_unit_memory_limit_bytes", "cgroup memory limit of the compute unit.", "gauge"),
        ("ceems_compute_unit_pids", "Processes/threads in the compute unit.", "gauge"),
    ),
    "v2": (
        ("ceems_compute_unit_cpu_user_seconds_total", "Total user CPU time of the compute unit.", "counter"),
        ("ceems_compute_unit_cpu_system_seconds_total", "Total system CPU time of the compute unit.", "counter"),
        ("ceems_compute_unit_cpus", "Number of CPUs allocated to the compute unit.", "gauge"),
        ("ceems_compute_unit_memory_current_bytes", "Resident memory of the compute unit.", "gauge"),
        ("ceems_compute_unit_memory_peak_bytes", "Peak resident memory of the compute unit.", "gauge"),
        ("ceems_compute_unit_memory_limit_bytes", "cgroup memory limit of the compute unit.", "gauge"),
        ("ceems_compute_unit_io_read_bytes_total", "Bytes read by the compute unit.", "counter"),
        ("ceems_compute_unit_io_write_bytes_total", "Bytes written by the compute unit.", "counter"),
        ("ceems_compute_unit_pids", "Processes/threads in the compute unit.", "gauge"),
    ),
}


def _io_bytes(text: str) -> tuple[int, int]:
    """Read and written bytes summed over the devices of ``io.stat``
    (a device line is ``major:minor key=value ...``; a key missing
    from it counts 0, a repeated one its last value)."""
    rbytes = wbytes = 0
    for line in text.splitlines():
        read = written = 0
        for part in line.split()[1:]:
            key, sep, value = part.partition("=")
            if sep:
                if key == "rbytes":
                    read = value
                elif key == "wbytes":
                    written = value
        rbytes += int(read)
        wbytes += int(written)
    return rbytes, wbytes


class CgroupCollector(Collector):
    """Per-compute-unit CPU/memory/IO/pids metrics from the cgroup tree.

    ``cgroup_version`` selects the hierarchy flavour: ``"v2"`` (the
    unified hierarchy, default) or ``"v1"`` (per-controller
    hierarchies with ``cpuacct.stat`` in USER_HZ ticks and
    ``memory.usage_in_bytes``), since CEEMS supports clusters that
    have not migrated.  v1 exposes fewer controllers: IO and cpuset
    metrics are absent, exactly as on a real v1 node where those
    controllers are often unmounted for jobs.  Each unit's files are
    read one by one, only those the collector parses.
    """

    name = "cgroup"

    def __init__(self, node: SimulatedNode, cgroup_version: str = "v2") -> None:
        if cgroup_version not in ("v1", "v2"):
            raise ValueError(f"unknown cgroup version {cgroup_version!r}")
        self.node = node
        self.cgroup_version = cgroup_version
        self._families = KeptFamilies(*_CGROUP_HEADS[cgroup_version])
        self._readings = self._readings_v1 if cgroup_version == "v1" else self._readings_v2
        #: The leaf cgroups of the previous collect, and the workload
        #: ones among them with their kept label dicts.
        self._leaves: list[Cgroup] = []
        self._units: list[tuple[Cgroup, dict[str, str]]] = []

    def collect(self, now: float) -> list[MetricFamily]:
        readings = self._readings
        return self._families.fill((labels, readings(cgroup)) for cgroup, labels in self._workload_units())

    def _workload_units(self) -> list[tuple[Cgroup, dict[str, str]]]:
        """``(cgroup, labels)`` of every compute-unit leaf, the label
        dict the same object for as long as its cgroup is a leaf."""
        leaves = list(self.node.cgroupfs.leaves())
        if len(leaves) != len(self._leaves) or not all(map(operator.is_, leaves, self._leaves)):
            kept = {id(cgroup): labels for cgroup, labels in self._units}
            units = []
            for cgroup in leaves:
                ident = extract_unit_uuid(cgroup.path)
                if ident is not None:
                    manager, uuid = ident
                    units.append((cgroup, kept.get(id(cgroup)) or {"uuid": uuid, "manager": manager}))
            self._leaves = leaves
            self._units = units
        return self._units

    @staticmethod
    def _readings_v1(cgroup: Cgroup) -> tuple[float | None, ...]:
        """The per-controller (legacy) hierarchy's files."""
        read = cgroup.read
        stat = _parse_kv_file(read("cpuacct/cpuacct.stat"))
        limit = int(read("memory/memory.limit_in_bytes").strip())
        return (
            # cpuacct.stat counts USER_HZ (100 Hz) ticks.
            stat["user"] / 100.0,
            stat["system"] / 100.0,
            float(read("memory/memory.usage_in_bytes").strip()),
            float(read("memory/memory.max_usage_in_bytes").strip()),
            float(limit) if limit < 2**62 else None,  # v1's "unlimited" sentinel
            float(read("pids/pids.current").strip()),
        )

    @staticmethod
    def _readings_v2(cgroup: Cgroup) -> tuple[float | None, ...]:
        read = cgroup.read
        cpu_stat = _parse_kv_file(read("cpu.stat"))
        limit_text = read("memory.max").strip()
        rbytes, wbytes = _io_bytes(read("io.stat"))
        io = rbytes or wbytes
        return (
            cpu_stat["user_usec"] / 1e6,
            cpu_stat["system_usec"] / 1e6,
            float(len(parse_cpuset(read("cpuset.cpus")))),
            float(read("memory.current").strip()),
            float(read("memory.peak").strip()),
            float(limit_text) if limit_text != "max" else None,
            float(rbytes) if io else None,
            float(wbytes) if io else None,
            float(read("pids.current").strip()),
        )


class RAPLCollector(Collector):
    """RAPL package/DRAM energy counters from the powercap interface.

    The wrapped ``energy_uj`` counters, exactly what the real exporter
    reads.  Wrap subtraction downstream is only safe while at most one
    wrap fits in a scrape interval, so every scrape also emits
    ``ceems_rapl_counter_trustworthy`` — an ``up 0``-style guard that
    drops to 0 whenever the elapsed interval could hide a full counter
    range (small ``max_energy_range_uj``, long scrape gap, missed
    scrapes).
    """

    name = "rapl"

    #: No RAPL domain in this simulation plausibly sustains more than
    #: 1 kW; used to bound how much energy one scrape interval can
    #: hide (the double-wrap guard).
    MAX_PLAUSIBLE_DOMAIN_WATTS = 1000.0

    def __init__(self, node: SimulatedNode) -> None:
        self.node = node
        #: powercap path -> (scrape time, raw µJ) of the previous
        #: collect, for the trustworthiness verdict.
        self._last_raw: dict[str, tuple[float, int]] = {}
        self._domains = KeptFamilies(
            ("ceems_rapl_package_joules_total", "RAPL package domain energy counter (handles wraparound upstream).", "counter"),
            ("ceems_rapl_dram_joules_total", "RAPL DRAM domain energy counter.", "counter"),
            (
                "ceems_rapl_counter_trustworthy",
                "0 when the scrape interval could hide a full counter "
                "range (wrap subtraction no longer safe).",
                "gauge",
            ),
        )
        #: Per package: its powercap zone, the zone's ``energy_uj``
        #: path and label dict, for the package and (``None`` without
        #: one) the DRAM sub-domain.
        self._zones = []
        for pkg in node.rapl:
            base = f"intel-rapl:{pkg.socket}"
            dram = f"{base}:0" if pkg.dram is not None else None
            self._zones.append(
                (
                    pkg,
                    (base, f"{base}/energy_uj", {"socket": str(pkg.socket), "path": base}),
                    None if dram is None else (dram, f"{dram}/energy_uj", {"socket": str(pkg.socket), "path": dram}),
                )
            )

    def collect(self, now: float) -> list[MetricFamily]:
        return self._domains.fill(self._domain_rows(now))

    def _domain_rows(self, now: float):
        """Package rows (package and trust families) and DRAM rows
        (DRAM and trust families), socket by socket."""
        for pkg, (base, energy, labels), dram in self._zones:
            raw_uj = int(pkg.read_sysfs(energy))
            yield labels, (raw_uj / 1e6, None, self._trustworthy(base, now, raw_uj, pkg.package.max_energy_range_uj))
            if dram is not None:
                sub, energy, labels = dram
                raw_uj = int(pkg.read_sysfs(energy))
                yield labels, (None, raw_uj / 1e6, self._trustworthy(sub, now, raw_uj, pkg.dram.max_energy_range_uj))

    def _trustworthy(self, path: str, now: float, raw_uj: int, max_range_uj: int) -> float:
        """Double-wrap guard for one domain's raw counter path."""
        prev = self._last_raw.get(path)
        self._last_raw[path] = (now, raw_uj)
        if prev is None:
            return 1.0
        prev_at, prev_uj = prev
        _delta, ok = RAPLDomain.counter_delta_checked(
            prev_uj, raw_uj, max_range_uj, now - prev_at, self.MAX_PLAUSIBLE_DOMAIN_WATTS
        )
        return 1.0 if ok else 0.0


class IPMICollector(Collector):
    """Whole-node power from the BMC's DCMI *Get Power Reading*."""

    name = "ipmi"

    def __init__(self, node: SimulatedNode) -> None:
        self.node = node
        self._families = KeptFamilies(
            ("ceems_ipmi_dcmi_current_watts", "Current node power reported by IPMI DCMI.", "gauge"),
            ("ceems_ipmi_dcmi_avg_watts", "Average node power over the DCMI statistics window.", "gauge"),
            ("ceems_ipmi_dcmi_min_watts", "Minimum node power over the DCMI statistics window.", "gauge"),
            ("ceems_ipmi_dcmi_max_watts", "Maximum node power over the DCMI statistics window.", "gauge"),
        )
        self._labels: dict[str, str] = {}

    def collect(self, now: float) -> list[MetricFamily]:
        reading = self.node.ipmi.read(now)
        if not reading.active:
            return self._families.fill(())
        watts = (
            float(reading.current_watts),
            float(reading.average_watts),
            float(reading.minimum_watts),
            float(reading.maximum_watts),
        )
        return self._families.fill(((self._labels, watts),))


class NodeCollector(Collector):
    """Node totals from ``/proc/stat`` and ``/proc/meminfo``."""

    name = "node"

    def __init__(self, node: SimulatedNode) -> None:
        self.node = node
        self._cpu = KeptFamilies(("ceems_cpu_seconds_total", "Node CPU time by mode.", "counter"))
        self._totals = KeptFamilies(
            ("ceems_cpu_count", "Number of CPUs on the node.", "gauge"),
            ("ceems_meminfo_total_bytes", "Node MemTotal.", "gauge"),
            ("ceems_meminfo_available_bytes", "Node MemAvailable.", "gauge"),
            ("ceems_meminfo_used_bytes", "Node memory in use (MemTotal - MemAvailable).", "gauge"),
        )
        self._families = [*self._cpu.families, *self._totals.families]
        self._labels: dict[str, str] = {}

    def collect(self, now: float) -> list[MetricFamily]:
        stat = parse_proc_stat(self.node.procfs.render_stat())
        meminfo = parse_meminfo(self.node.procfs.render_meminfo())
        self._cpu.fill((labels, (stat[key] / 1e6,)) for key, labels in _CPU_MODES)
        total, available = meminfo["MemTotal"], meminfo["MemAvailable"]
        self._totals.fill(
            ((self._labels, (float(self.node.spec.ncores), float(total), float(available), float(total - available))),)
        )
        return self._families


def _per_task(node: SimulatedNode, kept: dict, make):
    """``(task, make(task, manager))`` for every task on ``node``, in
    task order.  ``kept`` is the caller's memo: what ``make`` returned
    is handed out again — the same label dicts — while the task runs."""
    tasks = node.tasks
    if len(kept) > len(tasks):
        for uuid in [uuid for uuid in kept if uuid not in tasks]:
            del kept[uuid]
    for uuid, task in tasks.items():
        entry = kept.get(uuid)
        if entry is None or entry[0] is not task:
            ident = extract_unit_uuid(task.cgroup_path)
            entry = kept[uuid] = (task, make(task, ident[0] if ident else "unknown"))
        yield task, entry[1]


class GPUMapCollector(Collector):
    """The workload→GPU index map (paper §II.A.d).

    GPU ordinals bound to a job are not available post-mortem from the
    resource manager, so CEEMS snapshots the mapping as a metric while
    the unit runs.  Dashboards join this flag series against DCGM /
    AMD-SMI device metrics on (instance, index).
    """

    name = "gpu_map"

    def __init__(self, node: SimulatedNode) -> None:
        self.node = node
        self._families = KeptFamilies(
            ("ceems_compute_unit_gpu_index_flag", "1 for each GPU index bound to the compute unit.", "gauge")
        )
        #: task uuid -> (task, one label dict per bound GPU)
        self._tasks: dict[str, tuple[object, list[dict[str, str]]]] = {}

    def collect(self, now: float) -> list[MetricFamily]:
        return self._families.fill(
            (labels, _BOUND) for _task, flags in _per_task(self.node, self._tasks, self._flag_labels) for labels in flags
        )

    def _flag_labels(self, task, manager: str) -> list[dict[str, str]]:
        gpus = self.node.gpus
        return [
            {"uuid": task.uuid, "manager": manager, "index": str(index), "gpu_uuid": gpus[index].uuid}
            for index in task.gpu_indices
        ]


#: The one reading of a ``gpu_index_flag`` series.
_BOUND = (1.0,)


class SelfCollector(Collector):
    """The exporter's own footprint (backs the paper's E6 claims)."""

    name = "self"

    def __init__(self, exporter) -> None:
        # weak coupling: anything with scrapes_total / scrape_cpu_seconds
        self.exporter = exporter
        self._totals = KeptFamilies(
            ("ceems_exporter_scrapes_total", "Scrapes served by this exporter.", "counter"),
            ("ceems_exporter_scrape_cpu_seconds_total", "CPU time spent answering scrapes.", "counter"),
        )
        self._outcomes = KeptFamilies(
            ("ceems_exporter_collector_errors_total", "Collector failures since exporter start.", "counter"),
            ("ceems_exporter_collector_last_scrape_success", "Outcome (1/0) of each collector's previous run.", "gauge"),
        )
        self._families = [*self._totals.families, *self._outcomes.families]
        self._labels: dict[str, str] = {}

    def collect(self, now: float) -> list[MetricFamily]:
        exporter = self.exporter
        self._totals.fill(((self._labels, (float(exporter.scrapes_total), exporter.scrape_cpu_seconds)),))
        registry = getattr(exporter, "registry", None)
        if registry is None:
            return self._totals.families
        # last_success reflects the *previous* registry.collect()
        # pass; the current pass finishes after this collector runs.
        errors, last = registry.errors_total, registry.last_success
        self._outcomes.fill(
            (registry.label_sets[name], (_float_or_none(errors.get(name)), last.get(name)))
            for name in sorted(errors.keys() | last.keys())
        )
        return self._families


def _float_or_none(count: int | None) -> float | None:
    return None if count is None else float(count)
