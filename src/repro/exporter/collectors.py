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

import re

from repro.hwsim.node import SimulatedNode
from repro.hwsim.procfs import parse_meminfo, parse_proc_stat
from repro.hwsim.rapl import RAPLDomain
from repro.tsdb.exposition import MetricFamily, MetricPoint

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


class CgroupCollector(Collector):
    """Per-compute-unit CPU/memory/IO/pids metrics from the cgroup tree.

    ``cgroup_version`` selects the hierarchy flavour: ``"v2"`` (the
    unified hierarchy, default) or ``"v1"`` (per-controller
    hierarchies with ``cpuacct.stat`` in USER_HZ ticks and
    ``memory.usage_in_bytes``), since CEEMS supports clusters that
    have not migrated.  v1 exposes fewer controllers: IO and cpuset
    metrics are absent, exactly as on a real v1 node where those
    controllers are often unmounted for jobs.
    """

    name = "cgroup"

    def __init__(self, node: SimulatedNode, cgroup_version: str = "v2") -> None:
        if cgroup_version not in ("v1", "v2"):
            raise ValueError(f"unknown cgroup version {cgroup_version!r}")
        self.node = node
        self.cgroup_version = cgroup_version

    def collect(self, now: float) -> list[MetricFamily]:
        if self.cgroup_version == "v1":
            return self._collect_v1(now)
        return self._collect_v2(now)

    def _collect_v1(self, now: float) -> list[MetricFamily]:
        """The per-controller (legacy) hierarchy path."""
        cpu_user = MetricFamily(
            "ceems_compute_unit_cpu_user_seconds_total",
            help="Total user CPU time of the compute unit.",
            type="counter",
        )
        cpu_system = MetricFamily(
            "ceems_compute_unit_cpu_system_seconds_total",
            help="Total system CPU time of the compute unit.",
            type="counter",
        )
        mem_current = MetricFamily(
            "ceems_compute_unit_memory_current_bytes",
            help="Resident memory of the compute unit.",
            type="gauge",
        )
        mem_peak = MetricFamily(
            "ceems_compute_unit_memory_peak_bytes",
            help="Peak resident memory of the compute unit.",
            type="gauge",
        )
        mem_limit = MetricFamily(
            "ceems_compute_unit_memory_limit_bytes",
            help="cgroup memory limit of the compute unit.",
            type="gauge",
        )
        pids = MetricFamily(
            "ceems_compute_unit_pids",
            help="Processes/threads in the compute unit.",
            type="gauge",
        )
        for cgroup in self.node.cgroupfs.leaves():
            ident = extract_unit_uuid(cgroup.path)
            if ident is None:
                continue
            manager, uuid = ident
            labelset = {"uuid": uuid, "manager": manager}
            v1 = cgroup.v1_files()
            stat = _parse_kv_file(v1["cpuacct/cpuacct.stat"])
            # cpuacct.stat counts USER_HZ (100 Hz) ticks.
            cpu_user.points.append(MetricPoint(labelset, stat["user"] / 100.0))
            cpu_system.points.append(MetricPoint(labelset, stat["system"] / 100.0))
            mem_current.points.append(MetricPoint(labelset, float(v1["memory/memory.usage_in_bytes"].strip())))
            mem_peak.points.append(MetricPoint(labelset, float(v1["memory/memory.max_usage_in_bytes"].strip())))
            limit = int(v1["memory/memory.limit_in_bytes"].strip())
            if limit < 2**62:  # v1's "unlimited" sentinel
                mem_limit.points.append(MetricPoint(labelset, float(limit)))
            pids.points.append(MetricPoint(labelset, float(v1["pids/pids.current"].strip())))
        return [cpu_user, cpu_system, mem_current, mem_peak, mem_limit, pids]

    def _collect_v2(self, now: float) -> list[MetricFamily]:
        cpu_user = MetricFamily(
            "ceems_compute_unit_cpu_user_seconds_total",
            help="Total user CPU time of the compute unit.",
            type="counter",
        )
        cpu_system = MetricFamily(
            "ceems_compute_unit_cpu_system_seconds_total",
            help="Total system CPU time of the compute unit.",
            type="counter",
        )
        cpus = MetricFamily(
            "ceems_compute_unit_cpus",
            help="Number of CPUs allocated to the compute unit.",
            type="gauge",
        )
        mem_current = MetricFamily(
            "ceems_compute_unit_memory_current_bytes",
            help="Resident memory of the compute unit.",
            type="gauge",
        )
        mem_peak = MetricFamily(
            "ceems_compute_unit_memory_peak_bytes",
            help="Peak resident memory of the compute unit.",
            type="gauge",
        )
        mem_limit = MetricFamily(
            "ceems_compute_unit_memory_limit_bytes",
            help="cgroup memory limit of the compute unit.",
            type="gauge",
        )
        io_read = MetricFamily(
            "ceems_compute_unit_io_read_bytes_total",
            help="Bytes read by the compute unit.",
            type="counter",
        )
        io_write = MetricFamily(
            "ceems_compute_unit_io_write_bytes_total",
            help="Bytes written by the compute unit.",
            type="counter",
        )
        pids = MetricFamily(
            "ceems_compute_unit_pids",
            help="Processes/threads in the compute unit.",
            type="gauge",
        )
        for cgroup in self.node.cgroupfs.leaves():
            ident = extract_unit_uuid(cgroup.path)
            if ident is None:
                continue
            manager, uuid = ident
            labelset = {"uuid": uuid, "manager": manager}
            files = cgroup.files()
            cpu_stat = _parse_kv_file(files["cpu.stat"])
            cpu_user.points.append(MetricPoint(labelset, cpu_stat["user_usec"] / 1e6))
            cpu_system.points.append(MetricPoint(labelset, cpu_stat["system_usec"] / 1e6))
            from repro.hwsim.cgroupfs import parse_cpuset

            cpus.points.append(MetricPoint(labelset, float(len(parse_cpuset(files["cpuset.cpus"])))))
            mem_current.points.append(MetricPoint(labelset, float(files["memory.current"].strip())))
            mem_peak.points.append(MetricPoint(labelset, float(files["memory.peak"].strip())))
            limit_text = files["memory.max"].strip()
            if limit_text != "max":
                mem_limit.points.append(MetricPoint(labelset, float(limit_text)))
            rbytes = wbytes = 0
            for line in files["io.stat"].splitlines():
                fields = dict(
                    part.split("=", 1) for part in line.split()[1:] if "=" in part
                )
                rbytes += int(fields.get("rbytes", 0))
                wbytes += int(fields.get("wbytes", 0))
            if rbytes or wbytes:
                io_read.points.append(MetricPoint(labelset, float(rbytes)))
                io_write.points.append(MetricPoint(labelset, float(wbytes)))
            pids.points.append(MetricPoint(labelset, float(files["pids.current"].strip())))
        return [cpu_user, cpu_system, cpus, mem_current, mem_peak, mem_limit, io_read, io_write, pids]


class RAPLCollector(Collector):
    """RAPL package/DRAM energy counters from the powercap interface.

    Two data paths:

    * **raw** (default): the wrapped ``energy_uj`` counters, exactly
      what the real exporter reads.  Wrap subtraction downstream is
      only safe while at most one wrap fits in a scrape interval, so
      every scrape also emits ``ceems_rapl_counter_trustworthy`` — an
      ``up 0``-style guard that drops to 0 whenever the elapsed
      interval could hide a full counter range (small
      ``max_energy_range_uj``, long scrape gap, missed scrapes).
    * **accumulator**: when a governor daemon has attached its
      high-rate accumulator to the node
      (``node.governor_accumulator``), energy is served aliasing-free
      from the accumulator under the same names/labels, and
      per-compute-unit attributed energy
      (``ceems_compute_unit_rapl_joules_total``) appears alongside.
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

    def collect(self, now: float) -> list[MetricFamily]:
        package = MetricFamily(
            "ceems_rapl_package_joules_total",
            help="RAPL package domain energy counter (handles wraparound upstream).",
            type="counter",
        )
        dram = MetricFamily(
            "ceems_rapl_dram_joules_total",
            help="RAPL DRAM domain energy counter.",
            type="counter",
        )
        trust = MetricFamily(
            "ceems_rapl_counter_trustworthy",
            help="0 when the scrape interval could hide a full counter "
            "range (wrap subtraction no longer safe).",
            type="gauge",
        )
        acc = getattr(self.node, "governor_accumulator", None)
        for pkg in self.node.rapl:
            entries = pkg.sysfs_entries()
            base = f"intel-rapl:{pkg.socket}"
            labels = {"socket": str(pkg.socket), "path": base}
            raw_uj = int(entries[f"{base}/energy_uj"])
            joules = (
                acc.domain_joules("package", pkg.socket)
                if acc is not None
                else raw_uj / 1e6
            )
            package.points.append(MetricPoint(labels, joules))
            trust.points.append(
                MetricPoint(labels, self._trustworthy(base, now, raw_uj, pkg.package.max_energy_range_uj))
            )
            if pkg.dram is not None:
                sub = f"{base}:0"
                labels = {"socket": str(pkg.socket), "path": sub}
                raw_uj = int(entries[f"{sub}/energy_uj"])
                joules = (
                    acc.domain_joules("dram", pkg.socket)
                    if acc is not None
                    else raw_uj / 1e6
                )
                dram.points.append(MetricPoint(labels, joules))
                trust.points.append(
                    MetricPoint(labels, self._trustworthy(sub, now, raw_uj, pkg.dram.max_energy_range_uj))
                )
        families = [package, dram, trust]
        if acc is not None:
            families.append(self._collect_units(acc))
        return families

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

    def _collect_units(self, acc) -> MetricFamily:
        """Per-compute-unit RAPL energy by allocation ratio."""
        family = MetricFamily(
            "ceems_compute_unit_rapl_joules_total",
            help="Aliasing-free RAPL energy attributed to the compute "
            "unit by allocation ratio (governor accumulator).",
            type="counter",
        )
        for task in self.node.tasks.values():
            ident = extract_unit_uuid(task.cgroup_path)
            manager = ident[0] if ident else "unknown"
            family.add(acc.unit_joules(task.uuid), uuid=task.uuid, manager=manager)
        return family

    @staticmethod
    def wraparound_delta(prev_joules: float, curr_joules: float, max_range_uj: int) -> float:
        """Joule-domain counter delta with wraparound handling."""
        return (
            RAPLDomain.counter_delta(int(prev_joules * 1e6), int(curr_joules * 1e6), max_range_uj)
            / 1e6
        )


class IPMICollector(Collector):
    """Whole-node power from the BMC's DCMI *Get Power Reading*."""

    name = "ipmi"

    def __init__(self, node: SimulatedNode) -> None:
        self.node = node

    def collect(self, now: float) -> list[MetricFamily]:
        reading = self.node.ipmi.read(now)
        current = MetricFamily(
            "ceems_ipmi_dcmi_current_watts",
            help="Current node power reported by IPMI DCMI.",
            type="gauge",
        )
        avg = MetricFamily(
            "ceems_ipmi_dcmi_avg_watts",
            help="Average node power over the DCMI statistics window.",
            type="gauge",
        )
        minimum = MetricFamily(
            "ceems_ipmi_dcmi_min_watts",
            help="Minimum node power over the DCMI statistics window.",
            type="gauge",
        )
        maximum = MetricFamily(
            "ceems_ipmi_dcmi_max_watts",
            help="Maximum node power over the DCMI statistics window.",
            type="gauge",
        )
        if reading.active:
            current.add(float(reading.current_watts))
            avg.add(float(reading.average_watts))
            minimum.add(float(reading.minimum_watts))
            maximum.add(float(reading.maximum_watts))
        return [current, avg, minimum, maximum]


class NodeCollector(Collector):
    """Node totals from ``/proc/stat`` and ``/proc/meminfo``."""

    name = "node"

    def __init__(self, node: SimulatedNode) -> None:
        self.node = node

    def collect(self, now: float) -> list[MetricFamily]:
        stat = parse_proc_stat(self.node.procfs.render_stat())
        meminfo = parse_meminfo(self.node.procfs.render_meminfo())
        cpu = MetricFamily(
            "ceems_cpu_seconds_total",
            help="Node CPU time by mode.",
            type="counter",
        )
        cpu.points = [MetricPoint(labels, stat[key] / 1e6) for key, labels in _CPU_MODES]
        ncpus = MetricFamily("ceems_cpu_count", help="Number of CPUs on the node.", type="gauge")
        ncpus.add(float(self.node.spec.ncores))
        mem_total = MetricFamily(
            "ceems_meminfo_total_bytes", help="Node MemTotal.", type="gauge"
        )
        mem_total.add(float(meminfo["MemTotal"]))
        mem_available = MetricFamily(
            "ceems_meminfo_available_bytes", help="Node MemAvailable.", type="gauge"
        )
        mem_available.add(float(meminfo["MemAvailable"]))
        mem_used = MetricFamily(
            "ceems_meminfo_used_bytes",
            help="Node memory in use (MemTotal - MemAvailable).",
            type="gauge",
        )
        mem_used.add(float(meminfo["MemTotal"] - meminfo["MemAvailable"]))
        return [cpu, ncpus, mem_total, mem_available, mem_used]


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

    def collect(self, now: float) -> list[MetricFamily]:
        family = MetricFamily(
            "ceems_compute_unit_gpu_index_flag",
            help="1 for each GPU index bound to the compute unit.",
            type="gauge",
        )
        for task in self.node.tasks.values():
            ident = extract_unit_uuid(task.cgroup_path)
            manager = ident[0] if ident else "unknown"
            for index in task.gpu_indices:
                gpu = self.node.gpus[index]
                labels = {"uuid": task.uuid, "manager": manager, "index": str(index), "gpu_uuid": gpu.uuid}
                family.points.append(MetricPoint(labels, 1.0))
        return [family]


class SelfCollector(Collector):
    """The exporter's own footprint (backs the paper's E6 claims)."""

    name = "self"

    def __init__(self, exporter) -> None:
        # weak coupling: anything with scrapes_total / scrape_cpu_seconds
        self.exporter = exporter

    def collect(self, now: float) -> list[MetricFamily]:
        scrapes = MetricFamily(
            "ceems_exporter_scrapes_total",
            help="Scrapes served by this exporter.",
            type="counter",
        )
        scrapes.add(float(self.exporter.scrapes_total))
        cpu = MetricFamily(
            "ceems_exporter_scrape_cpu_seconds_total",
            help="CPU time spent answering scrapes.",
            type="counter",
        )
        cpu.add(self.exporter.scrape_cpu_seconds)
        families = [scrapes, cpu]
        registry = getattr(self.exporter, "registry", None)
        if registry is not None:
            errors = MetricFamily(
                "ceems_exporter_collector_errors_total",
                help="Collector failures since exporter start.",
                type="counter",
            )
            for name, count in sorted(registry.errors_total.items()):
                errors.points.append(MetricPoint(registry.label_sets[name], float(count)))
            last = MetricFamily(
                "ceems_exporter_collector_last_scrape_success",
                help="Outcome (1/0) of each collector's previous run.",
                type="gauge",
            )
            # last_success reflects the *previous* registry.collect()
            # pass; the current pass finishes after this collector runs.
            for name, ok in sorted(registry.last_success.items()):
                last.points.append(MetricPoint(registry.label_sets[name], ok))
            families.extend([errors, last])
        return families
