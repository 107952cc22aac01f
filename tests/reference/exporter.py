"""The stateless exporters, kept as a differential-test oracle.  Import-only.

Until families were kept between collects, every ``/metrics`` endpoint
built a new ``MetricFamily``, ``MetricPoint`` and (mostly) label dict
for each reading on each scrape, and the cgroup and RAPL collectors
rendered every pseudo-file of a unit or a package to parse a few.
This module is that code, frozen: the six CEEMS collectors, the
collector registry's ``collect``, the DCGM / AMD-SMI ``families`` and
the emissions collector, plus the self-telemetry metrics of
``repro.obs.registry`` (``Counter``, ``Gauge``, ``Histogram``, callback
gauges and ``MetricsRegistry.collect``) with the state layout they
collected from.

Fed the same node state, clock and observations, these must produce
families whose render is byte-equal to what the production endpoints
serve.  They read the simulated kernel through its dict views
(``Cgroup.files()`` / ``v1_files()``, ``RAPLPackage.sysfs_entries()``),
the production collectors through one-file reads, so the two read
paths are checked against each other too.  The exemplar switches and
the rate-limit clock are read from :mod:`repro.obs.registry` at call
time, so a test that flips or monkeypatches them there drives both.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from repro.exporter.collectors import extract_unit_uuid
from repro.hwsim.cgroupfs import parse_cpuset
from repro.hwsim.procfs import parse_meminfo, parse_proc_stat
from repro.hwsim.rapl import RAPLDomain
from repro.obs import registry as live_registry
from repro.obs.trace import current_trace
from repro.tsdb.exposition import Exemplar, MetricFamily, MetricPoint

_CPU_MODES = tuple((f"{mode}_usec", {"mode": mode}) for mode in ("user", "system", "idle", "iowait"))


def _parse_kv_file(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                out[parts[0]] = int(parts[1])
            except ValueError:
                continue
    return out


# -- the CEEMS exporter's collectors -----------------------------------------


class CgroupCollector:
    name = "cgroup"

    def __init__(self, node, cgroup_version: str = "v2") -> None:
        self.node = node
        self.cgroup_version = cgroup_version

    def collect(self, now: float) -> list[MetricFamily]:
        if self.cgroup_version == "v1":
            return self._collect_v1(now)
        return self._collect_v2(now)

    def _collect_v1(self, now: float) -> list[MetricFamily]:
        cpu_user = MetricFamily("ceems_compute_unit_cpu_user_seconds_total", help="Total user CPU time of the compute unit.", type="counter")
        cpu_system = MetricFamily("ceems_compute_unit_cpu_system_seconds_total", help="Total system CPU time of the compute unit.", type="counter")
        mem_current = MetricFamily("ceems_compute_unit_memory_current_bytes", help="Resident memory of the compute unit.", type="gauge")
        mem_peak = MetricFamily("ceems_compute_unit_memory_peak_bytes", help="Peak resident memory of the compute unit.", type="gauge")
        mem_limit = MetricFamily("ceems_compute_unit_memory_limit_bytes", help="cgroup memory limit of the compute unit.", type="gauge")
        pids = MetricFamily("ceems_compute_unit_pids", help="Processes/threads in the compute unit.", type="gauge")
        for cgroup in self.node.cgroupfs.leaves():
            ident = extract_unit_uuid(cgroup.path)
            if ident is None:
                continue
            manager, uuid = ident
            labelset = {"uuid": uuid, "manager": manager}
            v1 = cgroup.v1_files()
            stat = _parse_kv_file(v1["cpuacct/cpuacct.stat"])
            cpu_user.points.append(MetricPoint(labelset, stat["user"] / 100.0))
            cpu_system.points.append(MetricPoint(labelset, stat["system"] / 100.0))
            mem_current.points.append(MetricPoint(labelset, float(v1["memory/memory.usage_in_bytes"].strip())))
            mem_peak.points.append(MetricPoint(labelset, float(v1["memory/memory.max_usage_in_bytes"].strip())))
            limit = int(v1["memory/memory.limit_in_bytes"].strip())
            if limit < 2**62:
                mem_limit.points.append(MetricPoint(labelset, float(limit)))
            pids.points.append(MetricPoint(labelset, float(v1["pids/pids.current"].strip())))
        return [cpu_user, cpu_system, mem_current, mem_peak, mem_limit, pids]

    def _collect_v2(self, now: float) -> list[MetricFamily]:
        cpu_user = MetricFamily("ceems_compute_unit_cpu_user_seconds_total", help="Total user CPU time of the compute unit.", type="counter")
        cpu_system = MetricFamily("ceems_compute_unit_cpu_system_seconds_total", help="Total system CPU time of the compute unit.", type="counter")
        cpus = MetricFamily("ceems_compute_unit_cpus", help="Number of CPUs allocated to the compute unit.", type="gauge")
        mem_current = MetricFamily("ceems_compute_unit_memory_current_bytes", help="Resident memory of the compute unit.", type="gauge")
        mem_peak = MetricFamily("ceems_compute_unit_memory_peak_bytes", help="Peak resident memory of the compute unit.", type="gauge")
        mem_limit = MetricFamily("ceems_compute_unit_memory_limit_bytes", help="cgroup memory limit of the compute unit.", type="gauge")
        io_read = MetricFamily("ceems_compute_unit_io_read_bytes_total", help="Bytes read by the compute unit.", type="counter")
        io_write = MetricFamily("ceems_compute_unit_io_write_bytes_total", help="Bytes written by the compute unit.", type="counter")
        pids = MetricFamily("ceems_compute_unit_pids", help="Processes/threads in the compute unit.", type="gauge")
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
            cpus.points.append(MetricPoint(labelset, float(len(parse_cpuset(files["cpuset.cpus"])))))
            mem_current.points.append(MetricPoint(labelset, float(files["memory.current"].strip())))
            mem_peak.points.append(MetricPoint(labelset, float(files["memory.peak"].strip())))
            limit_text = files["memory.max"].strip()
            if limit_text != "max":
                mem_limit.points.append(MetricPoint(labelset, float(limit_text)))
            rbytes = wbytes = 0
            for line in files["io.stat"].splitlines():
                fields = dict(part.split("=", 1) for part in line.split()[1:] if "=" in part)
                rbytes += int(fields.get("rbytes", 0))
                wbytes += int(fields.get("wbytes", 0))
            if rbytes or wbytes:
                io_read.points.append(MetricPoint(labelset, float(rbytes)))
                io_write.points.append(MetricPoint(labelset, float(wbytes)))
            pids.points.append(MetricPoint(labelset, float(files["pids.current"].strip())))
        return [cpu_user, cpu_system, cpus, mem_current, mem_peak, mem_limit, io_read, io_write, pids]


class RAPLCollector:
    name = "rapl"
    MAX_PLAUSIBLE_DOMAIN_WATTS = 1000.0

    def __init__(self, node) -> None:
        self.node = node
        self._last_raw: dict[str, tuple[float, int]] = {}

    def collect(self, now: float) -> list[MetricFamily]:
        package = MetricFamily("ceems_rapl_package_joules_total", help="RAPL package domain energy counter (handles wraparound upstream).", type="counter")
        dram = MetricFamily("ceems_rapl_dram_joules_total", help="RAPL DRAM domain energy counter.", type="counter")
        trust = MetricFamily(
            "ceems_rapl_counter_trustworthy",
            help="0 when the scrape interval could hide a full counter range (wrap subtraction no longer safe).",
            type="gauge",
        )
        for pkg in self.node.rapl:
            entries = pkg.sysfs_entries()
            base = f"intel-rapl:{pkg.socket}"
            labels = {"socket": str(pkg.socket), "path": base}
            raw_uj = int(entries[f"{base}/energy_uj"])
            package.points.append(MetricPoint(labels, raw_uj / 1e6))
            trust.points.append(MetricPoint(labels, self._trustworthy(base, now, raw_uj, pkg.package.max_energy_range_uj)))
            if pkg.dram is not None:
                sub = f"{base}:0"
                labels = {"socket": str(pkg.socket), "path": sub}
                raw_uj = int(entries[f"{sub}/energy_uj"])
                dram.points.append(MetricPoint(labels, raw_uj / 1e6))
                trust.points.append(MetricPoint(labels, self._trustworthy(sub, now, raw_uj, pkg.dram.max_energy_range_uj)))
        return [package, dram, trust]

    def _trustworthy(self, path: str, now: float, raw_uj: int, max_range_uj: int) -> float:
        prev = self._last_raw.get(path)
        self._last_raw[path] = (now, raw_uj)
        if prev is None:
            return 1.0
        prev_at, prev_uj = prev
        _delta, ok = RAPLDomain.counter_delta_checked(prev_uj, raw_uj, max_range_uj, now - prev_at, self.MAX_PLAUSIBLE_DOMAIN_WATTS)
        return 1.0 if ok else 0.0


class IPMICollector:
    name = "ipmi"

    def __init__(self, node) -> None:
        self.node = node

    def collect(self, now: float) -> list[MetricFamily]:
        reading = self.node.ipmi.read(now)
        current = MetricFamily("ceems_ipmi_dcmi_current_watts", help="Current node power reported by IPMI DCMI.", type="gauge")
        avg = MetricFamily("ceems_ipmi_dcmi_avg_watts", help="Average node power over the DCMI statistics window.", type="gauge")
        minimum = MetricFamily("ceems_ipmi_dcmi_min_watts", help="Minimum node power over the DCMI statistics window.", type="gauge")
        maximum = MetricFamily("ceems_ipmi_dcmi_max_watts", help="Maximum node power over the DCMI statistics window.", type="gauge")
        if reading.active:
            current.add(float(reading.current_watts))
            avg.add(float(reading.average_watts))
            minimum.add(float(reading.minimum_watts))
            maximum.add(float(reading.maximum_watts))
        return [current, avg, minimum, maximum]


class NodeCollector:
    name = "node"

    def __init__(self, node) -> None:
        self.node = node

    def collect(self, now: float) -> list[MetricFamily]:
        stat = parse_proc_stat(self.node.procfs.render_stat())
        meminfo = parse_meminfo(self.node.procfs.render_meminfo())
        cpu = MetricFamily("ceems_cpu_seconds_total", help="Node CPU time by mode.", type="counter")
        cpu.points = [MetricPoint(labels, stat[key] / 1e6) for key, labels in _CPU_MODES]
        ncpus = MetricFamily("ceems_cpu_count", help="Number of CPUs on the node.", type="gauge")
        ncpus.add(float(self.node.spec.ncores))
        mem_total = MetricFamily("ceems_meminfo_total_bytes", help="Node MemTotal.", type="gauge")
        mem_total.add(float(meminfo["MemTotal"]))
        mem_available = MetricFamily("ceems_meminfo_available_bytes", help="Node MemAvailable.", type="gauge")
        mem_available.add(float(meminfo["MemAvailable"]))
        mem_used = MetricFamily("ceems_meminfo_used_bytes", help="Node memory in use (MemTotal - MemAvailable).", type="gauge")
        mem_used.add(float(meminfo["MemTotal"] - meminfo["MemAvailable"]))
        return [cpu, ncpus, mem_total, mem_available, mem_used]


class GPUMapCollector:
    name = "gpu_map"

    def __init__(self, node) -> None:
        self.node = node

    def collect(self, now: float) -> list[MetricFamily]:
        family = MetricFamily("ceems_compute_unit_gpu_index_flag", help="1 for each GPU index bound to the compute unit.", type="gauge")
        for task in self.node.tasks.values():
            ident = extract_unit_uuid(task.cgroup_path)
            manager = ident[0] if ident else "unknown"
            for index in task.gpu_indices:
                gpu = self.node.gpus[index]
                labels = {"uuid": task.uuid, "manager": manager, "index": str(index), "gpu_uuid": gpu.uuid}
                family.points.append(MetricPoint(labels, 1.0))
        return [family]


class SelfCollector:
    """Reads ``scrapes_total`` / ``scrape_cpu_seconds`` and, when it
    has one, ``registry`` from ``exporter`` (any object with them)."""

    name = "self"

    def __init__(self, exporter) -> None:
        self.exporter = exporter

    def collect(self, now: float) -> list[MetricFamily]:
        scrapes = MetricFamily("ceems_exporter_scrapes_total", help="Scrapes served by this exporter.", type="counter")
        scrapes.add(float(self.exporter.scrapes_total))
        cpu = MetricFamily("ceems_exporter_scrape_cpu_seconds_total", help="CPU time spent answering scrapes.", type="counter")
        cpu.add(self.exporter.scrape_cpu_seconds)
        families = [scrapes, cpu]
        registry = getattr(self.exporter, "registry", None)
        if registry is not None:
            errors = MetricFamily("ceems_exporter_collector_errors_total", help="Collector failures since exporter start.", type="counter")
            for name, count in sorted(registry.errors_total.items()):
                errors.points.append(MetricPoint(registry.label_sets[name], float(count)))
            last = MetricFamily("ceems_exporter_collector_last_scrape_success", help="Outcome (1/0) of each collector's previous run.", type="gauge")
            for name, ok in sorted(registry.last_success.items()):
                last.points.append(MetricPoint(registry.label_sets[name], ok))
            families.extend([errors, last])
        return families


class CollectorRegistry:
    def __init__(self) -> None:
        self.collectors: list = []
        self.errors_total: dict[str, int] = {}
        self.last_success: dict[str, float] = {}
        self.label_sets: dict[str, dict[str, str]] = {}

    def register(self, collector) -> None:
        self.label_sets[collector.name] = {"collector": collector.name}
        self.collectors.append(collector)

    def collect(self, now: float) -> list[MetricFamily]:
        families: list[MetricFamily] = []
        success = MetricFamily("ceems_exporter_collector_success", help="1 if the collector succeeded on the last scrape.", type="gauge")
        for collector in self.collectors:
            try:
                families.extend(collector.collect(now))
                ok = 1.0
            except Exception:  # noqa: BLE001 - collector isolation is the point
                ok = 0.0
                self.errors_total[collector.name] = self.errors_total.get(collector.name, 0) + 1
            success.points.append(MetricPoint(self.label_sets[collector.name], ok))
            self.last_success[collector.name] = ok
        families.append(success)
        return families


_FACTORIES = {
    "cgroup": CgroupCollector,
    "rapl": RAPLCollector,
    "ipmi": IPMICollector,
    "node": NodeCollector,
    "gpu_map": GPUMapCollector,
}


class _SelfView:
    """What the frozen self collector reads: the production exporter's
    scrape tallies, the oracle registry's collector outcomes."""

    def __init__(self, exporter, registry: CollectorRegistry) -> None:
        self._exporter = exporter
        self.registry = registry

    @property
    def scrapes_total(self) -> int:
        return self._exporter.scrapes_total

    @property
    def scrape_cpu_seconds(self) -> float:
        return self._exporter.scrape_cpu_seconds


def exporter_registry(exporter) -> CollectorRegistry:
    """A frozen registry with the same collectors, in the same order, as
    a production ``CEEMSExporter``'s (which must use only the six CEEMS
    collectors)."""
    registry = CollectorRegistry()
    for collector in exporter.registry._collectors:
        if collector.name == "self":
            registry.register(SelfCollector(_SelfView(exporter, registry)))
        elif collector.name == "cgroup":
            registry.register(CgroupCollector(exporter.node, collector.cgroup_version))
        else:
            registry.register(_FACTORIES[collector.name](exporter.node))
    return registry


# -- the companion exporters -------------------------------------------------


def dcgm_families(node) -> list[MetricFamily]:
    power = MetricFamily("DCGM_FI_DEV_POWER_USAGE", help="Power draw (W).", type="gauge")
    util = MetricFamily("DCGM_FI_DEV_GPU_UTIL", help="GPU utilization (%).", type="gauge")
    fb_used = MetricFamily("DCGM_FI_DEV_FB_USED", help="Framebuffer used (MiB).", type="gauge")
    energy = MetricFamily("DCGM_FI_DEV_TOTAL_ENERGY_CONSUMPTION", help="Total energy consumption since boot (mJ).", type="counter")
    for gpu in node.gpus:
        if gpu.profile.vendor != "nvidia":
            continue
        labels = {"gpu": str(gpu.index), "UUID": gpu.uuid, "modelName": gpu.profile.model}
        power.points.append(MetricPoint(labels, gpu.power_w))
        util.points.append(MetricPoint(labels, round(gpu.sm_util * 100.0)))
        fb_used.points.append(MetricPoint(labels, gpu.mem_used_bytes / 1024**2))
        energy.points.append(MetricPoint(labels, float(gpu.energy_mj)))
    return [power, util, fb_used, energy]


def amd_smi_families(node) -> list[MetricFamily]:
    power = MetricFamily("amd_gpu_power", help="GPU package power (µW).", type="gauge")
    util = MetricFamily("amd_gpu_use_percent", help="GPU busy percent.", type="gauge")
    mem = MetricFamily("amd_gpu_memory_use_percent", help="GPU memory used percent.", type="gauge")
    for gpu in node.gpus:
        if gpu.profile.vendor != "amd":
            continue
        labels = {"productname": gpu.profile.model, "gpu_id": str(gpu.index)}
        power.points.append(MetricPoint(labels, gpu.power_w * 1e6))
        util.points.append(MetricPoint(labels, round(gpu.sm_util * 100.0)))
        mem.points.append(MetricPoint(labels, round(gpu.mem_util * 100.0)))
    return [power, util, mem]


def emissions_families(registry, zone: str, now: float) -> list[MetricFamily]:
    family = MetricFamily("ceems_emissions_gCo2_kWh", help="Grid emission factor in gCO2e per kWh.", type="gauge")
    for factor in registry.all_factors(zone, now):
        family.add(factor.value, country=factor.zone, provider=factor.provider)
    resolved = registry.factor(zone, now)
    family.add(resolved.value, country=resolved.zone, provider="resolved")
    return [family]


# -- self-telemetry metrics --------------------------------------------------


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


def _capture_due(prev, now):
    """The rate limit and trace lookup of a capture, or ``None``."""
    if not live_registry._EXEMPLARS_ENABLED:
        return None
    if now is None:
        now = live_registry._monotonic()
    if prev is None or now - prev[2] >= live_registry._EXEMPLAR_MIN_INTERVAL:
        ctx = current_trace()
        if ctx is not None:
            return ctx.trace_id, now
    return None


def _wire_exemplar(captured, wire: list, idx: int):
    if captured is None:
        return None
    built = wire[idx]
    if built is None or built[0] is not captured:
        trace_id, value, _mono = captured
        built = wire[idx] = (captured, Exemplar(labels={"trace_id": trace_id}, value=value))
    return built[1]


class Counter:
    type = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: dict = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.inc_key(_label_key(labels), amount)

    def inc_key(self, key, amount: float = 1.0, now: float | None = None) -> None:
        with self._lock:
            entry = self._values.get(key)
            if entry is None:
                entry = self._values[key] = [0.0, None, dict(key), [None]]
            entry[0] += amount
            due = _capture_due(entry[1], now)
            if due is not None:
                entry[1] = (due[0], amount, due[1])

    def collect(self) -> list[MetricFamily]:
        family = MetricFamily(self.name, help=self.help, type=self.type)
        with self._lock:
            family.points = [
                MetricPoint(labels, value, None, _wire_exemplar(captured, wire, 0))
                for value, captured, labels, wire in self._values.values()
            ]
        return [family]


class Gauge:
    type = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: dict = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def collect(self) -> list[MetricFamily]:
        family = MetricFamily(self.name, help=self.help, type=self.type)
        with self._lock:
            for key, value in self._values.items():
                family.add(value, **dict(key))
        return [family]


class Histogram:
    type = "histogram"

    def __init__(self, name: str, help: str = "", buckets=live_registry.DEFAULT_LATENCY_BUCKETS) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self.buckets = tuple(sorted(buckets))
        self._le_strs = tuple(str(float(b)) if float(b).is_integer() else repr(float(b)) for b in self.buckets)
        self._data: dict = {}

    def observe(self, value: float, **labels: str) -> None:
        self.observe_key(_label_key(labels), value)

    def observe_key(self, key, value: float, now: float | None = None) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                slots = len(self.buckets) + 1
                dicts = [{**dict(key), "le": le} for le in (*self._le_strs, "+Inf")]
                dicts.append(dict(key))
                entry = ([0] * slots, [0.0, 0.0], [None] * slots, dicts, [None] * slots)
                self._data[key] = entry
            entry[0][idx] += 1
            entry[1][0] += value
            entry[1][1] += 1
            due = _capture_due(entry[2][idx], now)
            if due is not None:
                entry[2][idx] = (due[0], value, due[1])

    def collect(self) -> list[MetricFamily]:
        marker = MetricFamily(self.name, help=self.help, type=self.type)
        buckets = MetricFamily(f"{self.name}_bucket", type="counter")
        sums = MetricFamily(f"{self.name}_sum", type="counter")
        counts = MetricFamily(f"{self.name}_count", type="counter")
        last = len(self.buckets)
        with self._lock:
            for counts_per_bucket, sum_count, exemplars, labels, wire in self._data.values():
                cumulative = 0
                for idx in range(last):
                    cumulative += counts_per_bucket[idx]
                    buckets.points.append(MetricPoint(labels[idx], float(cumulative), None, _wire_exemplar(exemplars[idx], wire, idx)))
                buckets.points.append(MetricPoint(labels[last], sum_count[1], None, _wire_exemplar(exemplars[last], wire, last)))
                sums.points.append(MetricPoint(labels[-1], sum_count[0]))
                counts.points.append(MetricPoint(labels[-1], sum_count[1]))
        return [marker, buckets, sums, counts]


class CallbackGauge:
    def __init__(self, name: str, fn, help: str = "", type: str = "gauge", **const_labels: str) -> None:
        self.name = name
        self.help = help
        self.type = type
        self.fn = fn
        self.const_labels = const_labels

    def collect(self) -> list[MetricFamily]:
        family = MetricFamily(self.name, help=self.help, type=self.type)
        family.points.append(MetricPoint(self.const_labels, float(self.fn())))
        return [family]


class MetricsRegistry:
    def __init__(self) -> None:
        self.metrics: dict = {}
        self.collectors: list = []

    def get_or_create(self, cls, name: str, *args, **kwargs):
        if name not in self.metrics:
            self.metrics[name] = cls(name, *args, **kwargs)
        return self.metrics[name]

    def collect(self) -> list[MetricFamily]:
        families: list[MetricFamily] = []
        for metric in list(self.metrics.values()):
            families.extend(metric.collect())
        for fn in self.collectors:
            families.extend(fn())
        return families


# -- feeding a frozen registry from a live one -------------------------------


class _TeeCounter(live_registry.Counter):
    def inc_key(self, key, amount: float = 1.0, now: float | None = None) -> None:
        if now is None:
            now = live_registry._monotonic()  # one reading: both capture alike
        super().inc_key(key, amount, now)
        self.shadow.inc_key(key, amount, now)


class _TeeGauge(live_registry.Gauge):
    def set(self, value: float, **labels: str) -> None:
        super().set(value, **labels)
        self.shadow.set(value, **labels)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        super().inc(amount, **labels)
        self.shadow.inc(amount, **labels)


class _TeeHistogram(live_registry.Histogram):
    def observe_key(self, key, value: float, now: float | None = None) -> None:
        if now is None:
            now = live_registry._monotonic()
        super().observe_key(key, value, now)
        self.shadow.observe_key(key, value, now)


class TeeRegistry(live_registry.MetricsRegistry):
    """A production ``MetricsRegistry`` whose metrics hand every
    observation to the frozen twins in :attr:`shadow` too, with the
    same clock reading, so ``shadow.collect()`` is what the stateless
    registry would have collected from the same history."""

    def __init__(self) -> None:
        super().__init__()
        self.shadow = MetricsRegistry()

    def _tee(self, cls, frozen_cls, name: str, *args):
        metric = self._get_or_create(cls, name, *args)
        metric.shadow = self.shadow.get_or_create(frozen_cls, name, *args)
        return metric

    def counter(self, name: str, help: str = ""):
        return self._tee(_TeeCounter, Counter, name, help)

    def gauge(self, name: str, help: str = ""):
        return self._tee(_TeeGauge, Gauge, name, help)

    def histogram(self, name: str, help: str = "", buckets=live_registry.DEFAULT_LATENCY_BUCKETS):
        return self._tee(_TeeHistogram, Histogram, name, help, buckets)

    def gauge_func(self, name: str, fn, help: str = "", type: str = "gauge", **const_labels: str) -> None:
        super().gauge_func(name, fn, help, type, **const_labels)
        self.shadow.metrics[name] = CallbackGauge(name, fn, help, type, **const_labels)

    def collector(self, fn) -> None:
        super().collector(fn)
        self.shadow.collectors.append(fn)
