"""Tests for the CEEMS exporter and its collectors."""

import pytest

from repro.common.auth import make_basic_auth_header
from repro.common.clock import SimClock
from repro.common.config import ExporterConfig
from repro.common.errors import CollectorError
from repro.exporter import (
    AMDSMIExporter,
    CEEMSExporter,
    CgroupCollector,
    CollectorRegistry,
    DCGMExporter,
    GPUMapCollector,
    IPMICollector,
    NodeCollector,
    RAPLCollector,
)
from repro.exporter.collector import Collector
from repro.exporter.collectors import extract_unit_uuid
from repro.hwsim import GPU_PROFILES, NodeSpec, SimulatedNode, UsageProfile
from repro.hwsim.rapl import RAPLDomain
from repro.tsdb import exposition


class TestUnitPatterns:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("/system.slice/slurmstepd.scope/job_12345", ("slurm", "12345")),
            (
                "/machine.slice/machine-qemu-7-instance-0000abcd.scope",
                ("libvirt", "0000abcd"),
            ),
            (
                "/kubepods.slice/kubepods-burstable-pod0a1b2c3d_0000_4000_8000_000000000000.slice",
                ("k8s", "0a1b2c3d-0000-4000-8000-000000000000"),
            ),
            ("/system.slice/sshd.service", None),
            ("/system.slice/slurmstepd.scope", None),
            ("/user.slice/user-1000.slice", None),
        ],
    )
    def test_extraction(self, path, expected):
        assert extract_unit_uuid(path) == expected


def place_jobs(node: SimulatedNode) -> None:
    node.place_task("101", "/system.slice/slurmstepd.scope/job_101", 8, 16 * 2**30, UsageProfile.constant(0.9, 0.5), 0.0)
    node.place_task("102", "/system.slice/slurmstepd.scope/job_102", 4, 8 * 2**30, UsageProfile(cpu_base=0.4, read_bps=1e6, write_bps=5e5), 0.0)


def advance(node: SimulatedNode, steps: int = 12) -> None:
    for i in range(steps):
        node.advance((i + 1) * 5.0, 5.0)


class TestCgroupCollector:
    def test_per_unit_metrics(self, cpu_node):
        place_jobs(cpu_node)
        advance(cpu_node)
        families = {f.name: f for f in CgroupCollector(cpu_node).collect(60.0)}
        cpu_user = families["ceems_compute_unit_cpu_user_seconds_total"]
        assert {p.labels["uuid"] for p in cpu_user.points} == {"101", "102"}
        assert all(p.labels["manager"] == "slurm" for p in cpu_user.points)
        by_uuid = {p.labels["uuid"]: p.value for p in cpu_user.points}
        assert by_uuid["101"] == pytest.approx(0.9 * 8 * 60 * 0.92, rel=0.01)

    def test_memory_and_limit(self, cpu_node):
        place_jobs(cpu_node)
        advance(cpu_node)
        families = {f.name: f for f in CgroupCollector(cpu_node).collect(60.0)}
        mem = {p.labels["uuid"]: p.value for p in families["ceems_compute_unit_memory_current_bytes"].points}
        assert mem["101"] == pytest.approx(0.5 * 16 * 2**30, rel=0.01)
        limits = {p.labels["uuid"]: p.value for p in families["ceems_compute_unit_memory_limit_bytes"].points}
        assert limits["101"] == 16 * 2**30

    def test_io_only_when_nonzero(self, cpu_node):
        place_jobs(cpu_node)
        advance(cpu_node)
        families = {f.name: f for f in CgroupCollector(cpu_node).collect(60.0)}
        reads = families["ceems_compute_unit_io_read_bytes_total"].points
        assert {p.labels["uuid"] for p in reads} == {"102"}
        assert reads[0].value == pytest.approx(1e6 * 60, rel=0.01)

    def test_cpus_gauge(self, cpu_node):
        place_jobs(cpu_node)
        advance(cpu_node, 1)
        families = {f.name: f for f in CgroupCollector(cpu_node).collect(5.0)}
        cpus = {p.labels["uuid"]: p.value for p in families["ceems_compute_unit_cpus"].points}
        assert cpus == {"101": 8.0, "102": 4.0}


class TestRAPLCollector:
    def test_intel_exports_package_and_dram(self, cpu_node):
        advance(cpu_node, 2)
        families = {f.name: f for f in RAPLCollector(cpu_node).collect(10.0)}
        assert len(families["ceems_rapl_package_joules_total"].points) == 2
        assert len(families["ceems_rapl_dram_joules_total"].points) == 2
        pkg = families["ceems_rapl_package_joules_total"].points[0]
        assert pkg.value > 0
        assert pkg.labels["socket"] == "0"

    def test_amd_has_no_dram_points(self, amd_node):
        advance(amd_node, 2)
        families = {f.name: f for f in RAPLCollector(amd_node).collect(10.0)}
        assert families["ceems_rapl_dram_joules_total"].points == []



def busy_node(name="n0", seed=0, uuid="1000"):
    node = SimulatedNode(NodeSpec(name=name), seed=seed)
    node.place_task(
        uuid=uuid,
        cgroup_path=f"/sys/fs/cgroup/system.slice/{uuid}",
        ncores=node.spec.ncores,
        memory_limit_bytes=8 * 2**30,
        profile=UsageProfile(cpu_base=1.0, mem_base=0.5),
        start_time=0.0,
    )
    return node


class TestDoubleWrapGuard:
    def test_checked_delta_trustworthy_at_short_interval(self):
        # 15 s × 1 kW = 1.5e10 µJ, well under the 262 kJ default range.
        delta, ok = RAPLDomain.counter_delta_checked(
            100, 200, 262_143_328_850, elapsed_seconds=15.0, max_plausible_watts=1000.0
        )
        assert delta == 100
        assert ok

    def test_checked_delta_flags_long_gaps(self):
        # 1000 s at 1 kW could traverse a 1 GµJ range many times over.
        _delta, ok = RAPLDomain.counter_delta_checked(
            100, 200, 1_000_000_000, elapsed_seconds=1000.0, max_plausible_watts=1000.0
        )
        assert not ok

    def test_collector_emits_trust_gauge(self):
        node = busy_node()
        collector = RAPLCollector(node)
        families = {f.name: f for f in collector.collect(0.0)}
        trust = families["ceems_rapl_counter_trustworthy"]
        # First scrape: no baseline, optimistically trustworthy.
        assert all(p.value == 1.0 for p in trust.points)

    def test_collector_drops_trust_on_missed_scrapes(self):
        node = busy_node()
        # Tiny package range: a 30 s gap at plausible power (3e10 µJ)
        # spans it many times over, while DRAM keeps its 65 kJ default
        # range and stays trustworthy across the same gap.
        for pkg in node.rapl:
            pkg.package.max_energy_range_uj = 1_000_000_000  # 1 kJ
        collector = RAPLCollector(node)
        collector.collect(0.0)
        node.advance(30.0, 30.0)
        families = {f.name: f for f in collector.collect(30.0)}
        trust = families["ceems_rapl_counter_trustworthy"]
        # DRAM paths are "intel-rapl:<s>:0" (two colons), packages one.
        package_trust = [
            p for p in trust.points if p.labels["path"].count(":") == 1
        ]
        dram_trust = [p for p in trust.points if p.labels["path"].count(":") == 2]
        assert package_trust and dram_trust
        assert all(p.value == 0.0 for p in package_trust)
        assert all(p.value == 1.0 for p in dram_trust)


class TestIPMICollector:
    def test_reports_dcmi_fields(self, cpu_node):
        advance(cpu_node, 4)
        families = {f.name: f for f in IPMICollector(cpu_node).collect(20.0)}
        current = families["ceems_ipmi_dcmi_current_watts"].points[0].value
        assert current > 100  # at least idle power
        assert families["ceems_ipmi_dcmi_min_watts"].points[0].value <= current

    def test_inactive_sensor_exports_nothing(self, cpu_node):
        families = {f.name: f for f in IPMICollector(cpu_node).collect(0.0)}
        assert families["ceems_ipmi_dcmi_current_watts"].points == []


class TestNodeCollector:
    def test_cpu_modes_sum_to_capacity(self, cpu_node):
        place_jobs(cpu_node)
        advance(cpu_node)
        families = {f.name: f for f in NodeCollector(cpu_node).collect(60.0)}
        by_mode = {p.labels["mode"]: p.value for p in families["ceems_cpu_seconds_total"].points}
        capacity = cpu_node.spec.ncores * 60.0
        total = sum(by_mode.values())
        assert total == pytest.approx(capacity, rel=0.02)

    def test_memory_metrics(self, cpu_node):
        place_jobs(cpu_node)
        advance(cpu_node)
        families = {f.name: f for f in NodeCollector(cpu_node).collect(60.0)}
        total = families["ceems_meminfo_total_bytes"].points[0].value
        used = families["ceems_meminfo_used_bytes"].points[0].value
        assert total == cpu_node.spec.memory_bytes
        assert 0 < used < total


class TestGPUMapCollector:
    def test_flag_series(self, gpu_node):
        gpu_node.place_task("7", "/system.slice/slurmstepd.scope/job_7", 4, 2**30, UsageProfile.constant(0.5, 0.5, 0.9), 0.0, ngpus=2)
        families = {f.name: f for f in GPUMapCollector(gpu_node).collect(0.0)}
        points = families["ceems_compute_unit_gpu_index_flag"].points
        assert len(points) == 2
        assert {p.labels["index"] for p in points} == {"0", "1"}
        assert all(p.value == 1.0 and p.labels["uuid"] == "7" for p in points)


class TestRegistry:
    def test_duplicate_collector_rejected(self, cpu_node):
        registry = CollectorRegistry()
        registry.register(RAPLCollector(cpu_node))
        with pytest.raises(CollectorError):
            registry.register(RAPLCollector(cpu_node))

    def test_unregister(self, cpu_node):
        registry = CollectorRegistry()
        registry.register(RAPLCollector(cpu_node))
        registry.unregister("rapl")
        assert registry.names == []
        with pytest.raises(CollectorError):
            registry.unregister("rapl")

    def test_failing_collector_degrades_to_success_zero(self, cpu_node):
        class Broken(Collector):
            name = "broken"

            def collect(self, now):
                raise RuntimeError("boom")

        registry = CollectorRegistry()
        registry.register(Broken())
        registry.register(RAPLCollector(cpu_node))
        families = {f.name: f for f in registry.collect(0.0)}
        success = {p.labels["collector"]: p.value for p in families["ceems_exporter_collector_success"].points}
        assert success == {"broken": 0.0, "rapl": 1.0}


class TestExporterServer:
    def test_metrics_endpoint(self, cpu_node):
        place_jobs(cpu_node)
        advance(cpu_node)
        clock = SimClock(start=60.0)
        exporter = CEEMSExporter(cpu_node, clock, ExporterConfig())
        response = exporter.app.get("/metrics")
        assert response.ok
        families = {f.name for f in exposition.parse(response.body.decode())}
        assert "ceems_compute_unit_cpu_user_seconds_total" in families
        assert "ceems_rapl_package_joules_total" in families
        assert "ceems_exporter_collector_success" in families

    def test_collectors_configurable(self, cpu_node):
        clock = SimClock()
        exporter = CEEMSExporter(cpu_node, clock, ExporterConfig(collectors=("rapl",)))
        assert exporter.registry.names == ["rapl"]

    def test_self_metrics(self, cpu_node):
        clock = SimClock()
        exporter = CEEMSExporter(cpu_node, clock, ExporterConfig(collectors=("self",)))
        exporter.app.get("/metrics")
        response = exporter.app.get("/metrics")
        families = {f.name: f for f in exposition.parse(response.body.decode())}
        assert families["ceems_exporter_scrapes_total"].points[0].value == 1.0

    def test_basic_auth_from_config(self, cpu_node):
        clock = SimClock()
        config = ExporterConfig.from_dict(
            {"basic_auth": {"username": "s", "password": "p"}}
        )
        exporter = CEEMSExporter(cpu_node, clock, config)
        assert exporter.app.get("/metrics").status == 401
        ok = exporter.app.get("/metrics", headers={"authorization": make_basic_auth_header("s", "p")})
        assert ok.status == 200

    def test_index_and_health(self, cpu_node):
        exporter = CEEMSExporter(cpu_node, SimClock())
        assert b"collectors" in exporter.app.get("/").body
        assert exporter.app.get("/health").ok


class TestGPUExporters:
    def test_dcgm_metric_names(self, gpu_node):
        gpu_node.place_task("7", "/system.slice/slurmstepd.scope/job_7", 4, 2**30, UsageProfile.constant(0.5, 0.5, 0.8), 0.0, ngpus=1)
        advance(gpu_node, 2)
        exporter = DCGMExporter(gpu_node, SimClock(start=10.0))
        response = exporter.app.get("/metrics")
        families = {f.name: f for f in exposition.parse(response.body.decode())}
        assert set(families) == {
            "DCGM_FI_DEV_POWER_USAGE",
            "DCGM_FI_DEV_GPU_UTIL",
            "DCGM_FI_DEV_FB_USED",
            "DCGM_FI_DEV_TOTAL_ENERGY_CONSUMPTION",
        }
        power = families["DCGM_FI_DEV_POWER_USAGE"].points
        assert len(power) == 4  # all devices report
        busy = [p for p in power if p.labels["gpu"] == "0"][0]
        assert busy.value > GPU_PROFILES["A100"].idle_w

    def test_amd_smi_exporter(self):
        node = SimulatedNode(NodeSpec(name="amd-gpu", cpu_model="amd-milan", gpus=("MI250",) * 2, memory_gb=256, dram_profile="ddr4-384g"), seed=5)
        node.place_task("9", "/system.slice/slurmstepd.scope/job_9", 4, 2**30, UsageProfile.constant(0.5, 0.5, 0.7), 0.0, ngpus=1)
        advance(node, 2)
        exporter = AMDSMIExporter(node, SimClock(start=10.0))
        families = {f.name: f for f in exposition.parse(exporter.app.get("/metrics").body.decode())}
        assert "amd_gpu_power" in families
        # µW exposition unit
        assert families["amd_gpu_power"].points[0].value > 1e6

    def test_dcgm_ignores_amd_devices(self):
        node = SimulatedNode(NodeSpec(name="mixed", gpus=("MI250",)), seed=1)
        exporter = DCGMExporter(node, SimClock())
        families = exposition.parse(exporter.app.get("/metrics").body.decode())
        assert all(not f.points for f in families)


class TestCgroupV1Mode:
    """CEEMS supports clusters still on cgroup v1."""

    def make_node(self):
        node = SimulatedNode(NodeSpec(name="legacy"), seed=2)
        node.place_task("501", "/system.slice/slurmstepd.scope/job_501", 8, 16 * 2**30, UsageProfile.constant(0.75, 0.5), 0.0)
        advance(node)
        return node

    def test_v1_exports_cpu_and_memory(self):
        node = self.make_node()
        collector = CgroupCollector(node, cgroup_version="v1")
        families = {f.name: f for f in collector.collect(60.0)}
        user = families["ceems_compute_unit_cpu_user_seconds_total"].points[0]
        assert user.labels["uuid"] == "501"
        # v1 counts USER_HZ ticks: value within a tick of the v2 number
        v2 = {f.name: f for f in CgroupCollector(node).collect(60.0)}
        v2_user = v2["ceems_compute_unit_cpu_user_seconds_total"].points[0]
        assert user.value == pytest.approx(v2_user.value, abs=0.02)
        mem = families["ceems_compute_unit_memory_current_bytes"].points[0]
        assert mem.value == pytest.approx(0.5 * 16 * 2**30, rel=0.01)

    def test_v1_has_no_io_or_cpuset(self):
        node = self.make_node()
        families = {f.name for f in CgroupCollector(node, cgroup_version="v1").collect(60.0)}
        assert "ceems_compute_unit_io_read_bytes_total" not in families
        assert "ceems_compute_unit_cpus" not in families

    def test_v1_memory_limit(self):
        node = self.make_node()
        families = {f.name: f for f in CgroupCollector(node, cgroup_version="v1").collect(60.0)}
        limit = families["ceems_compute_unit_memory_limit_bytes"].points[0]
        assert limit.value == 16 * 2**30

    def test_unknown_version_rejected(self):
        node = self.make_node()
        with pytest.raises(ValueError):
            CgroupCollector(node, cgroup_version="v3")

    def test_same_metric_names_both_versions(self):
        """Rules work unchanged regardless of the node's cgroup version."""
        node = self.make_node()
        v1_names = {f.name for f in CgroupCollector(node, cgroup_version="v1").collect(60.0)}
        v2_names = {f.name for f in CgroupCollector(node).collect(60.0)}
        assert v1_names <= v2_names
