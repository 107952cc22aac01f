"""Tests for procfs rendering and the node simulation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.hwsim import NodeSpec, SimulatedNode, UsageProfile
from repro.hwsim.procfs import USER_HZ, ProcFS, parse_meminfo, parse_proc_stat


class TestProcFS:
    def test_idle_invariant(self):
        """user + system + idle + iowait == ncpus * elapsed (in jiffies)."""
        proc = ProcFS(ncpus=4, memory_total_bytes=2**30)
        proc.advance(100.0)
        proc.charge_cpu(user_usec=120_000_000, system_usec=30_000_000)
        stat = parse_proc_stat(proc.render_stat())
        total = stat["user_usec"] + stat["system_usec"] + stat["idle_usec"] + stat["iowait_usec"]
        assert total == pytest.approx(4 * 100.0 * 1e6, rel=0.01)

    def test_cpu_util(self):
        proc = ProcFS(ncpus=2, memory_total_bytes=2**30)
        proc.advance(10.0)
        proc.charge_cpu(user_usec=10_000_000, system_usec=0)
        assert proc.cpu_util == pytest.approx(0.5)

    def test_meminfo_fields(self):
        proc = ProcFS(ncpus=1, memory_total_bytes=1024**3)
        proc.set_memory(512 * 1024**2, cached_bytes=128 * 1024**2)
        info = parse_meminfo(proc.render_meminfo())
        assert info["MemTotal"] == 1024**3
        assert info["MemAvailable"] == pytest.approx(512 * 1024**2, rel=0.01)
        assert info["Cached"] == 128 * 1024**2

    def test_memory_clamped_to_total(self):
        proc = ProcFS(ncpus=1, memory_total_bytes=1000)
        proc.set_memory(5000)
        assert proc.memory_used_bytes == 1000

    def test_stat_has_per_cpu_lines(self):
        proc = ProcFS(ncpus=3, memory_total_bytes=2**30)
        proc.advance(1.0)
        lines = proc.render_stat().splitlines()
        assert lines[0].startswith("cpu ")
        assert lines[1].startswith("cpu0 ")
        assert lines[3].startswith("cpu2 ")

    def test_stat_text_is_the_kernels_to_the_byte(self):
        proc = ProcFS(ncpus=3, memory_total_bytes=2**30, boot_time=1700000000.9)
        proc.advance(100.0)
        proc.charge_cpu(user_usec=120_000_000, system_usec=31_000_000)
        proc.iowait_usec = 7_000_000
        assert proc.render_stat() == (
            "cpu  12000 0 3100 14200 700 0 0 0 0 0\n"
            "cpu0 4000 0 1033 4733 233 0 0 0 0 0\n"
            "cpu1 4000 0 1033 4733 233 0 0 0 0 0\n"
            "cpu2 4000 0 1033 4733 233 0 0 0 0 0\n"
            "btime 1700000000\n"
        )

    def test_parse_proc_stat_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_proc_stat("intr 12345\n")

    def test_jiffies_conversion(self):
        proc = ProcFS(ncpus=1, memory_total_bytes=2**30)
        proc.advance(1.0)
        proc.charge_cpu(user_usec=1_000_000, system_usec=0)
        first_line = proc.render_stat().splitlines()[0].split()
        assert int(first_line[1]) == USER_HZ  # 1 s of user time


class TestPlacement:
    def test_place_allocates_cores_and_gpus(self, gpu_node):
        task = gpu_node.place_task(
            "j1", "/system.slice/slurmstepd.scope/job_1", 8, 2**30,
            UsageProfile.constant(0.5), 0.0, ngpus=2,
        )
        assert len(task.cores) == 8
        assert task.gpu_indices == (0, 1)
        assert gpu_node.cgroupfs.exists(task.cgroup_path)

    def test_capacity_enforced(self, cpu_node):
        ncores = cpu_node.spec.ncores
        cpu_node.place_task("big", "/system.slice/slurmstepd.scope/job_9", ncores, 2**30, UsageProfile.constant(0.5), 0.0)
        assert not cpu_node.can_fit(1)
        with pytest.raises(SimulationError, match="cannot fit"):
            cpu_node.place_task("more", "/system.slice/slurmstepd.scope/job_10", 1, 2**30, UsageProfile.constant(0.5), 0.0)

    def test_duplicate_uuid_rejected(self, cpu_node):
        cpu_node.place_task("j", "/system.slice/slurmstepd.scope/job_1", 1, 2**30, UsageProfile.constant(0.5), 0.0)
        with pytest.raises(SimulationError, match="duplicate"):
            cpu_node.place_task("j", "/system.slice/slurmstepd.scope/job_2", 1, 2**30, UsageProfile.constant(0.5), 0.0)

    def test_remove_frees_resources(self, gpu_node):
        gpu_node.place_task("j", "/system.slice/slurmstepd.scope/job_1", 8, 2**30, UsageProfile.constant(0.5), 0.0, ngpus=4)
        gpu_node.remove_task("j")
        assert gpu_node.can_fit(gpu_node.spec.ncores, 4)
        assert not gpu_node.cgroupfs.exists("/system.slice/slurmstepd.scope/job_1")

    def test_remove_unknown_raises(self, cpu_node):
        with pytest.raises(SimulationError):
            cpu_node.remove_task("ghost")

    def test_cpuset_written_to_cgroup(self, cpu_node):
        task = cpu_node.place_task("j", "/system.slice/slurmstepd.scope/job_1", 4, 2**30, UsageProfile.constant(0.5), 0.0)
        text = cpu_node.cgroupfs.read(task.cgroup_path, "cpuset.cpus").strip()
        assert text == "0-3"


class TestNodePhysics:
    def test_advance_charges_cgroup_cpu_time(self, cpu_node):
        cpu_node.place_task("j", "/system.slice/slurmstepd.scope/job_1", 10, 2**30, UsageProfile.constant(1.0), 0.0)
        cpu_node.advance(5.0, 5.0)
        cg = cpu_node.cgroupfs.get("/system.slice/slurmstepd.scope/job_1")
        assert cg.usage_usec == pytest.approx(10 * 5 * 1e6, rel=0.01)

    def test_task_power_sums_to_node_power_minus_os(self, gpu_node):
        gpu_node.place_task("a", "/system.slice/slurmstepd.scope/job_1", 16, 64 * 2**30, UsageProfile.constant(0.9, 0.6, 0.8), 0.0, ngpus=2)
        gpu_node.place_task("b", "/system.slice/slurmstepd.scope/job_2", 8, 32 * 2**30, UsageProfile.constant(0.3, 0.2), 0.0)
        t = 0.0
        for _ in range(60):
            t += 5.0
            bd = gpu_node.advance(t, 5.0)
        attributed = gpu_node.true_task_power("a") + gpu_node.true_task_power("b")
        assert attributed <= bd.total_w
        # Unattributed power = OS sliver + the idle power of the two
        # GPUs no task is bound to (indices 2 and 3).
        unbound_gpu_w = sum(gpu_node.gpus[i].power_w for i in (2, 3))
        assert attributed + unbound_gpu_w == pytest.approx(bd.total_w, rel=0.05)

    def test_rapl_energy_matches_breakdown(self, cpu_node):
        cpu_node.place_task("j", "/system.slice/slurmstepd.scope/job_1", 16, 2**30, UsageProfile.constant(0.8), 0.0)
        total_cpu_j = 0.0
        t = 0.0
        for _ in range(100):
            t += 5.0
            bd = cpu_node.advance(t, 5.0)
            total_cpu_j += bd.cpu_w * 5.0
        rapl_total = sum(pkg.package.total_energy_joules for pkg in cpu_node.rapl)
        assert rapl_total == pytest.approx(total_cpu_j, rel=1e-6)

    def test_amd_node_has_no_dram_rapl(self, amd_node):
        assert all(pkg.dram is None for pkg in amd_node.rapl)
        assert not amd_node.spec.has_dram_rapl

    def test_gpu_energy_integrates(self, gpu_node):
        gpu_node.place_task("j", "/system.slice/slurmstepd.scope/job_1", 4, 2**30, UsageProfile.constant(0.5, 0.5, 1.0), 0.0, ngpus=1)
        for i in range(10):
            gpu_node.advance((i + 1) * 5.0, 5.0)
        gpu = gpu_node.gpus[0]
        assert gpu.energy_mj == pytest.approx(gpu.profile.max_w * 50.0 * 1000, rel=0.01)
        assert gpu_node.gpus[1].energy_mj < gpu.energy_mj  # idle GPU draws less

    def test_time_cannot_go_backwards(self, cpu_node):
        cpu_node.advance(10.0, 5.0)
        with pytest.raises(SimulationError):
            cpu_node.advance(5.0, 5.0)

    def test_dt_must_be_positive(self, cpu_node):
        with pytest.raises(SimulationError):
            cpu_node.advance(10.0, 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        cpu=st.floats(min_value=0, max_value=1),
        mem=st.floats(min_value=0.05, max_value=0.9),
        steps=st.integers(min_value=1, max_value=20),
    )
    def test_energy_conservation_property(self, cpu, mem, steps):
        """Oracle-attributed energy never exceeds total node energy."""
        node = SimulatedNode(NodeSpec(name="p"), seed=1)
        node.place_task("j", "/system.slice/slurmstepd.scope/job_1", 8, 2**30, UsageProfile.constant(cpu, mem), 0.0)
        total = 0.0
        t = 0.0
        for _ in range(steps):
            t += 5.0
            bd = node.advance(t, 5.0)
            total += bd.total_w * 5.0
        assert 0 <= node.true_task_energy_j["j"] <= total + 1e-6


class TestUsageProfile:
    def test_constant_profile(self):
        sample = UsageProfile.constant(0.7, 0.4, 0.2).evaluate(1000.0)
        assert sample.cpu_util == pytest.approx(0.7)
        assert sample.mem_fraction == pytest.approx(0.4)
        assert sample.gpu_util == pytest.approx(0.2)

    def test_ramp(self):
        profile = UsageProfile(cpu_base=1.0, ramp_seconds=100.0)
        assert profile.evaluate(50.0).cpu_util == pytest.approx(0.5)
        assert profile.evaluate(200.0).cpu_util == pytest.approx(1.0)

    def test_sinusoid_bounded(self):
        profile = UsageProfile(cpu_base=0.5, cpu_amplitude=0.9, cpu_period=100.0)
        values = [profile.evaluate(t).cpu_util for t in range(0, 200, 5)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert max(values) > 0.9 and min(values) < 0.1

    def test_memory_growth_clamped(self):
        profile = UsageProfile(mem_base=0.5, mem_growth_per_hour=0.5)
        assert profile.evaluate(10 * 3600.0).mem_fraction == pytest.approx(0.95)

    def test_deterministic(self):
        p = UsageProfile(cpu_base=0.6, cpu_amplitude=0.2, phase=1.0)
        assert p.evaluate(123.0) == p.evaluate(123.0)

    def test_node_spec_properties(self):
        spec = NodeSpec(name="x", sockets=2, cores_per_socket=24, memory_gb=256)
        assert spec.ncores == 48
        assert spec.memory_bytes == 256 * 1024**3
        assert math.isclose(spec.memory_bytes / 1024**3, 256)
