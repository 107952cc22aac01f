"""Numerical fidelity tests for the paper's Eq. (1) recording rules.

Each test wires a single node with the real exporter → scrape → rules
pipeline and compares the recorded per-unit power against the
simulation's ground-truth attribution oracle.  Eq. (1) is an
*approximation* (the paper: it "stays a very good approximation"), so
the assertions check conserved totals tightly and per-job shares
loosely.
"""

import numpy as np
import pytest

from repro.common.clock import SimClock
from repro.common.config import ExporterConfig
from repro.emissions import OWIDProvider, ProviderRegistry, RTEProvider
from repro.emissions.pipeline import EmissionsExporter
from repro.energy import (
    EMISSIONS_METRIC,
    POWER_METRIC,
    NodeGroup,
    emissions_rules,
    rules_for_group,
    standard_rule_groups,
)
from repro.energy.rules_library import JEAN_ZAY_GROUPS, NODE_POWER_METRIC
from repro.exporter import CEEMSExporter, DCGMExporter
from repro.hwsim import NodeSpec, SimulatedNode, UsageProfile
from repro.tsdb import ScrapeConfig, ScrapeManager, ScrapeTarget, TSDB
from repro.tsdb.promql.ast import iter_nodes
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.rules import RuleManager


class Rig:
    """One node + full measurement pipeline + rules."""

    def __init__(self, spec: NodeSpec, group: NodeGroup, seed: int = 5) -> None:
        self.clock = SimClock(start=0.0)
        self.node = SimulatedNode(spec, seed=seed)
        self.db = TSDB()
        self.scrapes = ScrapeManager(self.db, ScrapeConfig(interval=15.0))
        labels = {"hostname": spec.name, "nodegroup": group.name}
        exporter = CEEMSExporter(
            self.node,
            self.clock,
            ExporterConfig(collectors=("cgroup", "rapl", "ipmi", "node", "gpu_map")),
        )
        self.scrapes.add_target(
            ScrapeTarget(app=exporter.app, instance=f"{spec.name}:9010", job="ceems", group_labels=dict(labels))
        )
        if spec.gpus:
            dcgm = DCGMExporter(self.node, self.clock)
            self.scrapes.add_target(
                ScrapeTarget(app=dcgm.app, instance=f"{spec.name}:9400", job="dcgm", group_labels=dict(labels))
            )
        registry = ProviderRegistry()
        registry.register(RTEProvider(seed=1))
        registry.register(OWIDProvider())
        emissions = EmissionsExporter(registry, "FR", self.clock)
        self.scrapes.add_target(
            ScrapeTarget(app=emissions.app, instance="em:9020", job="emissions")
        )
        self.rules = RuleManager(self.db)
        self.rules.add_group(rules_for_group(group, interval=30.0))
        self.rules.add_group(emissions_rules(interval=30.0))
        self.clock.every(5.0, lambda now: self.node.advance(now, 5.0))
        self.scrapes.register_timer(self.clock)
        self.rules.register_timers(self.clock)
        self.engine = PromQLEngine(self.db)

    def run(self, seconds: float) -> None:
        self.clock.advance(seconds)

    def estimated_power(self, at: float) -> dict[str, float]:
        result = self.engine.query(POWER_METRIC, at=at)
        return {el.labels.get("uuid"): el.value for el in result.vector}

    def oracle_power(self) -> dict[str, float]:
        return {u: self.node.true_task_power(u) for u in self.node.tasks}


def job_path(uuid: str) -> str:
    return f"/system.slice/slurmstepd.scope/job_{uuid}"


class TestIntelDramVariant:
    """Full Eq. (1): IPMI split by RAPL CPU/DRAM ratio, then by shares."""

    @pytest.fixture(scope="class")
    def rig(self):
        rig = Rig(NodeSpec(name="intel0"), NodeGroup("intel-cpu", True, False, True))
        rig.node.place_task("1", job_path("1"), 24, 96 * 2**30, UsageProfile.constant(0.95, 0.7), 0.0)
        rig.node.place_task("2", job_path("2"), 8, 16 * 2**30, UsageProfile.constant(0.25, 0.3), 0.0)
        rig.run(1200.0)
        return rig

    def test_all_units_estimated(self, rig):
        assert set(rig.estimated_power(1200.0)) == {"1", "2"}

    def test_total_conserved_vs_ipmi(self, rig):
        """Per-job estimates sum to ≈ the IPMI node power."""
        estimates = rig.estimated_power(1200.0)
        ipmi = rig.engine.query("instance:ipmi_watts", at=1200.0).vector[0].value
        # 0.9 share follows CPU-time fractions (jobs own almost all CPU
        # time; the OS sliver is unattributed) + full 0.1 network share.
        assert sum(estimates.values()) <= ipmi * 1.001
        assert sum(estimates.values()) == pytest.approx(ipmi, rel=0.1)

    def test_heavier_job_gets_more_power(self, rig):
        estimates = rig.estimated_power(1200.0)
        assert estimates["1"] > 2.5 * estimates["2"]

    def test_shares_track_oracle(self, rig):
        """Eq. (1) share of each job is within 20 pp of ground truth.

        The systematic error source: Eq. (1) distributes *all* of the
        0.9·IPMI share by CPU-time/memory fractions, idle power
        included, while the oracle splits idle power evenly among
        jobs.  For a 24-core@95% vs 8-core@25% pair this costs ~15 pp
        — the price of the paper's simple model (measured in bench E1).
        """
        estimates = rig.estimated_power(1200.0)
        oracle = rig.oracle_power()
        est_total = sum(estimates.values())
        oracle_total = sum(oracle.values())
        for uuid in estimates:
            est_share = estimates[uuid] / est_total
            true_share = oracle[uuid] / oracle_total
            assert abs(est_share - true_share) < 0.20, uuid

    def test_node_power_metric_recorded(self, rig):
        result = rig.engine.query(NODE_POWER_METRIC, at=1200.0)
        assert result.vector[0].value > 0

    def test_emissions_metric_recorded(self, rig):
        result = rig.engine.query(EMISSIONS_METRIC, at=1200.0)
        values = {el.labels.get("uuid"): el.value for el in result.vector}
        assert set(values) == {"1", "2"}
        # g/s = W * factor / 3.6e6; with FR factors this is tiny
        power = rig.estimated_power(1200.0)
        for uuid in values:
            implied_factor = values[uuid] / power[uuid] * 3.6e6
            assert 15.0 < implied_factor < 160.0  # plausible FR factor


class TestAmdVariant:
    """Package-only RAPL: the 0.9 share follows CPU time alone."""

    @pytest.fixture(scope="class")
    def rig(self):
        spec = NodeSpec(name="amd0", cpu_model="amd-milan", cores_per_socket=32, memory_gb=256, dram_profile="ddr4-384g")
        rig = Rig(spec, NodeGroup("amd-cpu", False, False, True))
        rig.node.place_task("1", job_path("1"), 48, 128 * 2**30, UsageProfile.constant(0.9, 0.6), 0.0)
        rig.node.place_task("2", job_path("2"), 16, 32 * 2**30, UsageProfile.constant(0.9, 0.1), 0.0)
        rig.run(1200.0)
        return rig

    def test_estimates_exist_without_dram_rapl(self, rig):
        estimates = rig.estimated_power(1200.0)
        assert set(estimates) == {"1", "2"}

    def test_split_follows_cpu_time_only(self, rig):
        """Same utilisation, 3x cores -> ~3x the 0.9-share power."""
        estimates = rig.estimated_power(1200.0)
        ipmi = rig.engine.query("instance:ipmi_watts", at=1200.0).vector[0].value
        network_each = 0.1 * ipmi / 2
        share_1 = estimates["1"] - network_each
        share_2 = estimates["2"] - network_each
        assert share_1 / share_2 == pytest.approx(3.0, rel=0.05)

    def test_total_conserved(self, rig):
        estimates = rig.estimated_power(1200.0)
        ipmi = rig.engine.query("instance:ipmi_watts", at=1200.0).vector[0].value
        assert sum(estimates.values()) == pytest.approx(ipmi, rel=0.1)


class TestGpuIpmiInclusiveVariant:
    """IPMI covers GPU rails: GPU power subtracted then re-credited."""

    @pytest.fixture(scope="class")
    def rig(self):
        spec = NodeSpec(name="gpu0", gpus=("A100",) * 4, memory_gb=384, dram_profile="ddr4-384g", ipmi_includes_gpu=True)
        rig = Rig(spec, NodeGroup("gpu-ipmi-incl", True, True, True))
        rig.node.place_task("1", job_path("1"), 16, 128 * 2**30, UsageProfile.constant(0.6, 0.5, 0.9), 0.0, ngpus=2)
        rig.node.place_task("2", job_path("2"), 16, 128 * 2**30, UsageProfile.constant(0.6, 0.5), 0.0)
        rig.run(1200.0)
        return rig

    def test_gpu_job_dominates(self, rig):
        estimates = rig.estimated_power(1200.0)
        assert estimates["1"] > estimates["2"] + 300.0  # ~2 busy A100s

    def test_gpu_power_credited_to_bound_unit(self, rig):
        unit_gpu = rig.engine.query('instance:unit_gpu_watts{uuid="1"}', at=1200.0)
        assert unit_gpu.vector[0].value > 2 * 200.0  # two A100s at 90% util
        none_for_cpu_job = rig.engine.query('instance:unit_gpu_watts{uuid="2"}', at=1200.0)
        assert none_for_cpu_job.vector == []

    def test_total_conserved_incl_gpu(self, rig):
        estimates = rig.estimated_power(1200.0)
        ipmi = rig.engine.query("instance:ipmi_watts", at=1200.0).vector[0].value
        # idle power of the two unbound GPUs stays unattributed
        idle_unbound = sum(rig.node.gpus[i].power_w for i in (2, 3))
        assert sum(estimates.values()) == pytest.approx(ipmi - idle_unbound, rel=0.12)

    def test_cpu_only_job_unaffected_by_gpu(self, rig):
        """The CPU job's estimate is in CPU-node territory."""
        estimates = rig.estimated_power(1200.0)
        assert estimates["2"] < 400.0


class TestGpuIpmiExclusiveVariant:
    """IPMI excludes GPU rails: no subtraction, GPU added on top."""

    @pytest.fixture(scope="class")
    def rig(self):
        spec = NodeSpec(name="gpu1", gpus=("A100",) * 4, memory_gb=384, dram_profile="ddr4-384g", ipmi_includes_gpu=False)
        rig = Rig(spec, NodeGroup("gpu-ipmi-excl", True, True, False))
        rig.node.place_task("1", job_path("1"), 16, 128 * 2**30, UsageProfile.constant(0.6, 0.5, 0.9), 0.0, ngpus=2)
        rig.run(1200.0)
        return rig

    def test_estimate_exceeds_ipmi_reading(self, rig):
        """With GPU outside IPMI, unit power > node IPMI power."""
        estimates = rig.estimated_power(1200.0)
        ipmi = rig.engine.query("instance:ipmi_watts", at=1200.0).vector[0].value
        assert estimates["1"] > ipmi

    def test_total_is_ipmi_plus_bound_gpu(self, rig):
        estimates = rig.estimated_power(1200.0)
        ipmi = rig.engine.query("instance:ipmi_watts", at=1200.0).vector[0].value
        bound_gpu = sum(rig.node.gpus[i].power_w for i in (0, 1))
        assert sum(estimates.values()) == pytest.approx(ipmi + bound_gpu, rel=0.12)


class TestRuleLibraryShape:
    def test_jean_zay_groups_cover_paper_cases(self):
        names = {g.name for g in JEAN_ZAY_GROUPS}
        assert names == {"intel-cpu", "amd-cpu", "gpu-ipmi-incl", "gpu-ipmi-excl"}

    def test_standard_groups_include_emissions(self):
        groups = standard_rule_groups()
        assert any(g.name == "ceems-emissions" for g in groups)
        assert len(groups) == len(JEAN_ZAY_GROUPS) + 1

    def test_rules_parse(self):
        """Every rule in the library must be valid PromQL."""
        for group in standard_rule_groups():
            for rule in group.rules:
                rule.ast()  # raises on parse error

    def test_amd_group_has_no_dram_rules(self):
        group = rules_for_group(NodeGroup("amd-cpu", False, False, True))
        records = [r.record for r in group.rules]
        assert "instance:rapl_dram_watts" not in records

    def test_gpu_group_has_gpu_rules(self):
        group = rules_for_group(NodeGroup("gpu-ipmi-incl", True, True, True))
        records = [r.record for r in group.rules]
        assert "instance:unit_gpu_watts" in records


class TestConservationUnderChurn:
    """Eq. (1) conserved at *every* rule tick of a deployment whose jobs
    come and go — so through every rebuild of the rules' label plans —
    not only at one settled instant of a hand-placed pair of jobs.

    Read-only over the session's ``small_sim`` (3 Intel CPU nodes + 1
    GPU node whose IPMI covers the GPU rails, two hours, seed 11).  A
    node is checked at a tick when it is occupied and *warm*: no job
    on it started or ended within the last rate window plus a scrape
    and a rule interval, so every running job has its ``rate``.  What a
    node can attribute is ``instance:ipmi_watts``, on the GPU class less
    ``instance:gpu_watts`` plus the power of the GPUs bound to jobs
    (the classes above state it the same way).  The band asserted is
    theirs (at most the node's power, at least 0.88 of it); the band
    observed, [0.897, 0.988], is recorded in EXPERIMENTS.md E1 — the
    low end is one small job alone on a 32-core node, whose OS sliver
    of CPU time Eq. (1) leaves unattributed.
    """

    STEP = 30.0  # the rule interval: every tick, nothing in between
    WARM = 120.0 + 15.0 + 30.0  # rate window + one scrape + one rule tick

    @pytest.fixture(scope="class")
    def ticks(self, small_sim):
        sim = small_sim
        end = sim.now
        start = end - 5400.0
        grid = np.arange(start, end + 1.0, self.STEP)

        def per_host(query: str) -> dict[str, np.ndarray]:
            """Σ by hostname of ``query`` at every tick (0 where absent),
            through the columnar evaluator: not the walk under test."""
            out: dict[str, np.ndarray] = {}
            for labels, (ts, vs) in sim.engine.query_range(query, start, end, self.STEP).series.items():
                column = out.setdefault(labels.get("hostname"), np.zeros(len(grid)))
                column[np.round((ts - start) / self.STEP).astype(int)] += vs
            return out

        units = sim.slurm.list_units(0.0, end)
        return sim, grid, per_host, units

    def test_unit_power_sums_to_what_the_node_can_attribute(self, ticks):
        sim, grid, per_host, units = ticks
        unit_power = per_host(POWER_METRIC)
        unit_count = per_host(f"count by (hostname) ({POWER_METRIC})")
        ipmi = per_host("instance:ipmi_watts")
        gpu = per_host("instance:gpu_watts")
        bound_gpu = per_host("instance:unit_gpu_watts")
        assert set(ipmi) == {node.spec.name for node in sim.nodes} and set(gpu) == {"gpu-ipmi-incl-0000"}
        ratios, edges_seen = [], 0
        for host, node_watts in ipmi.items():
            attributable = node_watts - gpu.get(host, 0.0) + bound_gpu.get(host, 0.0)
            mine = [u for u in units if host in u.nodelist]
            edges = [t for u in mine for t in (u.started_at, u.ended_at) if t]
            edges_seen += sum(grid[0] <= t <= grid[-1] for t in edges)
            for i, t in enumerate(grid):
                running = sum(u.started_at <= t and not (u.ended_at and u.ended_at <= t) for u in mine)
                if not running or any(t - self.WARM <= edge <= t for edge in edges):
                    continue
                # warm: every running job is being attributed
                assert unit_count[host][i] == running, (host, t)
                ratios.append(unit_power[host][i] / attributable[i])
        ratios = np.asarray(ratios)
        assert edges_seen >= 20 and len(ratios) >= 250  # jobs did start and end, and most ticks are checked
        assert ratios.max() <= 1.001 and ratios.min() >= 0.88, (ratios.min(), ratios.max())
        # the band EXPERIMENTS.md E1 quotes, so a drift shows up here first
        assert ratios.min() == pytest.approx(0.897, abs=0.005) and ratios.max() == pytest.approx(0.988, abs=0.005)
        # and the rules got here through rebuilt plans, not one cold build
        hits, rebuilds = map(sum, zip(*(group.plan_counts() for group in sim.rule_evaluator.groups)))
        cold = sum(len(list(iter_nodes(rule.ast()))) for group in sim.rule_evaluator.groups for rule in group.rules)
        assert rebuilds > cold and hits > 4 * rebuilds

    def test_emission_rate_is_power_times_the_factor_in_force(self, ticks):
        sim, _grid, _per_host, _units = ticks
        end = sim.now
        start = end - 5400.0
        power = sim.engine.query_range(POWER_METRIC, start, end, self.STEP).series
        rate = sim.engine.query_range(EMISSIONS_METRIC, start, end, self.STEP).series
        (factor,) = sim.engine.query_range('ceems_emissions_gCo2_kWh{provider="resolved"}', start, end, self.STEP).series.values()
        factor_at = dict(zip(factor[0].tolist(), factor[1].tolist()))
        assert len(set(factor_at.values())) > 3  # the factor moved inside the window
        checked = 0
        for labels, (ts, watts) in power.items():
            got_ts, got = rate[labels.with_name(EMISSIONS_METRIC)]
            assert got_ts.tolist() == ts.tolist()
            for t, w, g in zip(ts.tolist(), watts.tolist(), got.tolist()):
                assert g == w * factor_at[t] / 3.6e6, (labels, t)  # to the bit: the rule's own arithmetic
                checked += 1
        assert checked > 1000
