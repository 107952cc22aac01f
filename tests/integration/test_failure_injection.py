"""Failure injection: the stack under partial outages.

Monitoring exists for bad days; these tests break one component at a
time mid-run and assert the degradation the design promises: failed
scrapes surface as ``up == 0`` and alerts, dead sensors degrade to
missing series (not wrong numbers), emission-provider outages fall
back to the static table, unhealthy LB backends stop receiving
traffic, and a crashed API server restores from the continuous
backup with its authorization data intact.
"""

import pytest

from repro.cluster import StackSimulation, small_topology
from repro.cluster.simulation import SimulationConfig
from repro.common.httpx import Response
from repro.energy.rules_library import POWER_METRIC
from repro.lb import Backend, DBAuthorizer, LoadBalancer
from repro.resourcemgr.workload import SizeClass, WorkloadMix
from repro.tsdb.model import Matcher
from tests.test_alerts import firing

MIX = WorkloadMix(
    mean_interarrival=200.0,
    sizes=(SizeClass("s", weight=1.0, ncores=4, memory_gb=8),),
)


def make_sim(**overrides) -> StackSimulation:
    config = SimulationConfig(seed=13, update_interval=600.0, **overrides)
    return StackSimulation(small_topology(cpu_nodes=2, gpu_nodes=0), config, workload=MIX)


class TestExporterOutage:
    def test_down_target_up_zero_and_alert(self):
        sim = make_sim()
        alerts = sim.rule_evaluator
        sim.run(1200.0)
        assert "CEEMSTargetDown" not in firing(alerts)

        # break node 0's exporter: every request now 500s
        victim = sim.exporters[0]
        original = victim.app.router.dispatch
        victim.app.router.dispatch = lambda req: Response.error(500, "exporter crashed")
        sim.run(600.0)

        up = sim.engine.query('up{job="ceems"}', at=sim.now).vector
        by_instance = {el.labels.get("instance"): el.value for el in up}
        assert by_instance[f"{victim.node.spec.name}:9010"] == 0.0
        assert sum(v for v in by_instance.values()) == len(by_instance) - 1
        assert firing(alerts).get("CEEMSTargetDown") == 1

        # recovery clears the alert
        victim.app.router.dispatch = original
        sim.run(600.0)
        assert "CEEMSTargetDown" not in firing(alerts)

    def test_other_nodes_keep_reporting_power(self):
        sim = make_sim()
        sim.run(1200.0)
        victim = sim.exporters[0]
        victim.app.router.dispatch = lambda req: Response.error(500, "dead")
        sim.run(600.0)
        healthy_host = sim.exporters[1].node.spec.name
        result = sim.engine.query(
            f'ceems:node:power_watts{{hostname="{healthy_host}"}}', at=sim.now
        )
        assert result.vector and result.vector[0].value > 0


class TestSensorFailure:
    def test_dead_bmc_degrades_to_missing_power(self):
        """A dead BMC must yield *no* estimates, never stale/wrong ones."""
        sim = make_sim()
        sim.run(1200.0)
        node = sim.nodes[0]
        host = node.spec.name
        had_power = sim.engine.query(
            f'instance:ipmi_watts{{hostname="{host}"}}', at=sim.now
        )
        assert had_power.vector

        # kill the BMC: reads report inactive from now on
        node.ipmi.reset_statistics()
        node.ipmi.observe = lambda now, total, gpu: None  # type: ignore[assignment]
        node.ipmi._window_count = 0
        sim.run(600.0)

        after = sim.engine.query(f'instance:ipmi_watts{{hostname="{host}"}}', at=sim.now)
        assert after.vector == []
        power = sim.engine.query(POWER_METRIC, at=sim.now)
        assert all(el.labels.get("hostname") != host for el in power.vector)

    def test_broken_collector_reports_success_zero(self):
        sim = make_sim(with_workload=False)
        exporter = sim.exporters[0]
        rapl = next(c for c in exporter.registry._collectors if c.name == "rapl")
        rapl.collect = lambda now: (_ for _ in ()).throw(RuntimeError("msr gone"))  # type: ignore[assignment]
        sim.run(300.0)
        result = sim.engine.query(
            f'ceems_exporter_collector_success{{collector="rapl", '
            f'hostname="{exporter.node.spec.name}"}}',
            at=sim.now,
        )
        assert result.vector[0].value == 0.0
        # scrape overall still succeeds
        up = sim.engine.query(
            f'up{{instance="{exporter.node.spec.name}:9010"}}', at=sim.now
        )
        assert up.vector[0].value == 1.0


class TestProviderOutage:
    def test_emissions_fall_back_mid_run(self):
        sim = make_sim(with_workload=False)
        sim.run(600.0)
        resolved = sim.engine.query(
            'ceems_emissions_gCo2_kWh{provider="resolved"}', at=sim.now
        )
        rte = sim.engine.query('ceems_emissions_gCo2_kWh{provider="rte"}', at=sim.now)
        assert resolved.vector[0].value == rte.vector[0].value

        # RTE API goes dark
        for provider in sim.emission_registry.providers:
            if provider.name == "rte":
                provider.available = False
        sim.run(600.0)
        resolved = sim.engine.query(
            'ceems_emissions_gCo2_kWh{provider="resolved"}', at=sim.now
        )
        em = sim.engine.query(
            'ceems_emissions_gCo2_kWh{provider="electricity_maps"}', at=sim.now
        )
        assert resolved.vector[0].value == em.vector[0].value  # next in chain
        rte_series = sim.engine.query('ceems_emissions_gCo2_kWh{provider="rte"}', at=sim.now)
        assert rte_series.vector == []  # stale-marked away


class TestLBBackendFailure:
    def test_unhealthy_backend_stops_receiving(self, small_sim):
        backends = [Backend(f"b{i}", small_sim.prom_apis[i % 2].app) for i in range(3)]
        lb = LoadBalancer(backends, DBAuthorizer(small_sim.db))
        row = small_sim.db.list_units(limit=1)[0]
        import urllib.parse

        selector = POWER_METRIC + '{uuid="' + row["uuid"] + '"}'
        url = f"/api/v1/query?query={urllib.parse.quote(selector)}&time={small_sim.now}"
        headers = {"x-grafana-user": row["user"]}
        backends[1].healthy = False
        seen = {lb.app.get(url, headers=headers).headers["x-ceems-backend"] for _ in range(6)}
        assert seen == {"b0", "b2"}


class TestAPIServerCrashRecovery:
    def test_restore_from_litestream_preserves_authz(self):
        sim = make_sim()
        sim.run(2400.0)
        assert sim.litestream.generations
        row = sim.db.list_units(limit=1)[0]

        # "crash": rebuild the authorizer against a restored DB
        restored = sim.litestream.restore()
        assert restored.integrity_check()
        authz = DBAuthorizer(restored)
        assert authz.allowed(row["user"], {row["uuid"]}, unbounded=False)
        assert not authz.allowed("intruder", {row["uuid"]}, unbounded=False)
        assert restored.count_units() == sim.db.count_units()


class TestCleanupUnderChurn:
    def test_cleanup_in_live_stack(self):
        """Cleanup wired into the updater removes short jobs' series."""
        mix = WorkloadMix(
            mean_interarrival=120.0,
            duration_mu=4.5,  # median ~90 s: most jobs are short
            duration_sigma=0.8,
            sizes=(SizeClass("s", weight=1.0, ncores=2, memory_gb=4),),
        )
        sim = StackSimulation(
            small_topology(cpu_nodes=2, gpu_nodes=0),
            SimulationConfig(seed=3, update_interval=600.0, cleanup_cutoff=300.0),
            workload=mix,
        )
        sim.run(2 * 3600.0)
        stats = sim.cleaner.stats
        assert stats.units_cleaned > 0
        # cleaned units have no series left in the hot TSDB
        for uuid in list(stats.cleaned_uuids)[:5]:
            assert sim.hot_tsdb.select([Matcher.eq("uuid", uuid)]) == []
        # but remain accounted in SQLite
        some_uuid = next(iter(stats.cleaned_uuids))
        assert sim.db.get_unit(sim.config.cluster_name, some_uuid) is not None


class TestNodeCrashInStack:
    def test_node_crash_end_to_end(self):
        """A node dies: its jobs fail in accounting, its series go
        stale, the target-down alert fires, and the Fig. 2b job list
        shows the failed state."""
        sim = make_sim()
        sim.run(1800.0)
        running = sim.slurm.active_units()
        if not running:
            pytest.skip("no running jobs at crash time for this seed")
        victim_host = running[0].nodelist[0]
        victim_node = next(n for n in sim.nodes if n.spec.name == victim_host)
        victim_exporter = next(e for e in sim.exporters if e.node is victim_node)

        failed_ids = sim.slurm.fail_node(victim_host, sim.now)
        victim_exporter.app.router.dispatch = lambda req: Response.error(500, "node crashed")
        sim.run(900.0)

        # accounting: the jobs are FAILED with exit code 1
        for uuid in failed_ids:
            row = sim.db.get_unit(sim.config.cluster_name, uuid)
            assert row["state"] == "failed"
            assert row["exit_code"] == 1
        # monitoring: the node's unit power series are gone
        power = sim.engine.query(POWER_METRIC, at=sim.now)
        assert all(el.labels.get("hostname") != victim_host for el in power.vector)
        # alerting: target down fired
        assert firing(sim.rule_evaluator).get("CEEMSTargetDown") == 1
        # scheduling: the dead node takes no new jobs
        assert victim_host in sim.slurm.down_nodes
        sim.run(600.0)
        assert not victim_node.tasks
