"""Integration tests: the full Fig. 1 architecture, end to end.

These tests exercise the assembled stack (the shared 2-hour
simulation) across component boundaries, plus one pass over real TCP
sockets to prove the components genuinely speak HTTP.
"""

import pytest

from repro.common.httpx import http_get, serve_threading
from repro.energy.rules_library import EMISSIONS_METRIC, POWER_METRIC


class TestPipelineConsistency:
    def test_every_running_job_has_power_series(self, small_sim):
        """Each running unit must have a recorded power estimate."""
        running = small_sim.slurm.active_units()
        result = small_sim.engine.query(POWER_METRIC, at=small_sim.now)
        estimated = {el.labels.get("uuid") for el in result.vector}
        for unit in running:
            if small_sim.now - (unit.started_at or small_sim.now) > 180:
                assert unit.uuid in estimated, unit.uuid

    def test_no_power_series_for_long_finished_jobs(self, small_sim):
        """Staleness: jobs finished >5 min ago have no live estimate."""
        result = small_sim.engine.query(POWER_METRIC, at=small_sim.now)
        estimated = {el.labels.get("uuid") for el in result.vector}
        for unit in small_sim.slurm.list_units(0, small_sim.now):
            if unit.ended_at is not None and small_sim.now - unit.ended_at > 360:
                assert unit.uuid not in estimated, unit.uuid

    def test_cluster_power_attribution_conserves_energy(self, small_sim):
        """Sum of unit power ≈ sum of node IPMI power (minus idle nodes)."""
        at = small_sim.now
        units = small_sim.engine.query(f"sum({POWER_METRIC})", at=at)
        nodes = small_sim.engine.query("sum(instance:ipmi_watts)", at=at)
        gpus_idle = sum(
            gpu.power_w
            for node in small_sim.nodes
            for i, gpu in enumerate(node.gpus)
            if not any(i in t.gpu_indices for t in node.tasks.values())
        )
        # Nodes with no jobs contribute IPMI power but no unit power,
        # so unit power must be below node power, but within the idle
        # floor of the deployment.
        assert units.vector[0].value < nodes.vector[0].value
        idle_floor = sum(
            n.power_model.platform.floor_w
            + n.power_model.sockets * (n.power_model.cpu.idle_w + n.power_model.dram.idle_w)
            for n in small_sim.nodes
            if not n.tasks
        )
        assert units.vector[0].value + idle_floor + gpus_idle >= 0.5 * nodes.vector[0].value

    def test_db_energy_matches_tsdb_integral(self, small_sim):
        """The API server's accumulated energy tracks the TSDB series."""
        rows = small_sim.db.list_units(state="completed", limit=200)
        checked = 0
        for row in rows:
            if row["elapsed"] < 900 or row["energy_joules"] <= 0:
                continue
            integral = small_sim.estimator.unit_energy_joules(
                row["uuid"], row["started_at"], row["ended_at"] + 60
            )
            if integral <= 0:
                continue  # series already beyond hot retention
            assert row["energy_joules"] == pytest.approx(integral, rel=0.35), row["uuid"]
            checked += 1
        assert checked >= 1

    def test_emissions_follow_power(self, small_sim):
        at = small_sim.now
        power = small_sim.engine.query(POWER_METRIC, at=at).by_labels()
        emissions = small_sim.engine.query(EMISSIONS_METRIC, at=at).by_labels()
        factor = small_sim.emission_registry.factor("FR", at).value
        for labels, co2_rate in emissions.items():
            matching_power = power.get(labels)
            if matching_power:
                assert co2_rate == pytest.approx(matching_power * factor / 3.6e6, rel=0.3)

    def test_thanos_holds_history(self, small_sim):
        assert sum(b.num_samples for b in small_sim.object_store.blocks) > 0
        assert len(small_sim.object_store.blocks) >= 1

    def test_updater_ran_and_synced(self, small_sim):
        assert small_sim.updater.stats.passes >= 2
        assert small_sim.db.count_units() == small_sim.slurm.jobs_submitted

    def test_backup_taken(self, small_sim):
        assert small_sim.litestream.generations
        restored = small_sim.litestream.restore()
        assert restored.count_units() > 0

    def test_scrape_health_all_up(self, small_sim):
        assert small_sim.scrape_manager.healthy_targets() == len(small_sim.scrape_manager.targets)

    def test_rule_groups_healthy(self, small_sim):
        for group in small_sim.rule_evaluator.groups:
            assert group.evaluations > 100
            assert group.last_error == "", group.name


class TestAccessControlEndToEnd:
    def test_user_isolation_matrix(self, small_sim):
        """Every user can read own units, no one else's."""
        units = small_sim.db.list_units(limit=500)
        by_user: dict[str, list[str]] = {}
        for row in units:
            by_user.setdefault(row["user"], []).append(row["uuid"])
        users = list(by_user)[:3]
        for user in users:
            prom = small_sim.prometheus_datasource(user)
            own = by_user[user][0]
            prom.query(f'{POWER_METRIC}{{uuid="{own}"}}', small_sim.now)  # no raise
            for other in users:
                if other == user:
                    continue
                foreign = by_user[other][0]
                from repro.common.errors import AuthError

                with pytest.raises(AuthError):
                    prom.query(f'{POWER_METRIC}{{uuid="{foreign}"}}', small_sim.now)


class TestRealSockets:
    def test_prom_api_and_api_server_over_tcp(self, small_sim):
        """Both HTTP services answer over real sockets."""
        prom_server = serve_threading(small_sim.prom_apis[0].app)
        api_server = serve_threading(small_sim.api_server.app)
        try:
            status, body = http_get(
                f"{prom_server.url}/api/v1/query?query=sum(up)&time={small_sim.now}"
            )
            assert status == 200 and b"success" in body
            status, body = http_get(
                f"{api_server.url}/api/v1/clusters", headers={"X-Grafana-User": "admin"}
            )
            assert status == 200 and b"sim-cluster" in body
        finally:
            prom_server.close()
            api_server.close()

    def test_lb_access_control_over_tcp(self, small_sim):
        lb_server = serve_threading(small_sim.lb.app)
        try:
            import urllib.parse

            row = small_sim.db.list_units(limit=1)[0]
            query = urllib.parse.quote(f'{POWER_METRIC}{{uuid="{row["uuid"]}"}}')
            url = f"{lb_server.url}/api/v1/query?query={query}&time={small_sim.now}"
            status, _ = http_get(url, headers={"X-Grafana-User": row["user"]})
            assert status == 200
            status, _ = http_get(url, headers={"X-Grafana-User": "intruder"})
            assert status == 403
            status, _ = http_get(url)
            assert status == 401
        finally:
            lb_server.close()
