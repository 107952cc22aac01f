"""What the deployment scrapes, probes and samples, pinned.

The stack's own served apps (LB, API server, Prometheus endpoints,
query frontend, Alertmanager) feed three lists: meta-monitoring scrape
targets, blackbox probe targets and the span stores sharing the tail
sampler.  These tests pin all three, in order where order is
observable, with and without the query frontend, the one switch that
adds or removes an app.
"""

import pytest

from repro.cluster import StackSimulation, small_topology
from repro.cluster.simulation import SimulationConfig

EXPORTER_SCRAPES = [
    ("intel-cpu-0000:9010", "ceems"),
    ("gpu-ipmi-incl-0000:9010", "ceems"),
    ("gpu-ipmi-incl-0000:9400", "dcgm"),
    ("emissions:9020", "emissions"),
]
EXPORTER_PROBES = [
    ("intel-cpu-0000:9010", "/health"),
    ("gpu-ipmi-incl-0000:9010", "/health"),
    ("gpu-ipmi-incl-0000:9400", "/metrics"),
    ("emissions:9020", "/metrics"),
]
ALWAYS_SAMPLED = {
    "tsdb-hot",
    "scrape-manager",
    "thanos-query",
    "ceems-lb",
    "ceems-api-server",
    "prom-0",
    "prom-1",
    "ceems-exporter-intel-cpu-0000",
    "ceems-exporter-gpu-ipmi-incl-0000",
    "dcgm-gpu-ipmi-incl-0000",
    "ceems-emissions",
}

def build(frontend: bool) -> StackSimulation:
    return StackSimulation(
        small_topology(cpu_nodes=1, gpu_nodes=1),
        SimulationConfig(seed=1, with_workload=False, frontend=frontend),
    )


def sampled_components(sim: StackSimulation) -> set[str]:
    """Components, among every telemetry the deployment can reach,
    whose span store records through the shared tail sampler."""
    apps = [sim.lb.app, sim.api_server.app, sim.alertmanager.app, *(api.app for api in sim.prom_apis)]
    apps += [t.app for t in sim.scrape_manager.targets]
    apps += [t.app for t in sim.prober.targets]
    if sim.frontend is not None:
        apps.append(sim.frontend.app)
    telemetries = [sim.hot_tsdb.telemetry, sim.scrape_manager.telemetry, sim.fanout.telemetry]
    telemetries += [app.telemetry for app in apps]
    return {t.component for t in telemetries if t.spans.sampler is sim.tail_sampler}


@pytest.mark.parametrize("frontend", (False, True), ids=lambda on: f"frontend={on}")
def test_scrape_probe_and_sampler_lists(frontend):
    sim = build(frontend)

    meta = [
        ("lb:9030", "ceems-lb"),
        ("api:9040", "ceems-api"),
        ("prom-0:9090", "prometheus"),
        ("prom-1:9090", "prometheus"),
    ]
    if frontend:
        meta.append(("frontend:9031", "ceems-frontend"))
    meta.append(("alertmanager:9093", "alertmanager"))
    assert [(t.instance, t.job) for t in sim.scrape_manager.targets] == EXPORTER_SCRAPES + meta

    probes = [
        ("lb:9030", "/-/ready"),
        ("api:9040", "/-/healthy"),
        ("prom-0:9090", "/-/healthy"),
        ("prom-1:9090", "/-/healthy"),
    ]
    if frontend:
        probes.append(("frontend:9031", "/-/healthy"))
    assert [(t.instance, t.path) for t in sim.prober.targets] == probes + EXPORTER_PROBES

    sampled = ALWAYS_SAMPLED | {"alertmanager"}
    if frontend:
        sampled.add("query-frontend")
    assert sampled_components(sim) == sampled
