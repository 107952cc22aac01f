"""What the deployment scrapes, probes and samples, pinned.

The stack's own served apps (LB, API server, Prometheus endpoints,
query frontend, Alertmanager) feed three lists: meta-monitoring scrape
targets, blackbox probe targets and the span stores sharing the tail
sampler.  These tests pin all three, in order where order is
observable, for every combination of the switches that add or remove
an app.
"""

import itertools

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

SWITCHES = list(itertools.product((False, True), repeat=3))


def build(frontend: bool, with_alerting: bool, meta_monitoring: bool) -> StackSimulation:
    return StackSimulation(
        small_topology(cpu_nodes=1, gpu_nodes=1),
        SimulationConfig(
            seed=1,
            with_workload=False,
            frontend=frontend,
            with_alerting=with_alerting,
            meta_monitoring=meta_monitoring,
        ),
    )


def sampled_components(sim: StackSimulation) -> set[str]:
    """Components, among every telemetry the deployment can reach,
    whose span store records through the shared tail sampler."""
    apps = [sim.lb.app, sim.api_server.app, *(api.app for api in sim.prom_apis)]
    apps += [t.app for t in sim.scrape_manager.targets]
    apps += [t.app for t in sim.prober.targets]
    for component in (sim.frontend, sim.alertmanager):
        if component is not None:
            apps.append(component.app)
    telemetries = [sim.hot_tsdb.telemetry, sim.scrape_manager.telemetry, sim.fanout.telemetry]
    telemetries += [app.telemetry for app in apps]
    return {t.component for t in telemetries if t.spans.sampler is sim.tail_sampler}


@pytest.mark.parametrize(
    "frontend,with_alerting,meta_monitoring",
    SWITCHES,
    ids=[f"frontend={a}-alerting={b}-meta={c}" for a, b, c in SWITCHES],
)
def test_scrape_probe_and_sampler_lists(frontend, with_alerting, meta_monitoring):
    sim = build(frontend, with_alerting, meta_monitoring)

    meta = []
    if meta_monitoring:
        meta = [
            ("lb:9030", "ceems-lb"),
            ("api:9040", "ceems-api"),
            ("prom-0:9090", "prometheus"),
            ("prom-1:9090", "prometheus"),
        ]
        if frontend:
            meta.append(("frontend:9031", "ceems-frontend"))
        if with_alerting:
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

    sampled = set(ALWAYS_SAMPLED)
    if frontend:
        sampled.add("query-frontend")
    if with_alerting:
        sampled.add("alertmanager")
    assert sampled_components(sim) == sampled
