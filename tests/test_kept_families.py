"""Kept families: a scrape writes its readings into the families it
already has.

* a scrape whose series set held makes no ``MetricFamily`` or
  ``MetricPoint`` and hands out the same points, over the same label
  dicts, as the one before;
* ``KeptFamilies.fill`` against rows built afresh, through every kind
  of series-set change (rows come, go, move, show up in other
  families) and a fill that fails half way;
* the self-telemetry metrics against the frozen stateless registry of
  ``tests/reference/exporter.py``, fed the same observations;
* threads scraping one exporter at once never see a torn body;
* the simulated kernel renders one file per read, and the dict views
  are made of those reads.

The live-deployment differential (every body of every endpoint kind
against the frozen stateless endpoints) is ``TestLiveDeployment`` in
``tests/test_exposition_body.py``.
"""

from __future__ import annotations

import math
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import StackSimulation, small_topology
from repro.cluster.simulation import SimulationConfig
from repro.common.errors import SimulationError
from repro.common.httpx import Request
from repro.exporter import CEEMSExporter
from repro.exporter.collectors import CgroupCollector, GPUMapCollector, RAPLCollector
from repro.hwsim import NodeSpec, SimulatedNode, UsageProfile
from repro.exporter.collector import Collector
from repro.hwsim.cgroupfs import Cgroup, IOStat
from repro.hwsim.rapl import RAPLPackage
from repro.obs import registry as registry_mod
from repro.obs.trace import TraceContext, activate, deactivate
from repro.tsdb import exposition
from repro.tsdb.exposition import KeptFamilies, MetricFamily, MetricPoint
from tests.reference import exporter as reference
from tests.reference.exposition import render as frozen_render


def _metrics(app):
    return app.handle(Request(method="GET", path="/metrics")).body.decode()


def _points(families):
    return [(id(p), id(p.labels)) for f in families for p in f.points]


@pytest.fixture(scope="module")
def steady():
    """A deployment after 20 minutes of jobs; scraping its endpoints
    directly leaves the clock, and so the series set, where it is."""
    sim = StackSimulation(small_topology(cpu_nodes=2, gpu_nodes=1), SimulationConfig(seed=7))
    sim.run(20 * 60.0)
    return sim


@pytest.fixture
def made(monkeypatch):
    """Counts of ``MetricFamily`` / ``MetricPoint`` objects made."""
    counts = {"families": 0, "points": 0}
    family_init, point_init = MetricFamily.__init__, MetricPoint.__init__

    def count_family(self, *args, **kwargs):
        counts["families"] += 1
        family_init(self, *args, **kwargs)

    def count_point(self, *args, **kwargs):
        counts["points"] += 1
        point_init(self, *args, **kwargs)

    monkeypatch.setattr(MetricFamily, "__init__", count_family)
    monkeypatch.setattr(MetricPoint, "__init__", count_point)
    return counts


class TestASteadyScrapeMakesNothing:
    def endpoints(self, sim):
        apps = [e.app for e in [*sim.exporters, *sim.gpu_exporters, sim.emissions_exporter]]
        exporters = {id(app) for app in apps}
        return apps + [t.app for t in sim.scrape_manager.targets if id(t.app) not in exporters]

    def test_no_family_or_point_is_made(self, steady, made):
        apps = self.endpoints(steady)
        assert len(apps) >= 8
        for _ in range(2):  # a first scrape may add its own request's label sets
            for app in apps:
                _metrics(app)
        made["families"] = made["points"] = 0
        texts = [_metrics(app) for app in apps]
        assert made == {"families": 0, "points": 0}
        assert all("ceems_" in text or "DCGM_" in text for text in texts)

    def test_the_same_points_over_the_same_labels(self, steady):
        exporter = steady.exporters[0]
        now = steady.clock.now()
        first = _points(exporter.registry.collect(now) + exporter.app.telemetry.collect())
        again = _points(exporter.registry.collect(now) + exporter.app.telemetry.collect())
        assert first == again and len(first) > 50

    def test_a_series_set_change_rebuilds_only_what_changed(self, steady, made):
        exporter = steady.exporters[0]
        collector = exporter.registry._collectors[0]
        assert collector.name == "cgroup"
        before = collector.collect(steady.clock.now())
        kept = [list(f.points) for f in before]
        cgroup = exporter.node.cgroupfs.create("/system.slice/slurmstepd.scope/job_99999", cpuset_cpus=(0,))
        try:
            after = collector.collect(steady.clock.now())
            assert made["families"] == 0 and made["points"] == len(after)  # one point per family for the new unit
            for old, family in zip(kept, after):
                assert set(map(id, old)) <= set(map(id, family.points))
            assert frozen_render(after) == frozen_render(reference.CgroupCollector(exporter.node).collect(0.0))
        finally:
            exporter.node.cgroupfs.delete(cgroup.path)
        gone = collector.collect(steady.clock.now())
        assert [len(f.points) for f in gone] == [len(p) for p in kept]


class TestCollectorsAgainstFrozen:
    """The collectors the live deployment does not drive through every
    path: the v1 hierarchy, RAPL as tasks come and go, GPU bindings on a
    node of its own."""

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_collectors_as_tasks_come_and_go(self, version):
        node = SimulatedNode(NodeSpec(name="n0", gpus=("A100",) * 4, memory_gb=256), seed=1)
        pairs = [
            (CgroupCollector(node, cgroup_version=version), reference.CgroupCollector(node, version)),
            (RAPLCollector(node), reference.RAPLCollector(node)),
            (GPUMapCollector(node), reference.GPUMapCollector(node)),
        ]
        profile = UsageProfile.constant(0.6, 0.4, 0.5)
        t = 0.0
        for step in range(14):
            if step in (2, 5, 8):
                node.place_task(str(2000 + step), f"/system.slice/slurmstepd.scope/job_{2000 + step}", 4, 2**30, profile, t, ngpus=1)
            if step == 7:
                node.remove_task("2002")
            t += 15.0
            node.advance(t, 15.0)
            for live, frozen in pairs:
                assert frozen_render(live.collect(t)) == frozen_render(frozen.collect(t)), (live.name, step)


# -- KeptFamilies against rows built afresh ----------------------------------

_HEADS = (("a", "A.", "gauge"), ("b", "", "counter"), ("c", "C.", "gauge"))
_LABELS = [{"uuid": str(i)} for i in range(6)]
_reading = st.one_of(st.none(), st.sampled_from((0.0, 1.0, 2.5, -1.0, math.inf)))
_row = st.tuples(st.integers(0, len(_LABELS) - 1), st.tuples(_reading, _reading, _reading))
_fills = st.lists(
    st.tuples(st.lists(_row, max_size=6, unique_by=lambda row: row[0]), st.booleans()), min_size=1, max_size=25
)


def _afresh(rows) -> list[MetricFamily]:
    families = [MetricFamily(name, help, type) for name, help, type in _HEADS]
    for labels, readings in rows:
        for family, reading in zip(families, readings):
            if reading is not None:
                family.points.append(MetricPoint(labels, reading))
    return families


class TestFill:
    @settings(max_examples=200, deadline=None)
    @given(_fills)
    def test_every_fill_equals_families_built_afresh(self, fills):
        kept = KeptFamilies(*_HEADS)
        body = exposition.Body()
        for picks, fail in fills:
            rows = [(_LABELS[i], readings) for i, readings in picks]
            if fail:
                def failing():
                    yield from rows[: len(rows) // 2]
                    raise OSError("read failed")

                with pytest.raises(OSError):
                    kept.fill(failing())
                continue
            families = kept.fill(rows)
            assert families is kept.families
            assert frozen_render(families) == frozen_render(_afresh(rows))
            assert body.render(families) == frozen_render(families)
            for family in families:
                assert all(point.labels is _LABELS[int(point.labels["uuid"])] for point in family.points)

    def test_a_row_keeps_its_points_while_it_lives(self):
        kept = KeptFamilies(*_HEADS)
        kept.fill([(_LABELS[0], (1.0, 2.0, 3.0)), (_LABELS[1], (4.0, 5.0, 6.0))])
        first = [list(f.points) for f in kept.families]
        kept.fill([(_LABELS[1], (7.0, 8.0, 9.0))])
        assert all(f.points[0] is points[1] for f, points in zip(kept.families, first))
        assert [p.value for f in kept.families for p in f.points] == [7.0, 8.0, 9.0]


# -- the self-telemetry registry against the frozen one ----------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from(("inc", "set", "gauge_inc", "observe", "render", "advance")),
        st.sampled_from(("a", "b", "")),
        st.sampled_from((0.0, 0.0002, 0.003, 0.5, 3.0, 7.5)),
        st.booleans(),  # inside a trace
    ),
    min_size=1,
    max_size=40,
)


class TestRegistryAgainstFrozen:
    @settings(max_examples=150, deadline=None)
    @given(_ops)
    def test_every_render_equals_the_frozen_registry(self, ops):
        clock = [100.0]
        old = registry_mod._monotonic
        registry_mod._monotonic = lambda: clock[0]
        try:
            registry = reference.TeeRegistry()
            hits = registry.counter("hits_total", "Hits.")
            level = registry.gauge("level", "Level.")
            latency = registry.histogram("latency_seconds", "Latency.", buckets=(0.001, 0.01, 1.0))
            registry.gauge_func("clock_seconds", lambda: clock[0], "Clock.", type="counter", source="test")
            for n, (op, label, value, traced) in enumerate(ops):
                labels = {"route": label} if label else {}
                token = activate(TraceContext(f"{n:032x}", "b" * 16)) if traced else None
                try:
                    if op == "inc":
                        hits.inc(value, **labels)
                    elif op == "set":
                        level.set(value, **labels)
                    elif op == "gauge_inc":
                        level.inc(value, **labels)
                    elif op == "observe":
                        latency.observe(value, **labels)
                    elif op == "advance":
                        clock[0] += value
                    else:
                        assert registry.render() == frozen_render(registry.shadow.collect())
                finally:
                    if token is not None:
                        deactivate(token)
            assert registry.render() == frozen_render(registry.shadow.collect())
        finally:
            registry_mod._monotonic = old


# -- concurrent scrapers, one exporter ---------------------------------------


class _Pair(Collector):
    """Writes one number into two kept families, with a thread switch
    between the two writes."""

    name = "pair"

    def __init__(self) -> None:
        self.n = 0
        self.first = KeptFamilies(("pair_first", "", "gauge"))
        self.second = KeptFamilies(("pair_second", "", "gauge"))
        self.labels: dict[str, str] = {}

    def collect(self, now: float) -> list[MetricFamily]:
        self.n += 1
        reading = ((self.labels, (float(self.n),)),)
        self.first.fill(reading)
        time.sleep(0)
        self.second.fill(reading)
        return [*self.first.families, *self.second.families]


def _whole(text: str) -> bool:
    """The pair agrees and the exporter's own latency histogram is one
    histogram: cumulative buckets, +Inf equal to _count."""
    samples = {}
    buckets = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        series, value = line.split(" # ")[0].rsplit(" ", 1)
        samples[series] = float(value)
        if series.startswith("ceems_http_request_duration_seconds_bucket{"):
            buckets.append(float(value))
    count = samples.get('ceems_http_request_duration_seconds_count{handler="/metrics"}')
    histogram = buckets == sorted(buckets) and buckets[-1] == count if buckets else count is None
    return samples["pair_first"] == samples["pair_second"] and histogram


class TestConcurrentScrapers:
    def test_no_body_is_torn(self, steady):
        node = steady.nodes[0]
        exporter = CEEMSExporter(node, steady.clock)
        exporter.registry.register(_Pair())
        texts: list[str] = []
        failures: list[BaseException] = []

        def scrape():
            try:
                for _ in range(150):
                    texts.append(_metrics(exporter.app))
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # More scrapers than the CI runners have cores.
            threads = [threading.Thread(target=scrape) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(texts) == 450
        assert [text for text in texts if not _whole(text)] == []
        assert exporter.scrapes_total == 450


# -- the simulated kernel: one renderer per file -----------------------------

_V2_NAMES = (
    "cgroup.controllers", "cpu.stat", "cpu.max", "memory.current", "memory.peak", "memory.max",
    "memory.stat", "memory.events", "io.stat", "pids.current", "pids.max", "cpuset.cpus",
    "cpuset.cpus.effective",
)

_cgroups = st.builds(
    Cgroup,
    path=st.just("/system.slice/slurmstepd.scope/job_1"),
    controllers=st.lists(st.sampled_from(("cpu", "memory", "io", "pids", "cpuset")), unique=True).map(tuple),
    usage_usec=st.integers(0, 10**12),
    user_usec=st.integers(0, 10**12),
    system_usec=st.integers(0, 10**12),
    nr_throttled=st.integers(0, 100),
    cpu_quota_usec=st.one_of(st.none(), st.integers(1000, 10**6)),
    memory_current=st.integers(0, 2**40),
    memory_peak=st.integers(0, 2**40),
    memory_limit=st.one_of(st.none(), st.integers(1, 2**40)),
    memory_oom_events=st.integers(0, 5),
    io=st.dictionaries(st.sampled_from(("8:0", "8:16", "259:0")), st.builds(IOStat, st.integers(0, 10**9), st.integers(0, 10**9))),
    pids_current=st.integers(0, 1000),
    pids_max=st.one_of(st.none(), st.integers(1, 4096)),
    cpuset_cpus=st.lists(st.integers(0, 63), unique=True).map(tuple),
)


class TestOneRendererPerFile:
    @settings(max_examples=200, deadline=None)
    @given(_cgroups)
    def test_a_read_is_the_file_in_the_dict_views(self, cgroup):
        files = cgroup.files()
        expected = [n for n in _V2_NAMES if n == "cgroup.controllers" or n.split(".")[0] in cgroup.controllers]
        assert list(files) == expected
        for name in _V2_NAMES:
            if name in files:
                assert cgroup.read(name) == files[name]
            else:
                with pytest.raises(SimulationError):
                    cgroup.read(name)
        v1 = cgroup.v1_files()
        assert len(v1) == 6
        for name, text in v1.items():
            assert cgroup.read(name) == text
        with pytest.raises(SimulationError):
            cgroup.read("bogus.file")

    @pytest.mark.parametrize("make", [RAPLPackage.intel, RAPLPackage.amd])
    def test_a_powercap_read_is_the_entry(self, make):
        pkg = make(1)
        pkg.package.add_energy(12.5)
        if pkg.dram is not None:
            pkg.dram.add_energy(3.25)
        entries = pkg.sysfs_entries()
        assert len(entries) == (12 if pkg.dram is not None else 6)
        for path, value in entries.items():
            assert pkg.read_sysfs(path) == value
        for path in ("intel-rapl:1/bogus", "intel-rapl:2/energy_uj", "intel-rapl:1:1/energy_uj", "energy_uj"):
            with pytest.raises(SimulationError):
                pkg.read_sysfs(path)
        if pkg.dram is None:
            with pytest.raises(SimulationError):
                pkg.read_sysfs("intel-rapl:1:0/energy_uj")
