"""``exposition.Body``: a long-lived body against the stateless render.

The differential is PR 20's, turned around: there a scrape layout was
refilled from edited bodies and compared with the parse-everything
oracle; here family lists are edited between renders of one ``Body``
and every body must equal, byte for byte, what the renderer frozen in
``tests/reference/exposition.py`` (``frozen_render``: the pre-``Body``
loop, sharing no code with production) makes of the same families —
and so must a throw-away ``Body`` (``exposition.render``).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import StackSimulation, small_topology
from repro.cluster.simulation import SimulationConfig
from repro.cluster.topology import NodeGroupSpec
from repro.exporter.gpu import AMDSMIExporter
from repro.obs import telemetry as telemetry_mod
from repro.resourcemgr.workload import SizeClass, WorkloadMix
from repro.tsdb import exposition
from repro.tsdb.exposition import Body, Exemplar, MetricFamily, MetricPoint, parse, render
from repro.tsdb.scrape import ScrapeTarget
from tests.reference import exporter as reference
from tests.reference.exposition import render as frozen_render


class StrictExemplar(Exemplar):
    """An exemplar that may only be told apart by identity: a ``Body``
    comparing exemplars by value would pay a dataclass ``__eq__`` per
    line per scrape, so doing it fails the suite."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        raise AssertionError("exemplars are compared by identity, never by value")


VALUES = (0.0, -0.0, 1, 1.0, True, 2.5, -3.0, 1e16, 12345.678901, math.nan, math.inf, -math.inf)
LABEL_VALUES = ("a", "b", "", 'q"uote', "back\\slash", "new\nline", "é", "}#{")
HELPS = ("", "Some help.", "two\nlines \\ of help")
TYPES = ("gauge", "counter", "untyped")
NAMES = ("m", "n_total", "o_bucket")


def exemplar_pool():
    return [
        StrictExemplar({"trace_id": "aa" * 16}, 0.25),
        StrictExemplar({"trace_id": "bb" * 16}, 1.0),
        StrictExemplar({"trace_id": "cc" * 16, "span": 'x"y'}, math.nan),
        StrictExemplar({"trace_id": "dd" * 16}, 3.0, 1712.5),
    ]


class Model:
    """Families as a registry holds them: per point one label dict and
    at most one exemplar object, both handed out again — not copied —
    at every collect, until an edit replaces them."""

    def __init__(self) -> None:
        self.pool = exemplar_pool()
        #: id(point) -> its (value, exemplar) before the last change
        self.before: dict[int, tuple] = {}
        # [name, help, type, points]; a point is [labels, value, timestamp_ms, exemplar]
        self.families = [
            ["m", "Some help.", "gauge", [[{}, 1.0, None, None], [{"uuid": "a"}, 2.5, None, None]]],
            ["n_total", "", "counter", [[{"uuid": "a", "le": "0.5"}, 4, None, self.pool[0]], [{"uuid": "a", "le": "+Inf"}, 5, None, None]]],
            ["empty", "Nothing here.", "gauge", []],
        ]

    def collect(self) -> list[MetricFamily]:
        return [
            MetricFamily(name, help, type, [MetricPoint(*point) for point in points])
            for name, help, type, points in self.families
        ]

    def edit(self, edit) -> None:
        kind, f, p, arg = edit
        families = self.families
        if kind == "add_family":
            families.insert(f % (len(families) + 1), [NAMES[p % len(NAMES)], "", "gauge", [[{"uuid": arg}, 1.0, None, None]]])
            return
        if not families:
            return
        # By position: finding the family again by value would compare
        # its exemplars, which StrictExemplar forbids.
        here = f % len(families)
        family = families[here]
        points = family[3]
        if kind == "del_family":
            del families[here]
        elif kind == "swap":
            other = p % len(families)
            families[here], families[other] = families[other], families[here]
        elif kind == "help":
            family[1] = HELPS[p % len(HELPS)]
        elif kind == "type":
            family[2] = TYPES[p % len(TYPES)]
        elif kind == "rename":
            family[0] = NAMES[p % len(NAMES)]
        elif kind == "add_point":
            points.insert(p % (len(points) + 1), [{"uuid": arg}, 7.0, None, None])
        elif points:
            point = points[p % len(points)]
            if kind == "del_point":
                points.remove(point)
            elif kind == "value":
                self.before[id(point)] = (point[1], point[3])
                point[1] = arg
            elif kind == "back":
                # a -> b -> a: the reading (and exemplar) before the last change
                value, exemplar = self.before.get(id(point), (point[1], point[3]))
                self.before[id(point)] = (point[1], point[3])
                point[1], point[3] = value, exemplar
            elif kind == "equal_labels":
                point[0] = dict(point[0])
            elif kind == "other_labels":
                # What a caller does in place of mutating a rendered dict.
                point[0] = {**point[0], "uuid": arg}
            elif kind == "drop_labels":
                point[0] = {}
            elif kind == "exemplar":
                self.before[id(point)] = (point[1], point[3])
                point[3] = self.pool[arg] if arg is not None else None
            elif kind == "equal_exemplar":
                if point[3] is not None:
                    point[3] = StrictExemplar(dict(point[3].labels), point[3].value, point[3].timestamp)
            elif kind == "stamp":
                point[2] = 1500 if point[2] is None else None


_n = st.integers(0, 3)
_label_value = st.sampled_from(LABEL_VALUES)
#: edits a refill absorbs
_lane_edit = st.one_of(
    st.tuples(st.just("value"), _n, _n, st.sampled_from(VALUES)),
    st.tuples(st.just("value"), _n, _n, st.sampled_from(VALUES)),
    st.tuples(st.just("back"), _n, _n, st.none()),
    st.tuples(st.just("exemplar"), _n, _n, st.sampled_from((None, 0, 1, 2, 3))),
    st.tuples(st.just("equal_exemplar"), _n, _n, st.none()),
    st.tuples(st.just("equal_labels"), _n, _n, st.none()),
)
#: edits that must send it through the rebuild
_shape_edit = st.one_of(
    st.tuples(st.just("other_labels"), _n, _n, _label_value),
    st.tuples(st.just("drop_labels"), _n, _n, st.none()),
    st.tuples(st.just("stamp"), _n, _n, st.none()),
    st.tuples(st.just("stamp"), _n, _n, st.none()),
    st.tuples(st.just("add_point"), _n, _n, _label_value),
    st.tuples(st.just("del_point"), _n, _n, st.none()),
    st.tuples(st.just("add_family"), _n, _n, _label_value),
    st.tuples(st.just("del_family"), _n, _n, st.none()),
    st.tuples(st.just("swap"), _n, _n, st.none()),
    st.tuples(st.just("help"), _n, _n, st.none()),
    st.tuples(st.just("type"), _n, _n, st.none()),
    st.tuples(st.just("rename"), _n, _n, st.none()),
)
# one_of() would flatten to a uniform choice over every branch of both
_edit = st.integers(0, 3).flatmap(lambda pick: _lane_edit if pick else _shape_edit)
#: one step = the edits made between two renders (often none or one:
#: most scrapes of a live exporter change values only)
_steps = st.lists(st.lists(_edit, min_size=0, max_size=3), min_size=1, max_size=30)


def normalised(families):
    """Series as a set, NaN-safe, for the parse round trip."""

    def num(v):
        return None if v is None else ("nan" if math.isnan(v) else float(v))

    def ex(e):
        return None if e is None else (tuple(sorted(e.labels.items())), num(e.value), num(e.timestamp))

    return {
        (fam.name, tuple(sorted(p.labels.items())), num(p.value), p.timestamp_ms, ex(p.exemplar))
        for fam in families
        for p in fam.points
    }


class TestEditSequences:
    @settings(max_examples=300, deadline=None)
    @given(_steps)
    def test_every_body_equals_a_fresh_render(self, steps):
        model = Model()
        body = Body()
        assert body.render(model.collect()) == frozen_render(model.collect())
        for edits in steps:
            for edit in edits:
                model.edit(edit)
            families = model.collect()
            text = body.render(families)
            assert text == frozen_render(families)
            assert render(families) == text
            assert normalised(parse(text)) == normalised(families)
        assert body.refills + body.rebuilds == len(steps) + 1


def two_families():
    shared = {"uuid": "a"}
    exemplar = Exemplar({"trace_id": "ab" * 16}, 0.5)
    first = MetricFamily("m", "Help.", "gauge", [MetricPoint(shared, 1.0), MetricPoint({"uuid": "b"}, 2.0)])
    second = MetricFamily("n_total", "", "counter", [MetricPoint(shared, 3.0, None, exemplar)])
    return [first, second]


def again(families):
    """A new collect over the same label dicts and exemplars."""
    return [
        MetricFamily(f.name, f.help, f.type, [MetricPoint(p.labels, p.value, p.timestamp_ms, p.exemplar) for p in f.points])
        for f in families
    ]


class TestWhichWay:
    """What keeps a body on the refill and what forces the rebuild."""

    def counts_after(self, change) -> tuple[int, int]:
        body = Body()
        families = two_families()
        body.render(families)
        families = again(families)
        change(families)
        assert body.render(families) == frozen_render(families) == render(families)
        return body.refills, body.rebuilds

    def test_first_body_is_a_rebuild_and_an_unchanged_one_a_refill(self):
        assert self.counts_after(lambda families: None) == (1, 1)

    def test_values_and_exemplars_refill(self):
        def change(families):
            families[0].points[0].value = 9.5
            families[1].points[0].exemplar = Exemplar({"trace_id": "cd" * 16}, 0.25)

        assert self.counts_after(change) == (1, 1)

    def test_an_equal_label_dict_refills_and_another_rebuilds(self):
        def equal(families):
            families[0].points[1].labels = {"uuid": "b"}

        def other(families):
            families[0].points[1].labels = {"uuid": "c"}

        assert self.counts_after(equal) == (1, 1)
        assert self.counts_after(other) == (0, 2)

    @pytest.mark.parametrize(
        "change",
        [
            lambda families: families.reverse(),
            lambda families: families.pop(),
            lambda families: families[0].points.pop(),
            lambda families: families[1].add(1.0, uuid="z"),
            lambda families: setattr(families[0], "help", "Other help."),
            lambda families: setattr(families[0], "type", "counter"),
            lambda families: setattr(families[1], "name", "n2_total"),
            lambda families: setattr(families[0].points[0], "timestamp_ms", 1500),
        ],
    )
    def test_anything_else_rebuilds(self, change):
        assert self.counts_after(change) == (0, 2)

    def test_a_stamped_body_is_not_refilled_from(self):
        body = Body()
        families = two_families()
        families[0].points[0].timestamp_ms = 1500
        assert body.render(families) == render(families)
        families = again(families)
        families[0].points[0].timestamp_ms = None
        text = body.render(families)  # same value, same labels: only the stamp went
        assert text == render(families) and " 1500" not in text
        assert (body.refills, body.rebuilds) == (0, 2)
        assert body.render(again(families)) == text
        assert (body.refills, body.rebuilds) == (1, 2)

    def test_a_label_dict_mutated_in_place_keeps_its_old_line(self):
        """The contract, pinned from the wrong side: a rendered label
        dict is read-only.  One mutated in place is still the dict the
        body remembers — and so is an equal copy of it — so the line
        keeps the old series text until something forces a rebuild.  To
        change a series' labels, hand over another dict instead."""
        body = Body()
        families = two_families()
        body.render(families)
        families = again(families)
        families[0].points[1].labels["uuid"] = "mutated"
        assert 'uuid="mutated"' not in body.render(families)
        assert 'uuid="mutated"' in render(families)
        families = again(families)
        families[1].add(1.0, uuid="z")
        assert body.render(families) == render(families)

    def test_a_value_that_cannot_be_formatted_leaves_the_body_usable(self):
        body = Body()
        families = two_families()
        body.render(families)
        broken = again(families)
        broken[0].points[1].value = "not a number"
        with pytest.raises(TypeError):
            body.render(broken)
        families = again(families)
        families[0].points[0].value = 4.0
        assert body.render(families) == render(families)


class TestValueText:
    def test_equal_values_of_different_types_share_their_text(self):
        family = MetricFamily("m")
        for value in (1, 1.0, True, 0.0, -0.0):
            family.add(value)
        assert render([family]) == "# TYPE m gauge\nm 1\nm 1\nm 1\nm 0\nm 0\n"


class CheckedBody(Body):
    """A ``Body`` that holds every text it serves against the frozen
    render of the same families (and the production stateless one,
    a fresh ``Body``'s rebuild) and against the frozen render of what
    the stateless endpoint of ``tests/reference/exporter.py`` collects
    at the same moment (``oracle``).  It keeps the verdicts instead of
    raising: a handler that raised would just be a failed scrape."""

    def __init__(self, kind: str, log: list, oracle) -> None:
        super().__init__()
        self.kind = kind
        self.log = log
        self.oracle = oracle
        #: Every text served, in order.
        self.served: list[str] = []

    def render(self, families):
        text = super().render(families)
        expected = frozen_render(self.oracle())
        self.log.append((self.kind, text == frozen_render(families) == render(families) == expected))
        self.served.append(text)
        return text


def _fails_between(sim, start: float, stop: float, read):
    """``read``, raising while the sim clock is in ``[start, stop)``."""

    def flaky():
        if start <= sim.clock.now() < stop:
            raise OSError("/proc/meminfo: input/output error")
        return read()

    return flaky


class TestLiveDeployment:
    """Every body of every endpoint kind, on a deployment whose units
    and GPU bindings come and go, where one collector fails for a while
    and exemplars get replaced: byte-equal to the frozen stateless
    endpoints' render of the same moment, and mostly refills."""

    FAIL_FROM, FAIL_UNTIL = 10 * 60.0, 14 * 60.0

    @pytest.fixture(scope="class")
    def deployment(self):
        churn = WorkloadMix(
            mean_interarrival=90.0,
            duration_mu=5.8,  # median ~5.5 min: units appear and vanish many times in 40
            sizes=(
                SizeClass("small", weight=0.6, ncores=4, memory_gb=8),
                SizeClass("gpu", weight=0.4, ncores=8, ngpus=1, memory_gb=64, partition="gpu"),
            ),
        )
        topology = small_topology(cpu_nodes=2, gpu_nodes=1) + [
            NodeGroupSpec(
                nodegroup="gpu-ipmi-excl",
                count=1,
                partition="gpu",
                cpu_model="amd-milan",
                gpus=("MI250",) * 2,
                ipmi_includes_gpu=False,
            )
        ]
        # Every component's registry also feeds a frozen one (the oracle
        # of its /metrics body and of the telemetry part of a CEEMS body).
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(telemetry_mod, "MetricsRegistry", reference.TeeRegistry)
            sim = StackSimulation(topology, SimulationConfig(seed=23, update_interval=600.0), workload=churn)
            amd_node = next(node for node in sim.nodes if node.spec.name.startswith("gpu-ipmi-excl"))
            amd = AMDSMIExporter(amd_node, sim.clock)
        sim.scrape_manager.add_target(ScrapeTarget(app=amd.app, instance=f"{amd_node.spec.name}:9500", job="amd-smi"))

        log: list[tuple[str, bool]] = []
        bodies: list[CheckedBody] = []

        def checked(kind: str, oracle) -> CheckedBody:
            bodies.append(CheckedBody(kind, log, oracle))
            return bodies[-1]

        def ceems_oracle(exporter):
            frozen = reference.exporter_registry(exporter)
            telemetry = exporter.app.telemetry.registry
            return lambda: frozen.collect(sim.clock.now()) + telemetry.shadow.collect()

        for exporter in sim.exporters:
            exporter.body = checked("ceems", ceems_oracle(exporter))
        for exporter in sim.gpu_exporters:
            exporter.body = checked("dcgm", lambda node=exporter.node: reference.dcgm_families(node))
        amd.body = checked("amd-smi", lambda: reference.amd_smi_families(amd_node))
        emissions = sim.emissions_exporter
        emissions.body = checked(
            "emissions",
            lambda: reference.emissions_families(emissions.collector.registry, emissions.collector.zone, sim.clock.now()),
        )
        endpoints = {id(e.app) for e in [*sim.exporters, *sim.gpu_exporters, amd, emissions]}
        for target in sim.scrape_manager.targets:
            if id(target.app) not in endpoints:
                registry = target.app.telemetry.registry
                assert isinstance(registry, reference.TeeRegistry)
                registry.body = checked("component", registry.shadow.collect)
        # One node's node collector fails for four minutes (the frozen
        # one reads the same procfs, so it fails alike).
        failing = sim.exporters[0].node.procfs
        start = sim.clock.now()
        failing.render_meminfo = _fails_between(sim, start + self.FAIL_FROM, start + self.FAIL_UNTIL, failing.render_meminfo)
        sim.run(40 * 60.0)
        return sim, log, bodies

    def test_every_body_served_equals_the_stateless_render(self, deployment):
        sim, log, _bodies = deployment
        served = {kind: sum(1 for k, _ok in log if k == kind) for kind in ("ceems", "dcgm", "amd-smi", "emissions", "component")}
        assert all(count >= 150 for count in served.values()), served  # 40 min of 15 s scrapes each
        assert [entry for entry in log if not entry[1]] == []
        assert sum(t.scrape_failures_total for t in sim.scrape_manager.targets) == 0

    def test_the_deployment_did_churn_and_bodies_mostly_refilled(self, deployment):
        sim, _log, bodies = deployment
        assert sim.slurm.jobs_submitted >= 20
        by_kind: dict[str, list[int]] = {}
        for body in bodies:
            tally = by_kind.setdefault(body.kind, [0, 0])
            tally[0] += body.refills
            tally[1] += body.rebuilds
        assert by_kind["ceems"][1] > 4 * len(sim.exporters)  # units came and went under every exporter
        refills = sum(t[0] for t in by_kind.values())
        rebuilds = sum(t[1] for t in by_kind.values())
        assert refills / (refills + rebuilds) >= 0.9, by_kind

    def test_gpu_bindings_came_and_went(self, deployment):
        _sim, _log, bodies = deployment
        flags = {
            sum(line.startswith("ceems_compute_unit_gpu_index_flag{") for line in text.splitlines())
            for body in bodies
            if body.kind == "ceems"
            for text in body.served
        }
        assert len(flags) >= 2 and 0 in flags, flags

    def test_the_failing_collector_was_left_out_and_came_back(self, deployment):
        sim, _log, bodies = deployment
        body = next(b for b in bodies if b.kind == "ceems" and b is sim.exporters[0].body)
        marks = [
            ('ceems_exporter_collector_success{collector="node"} 0' in text, "ceems_meminfo_total_bytes " in text)
            for text in body.served
        ]
        assert (True, False) in marks and (False, True) in marks
        assert all(failed != shown for failed, shown in marks)
        assert marks[-1] == (False, True)
        assert sim.exporters[0].registry.errors_total["node"] >= 10

    def test_exemplars_were_replaced(self, deployment):
        _sim, _log, bodies = deployment
        suffixes: dict[tuple[int, str], set[str]] = {}
        for body in bodies:
            for text in body.served:
                for line in text.splitlines():
                    if not line.startswith("#") and " # {" in line:
                        series, _, exemplar = line.partition(" # {")
                        suffixes.setdefault((id(body), series.rsplit(" ", 1)[0]), set()).add(exemplar)
        assert suffixes and max(len(seen) for seen in suffixes.values()) >= 2
