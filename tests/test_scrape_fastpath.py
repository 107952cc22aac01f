"""Scrape fast lane: differential proof, cache behaviour, resilience.

The production lane (per-target line layout + append-by-ref) must be **bit-identical** to the parse-everything oracle
(``tests/reference/scrape.py``): same series set, same sample values,
same staleness markers — across structure churn, retention, and series
deletion.  These tests are the harness behind that claim;
``use_cache`` below picks the lane (``False`` = the oracle).
"""

import math
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.httpx import App, Response
from repro.tsdb import exposition
from repro.tsdb.model import Matcher
from repro.tsdb.scrape import ScrapeConfig, ScrapeManager, ScrapeTarget
from repro.tsdb.storage import TSDB
from tests.reference.scrape import MANAGERS
from tests.test_exemplars import dump_exemplars


def make_exporter(families_fn) -> App:
    app = App("fake")
    app.router.get("/metrics", lambda req: Response.text(exposition.render(families_fn())))
    return app


def dump(db: TSDB):
    """Canonical TSDB contents; NaN-safe via repr of values."""
    return [
        (tuple(s.labels), tuple(s.timestamps), tuple(repr(v) for v in s.values))
        for s in db.all_series()
    ]


def churn_families(cycle: int):
    """A payload whose structure changes every cycle."""
    fam = exposition.MetricFamily("power_watts", help="w", type="gauge")
    fam.add(100.0 + cycle, hostname="n0", sensor='we"ird\\x,y}{')
    if cycle % 2 == 0:
        fam.add(50.0, hostname="n0", uuid=f"job-{cycle}")
    if cycle == 3:
        fam.add(math.nan, hostname="n0", uuid="nan-job")
    counters = exposition.MetricFamily("energy_joules_total", type="counter")
    counters.add(1000.0 * cycle)
    return [fam, counters]


def run_cycles(use_cache: bool, cycles: int = 6, db: TSDB | None = None):
    db = db if db is not None else TSDB()
    manager = MANAGERS[use_cache](db)
    state = {"n": -1}

    def families():
        state["n"] += 1
        return churn_families(state["n"])

    manager.add_target(ScrapeTarget(app=make_exporter(families), instance="n0:9010", job="ceems"))
    for i in range(cycles):
        manager.scrape_all(now=15.0 * (i + 1))
    return db, manager


class TestDifferential:
    def test_bit_identical_across_structure_churn(self):
        ref, _ = run_cycles(use_cache=False)
        fast, _ = run_cycles(use_cache=True)
        assert dump(ref) == dump(fast)
        # staleness markers must be part of the identical contents
        gone = [s for s in fast.all_series() if "uuid" in s.labels and "job-" in s.labels.get("uuid")]
        assert gone and all(math.isnan(s.values[-1]) for s in gone)

    def test_bit_identical_across_retention(self):
        def run(use_cache):
            db = TSDB(retention=40.0)
            # retention every cycle: refs die constantly under the cache
            manager = MANAGERS[use_cache](db, ScrapeConfig(retention_every=1))
            state = {"n": -1}

            def families():
                state["n"] += 1
                return churn_families(state["n"])

            manager.add_target(ScrapeTarget(app=make_exporter(families), instance="i", job="j"))
            for i in range(8):
                manager.scrape_all(now=15.0 * (i + 1))
            return db

        assert dump(run(False)) == dump(run(True))

    def test_bit_identical_across_delete_series(self):
        def run(use_cache):
            db = TSDB()
            manager = MANAGERS[use_cache](db)
            fam = exposition.MetricFamily("m", type="gauge")
            fam.add(1.0, uuid="x")
            fam.add(2.0, uuid="y")
            manager.add_target(
                ScrapeTarget(app=make_exporter(lambda: [fam]), instance="i", job="j")
            )
            manager.scrape_all(now=15.0)
            # cardinality cleanup between cycles: cached refs go stale
            db.delete_series([Matcher.eq("uuid", "x")])
            manager.scrape_all(now=30.0)
            manager.scrape_all(now=45.0)
            return db

        ref, fast = run(False), run(True)
        assert dump(ref) == dump(fast)
        # the deleted-then-rescraped series must be recreated with
        # only post-delete samples in both paths
        x = ref.select([Matcher.eq("uuid", "x")])[0]
        assert x.timestamps == [30.0, 45.0]

    def test_stale_ref_never_appends_to_recreated_series(self):
        """A dead prev-ref whose labels reappeared under a fresh ref
        must NOT produce a staleness marker (the oracle compares
        label sets and sees the series as alive)."""

        def run(use_cache):
            db = TSDB()
            manager = MANAGERS[use_cache](db)
            fam = exposition.MetricFamily("m", type="gauge")
            fam.add(1.0, uuid="x")
            manager.add_target(
                ScrapeTarget(app=make_exporter(lambda: [fam]), instance="i", job="j")
            )
            manager.scrape_all(now=15.0)
            db.delete_series([Matcher.eq("uuid", "x")])  # prev ref now dead
            manager.scrape_all(now=30.0)  # same labels under a new ref
            return db

        for db in (run(False), run(True)):
            x = db.select([Matcher.eq("uuid", "x")])[0]
            assert x.timestamps == [30.0]
            assert x.values == [1.0]  # a NaN here would be the bug


# -- differential fuzz: random edits of the previous body ---------------------
#
# A body is a list of lines; a sample line is a mutable record so an
# edit can change one token and leave the rest of the line byte-equal.

KIND, LEAD, NAME, LABELS, SEP, VALUE, TS, EXEMPLAR = range(8)
SAMPLE, TEXT = "sample", "text"
FUZZ_VALUES = ("0", "1", "2.5", "-3", "1e3", "NaN", "+Inf", "-Inf", "0.1", "7")
FUZZ_LABEL_VALUES = ("a", "b", 'we"ird\\x,y}{', "#hash", "with space", "é")
FUZZ_EXEMPLARS = (
    '# {trace_id="t1"} 1',
    '# {trace_id="t2"} 0.5 12.5',
    "# {} NaN",
    '#{trace_id="t3",span="#s"} 2 30',
)
FUZZ_COMMENTS = ("# HELP m help text", "# TYPE m gauge", "# just a remark", "", "# TYPE n_total counter")
#: Tokens that must fail the scrape wherever they land.  They are put
#: back after one scrape: a target that stays broken stops exercising
#: the lane, and the way back from a failure is half of what is tested.
FUZZ_BAD = {
    VALUE: ("1_0", "abc", "0x10", "", "1 2 3", "1 1.5", "1 1_0"),
    EXEMPLAR: ("# {trace_id=a} 1", '# {trace_id="a"} 1_0', '# {trace_id="a"} 1 2 3', "# trace 1"),
    TEXT: ("# TYPE m bogus",),
}
FUZZ_MALFORMED = (
    'a{b="c" 1',
    "novalue",
    "m 1_0",
    'm{uuid="a"} 1 2 3 garbage',
    "m 1 1.5",
    'm{uuid="a"} 1 # {trace_id=a} 1',
    "m} 1",
    "# TYPE m bogus",
)


def fuzz_sample(name="m", labels=(), value="1", exemplar=""):
    return [SAMPLE, "", name, tuple(labels), " ", value, "", exemplar]


def fuzz_line_text(line) -> str:
    if line[KIND] == TEXT:
        return line[1]
    series = line[NAME]
    if line[LABELS]:
        inner = ",".join(f'{k}="{exposition._escape_label_value(v)}"' for k, v in line[LABELS])
        series = f"{series}{{{inner}}}"
    rest = " ".join(token for token in (line[VALUE], line[TS], line[EXEMPLAR]) if token)
    return f"{line[LEAD]}{series}{line[SEP]}{rest}"


def fuzz_initial_body():
    return [
        [TEXT, "# HELP m help text"],
        [TEXT, "# TYPE m gauge"],
        fuzz_sample("m"),
        fuzz_sample("m", [("uuid", "a")], "2"),
        fuzz_sample("m", [("uuid", "b")], "3", FUZZ_EXEMPLARS[0]),
        [TEXT, "# TYPE n_total counter"],
        fuzz_sample("n_total", [("uuid", "a"), ("le", "0.5")], "4", FUZZ_EXEMPLARS[1]),
        fuzz_sample("n_total", [("uuid", "a"), ("le", "+Inf")], "5"),
    ]


_idx = st.integers(min_value=0, max_value=63)
_value = st.sampled_from(FUZZ_VALUES)
_label_value = st.sampled_from(FUZZ_LABEL_VALUES)
#: edits the lane should absorb, or must notice although the line
#: keeps its place and its series text
_lane_edit = st.one_of(
    st.tuples(st.just("token"), _idx, st.just(VALUE), _value),
    st.tuples(st.just("token"), _idx, st.just(VALUE), _value),
    st.tuples(st.just("token"), _idx, st.just(VALUE), st.sampled_from(FUZZ_BAD[VALUE])),
    st.tuples(st.just("token"), _idx, st.just(EXEMPLAR), st.sampled_from(("", "") + FUZZ_EXEMPLARS)),
    st.tuples(st.just("token"), _idx, st.just(EXEMPLAR), st.sampled_from(FUZZ_BAD[EXEMPLAR])),
    st.tuples(st.just("token"), _idx, st.just(SEP), st.sampled_from(("", " ", "  ", "\t"))),  # `m7`, `m{..}7`
    st.tuples(st.just("token"), _idx, st.just(TS), st.sampled_from(("", "1500"))),
    st.tuples(st.just("token"), _idx, st.just(LEAD), st.sampled_from(("", " ", "\t"))),
    st.tuples(st.just("comment"), _idx, st.sampled_from(FUZZ_COMMENTS + FUZZ_BAD[TEXT])),
)
#: edits that move, add or remove series
_shape_edit = st.one_of(
    st.tuples(st.just("token"), _idx, st.just(NAME), st.sampled_from(("m", "m2", "n_total"))),
    st.tuples(st.just("label"), _idx, _label_value),
    st.tuples(st.just("insert"), _idx, st.sampled_from(("m", "n_total", "fresh")), _label_value, _value),
    st.tuples(st.just("delete"), _idx),
    st.tuples(st.just("swap"), _idx, _idx),
    st.tuples(st.just("duplicate"), _idx, _value),
    st.tuples(st.just("malformed"), _idx, st.sampled_from(FUZZ_MALFORMED)),
)
_fault = st.one_of(
    st.tuples(st.just("http500")),
    st.tuples(st.just("binary")),
    st.tuples(st.just("retention")),
    st.tuples(st.just("delete_series"), st.sampled_from(("uuid", "__name__")), st.sampled_from(("a", "b", "m", "n_total"))),
)
#: one step = which target, the edits made to its body, then a scrape
_fuzz_steps = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.lists(st.one_of(_lane_edit, _lane_edit, _shape_edit, _fault), min_size=0, max_size=3),
    ),
    min_size=1,
    max_size=30,
)


class FuzzTarget:
    """One exporter whose body the fuzz edits between scrapes."""

    def __init__(self) -> None:
        self.body = fuzz_initial_body()
        self.fault = ""  # "http500" | "binary": the next scrape only
        self.undo: list = []  # (line, field, token) to put back after one scrape
        self.app = App("fuzz")
        self.app.router.get("/metrics", self.serve)

    def serve(self, request):
        if self.fault == "http500":
            return Response(status=500)
        if self.fault == "binary":
            return Response(status=200, body=b"\xff\xfe m 1\n")
        return Response.text("".join(fuzz_line_text(line) + "\n" for line in self.body))

    def set(self, line, field, token) -> None:
        if token in FUZZ_BAD.get(TEXT if line[KIND] == TEXT else field, ()):
            self.undo.append((line, field, line[field]))
        line[field] = token

    def edit(self, edit) -> None:
        kind, *args = edit
        body = self.body
        samples = [line for line in body if line[KIND] == SAMPLE]
        if kind in ("http500", "binary"):
            self.fault = kind
        elif kind == "insert":
            at, name, label_value, value = args
            body.insert(at % (len(body) + 1), fuzz_sample(name, [("uuid", label_value)], value))
        elif kind == "comment":
            at, text = args
            at %= len(body) + 1
            if at == len(body) or body[at][KIND] != TEXT:
                body.insert(at, [TEXT, ""])
            self.set(body[at], 1, text)
        elif kind == "malformed":
            line = [TEXT, args[1]]
            body.insert(args[0] % (len(body) + 1), line)
            self.undo.append((line, 1, None))  # None: the line goes again
        elif kind == "delete":
            if body:
                del body[args[0] % len(body)]
        elif kind == "swap":
            if body:
                i, j = args[0] % len(body), args[1] % len(body)
                body[i], body[j] = body[j], body[i]
        elif samples:
            line = samples[args[0] % len(samples)]
            if kind == "token":
                self.set(line, args[1], args[2])
            elif kind == "label":
                labels = list(line[LABELS]) or [("uuid", "")]
                labels[0] = (labels[0][0], args[1])
                line[LABELS] = tuple(labels)
            elif kind == "duplicate":
                copy = list(line)
                copy[VALUE] = args[1]
                body.insert(next(i for i, other in enumerate(body) if other is line) + 1, copy)

    def after_scrape(self) -> None:
        self.fault = ""
        for line, field, token in reversed(self.undo):
            line[field] = token
        self.undo = []
        self.body = [line for line in self.body if line[1] is not None]


class FuzzRig:
    """The oracle and the production manager over the same two
    exporters, compared after every scrape."""

    def __init__(self) -> None:
        self.exporters = [FuzzTarget(), FuzzTarget()]
        self.lanes = {}
        for lane, use_cache in {"ref": False, "fast": True}.items():
            db = TSDB(retention=50.0)
            manager = MANAGERS[use_cache](db, ScrapeConfig(retention_every=0))
            for n, exporter in enumerate(self.exporters):
                manager.add_target(ScrapeTarget(app=exporter.app, instance=f"n{n}:9010", job="fuzz"))
            self.lanes[lane] = (db, manager)
        self.now = 0.0
        self.sample_lines = 0

    def storage_op(self, edit) -> bool:
        if edit[0] == "retention":
            for db, _manager in self.lanes.values():
                db.apply_retention(self.now)
        elif edit[0] == "delete_series":
            for db, _manager in self.lanes.values():
                db.delete_series([Matcher.eq(edit[1], edit[2])])
        else:
            return False
        return True

    def step(self, which: int = 0, *edits) -> None:
        """Edit one exporter's body, scrape on every lane, compare."""
        for edit in edits:
            if not self.storage_op(edit):
                self.exporters[which].edit(edit)
        self.now += 15.0
        for _db, manager in self.lanes.values():
            manager.scrape_all(self.now)
        for exporter in self.exporters:
            exporter.after_scrape()
        ref_db, ref = self.lanes["ref"]
        self.sample_lines += sum(t.last_scrape_samples for t in ref.targets if t.last_scrape_ok)
        db, manager = self.lanes["fast"]
        assert dump(db) == dump(ref_db)  # samples, staleness NaNs, up
        assert dump_exemplars(db) == dump_exemplars(ref_db)
        assert db.exemplars.dropped_total == ref_db.exemplars.dropped_total
        assert db.exemplars.appended_total == ref_db.exemplars.appended_total
        assert db.samples_ingested == ref_db.samples_ingested
        assert [(t.last_scrape_ok, t.last_scrape_samples, t.scrape_failures_total) for t in manager.targets] == [
            (t.last_scrape_ok, t.last_scrape_samples, t.scrape_failures_total) for t in ref.targets
        ]
        assert manager.cache_hits_total + manager.cache_misses_total == self.sample_lines


class TestDifferentialFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_fuzz_steps)
    def test_random_body_edits_match_the_oracle(self, steps):
        rig = FuzzRig()
        rig.step()
        for which, edits in steps:
            rig.step(which, *edits)

    def test_fail_recover_identical_then_series_disappears(self):
        """The sequence the layout prototype got wrong: a failed scrape
        marks every series stale; recovery with the byte-identical body
        must leave the next disappearance exactly one marker."""
        rig = FuzzRig()
        rig.step()
        rig.step(0, ("http500",))
        rig.step()  # recovers, same bytes as before the failure
        rig.step(0, ("delete", 3))  # m{uuid="a"} disappears
        rig.step()
        for lane, (db, _manager) in rig.lanes.items():
            (gone,) = db.select([Matcher.name_eq("m"), Matcher.eq("uuid", "a"), Matcher.eq("instance", "n0:9010")])
            # failure marker, recovery, disappearance marker — once
            assert gone.timestamps == [15.0, 30.0, 45.0, 60.0], lane
            assert [repr(v) for v in gone.values] == ["2.0", "nan", "2.0", "nan"], lane
        _db, manager = rig.lanes["fast"]
        # nothing was parsed a second time: the recovery found every
        # series text in the layout the failure left behind
        assert manager.cache_misses_total == 2 * 5
        assert manager.layout_rebuilds_total == 2 + 1 + 1  # first bodies, recovery, shorter body

    def test_scrape_failing_half_way_down_the_lane_leaves_no_trace(self):
        """The lane overwrites values as it goes.  A body that fails on
        a later line must not leave the earlier line's new value behind
        for the next body — which has the old bytes again, so the lane
        would not look at that line."""
        rig = FuzzRig()
        rig.step()
        # first sample line changes 1 -> 9, a later one turns malformed
        rig.step(0, ("token", 0, VALUE, "9"), ("token", 4, EXEMPLAR, FUZZ_BAD[EXEMPLAR][0]))
        rig.step(0, ("token", 0, VALUE, "1"))
        for lane, (db, _manager) in rig.lanes.items():
            (first,) = db.select([Matcher.name_eq("m"), Matcher.eq("uuid", ""), Matcher.eq("instance", "n0:9010")])
            assert [repr(v) for v in first.values] == ["1.0", "nan", "1.0"], lane

    def test_lane_takes_what_it_should_and_rebuilds_on_the_rest(self):
        """Which edits stay on the lane is observable: rebuilds count."""
        rig = FuzzRig()
        _db, manager = rig.lanes["fast"]
        rig.step()
        assert manager.layout_rebuilds_total == 2
        for edit in (
            ("token", 1, VALUE, "9"),
            ("token", 1, EXEMPLAR, FUZZ_EXEMPLARS[0]),  # appears
            ("token", 1, EXEMPLAR, FUZZ_EXEMPLARS[3]),  # changes
            ("token", 1, EXEMPLAR, ""),  # disappears
            ("token", 1, SEP, "\t "),
            ("token", 1, SEP, ""),  # m{uuid="a"}9 needs no space
        ):
            rig.step(0, edit)
            assert manager.layout_rebuilds_total == 2, edit
            assert manager.targets[0].last_scrape_ok
        for n, edit in enumerate(
            (
                ("label", 1, "b"),
                ("swap", 2, 3),
                ("comment", 0, "# HELP m other text"),
                ("token", 1, TS, "1500"),
                ("token", 2, LEAD, " "),
                ("insert", 0, "fresh", "a", "1"),
                ("delete", 0),
            ),
            start=3,
        ):
            rig.step(0, edit)
            assert manager.layout_rebuilds_total >= n, edit
            assert manager.targets[0].last_scrape_ok

    def test_bare_name_needs_its_separator(self):
        """`m7` is another metric without a value, not m = 7."""
        rig = FuzzRig()
        rig.step()
        rig.step(0, ("token", 0, VALUE, "7"))
        rig.step(0, ("token", 0, SEP, ""))
        assert [m.targets[0].last_scrape_ok for _db, m in rig.lanes.values()] == [False] * 2


class TestBrokenTargets:
    def test_non_utf8_body_counts_as_failure(self):
        """Regression: a non-UTF-8 body used to escape the ScrapeError
        handler and stall the whole cycle."""
        db = TSDB()
        bad = App("binary")
        bad.router.get("/metrics", lambda req: Response(status=200, body=b"\xff\xfe power 1\n"))
        fam = exposition.MetricFamily("m", type="gauge")
        fam.add(1.0)
        manager = ScrapeManager(db)
        manager.add_target(ScrapeTarget(app=bad, instance="bad:9", job="j"))
        manager.add_target(ScrapeTarget(app=make_exporter(lambda: [fam]), instance="good:9", job="j"))
        assert manager.scrape_all(now=15.0) == 1  # good target unaffected
        assert manager.targets[0].scrape_failures_total == 1
        assert manager.healthy_targets() == 1
        ups = {s.labels.get("instance"): s.values[-1] for s in db.select([Matcher.name_eq("up")])}
        assert ups == {"bad:9": 0.0, "good:9": 1.0}

    @pytest.mark.parametrize("use_cache", [False, True])
    def test_handler_crash_counts_as_failure(self, use_cache):
        db = TSDB()
        crash = App("crash")

        def boom(req):
            raise ValueError("collector exploded")

        crash.router.get("/metrics", boom)
        manager = MANAGERS[use_cache](db)
        manager.add_target(ScrapeTarget(app=crash, instance="c:9", job="j"))
        manager.scrape_all(now=15.0)
        assert manager.targets[0].scrape_failures_total == 1

    @pytest.mark.parametrize("use_cache", [False, True])
    def test_invalid_metric_name_counts_as_failure(self, use_cache):
        # parses fine but fails Labels validation (ValueError, not
        # ScrapeError) — must be contained like any other bad payload
        db = TSDB()
        bad = App("badname")
        bad.router.get("/metrics", lambda req: Response.text("m} 1\n"))
        manager = MANAGERS[use_cache](db)
        manager.add_target(ScrapeTarget(app=bad, instance="b:9", job="j"))
        manager.scrape_all(now=15.0)
        assert manager.targets[0].scrape_failures_total == 1


class TestNumericTokenGrammar:
    """Trailing tokens, ``1_0`` and non-integer timestamps are refused
    with the line number wherever the line is judged."""

    BAD = ["1 2 3 garbage", "1_0", "1 1.5", "1 1_0", "1 # {} 1_0"]

    @staticmethod
    def fetch_error(lines_before, lines_after):
        body = {"lines": lines_before}
        app = App("grammar")
        app.router.get("/metrics", lambda req: Response.text("".join(f"{line}\n" for line in body["lines"])))
        manager = ScrapeManager(TSDB())
        target = ScrapeTarget(app=app, instance="i", job="j")
        manager.add_target(target)
        assert manager.scrape_all(now=15.0) == sum(not line.startswith("#") for line in lines_before)
        body["lines"] = lines_after
        result = manager._fetch(target, 30.0)
        assert not result.ok
        return result.error

    @pytest.mark.parametrize("tail", BAD)
    def test_on_the_lane(self, tail):
        error = self.fetch_error(["# TYPE a gauge", 'a{b="c"} 1', "d 2"], ["# TYPE a gauge", f'a{{b="c"}} {tail}', "d 2"])
        assert "ScrapeError" in error and "line 2" in error
        error = self.fetch_error(["# TYPE a gauge", 'a{b="c"} 1', "d 2"], ["# TYPE a gauge", 'a{b="c"} 1', f"d {tail}"])
        assert "ScrapeError" in error and "line 3" in error

    @pytest.mark.parametrize("tail", BAD)
    def test_in_the_rebuild_for_known_and_for_new_series_text(self, tail):
        error = self.fetch_error(['a{b="c"} 1'], ["# moved down a line", f'a{{b="c"}} {tail}'])
        assert "ScrapeError" in error and "line 2" in error
        error = self.fetch_error(['a{b="c"} 1'], ['a{b="c"} 1', f'a{{b="new"}} {tail}'])
        assert "ScrapeError" in error and "line 2" in error


class TestFailureStaleness:
    @pytest.mark.parametrize("use_cache", [False, True])
    def test_failed_scrape_marks_all_series_stale(self, use_cache):
        """Prometheus behaviour: a dead target's series get staleness
        markers immediately, not after the lookback window."""
        db = TSDB()
        state = {"alive": True}
        fam = exposition.MetricFamily("power_watts", type="gauge")
        fam.add(240.0, uuid="a")
        fam.add(260.0, uuid="b")

        def handler(req):
            if not state["alive"]:
                return Response(status=500)
            return Response.text(exposition.render([fam]))

        app = App("flaky")
        app.router.get("/metrics", handler)
        manager = MANAGERS[use_cache](db)
        manager.add_target(ScrapeTarget(app=app, instance="i", job="j"))
        manager.scrape_all(now=15.0)
        state["alive"] = False
        manager.scrape_all(now=30.0)
        for s in db.select([Matcher.name_eq("power_watts")]):
            assert s.timestamps == [15.0, 30.0]
            assert math.isnan(s.values[-1])
        # the marker set was cleared: a third failing cycle appends
        # nothing further
        manager.scrape_all(now=45.0)
        for s in db.select([Matcher.name_eq("power_watts")]):
            assert s.timestamps == [15.0, 30.0]
        # recovery starts a fresh series history
        state["alive"] = True
        manager.scrape_all(now=60.0)
        for s in db.select([Matcher.name_eq("power_watts")]):
            assert s.timestamps == [15.0, 30.0, 60.0]
            assert not math.isnan(s.values[-1])


class TestScrapeCache:
    def test_hits_after_first_cycle(self):
        _db, manager = run_cycles(use_cache=True, cycles=3)
        assert manager.cache_misses_total > 0
        assert manager.cache_hits_total > 0
        # steady series ('power_watts' sensor line, counter line) hit
        # on cycles 2-3
        assert manager.cache_hits_total >= 4

    def test_value_change_is_still_a_hit(self):
        db = TSDB()
        manager = ScrapeManager(db)
        state = {"v": 0.0}

        def families():
            state["v"] += 1.5
            fam = exposition.MetricFamily("m", type="gauge")
            fam.add(state["v"], uuid="x")
            return [fam]

        manager.add_target(ScrapeTarget(app=make_exporter(families), instance="i", job="j"))
        manager.scrape_all(now=15.0)
        manager.scrape_all(now=30.0)
        assert manager.cache_misses_total == 1
        assert manager.cache_hits_total == 1
        assert db.select([Matcher.name_eq("m")])[0].values == [1.5, 3.0]

    def test_label_change_misses_and_evicts(self):
        db = TSDB()
        manager = ScrapeManager(db)
        state = {"uuid": "a"}

        def families():
            fam = exposition.MetricFamily("m", type="gauge")
            fam.add(1.0, uuid=state["uuid"])
            return [fam]

        manager.add_target(ScrapeTarget(app=make_exporter(families), instance="i", job="j"))
        manager.scrape_all(now=15.0)
        state["uuid"] = "b"
        manager.scrape_all(now=30.0)
        assert manager.cache_misses_total == 2
        assert manager.cache_evictions_total == 1  # the uuid="a" line
        assert manager.cache_hits_total == 0
        # and the disappeared series got its staleness marker
        a = db.select([Matcher.eq("uuid", "a")])[0]
        assert math.isnan(a.values[-1])
        # only uuid="b" is remembered: scraped again it is a hit, and
        # uuid="a" coming back is parsed afresh
        manager.scrape_all(now=45.0)
        assert (manager.cache_hits_total, manager.cache_misses_total) == (1, 2)
        state["uuid"] = "a"
        manager.scrape_all(now=60.0)
        assert (manager.cache_hits_total, manager.cache_misses_total) == (1, 3)
        assert manager.cache_evictions_total == 2

    def test_disappeared_series_is_evicted_once(self):
        """What the generation counters stood for: a series text is
        evicted by the first scrape that no longer has it — not
        before, not again — and the ones still there stay hits."""
        db = TSDB()
        manager = ScrapeManager(db)
        state = {"uuids": ["live", "dead"]}

        def families():
            fam = exposition.MetricFamily("m", type="gauge")
            for uuid in state["uuids"]:
                fam.add(1.0, uuid=uuid)
            return [fam]

        manager.add_target(ScrapeTarget(app=make_exporter(families), instance="i", job="j"))
        manager.scrape_all(now=15.0)
        manager.scrape_all(now=30.0)
        assert manager.cache_evictions_total == 0
        state["uuids"] = ["live"]
        manager.scrape_all(now=45.0)
        assert manager.cache_evictions_total == 1
        manager.scrape_all(now=60.0)
        assert manager.cache_evictions_total == 1
        assert (manager.cache_hits_total, manager.cache_misses_total) == (4, 2)
        assert manager.layout_rebuilds_total == 2  # first body, then the shorter one


class TestObservability:
    def test_cycle_histogram_and_cache_counters_exposed(self):
        from repro.obs.registry import MetricsRegistry

        _db, manager = run_cycles(use_cache=True, cycles=2)
        registry = MetricsRegistry()
        manager.register_metrics(registry)
        text = exposition.render(registry.collect())
        assert "ceems_scrape_cache_hits_total" in text
        assert "ceems_scrape_cache_misses_total" in text
        assert "ceems_scrape_cache_evictions_total" in text
        assert "ceems_scrape_cycle_seconds_bucket" in text
        assert manager.cycle_seconds.collect()


class TestPersistentHead:
    def test_fast_lane_survives_restart(self):
        """Ref appends on the durable head journal to the WAL: a
        reopened head replays exactly what the fast lane ingested."""
        from repro.tsdb.persist.head import PersistentTSDB

        with tempfile.TemporaryDirectory() as d:
            db = PersistentTSDB(d)
            _db, manager = run_cycles(use_cache=True, cycles=4, db=db)
            expected = dump(db)
            db.wal.close()
            reopened = PersistentTSDB(d)
            assert dump(reopened) == expected
            reopened.wal.close()
        # and the durable contents match the plain in-memory fast path
        mem, _ = run_cycles(use_cache=True, cycles=4)
        assert expected == dump(mem)


class TestSimulationDifferential:
    """End-to-end: the full stack produces identical *data-plane*
    contents through the production lane and through the oracle.

    Self-telemetry is excluded: wall-clock series (request-latency
    histograms, CPU seconds) differ between any two runs regardless
    of mode, and the scrape-cache counters differ by construction.
    The alerting control plane rides on those wall-clock series too
    (probe durations, latency-SLO ratios, the ALERTS state series
    they can trigger), so its jobs and series prefixes are excluded
    for the same reason.
    """

    META_JOBS = ("prometheus", "ceems-api", "ceems-lb", "alertmanager", "blackbox")
    SELF_PREFIXES = ("ceems_http_", "ceems_exporter_", "probe_", "slo:", "ALERTS")

    @classmethod
    def data_plane(cls, db):
        out = []
        for s in db.all_series():
            if s.labels.get("job") in cls.META_JOBS:
                continue
            if s.labels.metric_name.startswith(cls.SELF_PREFIXES):
                continue
            out.append((tuple(s.labels), tuple(s.timestamps), tuple(repr(v) for v in s.values)))
        return out

    def test_small_topology_identical(self, monkeypatch):
        from repro.cluster.simulation import SimulationConfig, StackSimulation
        from repro.cluster.topology import small_topology

        import repro.cluster.simulation as simulation

        def run(scrape_cache):
            # The deployment builds its own manager: substitute the
            # oracle class only while it is constructed.
            monkeypatch.setattr(simulation, "ScrapeManager", MANAGERS[scrape_cache])
            sim = StackSimulation(
                small_topology(cpu_nodes=2, gpu_nodes=1),
                SimulationConfig(seed=11),
            )
            monkeypatch.undo()
            assert type(sim.scrape_manager) is MANAGERS[scrape_cache]
            sim.run(450.0)
            return self.data_plane(sim.hot_tsdb)

        ref = run(scrape_cache=False)
        fast = run(scrape_cache=True)
        assert len(ref) > 100  # the comparison is over real content
        assert ref == fast
