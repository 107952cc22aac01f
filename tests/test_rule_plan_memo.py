"""Edit-sequence differential of the rule plan memo.

A parsed expression owns a :class:`~repro.tsdb.promql.parser.PlanMemo`
(``plan_memo``), which its recording rule reaches through the AST:
per node, the last label plan and the input label tuples it was built
from.  The memo must never change an answer.  The
fuzz here edits one TSDB between rule ticks — a series matching a
selector appears, goes stale, is deleted and re-created, moves host, a
whole target goes stale and returns, a counter resets, a ``rate``
window starves, retention truncates, a job's series are cleaned up, a
second series makes a ``group_left`` "one" side many-to-many and is
removed again — and after every tick three evaluators of the same
rule groups must have written the same samples, bit for bit and in the
same order (outputs, staleness NaNs), and reported the same errors:

* the frozen element-wise walk (``tests/reference/``), which derives
  every label set from scratch on every evaluation;
* the production walk with a **fresh** memo per rule per tick (the
  label half of every node runs; these rules hold trees of their own,
  parsed unremembered, so emptying their memos leaves the long-lived
  ones alone);
* the production walk with the **long-lived** memos the rule groups
  own, which is what a deployment runs.

They share the TSDB: a second evaluation at the same timestamp
overwrites what the first wrote with, if they agree, the same values,
and no shipped rule reads a rule listed after it.

Mutation checks made while writing this (each makes
``test_generated_expressions`` and ``test_shipped_groups`` fail):
a leaf keyed on ``len(present)`` instead of the label tuple; the
``is`` check skipped for one operand of a binary node (``held[:1]``
compared only); a plan kept after its label half raised (the stale
entry re-armed for the new inputs inside ``except QueryError``).
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import StackSimulation
from repro.common.errors import QueryError
from repro.cluster.jean_zay import jean_zay_topology
from repro.cluster.simulation import SimulationConfig
from repro.tsdb.model import Labels, Matcher
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.promql.parser import parse_expr, plan_memo
from repro.tsdb.rules import RecordingRule, RuleGroup
from repro.tsdb.storage import TSDB
from tests.conftest import SMALL_MIX
from tests.reference.promql import ElementWalkEngine
from tests.reference.rules import ElementRuleGroup
from tests.test_promql_reference import DIFFERENTIAL_QUERIES

STEP = 15.0


@dataclasses.dataclass
class Feed:
    """One scraped series the fuzz keeps alive: a sample every tick."""

    labels: Labels
    value: float
    slope: float = 0.0
    live: bool = True
    #: Tick at which a silenced feed starts reporting again (0: never).
    resume_at: int = 0


class _Recorder:
    """The storage a rule group writes through: logs, then forwards."""

    def __init__(self, db: TSDB) -> None:
        self.db = db
        self.log: list[tuple[Labels, float, bytes]] = []

    def append(self, labels: Labels, timestamp: float, value: float) -> None:
        self.log.append((labels, timestamp, struct.pack("<d", value)))
        self.db.append(labels, timestamp, value)

    def append_many(self, batch) -> int:
        batch = list(batch)
        self.log += [(labels, timestamp, struct.pack("<d", value)) for labels, timestamp, value in batch]
        return self.db.append_many(batch)

    def has_series(self, labels: Labels) -> bool:
        return self.db.has_series(labels)


GroupSpec = tuple[str, list[tuple[str, str, dict[str, str]]]]


def _own_tree(text: str):
    """A tree ``parse_expr`` never handed out, so its memo is its own
    (``None`` for a text that does not parse: the rule then fails at
    every evaluation, as the others do)."""
    try:
        return parse_expr.__wrapped__(text)
    except QueryError:
        return None


class World:
    """One TSDB, the feeds that write to it, and three evaluators of
    the same rule groups."""

    def __init__(self, history, feeds: list[Feed], groups: list[GroupSpec], now: float, lookback: float):
        self.db = TSDB()
        for labels, ts, vs in history:
            self.db.append_array(labels, ts, vs)
        self.feeds = feeds
        self.now = now
        self.tick_no = 0
        self.fresh_labels = 0
        self.engine = PromQLEngine(self.db, lookback=lookback)
        self.oracle = ElementWalkEngine(self.db, lookback=lookback)
        self.reference = [ElementRuleGroup(rules) for _name, rules in groups]
        self.memoised = [RuleGroup(name, 30.0, [RecordingRule(*rule) for rule in rules]) for name, rules in groups]
        self.fresh = [
            RuleGroup(name, 30.0, [RecordingRule(*rule, _ast=_own_tree(rule[1])) for rule in rules])
            for name, rules in groups
        ]

    # -- edits -------------------------------------------------------------
    def _pick(self, index: int, wanted=lambda feed: True) -> Feed | None:
        candidates = [feed for feed in self.feeds if wanted(feed)]
        return candidates[index % len(candidates)] if candidates else None

    def _clone(self, feed: Feed, **changed: str) -> Feed:
        clone = Feed(Labels({**feed.labels.as_dict(), **changed}), feed.value, feed.slope)
        if not any(other.labels == clone.labels for other in self.feeds):
            self.feeds.append(clone)
        return clone

    def _silence(self, feed: Feed, *, marker: bool, resume_at: int = 0) -> None:
        if feed.live and marker and self.db.has_series(feed.labels):
            self.db.append(feed.labels, self.now, float("nan"))
        feed.live, feed.resume_at = False, resume_at

    @staticmethod
    def _site(labels: Labels) -> str:
        """What a scrape target or a host is to this feed."""
        return labels.get("instance") or labels.get("grp")

    #: Which feeds an edit may land on (default: any live one).
    _TARGETS = {
        "revive": lambda feed: not feed.live,
        "cleanup": lambda feed: "uuid" in feed.labels,
        "dup": lambda feed: feed.live and feed.labels.metric_name in ONE_SIDES,
    }

    def edit(self, kind: str, index: int) -> None:
        if kind == "retention":
            self.db.retention = (60.0, 150.0, 400.0)[index % 3]
            self.db.apply_retention(self.now)
            self.db.retention = 0.0
            return
        if kind == "undup":
            self.db.delete_series([Matcher.eq("dup", "x")])
            self.feeds = [f for f in self.feeds if "dup" not in f.labels]
            return
        feed = self._pick(index, self._TARGETS.get(kind, lambda feed: feed.live))
        if feed is None:
            return
        if kind == "appear":
            self.fresh_labels += 1
            name = "uuid" if "uuid" in feed.labels else "idx" if "idx" in feed.labels else "extra"
            self._clone(feed, **{name: f"new{self.fresh_labels}"})
        elif kind == "stale":
            self._silence(feed, marker=True)
        elif kind == "revive":
            feed.live, feed.resume_at = True, 0
        elif kind == "recreate":  # new ref, same labels, from the next tick on
            self.db.delete_series([Matcher.eq(name, value) for name, value in feed.labels])
        elif kind == "move":  # one label value changes: the job moved host
            for name in ("hostname", "grp"):
                others = sorted({f.labels.get(name) for f in self.feeds} - {"", feed.labels.get(name)})
                if name in feed.labels and others:
                    self._silence(feed, marker=True)
                    self._clone(feed, **{name: others[index % len(others)]})
                    break
        elif kind == "down":  # a whole target goes stale, and returns
            site = self._site(feed.labels)
            for other in [f for f in self.feeds if f.live and self._site(f.labels) == site]:
                self._silence(other, marker=True, resume_at=self.tick_no + 3)
        elif kind == "reset":
            feed.value = 0.0
        elif kind == "starve":  # no marker: the rate window just runs dry
            self._silence(feed, marker=False, resume_at=self.tick_no + 10)
        elif kind == "cleanup":  # cardinality cleanup: a job's series, rule outputs included
            uuid = feed.labels.get("uuid")
            self.db.delete_series([Matcher.eq("uuid", uuid)])
            self.feeds = [f for f in self.feeds if f.labels.get("uuid") != uuid]
        elif kind == "dup":  # a second series on a "one" side: many-to-many
            self._clone(feed, dup="x")

    # -- one tick ----------------------------------------------------------
    def tick(self) -> None:
        """Every live feed reports, then all three evaluators run."""
        self.now += STEP
        self.tick_no += 1
        for feed in self.feeds:
            if not feed.live and feed.resume_at and feed.resume_at <= self.tick_no:
                feed.live, feed.resume_at = True, 0
            if feed.live:
                feed.value += feed.slope
                self.db.append(feed.labels, self.now, feed.value)
        outcomes = {
            "reference": self._evaluate(self.reference, lambda group, storage: group.evaluate(storage, self.now, self.oracle)),
            "fresh memo": self._evaluate(self.fresh, self._evaluate_fresh),
            "long-lived memo": self._evaluate(
                self.memoised, lambda group, storage: group.evaluate(storage, self.now, engine=self.engine)
            ),
        }
        expected = outcomes.pop("reference")
        for name, got in outcomes.items():
            for part, want_part, got_part in zip(("samples written", "errors", "recorded"), expected, got):
                assert got_part == want_part, f"{name} differs in {part} at tick {self.tick_no}"

    def _evaluate_fresh(self, group: RuleGroup, storage) -> int:
        for rule in group.rules:
            if rule._ast is not None:
                plan_memo(rule._ast).plans.clear()
        return group.evaluate(storage, self.now, engine=self.engine)

    def _evaluate(self, groups, run):
        storage = _Recorder(self.db)
        recorded = []
        for group in groups:
            try:
                recorded.append(run(group, storage))
            except Exception as exc:  # noqa: BLE001 - an escaping error must escape all three alike
                recorded.append((type(exc).__name__, str(exc)))
        errors = [
            (group.last_error, list(group.errors) if isinstance(group, ElementRuleGroup) else [r.last_error for r in group.rules])
            for group in groups
        ]
        return storage.log, errors, recorded

    def plan_counts(self) -> tuple[int, int]:
        counts = [group.plan_counts() for group in self.memoised]
        return sum(c[0] for c in counts), sum(c[1] for c in counts)


#: Raw series that sit on the "one" side of a shipped or generated
#: ``group_left``/``on()`` match.
ONE_SIDES = ("ceems_emissions_gCo2_kWh", "n")

EDIT_KINDS = (
    "appear", "stale", "revive", "recreate", "move", "down",
    "reset", "starve", "retention", "cleanup", "dup", "undup",
)  # fmt: skip

#: A run: per tick, the edits made before it (often none, so memos
#: are warm when an edit lands).
_ticks = st.lists(
    st.lists(st.tuples(st.sampled_from(EDIT_KINDS), st.integers(min_value=0, max_value=10_000)), max_size=2),
    min_size=2,
    max_size=9,
)


def _run(world: World, ticks) -> None:
    world.tick()
    world.tick()  # warm: the second tick is all hits
    for edits in ticks:
        for kind, index in edits:
            world.edit(kind, index)
        world.tick()


# -- generated expressions over a small random layout ------------------------

#: Vector matching beyond what the columnar differential lists: a raw
#: "one" side (``n``) that the ``dup`` edit can make many-to-many,
#: filters below and above a match, every set operator across metrics.
MATCHING_QUERIES = [
    "m * on(grp) group_left() n",
    "n * on(grp) group_right() m",
    "m + on(grp) group_left(site) n",
    "m / ignoring(idx, site) group_left() n",
    "m > on(grp) group_left() n",
    "n < on(grp) group_right() m",
    "m >= bool on(grp) group_left() n",
    "(m > 0) * on(grp) group_left() n",
    "sum by (grp) (m) / on(grp) n",
    "sum by (grp) (m) > on(grp) n",
    "m and on(grp) n",
    "m unless on(grp) n",
    "n or on(grp) m",
    "topk(1, m) * on(grp) group_left() n",
    "count by (grp) (m > 100)",
    'histogram_quantile(0.9, label_replace(m, "le", "$1", "idx", "(.*)"))',
    "scalar(n) + m",
    "sort_desc(m * on(grp) group_left() n)",
    "-(m * on(grp) group_left() n) + on(grp, idx) rate(m[1m])",
]

GENERATED_GROUPS: list[GroupSpec] = [
    ("generated", [(f"out:{i}", query, {}) for i, query in enumerate(DIFFERENTIAL_QUERIES + MATCHING_QUERIES)]),
    # a rule reading an earlier rule's output, with an extra label
    ("chained", [("step1", "sum by (grp) (m)", {}), ("step2", "step1 * on(grp) n", {"via": "rule"})]),
]

_layout = st.dictionaries(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(min_value=0, max_value=3).map(str)),
    st.tuples(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, width=32),
        st.floats(min_value=-50, max_value=50, allow_nan=False, width=32),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(layout=_layout, ticks=_ticks)
def test_generated_expressions(layout, ticks):
    now = 3000.0
    feeds = [Feed(Labels({"__name__": "m", "grp": grp, "idx": idx}), v, slope) for (grp, idx), (v, slope) in layout.items()]
    feeds += [Feed(Labels({"__name__": "n", "grp": grp, "site": f"s-{grp}"}), 3.0, 0.5) for grp in ("a", "b")]
    ts = now - STEP * np.arange(20, 0, -1)
    history = [(feed.labels, ts, feed.value - feed.slope * np.arange(20, 0, -1)) for feed in feeds]
    _run(World(history, feeds, GENERATED_GROUPS, now, lookback=300.0), ticks)


# -- every shipped group over a real deployment's series -----------------------


@pytest.fixture(scope="module")
def deployment():
    """Ten minutes of a nine-node deployment with every node class:
    its scraped series (rule outputs left out — the evaluators make
    their own) and every rule group it runs, alert expressions
    included as if they were recorded."""
    sim = StackSimulation(
        jean_zay_topology(scale=0.004),
        SimulationConfig(seed=5),
        workload=dataclasses.replace(SMALL_MIX, mean_interarrival=40.0),
    )
    sim.run(600)
    history, feeds = [], []
    for series in sim.hot_tsdb.all_series():
        name = series.labels.metric_name
        if ":" in name or name == "ALERTS":
            continue
        ts, vs = (a.copy() for a in series.arrays())
        history.append((series.labels, ts, vs))
        if vs[-1] == vs[-1] and ts[-1] > sim.now - 60.0:  # still being scraped
            slope = float(vs[-1] - vs[-2]) if len(vs) > 1 and vs[-2] == vs[-2] else 0.0
            feeds.append(Feed(series.labels, float(vs[-1]), slope))
    groups: list[GroupSpec] = [
        (group.name, [(rule.record, rule.expr, dict(rule.labels)) for rule in group.rules])
        for group in sim.rule_evaluator.groups
    ]
    groups.append(
        (
            "alert-expressions",
            [
                (f"alertexpr:{rule.name}", rule.expr, dict(rule.labels))
                for group in sim.rule_evaluator.alert_groups
                for rule in group.rules
            ],
        )
    )
    assert {g[0] for g in groups} >= {"ceems-power-intel-cpu", "ceems-power-gpu-ipmi-excl", "ceems-emissions", "slo-rules"}
    return history, feeds, groups, sim.now, sim.lookback


def _deployed_world(deployment) -> World:
    history, feeds, groups, now, lookback = deployment
    return World(history, [dataclasses.replace(feed) for feed in feeds], groups, now, lookback)


@settings(max_examples=20, deadline=None)
@given(ticks=_ticks)
def test_shipped_groups(deployment, ticks):
    _run(_deployed_world(deployment), ticks)


def test_quiet_ticks_are_all_hits_and_an_edit_rebuilds_only_above_its_leaf(deployment):
    """The property the memo rests on, read off its own counters."""
    world = _deployed_world(deployment)
    world.tick()
    _hits, cold = world.plan_counts()
    world.tick()
    hits, rebuilds = world.plan_counts()
    assert rebuilds == cold and hits > 0  # nothing changed: nothing rebuilt
    recorded = sum(group.last_samples for group in world.memoised)
    assert recorded > 100  # and the groups do record: this is not an empty run
    world.edit("stale", 0)
    world.tick()
    hits_after, rebuilds_after = world.plan_counts()
    assert 0 < rebuilds_after - rebuilds < (hits_after - hits) / 4  # a few nodes, not the world


def test_many_to_many_is_raised_every_tick_it_lasts_and_never_remembered():
    feeds = [
        Feed(Labels({"__name__": "m", "grp": "a", "idx": "0"}), 1.0, 1.0),
        Feed(Labels({"__name__": "n", "grp": "a", "site": "s"}), 2.0),
    ]
    ts = 3000.0 - STEP * np.arange(5, 0, -1)
    history = [(feed.labels, ts, np.full(5, feed.value)) for feed in feeds]
    world = World(history, feeds, [("g", [("joined", "m * on(grp) group_left() n", {})])], 3000.0, 300.0)
    (group,), rule = world.memoised, world.memoised[0].rules[0]
    world.tick()
    assert group.last_samples == 1 and rule.last_error == ""
    world.edit("dup", 0)
    for _ in range(3):
        world.tick()
        assert group.last_samples == 0 and "many-to-many" in rule.last_error
    world.edit("undup", 0)
    world.tick()
    assert group.last_samples == 1 and rule.last_error == ""


def test_a_second_storage_with_equal_series_is_compared_by_value_once():
    """Two storages holding equal series (a deployment set up again, a
    test's fresh TSDB) meet one text's memo: the second's label sets are
    equal but new objects, so a leaf hit keeps them, and the next
    evaluation compares by identity again — walk and grid alike."""
    ast = parse_expr.__wrapped__("sum by (grp) (m)")
    memo = plan_memo(ast)
    answers = []
    for _ in range(2):
        db = TSDB()
        for g in "ab":
            db.append(Labels({"__name__": "m", "grp": g}), 0.0, 1.0)
        engine = PromQLEngine(db)
        answers.append((engine.query(ast, 10.0), engine.query_range(ast, 0.0, 30.0, 15.0)))
        stored = {id(series.labels) for series in db.all_series()}
        for key in (id(ast.expr), -id(ast.expr)):
            (held,), _plan = memo.plans[key]
            assert {id(labels) for labels in held} == stored
    (walk, grid), (walk_again, grid_again) = answers
    assert walk_again.labels is walk.labels and walk_again.values == walk.values
    assert grid_again.series.keys() == grid.series.keys()
