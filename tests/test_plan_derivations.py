"""A label plan rebuilt after members change derives the new members only.

Every label half derives what it needs from one member at a time — a
signature, a label set without its name, a group key, a pair's output
labels, a rule's output labels — through its plan's
:class:`~repro.tsdb.promql.parser.Kept`.  After ``k`` members arrive
and others leave, a rebuild must derive exactly the ``k`` arrivals (per
kind of derivation the node makes), nothing it derived for a member
before, and keep no derivation of a member that left.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.common.errors import QueryError
from repro.tsdb.model import Labels, Matcher
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.promql.parser import Kept, parse_expr, plan_memo
from repro.tsdb.rules import RecordingRule, RuleGroup
from repro.tsdb.storage import TSDB


@pytest.fixture
def derived(monkeypatch):
    """Per kind, how many members label halves derived."""
    counts: Counter = Counter()
    each = Kept.each

    def counting(self, kind, derive, members):
        def counted(member):
            counts[kind] += 1
            return derive(member)

        return each(self, kind, counted, members)

    monkeypatch.setattr(Kept, "each", counting)
    return counts


def _m(idx: int) -> Labels:
    return Labels({"__name__": "m", "grp": "ab"[idx % 2], "idx": str(idx)})


class Store:
    """``m`` series come and go; two ``n`` series stay."""

    def __init__(self, members: range) -> None:
        self.db = TSDB()
        self.now = 0.0
        self.members = set(members)
        for grp in "ab":
            self.db.append(Labels({"__name__": "n", "grp": grp, "site": f"s-{grp}"}), 0.0, 2.0)

    def tick(self, arrive=(), leave=()) -> float:
        self.members |= set(arrive)
        self.members -= set(leave)
        for idx in leave:
            self.db.delete_series([Matcher.eq("idx", str(idx))])
        self.now += 15.0
        for idx in sorted(self.members):
            self.db.append(_m(idx), self.now, float(idx + self.now))
        for grp in "ab":
            self.db.append(Labels({"__name__": "n", "grp": grp, "site": f"s-{grp}"}), self.now, 2.0)
        return self.now


#: Expression, and the kinds its rebuild derives once per new ``m``.
CASES = [
    ("-m", ("without_name",)),
    ("sum by (grp) (m)", ("group",)),
    ("sum without (idx) (m)", ("group",)),
    ("m * on(grp) group_left() n", ("signature", "without_name")),
    ("n * on(grp) group_right() m", ("signature", "without_name")),
    ("m + on(grp) group_left(site) n", ("signature", "pair")),
    ("m * on(grp, idx) m", ("signature",)),
    ("m and on(grp) n", ("signature",)),
    ("m / ignoring(idx, site) group_left() n", ("signature", "without_name")),
]


@pytest.mark.parametrize("text,kinds", CASES)
@pytest.mark.parametrize("arrive,leave", [((20,), ()), ((20, 21, 22), (3,)), ((), (1, 2)), ((30, 31), (0, 5, 7))])
def test_a_rebuild_derives_the_new_members_only(derived, text, kinds, arrive, leave):
    ast = parse_expr.__wrapped__(text)  # a tree of its own: a fresh memo
    store = Store(range(8))
    engine = PromQLEngine(store.db)
    engine.query(ast, store.tick())
    derived.clear()
    memo = plan_memo(ast)
    rebuilds = memo.rebuilds
    engine.query(ast, store.tick(arrive, leave))
    assert memo.rebuilds > rebuilds  # the change did reach the plans
    assert derived == Counter({kind: len(arrive) for kind in kinds if arrive})
    assert_kept_within_inputs(memo)


def test_a_recorded_output_is_derived_once_per_new_member(derived):
    store = Store(range(6))
    group = RuleGroup("g", 15.0, [RecordingRule("rec", "m", {"via": "rule"}, _ast=parse_expr.__wrapped__("m"))])
    group.evaluate(store.db, store.tick())
    derived.clear()
    group.evaluate(store.db, store.tick(arrive=(40, 41), leave=(2,)))
    assert derived == Counter({"output": 2})
    assert group.last_samples == 7
    assert_kept_within_inputs(plan_memo(group.rules[0].ast()))


def test_a_quiet_evaluation_derives_nothing_and_an_emptied_memo_everything(derived):
    ast = parse_expr.__wrapped__("m * on(grp) group_left() n")
    store = Store(range(5))
    engine = PromQLEngine(store.db)
    engine.query(ast, store.tick())
    derived.clear()
    engine.query(ast, store.tick())
    assert not derived  # every plan hit
    plan_memo(ast).plans.clear()
    engine.query(ast, store.tick())
    assert derived == Counter({"signature": 7, "without_name": 5})  # 5 + 2 signatures, 5 outputs


def test_clashes_are_found_on_every_rebuild_never_kept():
    ast = parse_expr.__wrapped__("m * on(grp) group_left() n")
    store = Store(range(4))
    engine = PromQLEngine(store.db)
    engine.query(ast, store.tick())
    dup = Labels({"__name__": "n", "grp": "a", "site": "other"})
    store.db.append(dup, store.now + 15.0, 1.0)
    with pytest.raises(QueryError, match="many-to-many"):
        engine.query(ast, store.tick(arrive=(9,)))
    store.db.delete_series([Matcher.eq("site", "other")])
    result = engine.query(ast, store.tick())
    assert len(result.labels) == 5


def assert_kept_within_inputs(memo) -> None:
    """Every kept derivation is of a member of its plan's current inputs
    (a pair's of one member from each)."""
    for key, tables in memo.kept.items():
        inputs, _plan = memo.plans[key]
        members = {labels for side in inputs for labels in side}
        for kind, table in tables.items():
            for member in table:
                parts = member if kind == "pair" else (member,)
                assert all(part in members for part in parts), (key, kind, member)
