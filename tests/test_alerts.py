"""Tests for alerting rules and the alert groups the rule evaluator runs."""

import pytest

from repro.common.clock import SimClock
from repro.tsdb.alerts import (
    AlertingRule,
    AlertingRuleGroup,
    AlertState,
    ceems_alert_rules,
)
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.rules import RuleEvaluator
from repro.tsdb.storage import TSDB


def mk(name: str, **labels: str) -> Labels:
    return Labels({"__name__": name, **labels})


@pytest.fixture
def db() -> TSDB:
    return TSDB()


@pytest.fixture
def engine(db) -> PromQLEngine:
    return PromQLEngine(db)


def feed_up(db: TSDB, instance: str, value: float, t: float) -> None:
    db.append(mk("up", instance=instance, job="ceems"), t, value)


class TestAlertingRule:
    def test_fires_immediately_without_hold(self, db, engine):
        feed_up(db, "n1", 0.0, 10.0)
        rule = AlertingRule(name="Down", expr="up == 0")
        transitions = rule.evaluate(engine, now=10.0)
        assert len(transitions) == 1
        assert transitions[0].state is AlertState.FIRING
        assert transitions[0].labels.get("instance") == "n1"

    def test_hold_delays_firing(self, db, engine):
        rule = AlertingRule(name="Down", expr="up == 0", hold=120.0)
        feed_up(db, "n1", 0.0, 0.0)
        assert rule.evaluate(engine, now=0.0) == []
        feed_up(db, "n1", 0.0, 60.0)
        assert rule.evaluate(engine, now=60.0) == []  # still pending
        feed_up(db, "n1", 0.0, 120.0)
        transitions = rule.evaluate(engine, now=120.0)
        assert len(transitions) == 1 and transitions[0].state is AlertState.FIRING

    def test_pending_resets_if_condition_clears(self, db, engine):
        rule = AlertingRule(name="Down", expr="up == 0", hold=120.0)
        feed_up(db, "n1", 0.0, 0.0)
        rule.evaluate(engine, now=0.0)
        feed_up(db, "n1", 1.0, 60.0)  # back up
        rule.evaluate(engine, now=60.0)
        feed_up(db, "n1", 0.0, 120.0)  # down again: hold restarts
        assert rule.evaluate(engine, now=120.0) == []
        feed_up(db, "n1", 0.0, 240.0)
        transitions = rule.evaluate(engine, now=240.0)
        assert transitions and transitions[0].state is AlertState.FIRING

    def test_resolve_transition(self, db, engine):
        rule = AlertingRule(name="Down", expr="up == 0")
        feed_up(db, "n1", 0.0, 0.0)
        rule.evaluate(engine, now=0.0)
        feed_up(db, "n1", 1.0, 60.0)
        transitions = rule.evaluate(engine, now=60.0)
        assert len(transitions) == 1
        assert transitions[0].state is AlertState.RESOLVED
        assert rule.firing_count == 0

    def test_one_alert_per_label_set(self, db, engine):
        feed_up(db, "n1", 0.0, 0.0)
        feed_up(db, "n2", 0.0, 0.0)
        rule = AlertingRule(name="Down", expr="up == 0")
        transitions = rule.evaluate(engine, now=0.0)
        assert len(transitions) == 2
        # re-evaluating does not re-fire
        assert rule.evaluate(engine, now=30.0) == []

    def test_static_labels_and_annotations(self, db, engine):
        feed_up(db, "n1", 0.0, 0.0)
        rule = AlertingRule(
            name="Down", expr="up == 0",
            labels={"severity": "critical"},
            annotations={"summary": "node down"},
        )
        alert = rule.evaluate(engine, now=0.0)[0]
        assert alert.labels.get("severity") == "critical"
        assert alert.annotations["summary"] == "node down"

    def test_bad_expression_is_silent(self, db, engine):
        rule = AlertingRule(name="Bad", expr="up ==")
        assert rule.evaluate(engine, now=0.0) == []

    def test_alert_value_captured(self, db, engine):
        db.append(mk("power", instance="n1"), 0.0, 3000.0)
        rule = AlertingRule(name="Hot", expr="power > 2500")
        alert = rule.evaluate(engine, now=0.0)[0]
        assert alert.value == 3000.0


def firing(evaluator: RuleEvaluator) -> dict[str, int]:
    """Currently-firing alert counts per rule name."""
    return {r.name: r.firing_count for g in evaluator.alert_groups for r in g.rules if r.firing_count}


def alert_evaluator(db: TSDB, *rules: AlertingRule) -> RuleEvaluator:
    evaluator = RuleEvaluator(db)
    evaluator.add_alert_group(AlertingRuleGroup(name="test", interval=60.0, rules=list(rules)))
    return evaluator


class TestAlertManager:
    """Alert groups on the stack's evaluator, notifying its receiver."""

    def test_receivers_notified(self, db):
        evaluator = alert_evaluator(db, AlertingRule(name="Down", expr="up == 0"))
        received = []
        evaluator.notifier = lambda transitions, now: received.extend(transitions)
        feed_up(db, "n1", 0.0, 0.0)
        evaluator.evaluate_alerts(now=0.0)
        assert len(received) == 1
        assert received[0].name == "Down"

    def test_firing_summary(self, db):
        evaluator = alert_evaluator(db, AlertingRule(name="Down", expr="up == 0"))
        feed_up(db, "n1", 0.0, 0.0)
        feed_up(db, "n2", 0.0, 0.0)
        evaluator.evaluate_alerts(now=0.0)
        assert firing(evaluator) == {"Down": 2}

    def test_timer_driven(self, db):
        clock = SimClock(start=0.0)
        evaluator = alert_evaluator(db, AlertingRule(name="Down", expr="up == 0", hold=120.0))
        notifications = []
        evaluator.notifier = lambda transitions, now: notifications.extend(transitions)
        evaluator.register_timers(clock)

        def keep_down(now):
            feed_up(db, "n1", 0.0, now)

        clock.every(15.0, keep_down)
        clock.advance(300.0)
        assert evaluator.alert_evaluations == 5
        assert firing(evaluator) == {"Down": 1}
        firing_now = [n for n in notifications if n.state is AlertState.FIRING]
        assert len(firing_now) == 1
        assert firing_now[0].fired_at >= 120.0


class TestCEEMSAlertPack:
    def test_pack_parses(self):
        for rule in ceems_alert_rules():
            rule.ast()

    def test_target_down_fires_in_live_stack(self, small_sim):
        """The shared sim evaluates the pack on its own evaluator: no
        target is down and an emission factor is scraped, so neither
        alert fires."""
        evaluator = small_sim.rule_evaluator
        assert evaluator.alert_evaluations > 0
        assert {r.name for g in evaluator.alert_groups for r in g.rules} >= {r.name for r in ceems_alert_rules()}
        assert "CEEMSTargetDown" not in firing(evaluator)
        assert "EmissionFactorStale" not in firing(evaluator)

    def test_emission_factor_stale_alert(self, db):
        rules = {r.name: r for r in ceems_alert_rules()}
        rule = rules["EmissionFactorStale"]
        rule.hold = 0.0
        evaluator = alert_evaluator(db, rule)
        transitions = evaluator.evaluate_alerts(now=0.0)  # nothing scraped -> absent fires
        assert any(t.name == "EmissionFactorStale" for t in transitions)
