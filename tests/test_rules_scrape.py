"""Tests for recording rules and the scrape manager."""

import math

import pytest

from repro.common.auth import BasicAuth
from repro.common.clock import SimClock
from repro.common.errors import QueryError, ScrapeError
from repro.common.httpx import App, Response
from repro.tsdb import exposition
from repro.tsdb.exposition import MetricFamily
from repro.tsdb.model import Labels, Matcher
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.rules import RecordingRule, RuleGroup, RuleManager
from repro.tsdb.scrape import ScrapeConfig, ScrapeManager, ScrapeTarget
from repro.tsdb.storage import TSDB


def mk(name: str, **labels: str) -> Labels:
    return Labels({"__name__": name, **labels})


class TestRecordingRules:
    def setup_method(self):
        self.db = TSDB()
        for i in range(21):
            t = i * 15.0
            self.db.append(mk("raw", instance="n1"), t, 2.0 * t)
            self.db.append(mk("raw", instance="n2"), t, 4.0 * t)

    def test_rule_records_series(self):
        group = RuleGroup(
            name="g", interval=30.0,
            rules=[RecordingRule(record="instance:raw_rate", expr="rate(raw[2m])")],
        )
        recorded = group.evaluate(self.db, at=300.0)
        assert recorded == 2
        engine = PromQLEngine(self.db)
        result = engine.query("instance:raw_rate", at=300.0)
        values = {el.labels.get("instance"): el.value for el in result.vector}
        assert values["n1"] == pytest.approx(2.0, rel=1e-6)
        assert values["n2"] == pytest.approx(4.0, rel=1e-6)

    def test_extra_labels_attached(self):
        group = RuleGroup(
            name="g", interval=30.0,
            rules=[RecordingRule(record="r", expr="sum(raw)", labels={"source": "rule"})],
        )
        group.evaluate(self.db, at=300.0)
        series = self.db.select([Matcher.name_eq("r")])
        assert series[0].labels.get("source") == "rule"

    def test_scalar_rule_recorded(self):
        group = RuleGroup(
            name="g", interval=30.0,
            rules=[RecordingRule(record="the_answer", expr="6 * 7")],
        )
        group.evaluate(self.db, at=0.0)
        assert self.db.select([Matcher.name_eq("the_answer")])[0].values == [42.0]

    def test_rules_see_earlier_rules_in_same_cycle(self):
        group = RuleGroup(
            name="g", interval=30.0,
            rules=[
                RecordingRule(record="step1", expr="sum(raw)"),
                RecordingRule(record="step2", expr="step1 * 2"),
            ],
        )
        group.evaluate(self.db, at=300.0)
        engine = PromQLEngine(self.db)
        s1 = engine.query("step1", at=300.0).vector[0].value
        s2 = engine.query("step2", at=300.0).vector[0].value
        assert s2 == pytest.approx(2 * s1)

    def test_failing_rule_does_not_abort_group(self):
        group = RuleGroup(
            name="g", interval=30.0,
            rules=[
                RecordingRule(record="bad", expr="scalar(raw) + missing_fn_behaviour{"),
                RecordingRule(record="good", expr="sum(raw)"),
            ],
        )
        recorded = group.evaluate(self.db, at=300.0)
        assert recorded == 1
        assert "bad" in group.last_error

    def test_two_failing_rules_each_report_and_group_reports_the_first(self):
        group = RuleGroup(
            name="g", interval=30.0,
            rules=[
                RecordingRule(record="good", expr="sum(raw)"),
                RecordingRule(record="bad1", expr="raw * on(nothing) raw"),
                RecordingRule(record="bad2", expr="raw and 1"),
            ],
        )
        assert group.evaluate(self.db, at=300.0) == 1
        good, bad1, bad2 = group.rules
        assert good.last_error == ""
        assert "many-to-many" in bad1.last_error
        assert "set operator" in bad2.last_error
        # the group names the first failure, not the last one standing
        assert group.last_error == f"bad1: {bad1.last_error}"
        assert group.last_evaluation == 300.0 and group.evaluation_seconds > 0.0

    @pytest.mark.parametrize(
        "expr, error",
        [
            ('label_replace(raw, "d", "v", "instance", "(")', "invalid regular expression in label_replace(): ("),
            ('label_replace(raw, "1d", "v", "instance", ".*")', "invalid destination label name in label_replace(): 1d"),
            ('label_join(raw, "d", ",", "in-stance")', "invalid source label name in label_join(): in-stance"),
            ('label_join(raw, "d-x", ",", "instance")', "invalid destination label name in label_join(): d-x"),
        ],
    )
    def test_bad_label_function_argument_is_a_rule_error_and_groups_run_on(self, expr, error):
        """Parent: ``re.error`` / ``ValueError`` escaped the group and the
        clock, whose timer was already popped: neither this group nor
        one due at the same tick ran again."""
        manager = RuleManager(self.db)
        bad = RuleGroup(
            name="bad", interval=30.0,
            rules=[RecordingRule(record="broken", expr=expr), RecordingRule(record="total", expr="sum(raw)")],
        )
        other = RuleGroup(name="other", interval=30.0, rules=[RecordingRule(record="other", expr="sum(raw)")])
        manager.add_group(bad)
        manager.add_group(other)
        clock = SimClock(start=270.0)
        manager.register_timers(clock)
        clock.advance(60.0)
        assert bad.evaluations == other.evaluations == 2
        assert bad.last_samples == other.last_samples == 1
        assert bad.rules[0].last_error == error and bad.last_error == f"broken: {error}"

    def test_rule_that_fails_then_recovers_clears_its_error(self):
        self.db.append(mk("one", instance="n1"), 285.0, 1.0)
        group = RuleGroup(
            name="g", interval=30.0,
            rules=[RecordingRule(record="joined", expr="raw * on(instance) group_left() one")],
        )
        rule = group.rules[0]
        assert group.evaluate(self.db, at=300.0) == 1 and rule.last_error == ""
        # a second series makes the "one" side many-to-many ...
        self.db.append(mk("one", instance="n1", dup="x"), 300.0, 1.0)
        for at in (315.0, 330.0):  # ... for as long as it is there
            assert group.evaluate(self.db, at=at) == 0
            assert "many-to-many" in rule.last_error and group.last_error.startswith("joined: ")
        self.db.delete_series([Matcher.eq("dup", "x")])
        assert group.evaluate(self.db, at=345.0) == 1
        assert rule.last_error == "" and group.last_error == ""

    def test_vanished_output_gets_stale_marker(self):
        group = RuleGroup(
            name="g", interval=30.0,
            rules=[RecordingRule(record="gated", expr="raw > 700")],
        )
        group.evaluate(self.db, at=300.0)  # n2 qualifies (1200 > 700)
        engine = PromQLEngine(self.db)
        assert len(engine.query("gated", at=300.0).vector) == 1
        # next cycle: make n2's value drop below the gate by evaluating
        # at an earlier offset… simpler: evaluate at t where raw < 700.
        group.evaluate(self.db, at=330.0)
        # still above: no stale yet
        assert len(engine.query("gated", at=330.0).vector) == 1

    def test_rule_manager_rejects_duplicate_group(self):
        manager = RuleManager(self.db)
        manager.add_group(RuleGroup(name="g", interval=30.0))
        with pytest.raises(QueryError):
            manager.add_group(RuleGroup(name="g", interval=30.0))

    def test_rule_manager_timer_integration(self):
        clock = SimClock(start=0.0)
        manager = RuleManager(self.db)
        manager.add_group(
            RuleGroup(name="g", interval=30.0, rules=[RecordingRule(record="r", expr="sum(raw)")])
        )
        manager.register_timers(clock)
        clock.advance(120.0)
        group = manager.groups[0]
        assert group.evaluations == 4


def make_fake_exporter(families_fn) -> App:
    app = App("fake")
    app.router.get(
        "/metrics",
        lambda req: Response.text(exposition.render(families_fn())),
    )
    return app


class TestScrapeManager:
    def test_scrape_ingests_with_identity_labels(self):
        db = TSDB()
        family = MetricFamily("m", type="gauge")
        family.add(5.0, uuid="1")
        app = make_fake_exporter(lambda: [family])
        manager = ScrapeManager(db)
        manager.add_target(
            ScrapeTarget(app=app, instance="n1:9010", job="ceems", group_labels={"nodegroup": "x"})
        )
        assert manager.scrape_all(now=15.0) == 1
        series = db.select([Matcher.name_eq("m")])[0]
        assert series.labels.get("instance") == "n1:9010"
        assert series.labels.get("job") == "ceems"
        assert series.labels.get("nodegroup") == "x"

    def test_up_metric_tracks_health(self):
        db = TSDB()
        broken = App("broken")  # no /metrics route -> 404
        manager = ScrapeManager(db)
        manager.add_target(ScrapeTarget(app=broken, instance="n1:9", job="j"))
        manager.scrape_all(now=15.0)
        up = db.select([Matcher.name_eq("up")])[0]
        assert up.values[-1] == 0.0
        assert manager.healthy_targets() == 0
        assert manager.targets[0].scrape_failures_total == 1

    def test_duplicate_target_rejected(self):
        manager = ScrapeManager(TSDB())
        app = make_fake_exporter(list)
        manager.add_target(ScrapeTarget(app=app, instance="a", job="j"))
        with pytest.raises(ScrapeError):
            manager.add_target(ScrapeTarget(app=app, instance="a", job="j"))

    def test_one_bad_target_does_not_stop_others(self):
        db = TSDB()
        family = MetricFamily("m", type="gauge")
        family.add(1.0)
        good = make_fake_exporter(lambda: [family])
        bad = App("broken")
        manager = ScrapeManager(db)
        manager.add_target(ScrapeTarget(app=bad, instance="bad:9", job="j"))
        manager.add_target(ScrapeTarget(app=good, instance="good:9", job="j"))
        assert manager.scrape_all(now=15.0) == 1
        assert manager.healthy_targets() == 1

    def test_basic_auth_used(self):
        db = TSDB()
        family = MetricFamily("m", type="gauge")
        family.add(1.0)
        auth = BasicAuth.single_user("scraper", "pw")
        app = App("secured", auth=auth)
        app.router.get("/metrics", lambda req: Response.text(exposition.render([family])))
        manager = ScrapeManager(db)
        manager.add_target(
            ScrapeTarget(app=app, instance="n1:9", job="j", username="scraper", password="pw")
        )
        manager.scrape_all(now=15.0)
        assert manager.healthy_targets() == 1
        # and with wrong creds it fails
        manager2 = ScrapeManager(TSDB())
        manager2.add_target(
            ScrapeTarget(app=app, instance="n1:9", job="j", username="scraper", password="bad")
        )
        manager2.scrape_all(now=15.0)
        assert manager2.healthy_targets() == 0

    def test_disappearing_series_gets_stale_marker(self):
        db = TSDB()
        state = {"include": True}

        def families():
            fams = []
            fam = MetricFamily("m", type="gauge")
            fam.add(1.0, uuid="keep")
            if state["include"]:
                fam.add(2.0, uuid="gone")
            fams.append(fam)
            return fams

        manager = ScrapeManager(db)
        manager.add_target(ScrapeTarget(app=make_fake_exporter(families), instance="n1:9", job="j"))
        manager.scrape_all(now=15.0)
        state["include"] = False
        manager.scrape_all(now=30.0)
        engine = PromQLEngine(db)
        result = engine.query("m", at=30.0)
        uuids = {el.labels.get("uuid") for el in result.vector}
        assert uuids == {"keep"}
        gone = db.select([Matcher.eq("uuid", "gone")])[0]
        assert math.isnan(gone.values[-1])

    def test_retention_applied_periodically(self):
        db = TSDB(retention=60.0)
        family = MetricFamily("m", type="gauge")
        family.add(1.0)
        manager = ScrapeManager(db, ScrapeConfig(interval=15.0, retention_every=2))
        manager.add_target(ScrapeTarget(app=make_fake_exporter(lambda: [family]), instance="i", job="j"))
        for i in range(10):
            manager.scrape_all(now=15.0 * (i + 1))
        series = db.select([Matcher.name_eq("m")])[0]
        assert series.min_time >= 150.0 - 60.0

    def test_clock_driven_scraping(self):
        db = TSDB()
        family = MetricFamily("m", type="gauge")
        family.add(1.0)
        manager = ScrapeManager(db, ScrapeConfig(interval=15.0))
        manager.add_target(ScrapeTarget(app=make_fake_exporter(lambda: [family]), instance="i", job="j"))
        clock = SimClock(start=0.0)
        manager.register_timer(clock)
        clock.advance(60.0)
        assert manager.targets[0].scrapes_total == 4
