"""Blackbox prober, SLO burn-rate compilation, the shipped-rule
compile/evaluate CI guard, and the ``export-rules --check`` drift
gate."""

import json
import struct

import pytest

from repro.cli import generate_rules_text, main
from repro.common.clock import SimClock
from repro.common.httpx import App, Response
from repro.obs.probe import BlackboxProber, ProbeTarget
from repro.obs.slo import (
    SLO,
    BurnRateWindow,
    slo_alert_group,
    slo_recording_group,
    standard_slos,
)
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.promql.parser import parse_expr
from repro.tsdb.storage import TSDB


def make_app(name: str = "svc", status: int = 200) -> App:
    app = App(name)
    app.router.get("/-/healthy", lambda req: Response.error(status, "x") if status >= 400 else Response.text("ok"))
    return app


class TestBlackboxProber:
    def test_probe_records_series(self):
        db = TSDB()
        prober = BlackboxProber(db, interval=60.0)
        prober.add_target(ProbeTarget(app=make_app(), instance="svc:1"))
        prober.add_target(ProbeTarget(app=make_app(status=500), instance="bad:2"))
        prober.probe_all(120.0)

        engine = PromQLEngine(db, lookback=300.0)
        res = engine.query("probe_success", at=121.0)
        by_instance = {el.labels.get("instance"): el.value for el in res.vector}
        assert by_instance == {"svc:1": 1.0, "bad:2": 0.0}
        res = engine.query("probe_duration_seconds", at=121.0)
        assert len(res.vector) == 2
        assert all(el.value >= 0.0 for el in res.vector)
        res = engine.query("probe_http_status_code", at=121.0)
        codes = {el.labels.get("instance"): el.value for el in res.vector}
        assert codes == {"svc:1": 200.0, "bad:2": 500.0}
        assert prober.probes_total == 2 and prober.failures_total == 1

    def test_handler_exception_counts_as_failure(self):
        db = TSDB()
        app = App("svc")
        prober = BlackboxProber(db)
        prober.add_target(ProbeTarget(app=app, instance="svc:1", path="/missing"))
        prober.probe_all(0.0)  # 404 from the router
        assert prober.failures_total == 1

        def boom(req):
            raise RuntimeError("crash")

        app.router.get("/explode", boom)
        prober.targets[0].path = "/explode"
        prober.probe_all(60.0)
        assert prober.failures_total == 2
        assert prober.targets[0].last_status == 0

    def test_duplicate_instance_rejected(self):
        prober = BlackboxProber(TSDB())
        prober.add_target(ProbeTarget(app=make_app(), instance="svc:1"))
        with pytest.raises(ValueError):
            prober.add_target(ProbeTarget(app=make_app(), instance="svc:1"))

    def test_clock_registration(self):
        db = TSDB()
        clock = SimClock(start=0.0)
        prober = BlackboxProber(db, interval=30.0)
        prober.add_target(ProbeTarget(app=make_app(), instance="svc:1"))
        prober.register_timer(clock)
        clock.advance(95.0)
        assert prober.probes_total == 3  # t=30, 60, 90
        series = [s for s in db.all_series() if s.labels.metric_name == "probe_success"]
        assert len(series) == 1
        assert list(series[0].timestamps) == [30.0, 60.0, 90.0]


class TestSLOCompilation:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLO(name="x", objective=1.5, selector='job="j"')
        with pytest.raises(ValueError):
            SLO(name="x", objective=0.99, selector='job="j"', kind="throughput")

    def test_recording_rules_cover_all_windows(self):
        slo = SLO(name="svc", objective=0.999, selector='job="j"')
        records = [r.record for r in slo.recording_rules()]
        assert records == [
            "slo:svc:error_ratio_rate5m",
            "slo:svc:error_ratio_rate1h",
            "slo:svc:error_ratio_rate30m",
            "slo:svc:error_ratio_rate6h",
            "slo:svc:error_budget_remaining",
        ]

    def test_alert_bounds_scale_with_objective(self):
        slo = SLO(
            name="svc",
            objective=0.99,
            selector='job="j"',
            windows=(BurnRateWindow("5m", "1h", 10.0, "critical"),),
        )
        (rule,) = slo.alerting_rules()
        assert "> 0.1" in rule.expr  # 10 x (1 - 0.99)
        assert rule.labels == {"severity": "critical", "slo": "svc"}

    def test_all_shipped_slo_exprs_parse(self):
        for slo in standard_slos():
            for rule in slo.recording_rules():
                parse_expr(rule.expr)
            for rule in slo.alerting_rules():
                parse_expr(rule.expr)

    def test_burn_rate_fires_end_to_end(self):
        """Error traffic above the burn threshold on both windows
        drives the compiled alert pending → firing."""
        db = TSDB()
        slo = SLO(name="svc", objective=0.999, selector='job="j"')
        recording = slo_recording_group([slo], interval=30.0)
        alerts = slo_alert_group([slo], interval=60.0)
        engine = PromQLEngine(db, lookback=300.0)

        def push(t):
            # 50% errors: way past every burn-rate bound for objective 0.999
            db.append(
                Labels({"__name__": "ceems_http_requests_total", "job": "j", "code": "200"}),
                t,
                t / 15.0,
            )
            db.append(
                Labels({"__name__": "ceems_http_requests_total", "job": "j", "code": "500"}),
                t,
                t / 15.0,
            )

        transitions = []
        for t in range(0, 1300, 15):
            push(float(t))
            if t % 30 == 0:
                recording.evaluate(db, float(t), engine=engine)
            if t % 60 == 0:
                transitions.extend(alerts.evaluate(engine, float(t)))
        assert recording.last_error == ""
        fired = [tr for tr in transitions if tr.state.value == "firing"]
        assert {f.name for f in fired} == {
            "SLOErrorBudgetBurn_svc_5m_1h",
            "SLOErrorBudgetBurn_svc_30m_6h",
        }
        # error budget is exhausted (ratio 0.5 against a 0.1 budget)
        res = engine.query('slo:svc:error_budget_remaining{slo="svc"}', at=1290.0)
        assert res.vector and res.vector[0].value < 0.0

    def test_no_errors_records_zero_ratio(self):
        db = TSDB()
        slo = SLO(name="svc", objective=0.999, selector='job="j"')
        recording = slo_recording_group([slo])
        engine = PromQLEngine(db, lookback=300.0)
        for t in range(0, 600, 15):
            db.append(
                Labels({"__name__": "ceems_http_requests_total", "job": "j", "code": "200"}),
                float(t),
                t / 15.0,
            )
        recording.evaluate(db, 585.0, engine=engine)
        res = engine.query('slo:svc:error_ratio_rate5m{slo="svc"}', at=585.0)
        assert [el.value for el in res.vector] == [0.0]


class TestShippedRulesCompile:
    """Satellite: every shipped recording AND alerting rule parses
    through ``parse_expr`` and evaluates on a seeded sim TSDB."""

    def test_all_rules_parse(self):
        from repro.energy import standard_rule_groups
        from repro.tsdb.alerts import ceems_alert_rules

        for group in standard_rule_groups() + [slo_recording_group(standard_slos())]:
            for rule in group.rules:
                parse_expr(rule.expr)
        for rule in ceems_alert_rules() + slo_alert_group(standard_slos()).rules:
            parse_expr(rule.expr)

    def test_all_rules_evaluate_on_seeded_sim(self, small_sim):
        """No shipped expression may error against real sim data —
        QueryError on evaluation means the rule references series the
        stack does not produce."""
        from repro.tsdb.alerts import ceems_alert_rules

        engine = PromQLEngine(small_sim.hot_tsdb, lookback=small_sim.lookback)
        at = small_sim.now
        for group in small_sim.rule_evaluator.groups:
            for rule in group.rules:
                engine.query(rule.ast(), at)
        for rule in ceems_alert_rules():
            engine.query(rule.ast(), at)
        for group in small_sim.rule_evaluator.alert_groups:
            for rule in group.rules:
                engine.query(rule.ast(), at)

    def test_rule_outputs_bit_identical_to_one_step_range(self, small_sim):
        """The differential that licenses routing rule groups through
        the instant walk: what every shipped rule yields at ``t`` is
        bit-identical to the columnar evaluator's one-step range
        ``query_range(expr, t, t, step)``."""
        from repro.tsdb.alerts import ceems_alert_rules

        engine = PromQLEngine(small_sim.hot_tsdb, lookback=small_sim.lookback)
        at = small_sim.now
        evaluator = small_sim.rule_evaluator
        rules = [r for g in evaluator.groups + evaluator.alert_groups for r in g.rules]
        rules += ceems_alert_rules()
        compared = 0
        for rule in rules:
            walked = engine.query(rule.ast(), at)
            ranged = engine.query_range(rule.ast(), at, at, 30.0)
            if walked.is_scalar:
                points = {Labels(): walked.scalar}
            else:
                points = {el.labels: el.value for el in walked.vector}
            assert set(points) == set(ranged.series), rule.expr
            for labels, value in points.items():
                ts, vs = ranged.series[labels]
                assert ts.tolist() == [at], rule.expr
                assert vs.tobytes() == struct.pack("=d", value), (rule.expr, labels)
            compared += len(points)
        assert len(rules) >= 40 and compared >= 50  # non-vacuous

    def test_sim_rule_groups_report_no_errors(self, small_sim):
        for group in small_sim.rule_evaluator.groups:
            assert group.last_error == "", group.name
        for group in small_sim.rule_evaluator.alert_groups:
            assert group.last_error == "", group.name


class TestExportRulesCheck:
    def test_check_passes_on_fresh_export(self, tmp_path):
        path = tmp_path / "rules.yml"
        assert main(["export-rules", "--output", str(path)]) == 0
        assert main(["export-rules", "--check", "--output", str(path)]) == 0

    def test_check_fails_on_drift(self, tmp_path):
        import io

        path = tmp_path / "rules.yml"
        main(["export-rules", "--output", str(path)])
        path.write_text(path.read_text() + "# local edit\n")
        out = io.StringIO()
        assert main(["export-rules", "--check", "--output", str(path)], out=out) == 1
        assert "drifted" in out.getvalue()

    def test_check_fails_on_missing_file(self, tmp_path):
        assert (
            main(["export-rules", "--check", "--output", str(tmp_path / "nope.yml")])
            == 1
        )

    def test_checked_in_file_matches_library(self):
        """The repo's etc/prometheus-rules.yml is the generated text
        (the drift gate CI runs)."""
        with open("etc/prometheus-rules.yml", encoding="utf-8") as fh:
            assert fh.read() == generate_rules_text()

    def test_slo_groups_exported(self):
        text = generate_rules_text()
        assert "slo-rules" in text
        assert "slo-alerts" in text
        assert "SLOErrorBudgetBurn_lb_availability_5m_1h" in text
