"""Tests for the Grafana dashboard JSON generation."""

import json

import pytest

from repro.dashboard.grafana_json import (
    all_dashboards,
    export_provisioning_bundle,
    fig2a_dashboard_json,
    fig2b_dashboard_json,
    fig2c_dashboard_json,
)
from repro.tsdb.promql.parser import parse_expr


class TestDashboardStructure:
    def test_shipped_dashboards(self):
        dashboards = all_dashboards()
        assert set(dashboards) == {
            "ceems-fig2a",
            "ceems-fig2b",
            "ceems-fig2c",
            "ceems-ops-alerting",
        }

    def test_schema_fields_present(self):
        for dashboard in all_dashboards().values():
            assert dashboard["schemaVersion"] >= 36
            assert dashboard["panels"]
            assert "time" in dashboard
            assert "ceems" in dashboard["tags"]

    def test_panel_ids_unique_per_dashboard(self):
        for dashboard in all_dashboards().values():
            ids = [p["id"] for p in dashboard["panels"]]
            assert len(ids) == len(set(ids))

    def test_grid_positions_within_bounds(self):
        for dashboard in all_dashboards().values():
            for panel in dashboard["panels"]:
                pos = panel["gridPos"]
                assert 0 <= pos["x"] and pos["x"] + pos["w"] <= 24
                assert pos["h"] > 0

    def test_deterministic_output(self):
        assert export_provisioning_bundle() == export_provisioning_bundle()

    def test_bundle_is_valid_json(self):
        bundle = json.loads(export_provisioning_bundle())
        assert len(bundle) == 5  # 4 dashboards + the datasources entry
        assert "datasources" in bundle

    def test_datasource_exemplar_destination(self):
        bundle = json.loads(export_provisioning_bundle())
        prom = next(
            ds for ds in bundle["datasources"] if ds["type"] == "prometheus"
        )
        dests = prom["jsonData"]["exemplarTraceIdDestinations"]
        assert dests[0]["name"] == "trace_id"
        assert "/debug/traces?trace_id=" in dests[0]["url"]

    def test_ops_dashboard_has_exemplar_target(self):
        from repro.dashboard.grafana_json import ops_alerting_dashboard_json

        dashboard = ops_alerting_dashboard_json()
        exemplar_targets = [
            t
            for p in dashboard["panels"]
            for t in p["targets"]
            if t.get("exemplar")
        ]
        assert exemplar_targets
        assert "ceems_http_request_duration_seconds_bucket" in exemplar_targets[0]["expr"]


class TestFig2aDashboard:
    def test_stat_tiles_match_paper_panels(self):
        dashboard = fig2a_dashboard_json()
        titles = {p["title"] for p in dashboard["panels"] if p["type"] == "stat"}
        assert {"Total jobs", "CPU hours", "GPU hours", "Total energy", "Emissions"} <= titles

    def test_three_month_window(self):
        assert fig2a_dashboard_json()["time"]["from"] == "now-90d"

    def test_timeseries_queries_parse(self):
        dashboard = fig2a_dashboard_json()
        for panel in dashboard["panels"]:
            for target in panel["targets"]:
                if "expr" in target:
                    parse_expr(target["expr"])


class TestFig2bDashboard:
    def test_table_columns_cover_figure(self):
        dashboard = fig2b_dashboard_json()
        columns = dashboard["panels"][0]["targets"][0]["columns"]
        for field in ("uuid", "state", "elapsed", "energy_joules", "emissions_g"):
            assert field in columns

    def test_uses_ceems_datasource(self):
        dashboard = fig2b_dashboard_json()
        assert dashboard["panels"][0]["datasource"]["type"] == "ceems-api"


class TestFig2cDashboard:
    def test_job_variable_present(self):
        dashboard = fig2c_dashboard_json()
        names = [v["name"] for v in dashboard["templating"]["list"]]
        assert "job" in names and "user" in names

    def test_queries_parse_with_variable_substituted(self):
        dashboard = fig2c_dashboard_json()
        for panel in dashboard["panels"]:
            for target in panel["targets"]:
                parse_expr(target["expr"].replace("$job", "12345"))

    def test_three_metric_panels(self):
        dashboard = fig2c_dashboard_json()
        titles = [p["title"] for p in dashboard["panels"]]
        assert titles == ["Peak power (24h)", "CPU cores used", "Power", "Memory"]


def test_bad_query_cannot_be_exported(monkeypatch):
    """The build-time PromQL validation actually guards."""
    from repro.dashboard import grafana_json

    with pytest.raises(Exception):
        grafana_json._validate_promql("sum(")
