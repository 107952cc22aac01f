"""Grafana dashboard JSON generation.

The real CEEMS ships provisioned Grafana dashboards; this module
generates the equivalent dashboard-model JSON for the three Fig. 2
dashboards, wired to the two data sources (the Prometheus one hitting
the CEEMS LB, and the CEEMS API server one).  The output follows the
Grafana dashboard schema (schemaVersion 39): panels with ``gridPos``,
``targets`` carrying PromQL expressions, templating variables for the
cluster/user/job selection, and the time range the figure uses.

The JSON is deterministic (stable panel ids), and every embedded
PromQL expression is validated against this repo's parser at build
time — a dashboard with an unparseable query cannot be generated.
"""

from __future__ import annotations

import json
from typing import Any

from repro.energy.rules_library import EMISSIONS_METRIC, POWER_METRIC
from repro.tsdb.promql.parser import parse_expr

PROMETHEUS_DS = {"type": "prometheus", "uid": "ceems-lb"}
CEEMS_DS = {"type": "ceems-api", "uid": "ceems-api"}

_GRID_W = 24


def _validate_promql(expr: str) -> str:
    """Dashboard queries must parse (with variables substituted)."""
    substituted = expr.replace("$job", "12345").replace("$user", "u").replace(
        "$cluster", "c"
    )
    parse_expr(substituted)
    return expr


def _stat_panel(panel_id: int, title: str, expr_or_field: str, unit: str, x: int, y: int, *, ceems: bool = False) -> dict[str, Any]:
    if ceems:
        target = {"datasource": CEEMS_DS, "field": expr_or_field, "refId": "A"}
    else:
        target = {
            "datasource": PROMETHEUS_DS,
            "expr": _validate_promql(expr_or_field),
            "instant": True,
            "refId": "A",
        }
    return {
        "id": panel_id,
        "type": "stat",
        "title": title,
        "gridPos": {"h": 4, "w": 4, "x": x, "y": y},
        "datasource": CEEMS_DS if ceems else PROMETHEUS_DS,
        "fieldConfig": {"defaults": {"unit": unit}},
        "targets": [target],
    }


def _timeseries_panel(panel_id: int, title: str, exprs: list[tuple[str, str]], unit: str, y: int, h: int = 8, *, exemplar: bool = False) -> dict[str, Any]:
    targets = []
    for i, (legend, expr) in enumerate(exprs):
        target = {
            "datasource": PROMETHEUS_DS,
            "expr": _validate_promql(expr),
            "legendFormat": legend,
            "refId": chr(ord("A") + i),
        }
        if exemplar:
            # Grafana issues a parallel /api/v1/query_exemplars call
            # for this expression and overlays the returned trace
            # references as clickable points.
            target["exemplar"] = True
        targets.append(target)
    return {
        "id": panel_id,
        "type": "timeseries",
        "title": title,
        "gridPos": {"h": h, "w": _GRID_W, "x": 0, "y": y},
        "datasource": PROMETHEUS_DS,
        "fieldConfig": {"defaults": {"unit": unit}},
        "targets": targets,
    }


def _table_panel(panel_id: int, title: str, path: str, columns: list[str], y: int) -> dict[str, Any]:
    return {
        "id": panel_id,
        "type": "table",
        "title": title,
        "gridPos": {"h": 10, "w": _GRID_W, "x": 0, "y": y},
        "datasource": CEEMS_DS,
        "targets": [{"datasource": CEEMS_DS, "path": path, "columns": columns, "refId": "A"}],
    }


def _dashboard(uid: str, title: str, panels: list[dict[str, Any]], variables: list[dict[str, Any]], time_from: str) -> dict[str, Any]:
    return {
        "uid": uid,
        "title": title,
        "schemaVersion": 39,
        "tags": ["ceems", "energy"],
        "timezone": "utc",
        "time": {"from": time_from, "to": "now"},
        "templating": {"list": variables},
        "panels": panels,
    }


def _user_variable() -> dict[str, Any]:
    return {
        "name": "user",
        "type": "constant",
        "label": "User",
        # Grafana sends X-Grafana-User; the variable mirrors it so
        # panel titles can show the identity being displayed.
        "query": "${__user.login}",
    }


def fig2a_dashboard_json() -> dict[str, Any]:
    """Fig. 2a: aggregate usage metrics of a user."""
    panels = [
        _stat_panel(1, "Total jobs", "num_units", "none", 0, 0, ceems=True),
        _stat_panel(2, "CPU hours", "total_cpu_hours", "h", 4, 0, ceems=True),
        _stat_panel(3, "GPU hours", "total_gpu_hours", "h", 8, 0, ceems=True),
        _stat_panel(4, "Total energy", "total_energy_joules", "joule", 12, 0, ceems=True),
        _stat_panel(5, "Emissions", "total_emissions_g", "mass", 16, 0, ceems=True),
        _timeseries_panel(
            6,
            "Power of running jobs",
            [("{{uuid}}", f"sum by (uuid) ({POWER_METRIC})")],
            "watt",
            4,
        ),
        _timeseries_panel(
            7,
            "Emission rate of running jobs",
            [("{{uuid}}", f"sum by (uuid) ({EMISSIONS_METRIC})")],
            "mass",
            12,
        ),
    ]
    return _dashboard("ceems-fig2a", "CEEMS / User overview", panels, [_user_variable()], "now-90d")


def fig2b_dashboard_json() -> dict[str, Any]:
    """Fig. 2b: the user's job list with aggregate metrics."""
    panels = [
        _table_panel(
            1,
            "Jobs",
            "/api/v1/units",
            [
                "uuid",
                "name",
                "project",
                "state",
                "elapsed",
                "cpus",
                "gpus",
                "avg_power_watts",
                "energy_joules",
                "emissions_g",
            ],
            0,
        )
    ]
    return _dashboard("ceems-fig2b", "CEEMS / Job list", panels, [_user_variable()], "now-7d")


def fig2c_dashboard_json() -> dict[str, Any]:
    """Fig. 2c: time-series CPU metrics of one job."""
    job_variable = {
        "name": "job",
        "type": "query",
        "label": "Job",
        "datasource": CEEMS_DS,
        "query": "/api/v1/units?state=running",
    }
    panels = [
        _stat_panel(
            0,
            "Peak power (24h)",
            f'max_over_time((sum by (uuid) ({POWER_METRIC}{{uuid="$job"}}))[24h:5m])',
            "watt",
            0,
            0,
        ),
        _timeseries_panel(
            1,
            "CPU cores used",
            [("cores", 'sum by (uuid) (instance:unit_cpu_rate{uuid="$job"})')],
            "none",
            4,
        ),
        _timeseries_panel(
            2,
            "Power",
            [("watts", f'sum by (uuid) ({POWER_METRIC}{{uuid="$job"}})')],
            "watt",
            12,
        ),
        _timeseries_panel(
            3,
            "Memory",
            [("resident", 'sum by (uuid) (ceems_compute_unit_memory_current_bytes{uuid="$job"})')],
            "bytes",
            20,
        ),
    ]
    return _dashboard("ceems-fig2c", "CEEMS / Job detail", panels, [_user_variable(), job_variable], "now-24h")


def ops_alerting_dashboard_json() -> dict[str, Any]:
    """The meta-monitoring dashboard: alert state, probe status,
    silences and SLO error-budget burn — the operator's view of the
    stack watching itself."""
    panels = [
        _stat_panel(1, "Firing alerts", "sum(ceems_alerts_firing)", "none", 0, 0),
        _stat_panel(2, "Pending alerts", "sum(ceems_alerts_pending)", "none", 4, 0),
        _stat_panel(
            3,
            "Notifications sent",
            'sum(ceems_alert_notifications_total{job="alertmanager"})',
            "none",
            8,
            0,
        ),
        _stat_panel(
            4,
            "Active silences",
            'sum(ceems_am_silences_active{job="alertmanager"})',
            "none",
            12,
            0,
        ),
        _stat_panel(5, "Failed probes", "count(probe_success == 0)", "none", 16, 0),
        _timeseries_panel(
            6,
            "Alert state",
            [("{{alertname}} ({{alertstate}})", "sum by (alertname, alertstate) (ALERTS)")],
            "none",
            4,
        ),
        _timeseries_panel(
            7,
            "Probe success by target",
            [("{{instance}}", "min by (instance) (probe_success)")],
            "none",
            12,
        ),
        _timeseries_panel(
            8,
            "Probe duration",
            [("{{instance}}", "max by (instance) (probe_duration_seconds)")],
            "s",
            20,
        ),
        _timeseries_panel(
            9,
            "SLO error-budget remaining",
            [("{{slo}}", "slo:lb_availability:error_budget_remaining or slo:lb_latency:error_budget_remaining")],
            "percentunit",
            28,
        ),
        _timeseries_panel(
            10,
            "SLO burn rate (fast windows)",
            [
                (
                    "{{slo}} 5m",
                    'slo:lb_availability:error_ratio_rate5m or slo:lb_latency:error_ratio_rate5m',
                )
            ],
            "percentunit",
            36,
        ),
        _timeseries_panel(
            11,
            "LB request latency p99 (click exemplars to open the trace)",
            [
                (
                    "p99",
                    'histogram_quantile(0.99, sum by (le) (rate(ceems_http_request_duration_seconds_bucket{job="ceems-lb"}[5m])))',
                )
            ],
            "s",
            44,
            exemplar=True,
        ),
        _timeseries_panel(
            12,
            "Exemplar & tail-sampler throughput",
            [
                ("exemplars appended", "sum(rate(ceems_exemplars_appended_total[5m]))"),
                ("exemplars dropped", "sum(rate(ceems_exemplars_dropped_total[5m]))"),
                ("spans kept", "sum(rate(ceems_trace_sampler_kept_total[5m]))"),
                ("spans dropped", "sum(rate(ceems_trace_sampler_dropped_total[5m]))"),
            ],
            "none",
            52,
        ),
    ]
    return _dashboard(
        "ceems-ops-alerting",
        "CEEMS / Ops: alerting & probes",
        panels,
        [_user_variable()],
        "now-6h",
    )


def all_dashboards() -> dict[str, dict[str, Any]]:
    """uid -> dashboard JSON for every shipped dashboard."""
    dashboards = [
        fig2a_dashboard_json(),
        fig2b_dashboard_json(),
        fig2c_dashboard_json(),
        ops_alerting_dashboard_json(),
    ]
    return {d["uid"]: d for d in dashboards}


def datasources_provisioning() -> list[dict[str, Any]]:
    """Grafana datasource provisioning entries.

    The Prometheus datasource carries the exemplar trace-id
    destination: clicking an exemplar point in any panel deep-links to
    the stack's own trace viewer for that trace — the metric→trace hop
    of the drill-down story.
    """
    return [
        {
            "name": "CEEMS LB",
            "type": PROMETHEUS_DS["type"],
            "uid": PROMETHEUS_DS["uid"],
            "url": "http://ceems-lb:9030",
            "jsonData": {
                "exemplarTraceIdDestinations": [
                    {
                        "name": "trace_id",
                        "url": "/debug/traces?trace_id=${__value.raw}",
                    }
                ]
            },
        },
        {
            "name": "CEEMS API",
            "type": CEEMS_DS["type"],
            "uid": CEEMS_DS["uid"],
            "url": "http://ceems-api:9040",
            "jsonData": {},
        },
    ]


def export_provisioning_bundle() -> str:
    """The JSON bundle a Grafana provisioning directory would hold:
    every dashboard keyed by uid, plus the datasource entries under
    the (non-uid) ``datasources`` key."""
    bundle: dict[str, Any] = dict(all_dashboards())
    bundle["datasources"] = datasources_provisioning()
    return json.dumps(bundle, indent=2, sort_keys=True)
