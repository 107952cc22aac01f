"""Alerting rules and alerting rule groups.

The real CEEMS deployment ships Prometheus alerting rules alongside
its recording rules (node down, exporter collector failures, power
anomalies).  This module adds the alerting half of the rules engine:

* :class:`AlertingRule` — a PromQL expression plus a ``for`` hold
  duration; series matching the expression become *pending* and fire
  once they have matched continuously for the hold period (Prometheus
  semantics);
* :class:`AlertingRuleGroup` — rules sharing an evaluation interval.
  :class:`~repro.tsdb.rules.RuleEvaluator` runs the groups and hands
  their fire/resolve transitions to
  :class:`~repro.obs.alertmanager.Alertmanager`, which groups,
  deduplicates, silences and routes the notifications.

Operator alert packs for the CEEMS deployment are in
:func:`ceems_alert_rules`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import QueryError
from repro.tsdb.model import Labels
from repro.tsdb.promql.ast import Expr
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.promql.parser import parse_expr


class AlertState(str, enum.Enum):
    PENDING = "pending"
    FIRING = "firing"
    RESOLVED = "resolved"


@dataclass
class AlertInstance:
    """One alert for one label set."""

    name: str
    labels: Labels
    state: AlertState
    active_since: float
    value: float
    annotations: dict[str, str] = field(default_factory=dict)
    fired_at: float | None = None
    resolved_at: float | None = None


@dataclass
class AlertingRule:
    """``alert: <name>  expr: <promql>  for: <hold>`` (Prometheus)."""

    name: str
    expr: str
    hold: float = 0.0
    labels: dict[str, str] = field(default_factory=dict)
    annotations: dict[str, str] = field(default_factory=dict)
    _ast: Expr | None = field(default=None, repr=False)
    #: label-set -> first time the condition matched continuously
    _pending: dict[Labels, float] = field(default_factory=dict, repr=False)
    _firing: set = field(default_factory=set, repr=False)
    #: label-set -> value from the most recent evaluation
    _values: dict[Labels, float] = field(default_factory=dict, repr=False)
    last_error: str = field(default="", repr=False)

    def ast(self) -> Expr:
        if self._ast is None:
            self._ast = parse_expr(self.expr)
        return self._ast

    def evaluate(self, engine: PromQLEngine, now: float) -> list[AlertInstance]:
        """One evaluation; returns state *transitions* (fire/resolve)."""
        self.last_error = ""
        try:
            result = engine.query(self.ast(), now)
        except QueryError as exc:
            self.last_error = str(exc)
            return []
        current = {el.labels.drop("__name__"): el.value for el in result.vector}
        self._values = dict(current)
        transitions: list[AlertInstance] = []

        # new or continuing matches
        for labels, value in current.items():
            if labels not in self._pending:
                self._pending[labels] = now
            active_since = self._pending[labels]
            if labels not in self._firing and now - active_since >= self.hold:
                self._firing.add(labels)
                transitions.append(
                    AlertInstance(
                        name=self.name,
                        labels=labels.merge(self.labels),
                        state=AlertState.FIRING,
                        active_since=active_since,
                        value=value,
                        annotations=dict(self.annotations),
                        fired_at=now,
                    )
                )

        # cleared matches
        for labels in list(self._pending):
            if labels in current:
                continue
            del self._pending[labels]
            if labels in self._firing:
                self._firing.discard(labels)
                transitions.append(
                    AlertInstance(
                        name=self.name,
                        labels=labels.merge(self.labels),
                        state=AlertState.RESOLVED,
                        active_since=now,
                        value=0.0,
                        annotations=dict(self.annotations),
                        resolved_at=now,
                    )
                )
        return transitions

    @property
    def firing_count(self) -> int:
        return len(self._firing)

    @property
    def pending_count(self) -> int:
        return len(self._pending) - len(self._firing)

    @property
    def state(self) -> AlertState | None:
        """Worst state across instances (``firing`` > ``pending``),
        ``None`` when the rule is inactive."""
        if self._firing:
            return AlertState.FIRING
        if self._pending:
            return AlertState.PENDING
        return None

    def active_alerts(self) -> list[AlertInstance]:
        """Every currently pending or firing alert instance (a *view*,
        unlike :meth:`evaluate` which returns only transitions)."""
        out: list[AlertInstance] = []
        for labels, active_since in sorted(self._pending.items(), key=lambda kv: str(kv[0])):
            firing = labels in self._firing
            out.append(
                AlertInstance(
                    name=self.name,
                    labels=labels.merge(self.labels),
                    state=AlertState.FIRING if firing else AlertState.PENDING,
                    active_since=active_since,
                    value=self._values.get(labels, 0.0),
                    annotations=dict(self.annotations),
                )
            )
        return out


@dataclass
class AlertingRuleGroup:
    """A named group of alerting rules sharing an evaluation interval.

    The alerting twin of :class:`repro.tsdb.rules.RuleGroup` — the
    :class:`~repro.tsdb.rules.RuleEvaluator` runs both kinds on the
    sim clock.
    """

    name: str
    interval: float
    rules: list[AlertingRule] = field(default_factory=list)

    evaluations: int = 0
    last_error: str = ""

    def evaluate(self, engine: PromQLEngine, now: float) -> list[AlertInstance]:
        """Evaluate every rule; returns the concatenated transitions."""
        transitions: list[AlertInstance] = []
        self.last_error = ""
        for rule in self.rules:
            transitions.extend(rule.evaluate(engine, now))
            if rule.last_error:
                self.last_error = f"{rule.name}: {rule.last_error}"
        self.evaluations += 1
        return transitions

    def active_alerts(self) -> list[AlertInstance]:
        return [alert for rule in self.rules for alert in rule.active_alerts()]


def ceems_alert_rules() -> list[AlertingRule]:
    """The operator alert pack for a CEEMS deployment."""
    return [
        AlertingRule(
            name="CEEMSTargetDown",
            expr="up == 0",
            hold=120.0,
            labels={"severity": "critical"},
            annotations={"summary": "scrape target has been down for 2 minutes"},
        ),
        AlertingRule(
            name="CEEMSCollectorFailed",
            expr="ceems_exporter_collector_success == 0",
            hold=300.0,
            labels={"severity": "warning"},
            annotations={"summary": "an exporter collector keeps failing"},
        ),
        AlertingRule(
            name="NodePowerAnomaly",
            # a node drawing >95% of the cluster's per-node maximum for
            # 10 minutes; placeholder threshold per deployment.
            expr="instance:ipmi_watts > 2500",
            hold=600.0,
            labels={"severity": "warning"},
            annotations={"summary": "node power draw near PSU limit"},
        ),
        AlertingRule(
            name="JobLowCpuEfficiency",
            # a unit using <5% of its allocated cores for 30 minutes
            expr=(
                "(instance:unit_cpu_rate / on(hostname, nodegroup, uuid, manager) "
                "sum by (hostname, nodegroup, uuid, manager) (ceems_compute_unit_cpus)) < 0.05"
            ),
            hold=1800.0,
            labels={"severity": "info"},
            annotations={"summary": "job is using <5% of its allocated CPUs"},
        ),
        AlertingRule(
            name="EmissionFactorStale",
            expr='absent(ceems_emissions_gCo2_kWh{provider="resolved"})',
            hold=900.0,
            labels={"severity": "warning"},
            annotations={"summary": "no emission factor has been scraped recently"},
        ),
    ]
