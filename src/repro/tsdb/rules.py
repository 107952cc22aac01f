"""Prometheus recording rules.

Recording rules are the paper's configurability mechanism: *"using
recording rules, it is possible to estimate the same derived metric
using different rules according to the needs and underlying hardware
of the DC"* (§I).  The per-job power estimation of Eq. (1) is written
as recording rules, with a different rule group per node class
(§III.A) selected by label matchers on the scrape target group.

Rules in a group are evaluated **in order**, so later rules can use
series recorded by earlier rules in the same evaluation cycle — this
matches Prometheus, and the Eq. (1) rule set exploits it (per-job CPU
and DRAM power are recorded first, then summed into total job power).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import QueryError
from repro.tsdb.alerts import AlertingRuleGroup
from repro.tsdb.model import METRIC_NAME_LABEL, Labels
from repro.tsdb.promql.ast import Expr
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.promql.parser import parse_expr
from repro.tsdb.storage import TSDB


@dataclass
class RecordingRule:
    """One recording rule: evaluate ``expr``, store as ``record``."""

    record: str
    expr: str
    #: Extra labels attached to every recorded sample.
    labels: dict[str, str] = field(default_factory=dict)
    _ast: Expr | None = field(default=None, repr=False)
    #: Output series produced by the previous evaluation; outputs that
    #: vanish get staleness markers (Prometheus rule semantics).
    _previous_outputs: set = field(default_factory=set, repr=False)

    def ast(self) -> Expr:
        if self._ast is None:
            self._ast = parse_expr(self.expr)
        return self._ast


@dataclass
class RuleGroup:
    """A named group of rules sharing an evaluation interval."""

    name: str
    interval: float
    rules: list[RecordingRule] = field(default_factory=list)

    #: evaluation bookkeeping
    evaluations: int = 0
    last_samples: int = 0
    last_error: str = ""

    def evaluate(self, storage: TSDB, at: float, *, engine: PromQLEngine | None = None) -> int:
        """Evaluate every rule at timestamp ``at``, appending results.

        Returns the number of samples recorded.  A rule whose
        expression fails (e.g. its inputs have not been scraped yet)
        is skipped and reported via :attr:`last_error`, without
        aborting the group — Prometheus behaviour.
        """
        engine = engine or PromQLEngine(storage)
        recorded = 0
        self.last_error = ""
        for rule in self.rules:
            try:
                result = engine.query(rule.ast(), at)
            except (QueryError, ZeroDivisionError) as exc:
                self.last_error = f"{rule.record}: {exc}"
                continue
            outputs: set[Labels] = set()
            if result.is_scalar:
                labels = Labels({METRIC_NAME_LABEL: rule.record, **rule.labels})
                storage.append(labels, at, float(result.scalar))
                outputs.add(labels)
                recorded += 1
            else:
                for el in result.vector:
                    d = el.labels.as_dict()
                    d[METRIC_NAME_LABEL] = rule.record
                    d.update(rule.labels)
                    labels = Labels(d)
                    storage.append(labels, at, el.value)
                    outputs.add(labels)
                    recorded += 1
            # Stale-mark output series that vanished this evaluation
            # (e.g. a finished unit's power series) so downstream
            # reads don't see zombie values for the lookback window.
            # Series already deleted from storage (cardinality
            # cleanup) are skipped — marking them would re-create
            # exactly what the cleanup removed.
            for labels in rule._previous_outputs - outputs:
                if storage.has_series(labels):
                    storage.append(labels, at, float("nan"))
            rule._previous_outputs = outputs
        self.evaluations += 1
        self.last_samples = recorded
        return recorded


class RuleManager:
    """Evaluates rule groups on their intervals against one storage.

    ``lookback`` is the instant-query lookback delta the rule engine
    uses; it must exceed the scrape interval (Prometheus's
    ``--query.lookback-delta`` deployment rule).
    """

    def __init__(self, storage: TSDB, lookback: float = 300.0) -> None:
        self.storage = storage
        self.groups: list[RuleGroup] = []
        self._engine = PromQLEngine(storage, lookback=lookback)

    def add_group(self, group: RuleGroup) -> None:
        if any(g.name == group.name for g in self.groups):
            raise QueryError(f"duplicate rule group {group.name!r}")
        self.groups.append(group)

    def evaluate_all(self, at: float) -> int:
        """Evaluate every group once (used by simulation-driven loops)."""
        return sum(group.evaluate(self.storage, at, engine=self._engine) for group in self.groups)

    def register_timers(self, clock) -> None:
        """Attach each group to a :class:`~repro.common.clock.SimClock`."""
        for group in self.groups:
            clock.every(group.interval, lambda now, g=group: g.evaluate(self.storage, now, engine=self._engine))

    def selector_cache_stats(self) -> dict[str, float]:
        """Selector-memo hit/miss counters of the backing storage —
        the observable for "rule groups reuse selector results"."""
        return self.storage.selector_cache_stats()


#: Synthetic series written for each active alert (Prometheus writes
#: the same series so dashboards can graph alert state over time).
ALERTS_METRIC = "ALERTS"


class RuleEvaluator(RuleManager):
    """A :class:`RuleManager` that also runs alerting rule groups.

    Each alerting group is evaluated on its own interval against the
    same storage/engine as the recording rules.  Active alerts are
    written back as ``ALERTS{alertname=..., alertstate=...} 1``
    synthetic series (with staleness markers when an alert clears,
    Prometheus semantics), and state transitions are forwarded to an
    optional ``notifier`` callable — in the simulation that is
    :meth:`repro.obs.alertmanager.Alertmanager.receive`.
    """

    def __init__(self, storage: TSDB, lookback: float = 300.0) -> None:
        super().__init__(storage, lookback=lookback)
        self.alert_groups: list[AlertingRuleGroup] = []
        #: called with (transitions, now) after each alerting evaluation
        self.notifier = None
        self.alert_evaluations = 0
        #: ALERTS series written by the previous evaluation, for staleness
        self._previous_alert_series: set[Labels] = set()

    def add_alert_group(self, group: AlertingRuleGroup) -> None:
        if any(g.name == group.name for g in self.alert_groups):
            raise QueryError(f"duplicate alerting rule group {group.name!r}")
        self.alert_groups.append(group)

    def evaluate_alert_group(self, group: AlertingRuleGroup, now: float) -> list:
        """Evaluate one alerting group: record ALERTS series, notify."""
        transitions = group.evaluate(self._engine, now)
        self.alert_evaluations += 1
        self._write_alert_series(now)
        if self.notifier is not None and transitions:
            self.notifier(transitions, now)
        return transitions

    def evaluate_alerts(self, now: float) -> list:
        """Evaluate every alerting group once (test/CLI convenience)."""
        transitions = []
        for group in self.alert_groups:
            transitions.extend(self.evaluate_alert_group(group, now))
        return transitions

    def _write_alert_series(self, now: float) -> None:
        outputs: set[Labels] = set()
        for group in self.alert_groups:
            for alert in group.active_alerts():
                d = alert.labels.as_dict()
                d[METRIC_NAME_LABEL] = ALERTS_METRIC
                d["alertname"] = alert.name
                d["alertstate"] = alert.state.value
                labels = Labels(d)
                self.storage.append(labels, now, 1.0)
                outputs.add(labels)
        # An alert that changed state or cleared leaves its previous
        # ALERTS series dangling; stale-mark it like a recording rule
        # output so lookback reads don't resurrect it.
        for labels in self._previous_alert_series - outputs:
            if self.storage.has_series(labels):
                self.storage.append(labels, now, float("nan"))
        self._previous_alert_series = outputs

    # -- introspection ------------------------------------------------

    def active_alerts(self) -> list:
        return [a for group in self.alert_groups for a in group.active_alerts()]

    @property
    def pending_count(self) -> int:
        return sum(r.pending_count for g in self.alert_groups for r in g.rules)

    @property
    def firing_count(self) -> int:
        return sum(r.firing_count for g in self.alert_groups for r in g.rules)

    def register_timers(self, clock) -> None:
        super().register_timers(clock)
        for group in self.alert_groups:
            clock.every(
                group.interval,
                lambda now, g=group: self.evaluate_alert_group(g, now),
            )

    def register_metrics(self, registry) -> None:
        """Expose alert state through a self-telemetry registry so the
        alert engine is itself scraped (meta-monitoring)."""
        registry.gauge_func(
            "ceems_alerts_pending",
            lambda: float(self.pending_count),
            help="Alert instances currently in the pending (for-hold) state.",
        )
        registry.gauge_func(
            "ceems_alerts_firing",
            lambda: float(self.firing_count),
            help="Alert instances currently firing.",
        )
        registry.gauge_func(
            "ceems_alert_rule_evaluations_total",
            lambda: float(self.alert_evaluations),
            help="Alerting rule group evaluations performed.",
            type="counter",
        )
