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
from itertools import repeat

from repro.common.errors import QueryError
from repro.tsdb.alerts import AlertingRuleGroup
from repro.tsdb.model import METRIC_NAME_LABEL, Labels
from repro.tsdb.promql.ast import Expr
from repro.tsdb.promql.engine import SCALAR_LABELS, PromQLEngine
from repro.tsdb.promql.parser import parse_expr, plan_memo
from repro.tsdb.storage import TSDB

_STALE = float("nan")


@dataclass
class RecordingRule:
    """One recording rule: evaluate ``expr``, store as ``record``."""

    record: str
    expr: str
    #: Extra labels attached to every recorded sample.
    labels: dict[str, str] = field(default_factory=dict)
    #: Why the last evaluation failed; empty once one succeeds.
    last_error: str = field(default="", repr=False, compare=False)
    _ast: Expr | None = field(default=None, repr=False)
    #: Output series written by the previous successful evaluation;
    #: outputs that vanish get staleness markers (Prometheus rule
    #: semantics).
    _written: tuple = field(default=(), repr=False, compare=False)

    def ast(self) -> Expr:
        if self._ast is None:
            self._ast = parse_expr(self.expr)
        return self._ast

    def record_key(self) -> tuple:
        """The key of this rule's relabelling plan in its expression's
        :class:`~repro.tsdb.promql.parser.PlanMemo`: rules sharing an
        expression share the memo, not the plan."""
        return ("record", self.record, tuple(self.labels.items()))

    def output_labels(self, result_labels: tuple) -> tuple:
        """Label half of recording: every result label set renamed to
        ``record`` with the rule's extra labels on top."""
        overlay = {METRIC_NAME_LABEL: self.record, **self.labels}
        return tuple([labels.merge(overlay) for labels in result_labels])


@dataclass
class RuleGroup:
    """A named group of rules sharing an evaluation interval."""

    name: str
    interval: float
    rules: list[RecordingRule] = field(default_factory=list)

    #: evaluation bookkeeping
    evaluations: int = 0
    last_samples: int = 0
    #: ``"<record>: <error>"`` of the first rule that failed in the
    #: last evaluation (each rule keeps its own ``last_error``).
    last_error: str = ""
    #: Timestamp of the last evaluation and the engine seconds it took.
    last_evaluation: float = 0.0
    evaluation_seconds: float = 0.0

    def evaluate(self, storage: TSDB, at: float, *, engine: PromQLEngine | None = None) -> int:
        """Evaluate every rule at timestamp ``at``, appending results.

        Returns the number of samples recorded.  A rule whose
        expression fails (e.g. its inputs have not been scraped yet)
        is skipped and reported via its and the group's
        ``last_error``, without aborting the group — Prometheus
        behaviour.
        """
        engine = engine or PromQLEngine(storage)
        busy_before = engine.eval_seconds["instant"]
        recorded = 0
        self.last_error = ""
        for rule in self.rules:
            try:
                result = engine.query(rule.ast(), at)
            except (QueryError, ZeroDivisionError) as exc:
                rule.last_error = str(exc)
                self.last_error = self.last_error or f"{rule.record}: {exc}"
                continue
            rule.last_error = ""
            if result.is_scalar:
                source, values = SCALAR_LABELS, [float(result.scalar)]
            else:
                source, values = result.labels, result.values
            outputs = plan_memo(rule.ast()).plan(rule.record_key(), (source,), rule.output_labels)
            batch = list(zip(outputs, repeat(at), values))
            if outputs is not rule._written:
                # Stale-mark output series that vanished this evaluation
                # (e.g. a finished unit's power series) so downstream
                # reads don't see zombie values for the lookback window.
                # Series already deleted from storage (cardinality
                # cleanup) are skipped — marking them would re-create
                # exactly what the cleanup removed.
                current = set(outputs)
                batch += [
                    (labels, at, _STALE)
                    for labels in dict.fromkeys(rule._written)
                    if labels not in current and storage.has_series(labels)
                ]
            # One commit per rule (one WAL record on a durable head),
            # before the next rule reads what this one recorded.
            storage.append_many(batch)
            rule._written = outputs
            recorded += len(values)
        self.evaluations += 1
        self.last_samples = recorded
        self.last_evaluation = at
        self.evaluation_seconds = engine.eval_seconds["instant"] - busy_before
        return recorded

    def plan_counts(self) -> tuple[int, int]:
        """``(hits, rebuilds)`` of the plan memos of the rules'
        expressions (each counted once, whoever else evaluates it)."""
        memos = {}
        for rule in self.rules:
            try:
                memo = plan_memo(rule.ast())
            except QueryError:
                continue  # a text that does not parse has no plans
            memos[id(memo)] = memo
        return sum(memo.hits for memo in memos.values()), sum(memo.rebuilds for memo in memos.values())


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
        batch = []
        for group in self.alert_groups:
            for alert in group.active_alerts():
                d = alert.labels.as_dict()
                d[METRIC_NAME_LABEL] = ALERTS_METRIC
                d["alertname"] = alert.name
                d["alertstate"] = alert.state.value
                labels = Labels(d)
                batch.append((labels, now, 1.0))
                outputs.add(labels)
        # An alert that changed state or cleared leaves its previous
        # ALERTS series dangling; stale-mark it like a recording rule
        # output so lookback reads don't resurrect it.
        batch += [
            (labels, now, _STALE)
            for labels in self._previous_alert_series - outputs
            if self.storage.has_series(labels)
        ]
        self.storage.append_many(batch)
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
