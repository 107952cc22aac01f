"""Recording-rule evaluation, element by element — the oracle.

:class:`ElementRuleGroup` is ``RuleGroup.evaluate`` as it stood before
rules kept a plan memo: it asks the frozen element-wise walk
(:class:`tests.reference.promql.ElementWalkEngine`) for every rule's
result, re-derives every output label set with the validating
``Labels`` constructor, and finds vanished outputs by remembering what
it wrote.  Two things differ from the code it was copied from, both on
purpose: staleness markers are written in the order the outputs were
last written (the set difference iterated in hash order), and errors
are kept per rule with the group reporting the first (the group used
to report only the last).  Import-only.
"""

from __future__ import annotations

from repro.common.errors import QueryError
from repro.tsdb.model import METRIC_NAME_LABEL, Labels
from repro.tsdb.promql.parser import parse_expr
from tests.reference.promql import ElementWalkEngine


class ElementRuleGroup:
    """``rules`` are ``(record, expr, extra labels)`` triples."""

    def __init__(self, rules: list[tuple[str, str, dict[str, str]]]) -> None:
        self.rules = rules
        self.errors = [""] * len(rules)
        self.last_error = ""
        self._previous: list[list[Labels]] = [[] for _ in rules]

    def evaluate(self, storage, at: float, engine: ElementWalkEngine) -> int:
        recorded = 0
        self.last_error = ""
        for index, (record, expr, extra) in enumerate(self.rules):
            try:
                result = engine.query(parse_expr(expr), at)
            except (QueryError, ZeroDivisionError) as exc:
                self.errors[index] = str(exc)
                self.last_error = self.last_error or f"{record}: {exc}"
                continue
            self.errors[index] = ""
            outputs: list[Labels] = []
            if result.is_scalar:
                labels = Labels({METRIC_NAME_LABEL: record, **extra})
                storage.append(labels, at, float(result.scalar))
                outputs.append(labels)
                recorded += 1
            else:
                for el in result.vector:
                    d = el.labels.as_dict()
                    d[METRIC_NAME_LABEL] = record
                    d.update(extra)
                    labels = Labels(d)
                    storage.append(labels, at, el.value)
                    outputs.append(labels)
                    recorded += 1
            current = set(outputs)
            for labels in dict.fromkeys(self._previous[index]):
                if labels not in current and storage.has_series(labels):
                    storage.append(labels, at, float("nan"))
            self._previous[index] = outputs
        return recorded
