"""TSDB data model: label sets, samples and label matchers.

Follows the Prometheus data model: a *series* is identified by a set
of label name/value pairs, with the metric name stored in the
reserved ``__name__`` label.  Matchers select series by exact or
regular-expression label comparison.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

METRIC_NAME_LABEL = "__name__"

_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def anchored_regex(regex: str) -> str:
    """``regex`` anchored as Prometheus anchors a matcher or
    ``label_replace`` regex, ``^(?s:regex)$``: the whole value must
    match and ``.`` matches a newline too.  RE2's ``$`` is Python's
    ``\\Z`` (Python's ``$`` also matches before a final newline)."""
    return f"^(?s:{regex})\\Z"


class Labels:
    """An immutable, hashable label set.

    Construction validates label names (Prometheus rules); values may
    be any string.  Instances are interned-friendly: equality and hash
    are value-based, and the canonical ordering is by label name.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, mapping: Mapping[str, str] | None = None, **kwargs: str) -> None:
        merged: dict[str, str] = dict(mapping or {})
        merged.update(kwargs)
        for name, value in merged.items():
            pattern = _METRIC_NAME_RE if name == METRIC_NAME_LABEL else _LABEL_NAME_RE
            checked = merged[name] if name == METRIC_NAME_LABEL else name
            if not pattern.match(checked):
                raise ValueError(f"invalid label {'value' if name == METRIC_NAME_LABEL else 'name'}: {checked!r}")
            if not isinstance(value, str):
                raise ValueError(f"label value for {name!r} must be a string, got {type(value).__name__}")
        self._items: tuple[tuple[str, str], ...] = tuple(sorted(merged.items()))
        self._hash = hash(self._items)

    @classmethod
    def from_sorted_items(cls, items: Iterable[tuple[str, str]]) -> "Labels":
        """Trusted constructor: items must already be sorted and valid.

        Derivations of an existing ``Labels`` (``drop``/``keep``) keep
        both invariants, so re-validating and re-sorting on those hot
        paths (PromQL grouping, staleness bookkeeping) is pure waste.
        Never feed this parser output — the validating constructor is
        what rejects bad metric/label names.
        """
        self = cls.__new__(cls)
        self._items = tuple(items)
        self._hash = hash(self._items)
        return self

    # -- accessors ------------------------------------------------------
    @property
    def metric_name(self) -> str:
        return self.get(METRIC_NAME_LABEL, "")

    def get(self, name: str, default: str = "") -> str:
        for key, value in self._items:
            if key == name:
                return value
        return default

    def __contains__(self, name: str) -> bool:
        return any(key == name for key, _ in self._items)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def as_dict(self) -> dict[str, str]:
        return dict(self._items)

    # -- derivation -----------------------------------------------------
    def with_name(self, metric_name: str) -> "Labels":
        d = self.as_dict()
        d[METRIC_NAME_LABEL] = metric_name
        return Labels(d)

    def without_name(self) -> "Labels":
        return self.drop(METRIC_NAME_LABEL)

    def drop(self, *names: str) -> "Labels":
        return Labels.from_sorted_items(
            (k, v) for k, v in self._items if k not in names
        )

    def keep(self, names: Iterable[str]) -> "Labels":
        wanted = set(names)
        return Labels.from_sorted_items(
            (k, v) for k, v in self._items if k in wanted
        )

    def merge(self, other: "Labels | Mapping[str, str]") -> "Labels":
        d = self.as_dict()
        d.update(other.as_dict() if isinstance(other, Labels) else other)
        return Labels(d)

    # -- value semantics --------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Labels) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"Labels({inner})"

    def __str__(self) -> str:
        name = self.metric_name
        rest = ", ".join(f'{k}="{v}"' for k, v in self._items if k != METRIC_NAME_LABEL)
        return f"{name}{{{rest}}}" if rest else (name or "{}")


EMPTY_LABELS = Labels()

#: Sort key of anything with a ``labels`` attribute (a series): its
#: label pairs in order, the order ``tuple(labels)`` gives, read
#: without building a tuple per element.
BY_LABELS = operator.attrgetter("labels._items")


@dataclass(frozen=True, slots=True)
class Sample:
    """One (timestamp, value) point.  Timestamps are UNIX seconds."""

    timestamp: float
    value: float


class MatchOp(Enum):
    """Label matcher operators, as in PromQL selectors."""

    EQ = "="
    NEQ = "!="
    RE = "=~"
    NRE = "!~"


@dataclass(frozen=True)
class Matcher:
    """One label matcher (``name <op> value``)."""

    name: str
    op: MatchOp
    value: str

    def __post_init__(self) -> None:
        if self.op in (MatchOp.RE, MatchOp.NRE):
            object.__setattr__(self, "_regex", re.compile(anchored_regex(self.value)))
        else:
            object.__setattr__(self, "_regex", None)
        # A selector's matcher tuple keys the storage selector memo on
        # every evaluation: hash once, not the fields and enum each time.
        object.__setattr__(self, "_hash", hash((self.name, self.op, self.value)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        # Rebuilt from its fields: a string's hash is per process.
        return (type(self), (self.name, self.op, self.value))

    def matches(self, labels: Labels) -> bool:
        actual = labels.get(self.name, "")
        if self.op is MatchOp.EQ:
            return actual == self.value
        if self.op is MatchOp.NEQ:
            return actual != self.value
        regex: re.Pattern[str] = self._regex  # type: ignore[attr-defined]
        if self.op is MatchOp.RE:
            return regex.match(actual) is not None
        return regex.match(actual) is None

    @classmethod
    def eq(cls, name: str, value: str) -> "Matcher":
        return cls(name, MatchOp.EQ, value)

    @classmethod
    def re(cls, name: str, value: str) -> "Matcher":
        return cls(name, MatchOp.RE, value)

    @classmethod
    def name_eq(cls, metric_name: str) -> "Matcher":
        return cls(METRIC_NAME_LABEL, MatchOp.EQ, metric_name)

    def __str__(self) -> str:
        return f'{self.name}{self.op.value}"{self.value}"'


def match_all(matchers: Iterable[Matcher], labels: Labels) -> bool:
    """True when every matcher accepts the label set."""
    return all(m.matches(labels) for m in matchers)


def select_labels(
    postings: Mapping[tuple[str, str], set[Labels]],
    universe: Iterable[Labels],
    matchers: Iterable[Matcher],
) -> Iterable[Labels]:
    """Label sets from ``universe`` that satisfy every matcher.

    ``postings`` is an inverted index over ``universe``
    (``(name, value)`` → label sets carrying that pair).  Equality
    matchers with non-empty values intersect postings first, so the
    remaining matchers (regex, negation, empty-value equality) only
    run on the narrowed candidates — the head TSDB and the persisted
    blocks' chunk index resolve selectors through this one function.
    The result may alias ``universe`` or a postings set: consume it
    before mutating either.
    """
    candidates: set[Labels] | None = None
    residual: list[Matcher] = []
    for m in matchers:
        if m.op is MatchOp.EQ and m.value != "":
            found = postings.get((m.name, m.value))
            if not found:
                return ()
            candidates = found if candidates is None else candidates & found
            if not candidates:
                return ()
        else:
            residual.append(m)
    narrowed = universe if candidates is None else candidates
    if not residual:
        return narrowed
    return [k for k in narrowed if match_all(residual, k)]
