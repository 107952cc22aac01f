"""PromQL evaluation engine (instant and range queries).

Evaluation model mirrors Prometheus: a *range query* is by definition
an instant query evaluated at every step timestamp; an *instant
query* walks the AST producing scalars and instant vectors.  Matrix
selectors exist only as arguments to range functions.

Each shape of evaluation has exactly one evaluator — one timestamp is
walked, a step grid is evaluated columnar — wherever the grid occurs:

* :meth:`PromQLEngine.query` walks the AST (``_eval``) at its single
  timestamp.  At one step there is no step axis to vectorise over, so
  the walk's scalar code is the cheaper form (measured ~2.2x faster
  than a one-column matrix evaluation over the shipped recording
  rules, see DESIGN.md).
* :meth:`PromQLEngine.query_range` evaluates the whole grid in one
  columnar pass (:mod:`repro.tsdb.promql.columnar`), bit-identical to
  running the walk at every ``range_steps`` timestamp.
* a subquery ``<expr>[range:step]`` met by the walk is a grid too: its
  windows come from the same columnar window code, asked for the one
  outer step the walk is at (``_subquery_windows``), bit-identical to
  walking the inner expression at every inner step.

**The walk is split in two.**  An instant vector inside the walk is a
pair ``(labels, values)`` — a tuple of :class:`Labels` and the list of
floats beside it — and every node evaluates as a *label half* then a
*value half*.  Everything a node does with labels (dropping the metric
name, grouping, vector matching and its many-to-many errors, set
membership, ``label_replace``, the final sort) is a pure function of
the node and its input label tuples: the label half (the module-level
``_*_plan`` functions) turns those into a *plan* of output labels and
index lists, and the value half is plain indexed arithmetic over the
plan, in the element order the walk always had.  A caller that
evaluates the same expression again and again — a recording rule —
passes a :class:`PlanMemo`; a node whose input tuples are the very
objects it saw last time reuses its last plan and hands up the very
output tuple it handed up last time, so a hit propagates to the root.
Without a memo (ad hoc queries, alerts, the updater) the label half
simply runs every time: one walk, one set of semantics.  The columnar
evaluator applies the same label halves to its step grid, so PromQL's
label semantics are written once, here.

The element-wise walk this replaced and both per-step loops live on
as the oracles of the differential suite (``tests/reference/promql.py``).

Semantics reproduced from Prometheus:

* instant vector selectors look back up to ``lookback`` (default 5 m)
  for the most recent sample;
* arithmetic between vectors matches elements by label signature with
  ``on``/``ignoring`` and supports many-to-one via ``group_left``
  (the exact feature Eq. (1) needs: per-job CPU-time series multiplied
  against per-node IPMI power series);
* comparisons filter unless the ``bool`` modifier is present;
* aggregations group by label subsets; ``topk``/``bottomk`` keep
  element labels; metric names are dropped by every transforming
  operation.
"""

from __future__ import annotations

import math
import operator
import re
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from repro.common.errors import QueryError
from repro.obs import query as obsquery
from repro.tsdb.model import _LABEL_NAME_RE, EMPTY_LABELS, METRIC_NAME_LABEL, Labels, MatchOp
from repro.tsdb.promql.ast import (
    COMPARISON_OPS,
    Aggregation,
    BinaryOp,
    Call,
    Expr,
    MatrixSelector,
    NumberLiteral,
    Paren,
    StringLiteral,
    Subquery,
    UnaryOp,
    VectorMatching,
    VectorSelector,
)
from repro.tsdb.promql.functions import (
    ELEMENT_FUNCTIONS,
    RANGE_FUNCTIONS,
    histogram_bucket_quantile,
    quantile,
)
from repro.tsdb.promql.parser import parse_expr

DEFAULT_LOOKBACK = 300.0


def range_steps(start: float, end: float, step: float) -> np.ndarray:
    """Step timestamps of a range query, generated **by index**.

    ``start + i * step`` for each index keeps the two places that
    enumerate steps (the evaluation loop and
    :meth:`RangeResult.timestamps`) bit-identical; the previous
    ``t += step`` accumulation drifted away from ``np.arange`` for
    non-dyadic steps.
    """
    if step <= 0:
        raise QueryError("step must be positive")
    n = int(math.floor((end - start) / step + 1e-9)) + 1
    if n < 0:
        n = 0
    return start + np.arange(n, dtype=np.float64) * step


@lru_cache(maxsize=256)
def _compile_anchored(regex: str) -> re.Pattern[str]:
    """Compiled, fully-anchored regex for label_replace (cached —
    mirrors :class:`Matcher`'s precompiled ``_regex``)."""
    try:
        return re.compile(f"^(?:{regex})$")
    except re.error:
        raise QueryError(f"invalid regular expression in label_replace(): {regex}") from None


@dataclass(frozen=True)
class VectorElement:
    labels: Labels
    value: float


@dataclass
class InstantResult:
    """Result of an instant query: a vector or a scalar.

    A vector is held the way the walk produced it — ``labels`` and
    ``values`` side by side; ``vector`` lists the same elements one
    :class:`VectorElement` each, built on first use.
    """

    timestamp: float
    labels: tuple[Labels, ...] = ()
    values: list[float] = field(default_factory=list)
    scalar: float | None = None

    @property
    def is_scalar(self) -> bool:
        return self.scalar is not None

    @cached_property
    def vector(self) -> list[VectorElement]:
        return [VectorElement(labels, value) for labels, value in zip(self.labels, self.values)]

    def by_labels(self) -> dict[Labels, float]:
        return dict(zip(self.labels, self.values))


@dataclass
class RangeResult:
    """Result of a range query: per-series sample arrays."""

    start: float
    end: float
    step: float
    series: dict[Labels, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def timestamps(self) -> np.ndarray:
        return range_steps(self.start, self.end, self.step)


class PlanMemo:
    """The last label plan of every node of *one* parsed expression.

    Owned by a caller that evaluates the expression repeatedly (each
    :class:`~repro.tsdb.rules.RecordingRule` has one).  Per key — a
    node's ``id``, or a caller's own name for a step after the walk —
    it holds the input label tuples the plan was built from and the
    plan: nothing older, so memory is one plan per node.  A plan is
    stored only after its label half returned; one that raised leaves
    nothing behind and raises again next time.  A plan listing clashes
    is stored, and the walk raises them on every evaluation that
    reuses it.
    """

    __slots__ = ("ast", "plans", "hits", "rebuilds")

    def __init__(self) -> None:
        #: The expression the plans belong to (held so node ids stay
        #: unique); a different one empties the memo.
        self.ast: Expr | None = None
        self.plans: dict[object, tuple[tuple, object]] = {}
        self.hits = 0
        self.rebuilds = 0

    def plan(self, key, inputs: tuple, build, *consts, leaf: bool = False):
        """``build(*consts, *inputs)``, or the plan built last time
        when ``inputs`` are the same tuple objects as then.  A leaf's
        input is assembled from storage on every evaluation, so it is
        compared by value instead (element identity first)."""
        entry = self.plans.get(key)
        if entry is not None:
            held = entry[0]
            if held == inputs if leaf else all(map(operator.is_, held, inputs)):
                self.hits += 1
                return entry[1]
        plan = build(*consts, *inputs)
        self.plans[key] = (inputs, plan)
        self.rebuilds += 1
        return plan


def _plan(memo: PlanMemo | None, key, inputs: tuple, build, *consts, leaf: bool = False):
    """The label half of one node: remembered by ``memo``, or — with
    no memo — built now, as every evaluation used to."""
    if memo is None:
        return build(*consts, *inputs)
    return memo.plan(key, inputs, build, *consts, leaf=leaf)


def _relabel(memo: PlanMemo | None, node: Expr, labels: tuple, build, *consts, leaf: bool = False) -> tuple:
    """The output labels of a one-input node whose plan is ``(labels,
    clashes)``: at the walk's one step every row is present, so any
    clash raises."""
    out, clashes = _plan(memo, id(node), (labels,), build, *consts, leaf=leaf)
    _raise_any(clashes)
    return out


def _seq_sum(values) -> float:
    """Strict left-to-right float accumulation.

    Both evaluators define sum/avg/stddev aggregation in terms of this
    order (the columnar range path reproduces it as a masked
    row-by-row accumulate over the step axis), which is what makes a
    range result bit-identical to the walk at each of its steps
    rather than merely close.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def _seq_moments(values) -> tuple[float, float]:
    """(mean, variance) with the shared sequential accumulation order."""
    n = len(values)
    mean = _seq_sum(values) / n
    deviations = []
    for v in values:
        d = v - mean
        deviations.append(d * d)
    return mean, _seq_sum(deviations) / n


def _divide(a: float, b: float) -> float:
    return a / b if b != 0 else (math.nan if a == 0 else math.copysign(math.inf, a) * math.copysign(1, b))


_BINARY_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": lambda a, b: math.fmod(a, b) if b != 0 else math.nan,
    "^": operator.pow,
    "==": lambda a, b: float(a == b),
    "!=": lambda a, b: float(a != b),
    ">": lambda a, b: float(a > b),
    "<": lambda a, b: float(a < b),
    ">=": lambda a, b: float(a >= b),
    "<=": lambda a, b: float(a <= b),
}


def _binary_fn(op: str):
    try:
        return _BINARY_OPS[op]
    except KeyError:
        raise QueryError(f"unknown operator {op!r}") from None


#: Aggregations that reduce a group's values to one float.
_REDUCERS = {
    "sum": _seq_sum,
    "avg": lambda vals: _seq_sum(vals) / len(vals),
    "min": lambda vals: float(np.min(np.asarray(vals))),
    "max": lambda vals: float(np.max(np.asarray(vals))),
    "count": lambda vals: float(len(vals)),
    "stddev": lambda vals: math.sqrt(_seq_moments(vals)[1]),
    "stdvar": lambda vals: _seq_moments(vals)[1],
}

#: Labels of ``vector(s)`` and of a scalar recorded as a series.
SCALAR_LABELS = (EMPTY_LABELS,)


# -- label halves ----------------------------------------------------------
# Pure functions of a node and its input label tuples, shared by both
# evaluators.  Each returns the node's plan: its output label tuple,
# plus the index lists its value half gathers by.  A plan whose output
# may hold one label set twice also lists its *clashes*: ``(message,
# side, rows)``, rows of the lhs input, the rhs input or the output
# that must never be present at one step together.  The walk's rows
# are all present at its one step, so it raises on any clash; a grid
# raises where two rows of one clash are present at the same step.

#: Prometheus's error for a vector holding one label set twice.
SAME_LABELSET = "vector cannot contain metrics with the same labelset"

#: Clash sides: rows of the lhs input, of the rhs input, of the output.
LHS, RHS, OUT = 0, 1, 2


def _raise_any(clashes: list) -> None:
    if clashes:
        raise QueryError(clashes[0][0])


def _rows_by(keys) -> dict:
    """Each key's positions in ``keys``, in first-seen order."""
    where: dict = {}
    for i, key in enumerate(keys):
        if key in where:
            where[key].append(i)
        else:
            where[key] = [i]
    return where


def _repeats(where: dict) -> list[list[int]]:
    """The positions of each repeated key, ordered by where a walk along
    the keys first meets a repeat."""
    return sorted([rows for rows in where.values() if len(rows) > 1], key=lambda rows: rows[1])


def _same_labelsets(labels: tuple, message: str = SAME_LABELSET) -> list:
    """The output clashes of ``labels``: rows holding one label set."""
    if len(set(labels)) == len(labels):
        return []
    return [(message, OUT, rows) for rows in _repeats(_rows_by(labels))]


def _set_labels(labels: Labels, values: dict[str, str]) -> Labels:
    """``labels`` with each name set to its value, or removed where the
    value is empty: a label with an empty value is an absent label."""
    d = labels.as_dict()
    for name, value in values.items():
        if value:
            d[name] = value
        else:
            d.pop(name, None)
    return Labels(d)


def _check_label_name(name: str, what: str, func: str) -> None:
    if not _LABEL_NAME_RE.match(name):
        raise QueryError(f"invalid {what} label name in {func}(): {name}")


def _as_is(labels: tuple) -> tuple:
    return labels


def _without_names(labels: tuple) -> tuple[tuple, list]:
    out = tuple([l.without_name() for l in labels])
    return out, _same_labelsets(out)


def _label_order(labels: tuple) -> tuple[tuple, list[int]]:
    order = sorted(range(len(labels)), key=lambda i: tuple(labels[i]))
    return tuple([labels[i] for i in order]), order


def _group_plan(node: Aggregation, labels: tuple) -> tuple[tuple, list[list[int]]]:
    """Output keys in first-seen order and each group's member indices."""
    grouping = node.grouping
    if node.without:
        keys = [l.drop(*grouping, METRIC_NAME_LABEL) for l in labels]
    elif grouping:
        keys = [l.keep(grouping) for l in labels]
    else:
        keys = [EMPTY_LABELS] * len(labels)
    groups = _rows_by(keys)
    return tuple(groups), list(groups.values())


def _bucket_plan(labels: tuple) -> tuple[tuple, list[list[int]], list[list[float]]]:
    """``histogram_quantile``'s groups: series identity (labels without
    name and ``le``) in first-seen order, each group's rows sorted
    stably by ``le`` beside their bounds.  Rows without a parseable
    ``le`` are left out, as in Prometheus."""
    groups: dict[Labels, list[tuple[float, int]]] = {}
    for i, l in enumerate(labels):
        try:
            le = float(l.get("le", ""))
        except ValueError:
            continue
        groups.setdefault(l.without_name().drop("le"), []).append((le, i))
    rows, bounds = [], []
    for members in groups.values():
        members.sort(key=lambda pair: pair[0])
        bounds.append([le for le, _i in members])
        rows.append([i for _le, i in members])
    return tuple(groups), rows, bounds


def _signature(labels: Labels, matching: VectorMatching | None) -> Labels:
    if matching is None:
        return labels.without_name()
    if matching.on:
        return labels.keep(matching.labels)
    return labels.drop(*matching.labels, METRIC_NAME_LABEL)


def _match_plan(node: BinaryOp, lhs: tuple, rhs: tuple) -> tuple[tuple, list[int], list[int], list]:
    """Vector matching: output labels and the ``(lhs, rhs)`` index of
    every matched pair, in "many"-side order, and the clashes.  A row
    is paired with every "one"-side row sharing its signature: those
    rows clash (many-to-many), as do one-to-one lhs rows sharing one,
    and pairs whose output labels are equal.  A filtering comparison
    keeps the many-side element, so its labels are that element's."""
    matching = node.matching
    group = matching.group if matching else ""
    filtering = node.op in COMPARISON_OPS and not node.return_bool
    # group_right mirrors group_left: match with the sides swapped,
    # compute with the original ones.
    many, one = (rhs, lhs) if group == "right" else (lhs, rhs)
    one_sigs = [_signature(l, matching) for l in one]
    partners = _rows_by(one_sigs)
    clashes = [
        (
            f"many-to-many matching: duplicate signature {one_sigs[rows[0]]} on the 'one' side of {node.op}",
            LHS if group == "right" else RHS,
            rows,
        )
        for rows in _repeats(partners)
    ]
    sigs = [_signature(l, matching) for l in many]
    if not group and len(set(sigs)) < len(sigs):
        clashes += [
            (f"many-to-many matching: duplicate signature {sigs[rows[0]]} on left side", LHS, rows)
            for rows in _repeats(_rows_by(sigs))
        ]
    out: list[Labels] = []
    many_idx: list[int] = []
    one_idx: list[int] = []
    for i, (labels, sig) in enumerate(zip(many, sigs)):
        for j in partners.get(sig, ()):
            many_idx.append(i)
            one_idx.append(j)
            if filtering:
                out.append(labels)
            elif not group:
                out.append(sig if matching and matching.on else labels.without_name())
            else:
                out.append(
                    _set_labels(labels.without_name(), {name: one[j].get(name, "") for name in matching.include})
                    if matching.include
                    else labels.without_name()
                )
    out = tuple(out)
    clashes += _same_labelsets(
        out, "multiple matches for labels: grouping labels must ensure unique matches" if group else SAME_LABELSET
    )
    if group == "right":
        return out, one_idx, many_idx, clashes
    return out, many_idx, one_idx, clashes


def _set_plan(node: BinaryOp, lhs: tuple, rhs: tuple) -> tuple[tuple, list[int], list[int], tuple[list[int], list[int]]]:
    """``and``/``unless`` keep lhs rows by rhs membership; ``or`` is all
    of lhs plus the rhs rows whose signature lhs lacks.  Membership is
    by signature group: per row of the filtered side (lhs; rhs for
    ``or``) the group its signature has among the other side's rows
    (-1: none), and per row of the other side its group.  With every
    row present — the walk — that decides the output labels and the
    kept lhs and rhs indices, which come first."""
    matching = node.matching
    filtered, other = (rhs, lhs) if node.op == "or" else (lhs, rhs)
    index: dict[Labels, int] = {}
    groups = [index.setdefault(_signature(l, matching), len(index)) for l in other]
    member = [index.get(_signature(l, matching), -1) for l in filtered]
    if node.op == "or":
        extra = [j for j, g in enumerate(member) if g < 0]
        return lhs + tuple([rhs[j] for j in extra]), list(range(len(lhs))), extra, (member, groups)
    wanted = node.op == "and"
    keep = [i for i, g in enumerate(member) if (g >= 0) == wanted]
    return tuple([lhs[i] for i in keep]), keep, [], (member, groups)


def _label_replace_plan(dst: str, replacement: str, src: str, regex: str, labels: tuple) -> tuple[tuple, list]:
    pattern = _compile_anchored(regex)
    _check_label_name(dst, "destination", "label_replace")
    template = replacement.replace("$", "\\")
    out = []
    for l in labels:
        match = pattern.match(l.get(src, ""))
        out.append(_set_labels(l, {dst: match.expand(template)}) if match else l)
    out = tuple(out)
    return out, _same_labelsets(out)


def _label_join_plan(dst: str, sep: str, sources: tuple[str, ...], labels: tuple) -> tuple[tuple, list]:
    for name in sources:
        _check_label_name(name, "source", "label_join")
    _check_label_name(dst, "destination", "label_join")
    out = tuple([_set_labels(l, {dst: sep.join(l.get(s, "") for s in sources)}) for l in labels])
    return out, _same_labelsets(out)


def _absent_plan(node: Call, labels: tuple) -> tuple:
    """One label set when ``labels`` is empty, built as Prometheus's
    ``createLabelsForAbsentFunction``: from the argument selector's
    ``=`` matchers, except a name matched twice, or matched by ``=``
    and then by another operator; an empty value is no label."""
    if labels:
        return ()
    found: dict[str, str] = {}
    arg = node.args[0]
    if isinstance(arg, VectorSelector):
        matched: set[str] = set()
        for m in arg.matchers:
            if m.name == METRIC_NAME_LABEL:
                continue
            if m.op is MatchOp.EQ and m.name not in matched:
                found[m.name] = m.value
                matched.add(m.name)
            else:
                found[m.name] = ""
    return (_set_labels(EMPTY_LABELS, found),)


class PromQLEngine:
    """Evaluates PromQL against any object with a ``select`` method.

    The storage contract is :meth:`repro.tsdb.storage.TSDB.select`;
    the Thanos store gateway implements the same interface, so one
    engine serves both the hot and long-term paths.
    """

    def __init__(self, storage, lookback: float = DEFAULT_LOOKBACK) -> None:
        self.storage = storage
        self.lookback = lookback
        # Evaluation accounting (self-telemetry): total wall seconds
        # and query counts per query kind.
        self.eval_seconds = {"instant": 0.0, "range": 0.0}
        self.eval_queries = {"instant": 0, "range": 0}

    # -- public API -------------------------------------------------------
    def query(self, expr: str | Expr, at: float, memo: PlanMemo | None = None) -> InstantResult:
        """Instant query at timestamp ``at`` (the AST walk).

        ``memo`` is the caller's :class:`PlanMemo` for this parsed
        expression, if it keeps one; results are the same with it,
        without it, and with a fresh one.
        """
        ast = parse_expr(expr) if isinstance(expr, str) else expr
        if memo is not None and memo.ast is not ast:
            memo.ast = ast
            memo.plans.clear()
        started = time.perf_counter()
        value = self._eval(ast, at, memo)
        self.eval_seconds["instant"] += time.perf_counter() - started
        self.eval_queries["instant"] += 1
        if isinstance(value, tuple):
            labels, values = value
            # Results are label-sorted for determinism, except when the
            # outermost expression is sort()/sort_desc(), whose whole
            # point is value ordering.
            if not (isinstance(ast, Call) and ast.func in ("sort", "sort_desc")):
                labels, order = _plan(memo, "order", (labels,), _label_order)
                values = [values[i] for i in order]
            return InstantResult(timestamp=at, labels=labels, values=values)
        if isinstance(value, (int, float)):
            return InstantResult(timestamp=at, scalar=float(value))
        raise QueryError(f"expression does not produce a vector or scalar: {type(value).__name__}")

    def query_range(
        self, expr: str | Expr, start: float, end: float, step: float
    ) -> RangeResult:
        """Range query over ``[start, end]`` at ``step`` resolution.

        Resolves every selector once, snapshots the matched series as
        ndarrays and evaluates the whole expression along the step
        axis as matrix operations — bit-identical to :meth:`query` at
        every :func:`range_steps` timestamp.
        """
        if step <= 0:
            raise QueryError("step must be positive")
        if end < start:
            raise QueryError("end before start")
        ast = parse_expr(expr) if isinstance(expr, str) else expr
        steps = range_steps(start, end, step)
        result = RangeResult(start=start, end=end, step=step)
        from repro.tsdb.promql.columnar import eval_range_columnar

        started = time.perf_counter()
        result.series = eval_range_columnar(self, ast, steps)
        self.eval_seconds["range"] += time.perf_counter() - started
        self.eval_queries["range"] += 1
        assert np.array_equal(result.timestamps(), steps)  # drift guard
        return result

    # -- evaluation ---------------------------------------------------------
    # A node evaluates to a float, a string, or a vector
    # ``(labels, values)``.
    def _eval(self, node: Expr, at: float, memo: PlanMemo | None):
        if isinstance(node, NumberLiteral):
            return node.value
        if isinstance(node, StringLiteral):
            return node.value
        if isinstance(node, Paren):
            return self._eval(node.expr, at, memo)
        if isinstance(node, UnaryOp):
            inner = self._eval(node.expr, at, memo)
            if isinstance(inner, tuple):
                labels, values = inner
                return _relabel(memo, node, labels, _without_names), [-v for v in values]
            return -inner
        if isinstance(node, VectorSelector):
            return self._eval_selector(node, at, memo)
        if isinstance(node, (MatrixSelector, Subquery)):
            raise QueryError("range selector only valid as a range-function argument")
        if isinstance(node, Call):
            return self._eval_call(node, at, memo)
        if isinstance(node, Aggregation):
            return self._eval_aggregation(node, at, memo)
        if isinstance(node, BinaryOp):
            return self._eval_binary(node, at, memo)
        raise QueryError(f"cannot evaluate node {node!r}")

    # -- leaves ---------------------------------------------------------------
    # A leaf's plan input is the label sets of the series that gave it
    # an element *this* evaluation: one that appeared, vanished, went
    # stale or fell out of its window changes the tuple, and every
    # plan above rebuilds.
    def _eval_selector(self, node: VectorSelector, at: float, memo):
        ts = at - node.offset
        lookback = self.lookback
        present = []
        values = []
        # Module-attribute call on purpose: the per-query stats hooks
        # stay swappable for the disabled-overhead bench.
        for series in obsquery.tracked_select(self.storage, node.matchers):
            point = series.at_or_before(ts, lookback)
            if point is not None:
                present.append(series.labels)
                values.append(point[1])
        obsquery.record_samples(len(values))
        return _plan(memo, id(node), (tuple(present),), _as_is, leaf=True), values

    def _windows(self, node, at: float) -> list[tuple[Labels, np.ndarray, np.ndarray, float, float]]:
        if isinstance(node, Subquery):
            return self._subquery_windows(node, at)
        end = at - node.selector.offset
        start = end - node.range_seconds
        out = []
        touched = 0
        for series in obsquery.tracked_select(self.storage, node.selector.matchers):
            w_ts, w_vs = series.window(start, end)
            # Staleness markers (NaN) delimit a series' life; range
            # functions never see them, as in Prometheus.
            keep = ~np.isnan(w_vs)
            if not keep.all():
                w_ts, w_vs = w_ts[keep], w_vs[keep]
            touched += len(w_ts)
            out.append((series.labels, w_ts, w_vs, start, end))
        obsquery.record_samples(touched)
        return out

    def _subquery_windows(self, node: Subquery, at: float) -> list[tuple[Labels, np.ndarray, np.ndarray, float, float]]:
        """Range-vector windows of ``<expr>[range:step]`` ending at ``at``.

        The inner steps are a grid, so the columnar evaluator produces
        them: selectors resolved once, every inner step in one pass
        (looping ``_eval`` per inner step was 288 selects for the
        dashboards' 24h:5m panel).
        """
        from repro.tsdb.promql.columnar import subquery_windows_at

        return subquery_windows_at(self, node, at)

    # -- function calls -----------------------------------------------------------
    def _eval_call(self, node: Call, at: float, memo):
        func = node.func
        if func in RANGE_FUNCTIONS:
            if len(node.args) != 1 or not isinstance(node.args[0], (MatrixSelector, Subquery)):
                raise QueryError(f"{func}() expects a single range-vector argument")
            impl = RANGE_FUNCTIONS[func]
            present = []
            values = []
            for labels, w_ts, w_vs, start, end in self._windows(node.args[0], at):
                value = impl(w_ts, w_vs, start, end)
                if value is not None and not math.isnan(value):
                    present.append(labels)
                    values.append(float(value))
            return _relabel(memo, node, tuple(present), _without_names, leaf=True), values
        if func == "quantile_over_time":
            if len(node.args) != 2 or not isinstance(node.args[1], (MatrixSelector, Subquery)):
                raise QueryError("quantile_over_time(scalar, range-vector) expected")
            q = self._eval_scalar(node.args[0], at, memo)
            present = []
            values = []
            for labels, _w_ts, w_vs, _s, _e in self._windows(node.args[1], at):
                if len(w_vs):
                    present.append(labels)
                    values.append(quantile(q, w_vs))
            return _relabel(memo, node, tuple(present), _without_names, leaf=True), values
        if func in ELEMENT_FUNCTIONS:
            if not node.args:
                raise QueryError(f"{func}() needs at least one argument")
            labels, values = self._eval_vector(node.args[0], at, memo)
            extra = [self._eval_scalar(arg, at, memo) for arg in node.args[1:]]
            impl = ELEMENT_FUNCTIONS[func]
            values = [float(impl(v, *extra)) for v in values]
            return _relabel(memo, node, labels, _without_names), values
        return self._eval_special(node, at, memo)

    def _eval_special(self, node: Call, at: float, memo):
        func = node.func
        if func == "time":
            return float(at)
        if func == "scalar":
            _labels, values = self._eval_vector(node.args[0], at, memo)
            return float(values[0]) if len(values) == 1 else math.nan
        if func == "vector":
            return SCALAR_LABELS, [self._eval_scalar(node.args[0], at, memo)]
        if func == "timestamp":
            labels, values = self._eval_vector(node.args[0], at, memo)
            # We do not track per-element original timestamps through
            # the lookback; the evaluation timestamp is the Prometheus
            # observable for fresh series and close enough for tests.
            return _relabel(memo, node, labels, _without_names), [float(at)] * len(values)
        if func == "absent":
            labels, _values = self._eval_vector(node.args[0], at, memo)
            out = _plan(memo, id(node), (labels,), _absent_plan, node)
            return out, [1.0] * len(out)
        if func in ("sort", "sort_desc"):
            # Order is the values' doing: no plan to remember.
            labels, values = self._eval_vector(node.args[0], at, memo)
            order = sorted(range(len(values)), key=values.__getitem__, reverse=func == "sort_desc")
            return tuple([labels[i] for i in order]), [values[i] for i in order]
        if func == "label_replace":
            if len(node.args) != 5:
                raise QueryError("label_replace(v, dst, replacement, src, regex) expected")
            labels, values = self._eval_vector(node.args[0], at, memo)
            strings = [self._eval_string(a, at, memo) for a in node.args[1:]]
            return _relabel(memo, node, labels, _label_replace_plan, *strings), values
        if func == "histogram_quantile":
            if len(node.args) != 2:
                raise QueryError("histogram_quantile(scalar, vector) expected")
            q = self._eval_scalar(node.args[0], at, memo)
            labels, values = self._eval_vector(node.args[1], at, memo)
            keys, rows, bounds = _plan(memo, id(node), (labels,), _bucket_plan)
            return keys, [
                histogram_bucket_quantile(q, list(zip(les, [values[i] for i in idx])))
                for idx, les in zip(rows, bounds)
            ]
        if func == "label_join":
            if len(node.args) < 3:
                raise QueryError("label_join(v, dst, sep, src...) expected")
            labels, values = self._eval_vector(node.args[0], at, memo)
            dst = self._eval_string(node.args[1], at, memo)
            sep = self._eval_string(node.args[2], at, memo)
            sources = tuple(self._eval_string(a, at, memo) for a in node.args[3:])
            return _relabel(memo, node, labels, _label_join_plan, dst, sep, sources), values
        raise QueryError(f"unknown function {func!r}")

    # -- aggregations ------------------------------------------------------------
    def _eval_aggregation(self, node: Aggregation, at: float, memo):
        labels, values = self._eval_vector(node.expr, at, memo)
        param = self._eval_scalar(node.param, at, memo) if node.param is not None else None
        keys, members = _plan(memo, id(node), (labels,), _group_plan, node)
        op = node.op
        if not members:
            return keys, []
        if op in ("topk", "bottomk"):
            if param is None:
                raise QueryError(f"{op} requires a parameter")
            k = max(int(param), 0)
            # Which elements survive is the values' doing; topk keeps
            # the original element labels (incl. name).
            chosen = []
            for idx in members:
                chosen += sorted(idx, key=values.__getitem__, reverse=(op == "topk"))[:k]
            return tuple([labels[i] for i in chosen]), [values[i] for i in chosen]
        if op == "quantile":
            if param is None:
                raise QueryError("quantile requires a parameter")
            return keys, [quantile(param, [values[i] for i in idx]) for idx in members]
        reduce = _REDUCERS.get(op)
        if reduce is None:
            raise QueryError(f"unknown aggregation {op!r}")
        return keys, [reduce([values[i] for i in idx]) for idx in members]

    # -- binary operators -----------------------------------------------------------
    def _eval_binary(self, node: BinaryOp, at: float, memo):
        lhs = self._eval(node.lhs, at, memo)
        rhs = self._eval(node.rhs, at, memo)
        lhs_vec = isinstance(lhs, tuple)
        rhs_vec = isinstance(rhs, tuple)
        if node.op in ("and", "or", "unless"):
            if not (lhs_vec and rhs_vec):
                raise QueryError(f"set operator {node.op} requires vector operands")
            labels, l_idx, r_idx, _groups = _plan(memo, id(node), (lhs[0], rhs[0]), _set_plan, node)
            l_values, r_values = lhs[1], rhs[1]
            return labels, [l_values[i] for i in l_idx] + [r_values[j] for j in r_idx]
        if lhs_vec and rhs_vec:
            return self._vector_vector(node, lhs, rhs, memo)
        if lhs_vec:
            return self._vector_scalar(node, lhs, float(rhs), memo, scalar_on_right=True)
        if rhs_vec:
            return self._vector_scalar(node, rhs, float(lhs), memo, scalar_on_right=False)
        if node.op in COMPARISON_OPS and not node.return_bool:
            raise QueryError("comparisons between scalars must use the bool modifier")
        return _binary_fn(node.op)(float(lhs), float(rhs))

    def _vector_scalar(self, node: BinaryOp, vector, scalar: float, memo, *, scalar_on_right: bool):
        labels, values = vector
        fn = _binary_fn(node.op)
        if scalar_on_right:
            results = [fn(v, scalar) for v in values]
        else:
            results = [fn(scalar, v) for v in values]
        if node.op in COMPARISON_OPS and not node.return_bool:
            # Filter: the elements that pass stay unchanged, and which
            # do is the values' doing.
            keep = [i for i, passed in enumerate(results) if passed]
            return tuple([labels[i] for i in keep]), [values[i] for i in keep]
        return _relabel(memo, node, labels, _without_names), results

    def _vector_vector(self, node: BinaryOp, lhs, rhs, memo):
        (l_labels, l_values), (r_labels, r_values) = lhs, rhs
        fn = _binary_fn(node.op)
        labels, l_idx, r_idx, clashes = _plan(memo, id(node), (l_labels, r_labels), _match_plan, node)
        _raise_any(clashes)
        results = [fn(l_values[i], r_values[j]) for i, j in zip(l_idx, r_idx)]
        if node.op in COMPARISON_OPS and not node.return_bool:
            if node.matching is not None and node.matching.group == "right":
                side, idx = r_values, r_idx
            else:
                side, idx = l_values, l_idx
            keep = [k for k, passed in enumerate(results) if passed]
            return tuple([labels[k] for k in keep]), [side[idx[k]] for k in keep]
        return labels, results

    # -- coercion helpers -------------------------------------------------------
    def _eval_vector(self, node: Expr, at: float, memo):
        value = self._eval(node, at, memo)
        if not isinstance(value, tuple):
            raise QueryError("expected an instant vector")
        return value

    def _eval_scalar(self, node: Expr, at: float, memo) -> float:
        value = self._eval(node, at, memo)
        if isinstance(value, tuple):
            raise QueryError("expected a scalar")
        return float(value)

    def _eval_string(self, node: Expr, at: float, memo) -> str:
        value = self._eval(node, at, memo)
        if not isinstance(value, str):
            raise QueryError("expected a string literal")
        return value
