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
* a range function met by the walk takes its windows from the one
  window builder (:func:`~repro.tsdb.promql.columnar.range_windows`),
  asked for the one step the walk is at, and makes one kernel call
  over every series.  A subquery ``<expr>[range:step]`` is a grid too:
  the builder evaluates its inner steps in one columnar pass,
  bit-identical to walking the inner expression at every inner step.

**The walk is split in two.**  An instant vector inside the walk is a
pair ``(labels, values)`` — a tuple of :class:`Labels` and the list of
floats beside it — and every node evaluates as a *label half* then a
*value half*.  Everything a node does with labels (dropping the metric
name, grouping, vector matching and its many-to-many errors, set
membership, ``label_replace``, the final sort) is a pure function of
the node and its input label tuples: the label half (the module-level
``_*_plan`` functions) turns those into a *plan* of output labels and
index lists, and the value half is plain indexed arithmetic over the
plan, in the element order the walk always had.  Every parsed
expression owns one :class:`~repro.tsdb.promql.parser.PlanMemo`
(:func:`~repro.tsdb.promql.parser.plan_memo`), so whoever evaluates a
text again — a recording rule, a refreshed dashboard panel, an alert —
meets the plans its last evaluation left: a node whose input tuples
are the very objects it saw last time reuses its last plan and hands
up the very output tuple it handed up last time, so a hit propagates
to the root, and the answer's label sets are the objects of last
time.  The columnar evaluator applies the same label halves to its
step grid through the same memo (keyed apart from the walk's), so
PromQL's label semantics are written once, here; its value semantics
are written once in :mod:`repro.tsdb.promql.functions` — window
kernels, element functions and operators — which both evaluators
call, the walk on its value list as one float64 array.

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
import re
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from repro.common.errors import QueryError
from repro.obs import query as obsquery
from repro.tsdb.model import (
    _LABEL_NAME_RE,
    _METRIC_NAME_RE,
    EMPTY_LABELS,
    METRIC_NAME_LABEL,
    Labels,
    MatchOp,
    anchored_regex,
)
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
    BINARY_OPERATORS,
    ELEMENT_FUNCTIONS,
    WINDOW_FUNCTIONS,
    histogram_bucket_quantile,
    quantile,
    topk_counts,
)
from repro.tsdb.promql.parser import Kept, PlanMemo, parse_expr, plan_memo

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
    """Compiled, fully-anchored regex for label_replace, anchored as
    :class:`Matcher` anchors (cached — mirrors its precompiled
    ``_regex``)."""
    try:
        return re.compile(anchored_regex(regex))
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


def _relabel(memo: PlanMemo, node: Expr, labels: tuple, build, *consts, leaf: bool = False) -> tuple:
    """The output labels of a one-input node whose plan is ``(labels,
    clashes)``: at the walk's one step every row is present, so any
    clash raises."""
    out, clashes = memo.plan(id(node), (labels,), build, *consts, leaf=leaf)
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
# raises where two rows of one clash are present at the same step.  A
# row that must not be present at all — one that would write an
# invalid metric name — is a clash of the row with itself.
#
# A label half's first argument is the :class:`Kept` of its plan's
# last build: what it derives from one member alone (a signature, a
# label set without its name, a group key) goes through ``kept.each``,
# so a rebuild derives only the members its last build did not see.

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


def _rewritten(labels: tuple, dst: str, values: list[str | None], func: str) -> tuple[tuple, list]:
    """``labels`` with ``dst`` set to each row's value (``None``: the
    row unchanged), and the clashes.  A value written as the metric
    name must be a valid one: a row where it is not raises the moment
    it is present, so it clashes with itself, first, and keeps an
    unvalidated label set that no valid row can equal (a grid drops it
    with the other never-present rows of its clashes)."""
    out: list[Labels] = []
    invalid = []
    for i, (l, value) in enumerate(zip(labels, values)):
        if value is None:
            out.append(l)
        elif dst == METRIC_NAME_LABEL and value and not _METRIC_NAME_RE.match(value):
            invalid.append((f"invalid metric name in {func}(): {value}", OUT, [i, i]))
            out.append(Labels.from_sorted_items(sorted({**l.as_dict(), dst: value}.items())))
        else:
            out.append(_set_labels(l, {dst: value}))
    out = tuple(out)
    return out, invalid + _same_labelsets(out)


def _as_is(kept: Kept, labels: tuple) -> tuple:
    return labels


def _without_names(kept: Kept, labels: tuple) -> tuple[tuple, list]:
    out = tuple(kept.each("without_name", Labels.without_name, labels))
    return out, _same_labelsets(out)


def _label_order(kept: Kept, labels: tuple) -> tuple[tuple, list[int]]:
    order = sorted(range(len(labels)), key=list(map(tuple, labels)).__getitem__)
    return tuple([labels[i] for i in order]), order


def _group_plan(kept: Kept, node: Aggregation, labels: tuple) -> tuple[tuple, list[list[int]]]:
    """Output keys in first-seen order and each group's member indices."""
    grouping = node.grouping
    if node.without:
        dropped = (*grouping, METRIC_NAME_LABEL)
        keys = kept.each("group", lambda l: l.drop(*dropped), labels)
    elif grouping:
        keys = kept.each("group", lambda l: l.keep(grouping), labels)
    else:
        keys = [EMPTY_LABELS] * len(labels)
    groups = _rows_by(keys)
    return tuple(groups), list(groups.values())


def _bucket_plan(kept: Kept, labels: tuple) -> tuple[tuple, list[list[int]], list[list[float]]]:
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


def _signature(matching: VectorMatching | None):
    """The function from a member's labels to its matching signature."""
    if matching is None:
        return Labels.without_name
    names = matching.labels
    if matching.on:
        return lambda labels: labels.keep(names)
    dropped = (*names, METRIC_NAME_LABEL)
    return lambda labels: labels.drop(*dropped)


def _match_plan(kept: Kept, node: BinaryOp, lhs: tuple, rhs: tuple) -> tuple[tuple, list[int], list[int], list]:
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
    signature = _signature(matching)
    one_sigs = kept.each("signature", signature, one)
    partners = _rows_by(one_sigs)
    clashes = [
        (
            f"many-to-many matching: duplicate signature {one_sigs[rows[0]]} on the 'one' side of {node.op}",
            LHS if group == "right" else RHS,
            rows,
        )
        for rows in _repeats(partners)
    ]
    sigs = kept.each("signature", signature, many)
    if not group and len(set(sigs)) < len(sigs):
        clashes += [
            (f"many-to-many matching: duplicate signature {sigs[rows[0]]} on left side", LHS, rows)
            for rows in _repeats(_rows_by(sigs))
        ]
    many_idx: list[int] = []
    one_idx: list[int] = []
    for i, sig in enumerate(sigs):
        for j in partners.get(sig, ()):
            many_idx.append(i)
            one_idx.append(j)
    if filtering:
        out = tuple([many[i] for i in many_idx])
    elif not group and (matching is None or matching.on):
        # The signature is the output: the labels without their name,
        # or the ``on`` labels alone.
        out = tuple([sigs[i] for i in many_idx])
    elif group and matching.include:
        # A pair's labels: the many-side element's without its name,
        # the "one" side's values of the included labels on top.
        include = matching.include
        out = tuple(
            kept.each(
                "pair",
                lambda pair: _set_labels(pair[0].without_name(), {name: pair[1].get(name, "") for name in include}),
                [(many[i], one[j]) for i, j in zip(many_idx, one_idx)],
            )
        )
    else:
        out = tuple(kept.each("without_name", Labels.without_name, [many[i] for i in many_idx]))
    clashes += _same_labelsets(
        out, "multiple matches for labels: grouping labels must ensure unique matches" if group else SAME_LABELSET
    )
    if group == "right":
        return out, one_idx, many_idx, clashes
    return out, many_idx, one_idx, clashes


def _set_plan(
    kept: Kept, node: BinaryOp, lhs: tuple, rhs: tuple
) -> tuple[tuple, list[int], list[int], tuple[list[int], list[int]]]:
    """``and``/``unless`` keep lhs rows by rhs membership; ``or`` is all
    of lhs plus the rhs rows whose signature lhs lacks.  Membership is
    by signature group: per row of the filtered side (lhs; rhs for
    ``or``) the group its signature has among the other side's rows
    (-1: none), and per row of the other side its group.  With every
    row present — the walk — that decides the output labels and the
    kept lhs and rhs indices, which come first."""
    signature = _signature(node.matching)
    filtered, other = (rhs, lhs) if node.op == "or" else (lhs, rhs)
    index: dict[Labels, int] = {}
    groups = [index.setdefault(sig, len(index)) for sig in kept.each("signature", signature, other)]
    member = [index.get(sig, -1) for sig in kept.each("signature", signature, filtered)]
    if node.op == "or":
        extra = [j for j, g in enumerate(member) if g < 0]
        return lhs + tuple([rhs[j] for j in extra]), list(range(len(lhs))), extra, (member, groups)
    wanted = node.op == "and"
    keep = [i for i, g in enumerate(member) if (g >= 0) == wanted]
    return tuple([lhs[i] for i in keep]), keep, [], (member, groups)


def _label_replace_plan(kept: Kept, dst: str, replacement: str, src: str, regex: str, labels: tuple) -> tuple[tuple, list]:
    pattern = _compile_anchored(regex)
    _check_label_name(dst, "destination", "label_replace")
    template = replacement.replace("$", "\\")
    matches = [pattern.match(l.get(src, "")) for l in labels]
    return _rewritten(labels, dst, [m.expand(template) if m else None for m in matches], "label_replace")


def _label_join_plan(kept: Kept, dst: str, sep: str, sources: tuple[str, ...], labels: tuple) -> tuple[tuple, list]:
    for name in sources:
        _check_label_name(name, "source", "label_join")
    _check_label_name(dst, "destination", "label_join")
    return _rewritten(labels, dst, [sep.join(l.get(s, "") for s in sources) for l in labels], "label_join")


def _absent_plan(kept: Kept, node: Call, labels: tuple) -> tuple:
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
    def query(self, expr: str | Expr, at: float) -> InstantResult:
        """Instant query at timestamp ``at`` (the AST walk), label plans
        from the expression's own memo (:func:`plan_memo`)."""
        ast = parse_expr(expr) if isinstance(expr, str) else expr
        memo = plan_memo(ast)
        started = time.perf_counter()
        # Prometheus's IEEE answers (NaN, ±Inf) are values, not warnings.
        with np.errstate(all="ignore"):
            value = self._eval(ast, at, memo)
        self.eval_seconds["instant"] += time.perf_counter() - started
        self.eval_queries["instant"] += 1
        if isinstance(value, tuple):
            labels, values = value
            # Results are label-sorted for determinism, except when the
            # outermost expression is sort()/sort_desc(), whose whole
            # point is value ordering.
            if not (isinstance(ast, Call) and ast.func in ("sort", "sort_desc")):
                labels, order = memo.plan("order", (labels,), _label_order)
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
        result.series = eval_range_columnar(self, ast, steps, plan_memo(ast))
        self.eval_seconds["range"] += time.perf_counter() - started
        self.eval_queries["range"] += 1
        assert np.array_equal(result.timestamps(), steps)  # drift guard
        return result

    # -- evaluation ---------------------------------------------------------
    # A node evaluates to a float, a string, or a vector
    # ``(labels, values)``.
    def _eval(self, node: Expr, at: float, memo: PlanMemo | None):
        # The node kinds are disjoint; the ones rules hold most come first.
        if isinstance(node, BinaryOp):
            return self._eval_binary(node, at, memo)
        if isinstance(node, VectorSelector):
            return self._eval_selector(node, at, memo)
        if isinstance(node, Aggregation):
            return self._eval_aggregation(node, at, memo)
        if isinstance(node, Call):
            return self._eval_call(node, at, memo)
        if isinstance(node, NumberLiteral):
            return node.value
        if isinstance(node, Paren):
            return self._eval(node.expr, at, memo)
        if isinstance(node, StringLiteral):
            return node.value
        if isinstance(node, UnaryOp):
            inner = self._eval(node.expr, at, memo)
            if isinstance(inner, tuple):
                labels, values = inner
                return _relabel(memo, node, labels, _without_names), [-v for v in values]
            return -inner
        if isinstance(node, (MatrixSelector, Subquery)):
            raise QueryError("range selector only valid as a range-function argument")
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
        return memo.plan(id(node), (tuple(present),), _as_is, leaf=True), values

    # -- function calls -----------------------------------------------------------
    def _eval_call(self, node: Call, at: float, memo):
        func = node.func
        if func in WINDOW_FUNCTIONS:
            if len(node.args) != 1 or not isinstance(node.args[0], (MatrixSelector, Subquery)):
                raise QueryError(f"{func}() expects a single range-vector argument")
            win = self._windows(node.args[0], at, memo)
            values = WINDOW_FUNCTIONS[func](win.ts, win.vs, win.los[:, 0], win.his[:, 0], win.starts, win.ends).tolist()
            # A NaN kernel result is no element.
            labels = tuple([l for l, v in zip(win.labels, values) if v == v])
            return _relabel(memo, node, labels, _without_names, leaf=True), [v for v in values if v == v]
        if func == "quantile_over_time":
            if len(node.args) != 2 or not isinstance(node.args[1], (MatrixSelector, Subquery)):
                raise QueryError("quantile_over_time(scalar, range-vector) expected")
            q = self._eval_scalar(node.args[0], at, memo)
            win = self._windows(node.args[1], at, memo)
            present = []
            values = []
            for labels, lo, hi in zip(win.labels, win.los[:, 0].tolist(), win.his[:, 0].tolist()):
                if hi > lo:
                    present.append(labels)
                    values.append(quantile(q, win.vs[lo:hi]))
            return _relabel(memo, node, tuple(present), _without_names, leaf=True), values
        if func in ELEMENT_FUNCTIONS:
            if not node.args:
                raise QueryError(f"{func}() needs at least one argument")
            labels, values = self._eval_vector(node.args[0], at, memo)
            extra = [self._eval_scalar(arg, at, memo) for arg in node.args[1:]]
            values = ELEMENT_FUNCTIONS[func](np.array(values, dtype=np.float64), *extra).tolist()
            return _relabel(memo, node, labels, _without_names), values
        return self._eval_special(node, at, memo)

    def _windows(self, node: MatrixSelector | Subquery, at: float, memo: PlanMemo):
        """The windows of ``node`` ending at ``at``, a grid of one step."""
        from repro.tsdb.promql.columnar import range_windows

        return range_windows(self, node, np.array([at], dtype=np.float64), memo)

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
            out = memo.plan(id(node), (labels,), _absent_plan, node)
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
            keys, rows, bounds = memo.plan(id(node), (labels,), _bucket_plan)
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
        keys, members = memo.plan(id(node), (labels,), _group_plan, node)
        op = node.op
        ranks = op in ("topk", "bottomk")
        if ranks:
            if param is None:
                raise QueryError(f"{op} requires a parameter")
            k = int(topk_counts(param))
        if not members:
            return keys, []
        if ranks:
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
            labels, l_idx, r_idx, _groups = memo.plan(id(node), (lhs[0], rhs[0]), _set_plan, node)
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
        # One element, not a 0-d array, whose repeating exponent numpy
        # would take as a shortcut (``functions._power``).
        return float(BINARY_OPERATORS[node.op](np.array([float(lhs)]), float(rhs))[0])

    def _vector_scalar(self, node: BinaryOp, vector, scalar: float, memo, *, scalar_on_right: bool):
        labels, values = vector
        fn = BINARY_OPERATORS[node.op]
        array = np.array(values, dtype=np.float64)
        results = fn(array, scalar) if scalar_on_right else fn(scalar, array)
        if node.op in COMPARISON_OPS and not node.return_bool:
            # Filter: the elements that pass stay unchanged, and which
            # do is the values' doing.
            keep = np.flatnonzero(results).tolist()
            return tuple([labels[i] for i in keep]), [values[i] for i in keep]
        return _relabel(memo, node, labels, _without_names), results.astype(np.float64, copy=False).tolist()

    def _vector_vector(self, node: BinaryOp, lhs, rhs, memo):
        (l_labels, l_values), (r_labels, r_values) = lhs, rhs
        labels, l_idx, r_idx, clashes = memo.plan(id(node), (l_labels, r_labels), _match_plan, node)
        _raise_any(clashes)
        results = BINARY_OPERATORS[node.op](
            np.array([l_values[i] for i in l_idx], dtype=np.float64),
            np.array([r_values[j] for j in r_idx], dtype=np.float64),
        )
        if node.op in COMPARISON_OPS and not node.return_bool:
            if node.matching is not None and node.matching.group == "right":
                side, idx = r_values, r_idx
            else:
                side, idx = l_values, l_idx
            keep = np.flatnonzero(results).tolist()
            return tuple([labels[k] for k in keep]), [side[idx[k]] for k in keep]
        return labels, results.astype(np.float64, copy=False).tolist()

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
