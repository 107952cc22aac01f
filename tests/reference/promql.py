"""The element-wise instant walk and the per-step grid loops — the oracles.

:class:`ElementWalkEngine` is the instant walk as it stood before the
production walk split every node into a label half and a value half:
one ``VectorElement`` per element, every label set re-derived on every
evaluation, frozen here verbatim (its own ``_apply_op`` if-chain,
``_signature``, ``_seq_sum``) and import-only.  The production walk —
with a plan memo and without one — must agree with it bit for bit:
labels, order, values, error type and text.

Two grids, two loops, both over that walk.
:func:`query_range_per_step` is "a range query is the instant query at
every step"; the columnar evaluator behind
:meth:`PromQLEngine.query_range` must return bit-identical results.
:class:`PerStepEngine` is "a subquery window is the inner expression
at every inner step" as a loop over ``_eval`` — the walk's own
subquery code until the production walk started asking the columnar
evaluator for those windows.  The range oracle runs on it, so no
differential compares the columnar code with itself.

One rule was added to the frozen walk since, written here in its own
code: as in Prometheus, no node may hand up one label set twice
(``_eval``), and a ``group_left``/``group_right`` match whose outputs
repeat a label set is its own error (``_vector_vector``).  The
production evaluators take the same rule from their shared label
plans; nothing here imports them.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import numpy as np

from repro.common.errors import QueryError
from repro.obs import query as obsquery
from repro.tsdb.model import METRIC_NAME_LABEL, Labels
from repro.tsdb.promql.ast import (
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
from repro.tsdb.promql.engine import (
    DEFAULT_LOOKBACK,
    InstantResult,
    RangeResult,
    VectorElement,
    range_steps,
)
from repro.tsdb.promql.functions import (
    ELEMENT_FUNCTIONS,
    RANGE_FUNCTIONS,
    histogram_bucket_quantile,
    quantile,
)
from repro.tsdb.promql.parser import PlanMemo, parse_expr


@lru_cache(maxsize=256)
def _compile_anchored(regex: str) -> re.Pattern[str]:
    # RE2's ``^(?s:…)$``: ``.`` matches a newline, ``$`` only the end.
    return re.compile(f"^(?s:{regex})\\Z")


def _with_label(labels: Labels, name: str, value: str, func: str) -> Labels:
    """``labels`` with ``name`` set to ``value``; an empty value removes
    it, and a metric name must be valid."""
    d = labels.as_dict()
    if value:
        if name == METRIC_NAME_LABEL and not re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", value):
            raise QueryError(f"invalid metric name in {func}(): {value}")
        d[name] = value
    else:
        d.pop(name, None)
    return Labels(d)


class _Vector(list):
    """Internal instant-vector value (list of VectorElement)."""


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


class ElementWalkEngine:
    """The frozen element-wise walk (see the module docstring)."""

    def __init__(self, storage, lookback: float = DEFAULT_LOOKBACK) -> None:
        self.storage = storage
        self.lookback = lookback

    @classmethod
    def like(cls, engine):
        return cls(engine.storage, lookback=engine.lookback)

    def query(self, expr: str | Expr, at: float) -> InstantResult:
        ast = parse_expr(expr) if isinstance(expr, str) else expr
        value = self._eval(ast, at)
        if isinstance(value, _Vector):
            # Results are label-sorted for determinism, except when the
            # outermost expression is sort()/sort_desc(), whose whole
            # point is value ordering.
            if not (isinstance(ast, Call) and ast.func in ("sort", "sort_desc")):
                value = sorted(value, key=lambda el: tuple(el.labels))
            return InstantResult(
                timestamp=at,
                labels=tuple(el.labels for el in value),
                values=[el.value for el in value],
            )
        if isinstance(value, (int, float)):
            return InstantResult(timestamp=at, scalar=float(value))
        raise QueryError(f"expression does not produce a vector or scalar: {type(value).__name__}")

    # -- evaluation ---------------------------------------------------------
    def _eval(self, node: Expr, at: float):
        value = self._eval_node(node, at)
        # No node may hand up one label set twice (Prometheus).
        if isinstance(value, _Vector) and len({el.labels for el in value}) < len(value):
            raise QueryError("vector cannot contain metrics with the same labelset")
        return value

    def _eval_node(self, node: Expr, at: float):
        if isinstance(node, NumberLiteral):
            return node.value
        if isinstance(node, StringLiteral):
            return node.value
        if isinstance(node, Paren):
            return self._eval(node.expr, at)
        if isinstance(node, UnaryOp):
            inner = self._eval(node.expr, at)
            if isinstance(inner, _Vector):
                return _Vector(
                    VectorElement(el.labels.without_name(), -el.value) for el in inner
                )
            return -inner
        if isinstance(node, VectorSelector):
            return self._eval_selector(node, at)
        if isinstance(node, (MatrixSelector, Subquery)):
            raise QueryError("range selector only valid as a range-function argument")
        if isinstance(node, Call):
            return self._eval_call(node, at)
        if isinstance(node, Aggregation):
            return self._eval_aggregation(node, at)
        if isinstance(node, BinaryOp):
            return self._eval_binary(node, at)
        raise QueryError(f"cannot evaluate node {node!r}")

    # -- selectors ------------------------------------------------------------
    def _eval_selector(self, node: VectorSelector, at: float) -> _Vector:
        ts = at - node.offset
        out = _Vector()
        # Module-attribute call on purpose: the per-query stats hooks
        # stay swappable for the disabled-overhead bench.
        for series in obsquery.tracked_select(self.storage, node.matchers):
            point = series.at_or_before(ts, self.lookback)
            if point is not None:
                out.append(VectorElement(series.labels, point[1]))
        obsquery.record_samples(len(out))
        return out

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
        dashboards' 24h:5m panel).  A fresh plan memo: every label
        set is derived anew, as everywhere else in this walk.
        """
        from repro.tsdb.promql.columnar import subquery_windows_at

        return subquery_windows_at(self, node, at, PlanMemo(node))

    # -- function calls -----------------------------------------------------------
    def _eval_call(self, node: Call, at: float):
        func = node.func
        if func in RANGE_FUNCTIONS:
            if len(node.args) != 1 or not isinstance(node.args[0], (MatrixSelector, Subquery)):
                raise QueryError(f"{func}() expects a single range-vector argument")
            impl = RANGE_FUNCTIONS[func]
            out = _Vector()
            for labels, w_ts, w_vs, start, end in self._windows(node.args[0], at):
                value = impl(w_ts, w_vs, start, end)
                if value is not None and not math.isnan(value):
                    out.append(VectorElement(labels.without_name(), float(value)))
            return out
        if func == "quantile_over_time":
            if len(node.args) != 2 or not isinstance(node.args[1], (MatrixSelector, Subquery)):
                raise QueryError("quantile_over_time(scalar, range-vector) expected")
            q = self._eval_scalar(node.args[0], at)
            out = _Vector()
            for labels, w_ts, w_vs, _s, _e in self._windows(node.args[1], at):
                if len(w_vs):
                    out.append(VectorElement(labels.without_name(), quantile(q, w_vs)))
            return out
        if func in ELEMENT_FUNCTIONS:
            if not node.args:
                raise QueryError(f"{func}() needs at least one argument")
            vec = self._eval_vector(node.args[0], at)
            extra = [self._eval_scalar(arg, at) for arg in node.args[1:]]
            impl = ELEMENT_FUNCTIONS[func]
            return _Vector(
                VectorElement(el.labels.without_name(), float(impl(el.value, *extra))) for el in vec
            )
        return self._eval_special(node, at)

    def _eval_special(self, node: Call, at: float):
        func = node.func
        if func == "time":
            return float(at)
        if func == "scalar":
            vec = self._eval_vector(node.args[0], at)
            return float(vec[0].value) if len(vec) == 1 else math.nan
        if func == "vector":
            value = self._eval_scalar(node.args[0], at)
            return _Vector([VectorElement(Labels(), value)])
        if func == "timestamp":
            vec = self._eval_vector(node.args[0], at)
            # We do not track per-element original timestamps through
            # the lookback; the evaluation timestamp is the Prometheus
            # observable for fresh series and close enough for tests.
            return _Vector(VectorElement(el.labels.without_name(), float(at)) for el in vec)
        if func == "absent":
            vec = self._eval_vector(node.args[0], at)
            if vec:
                return _Vector()
            # Prometheus's createLabelsForAbsentFunction, matcher by
            # matcher: the first ``=`` of a name sets it, any other
            # matcher of the name deletes it; an empty value is no label.
            labels = {}
            arg = node.args[0]
            if isinstance(arg, VectorSelector):
                has = set()
                for m in arg.matchers:
                    if m.name == METRIC_NAME_LABEL:
                        continue
                    if m.op.value == "=" and m.name not in has:
                        labels[m.name] = m.value
                        has.add(m.name)
                    else:
                        labels.pop(m.name, None)
            return _Vector([VectorElement(Labels({k: v for k, v in labels.items() if v}), 1.0)])
        if func in ("sort", "sort_desc"):
            vec = self._eval_vector(node.args[0], at)
            reverse = func == "sort_desc"
            return _Vector(sorted(vec, key=lambda el: el.value, reverse=reverse))
        if func == "label_replace":
            if len(node.args) != 5:
                raise QueryError("label_replace(v, dst, replacement, src, regex) expected")
            vec = self._eval_vector(node.args[0], at)
            dst, replacement, src, regex = (self._eval_string(a, at) for a in node.args[1:])
            pattern = _compile_anchored(regex)
            out = _Vector()
            for el in vec:
                match = pattern.match(el.labels.get(src, ""))
                if match:
                    new_value = match.expand(replacement.replace("$", "\\"))
                    out.append(VectorElement(_with_label(el.labels, dst, new_value, "label_replace"), el.value))
                else:
                    out.append(el)
            return out
        if func == "histogram_quantile":
            if len(node.args) != 2:
                raise QueryError("histogram_quantile(scalar, vector) expected")
            q = self._eval_scalar(node.args[0], at)
            vec = self._eval_vector(node.args[1], at)
            return _Vector(
                VectorElement(labels, value)
                for labels, value in self._histogram_quantile_groups(q, vec)
            )
        if func == "label_join":
            if len(node.args) < 3:
                raise QueryError("label_join(v, dst, sep, src...) expected")
            vec = self._eval_vector(node.args[0], at)
            dst = self._eval_string(node.args[1], at)
            sep = self._eval_string(node.args[2], at)
            sources = [self._eval_string(a, at) for a in node.args[3:]]
            out = _Vector()
            for el in vec:
                joined = sep.join(el.labels.get(s, "") for s in sources)
                out.append(VectorElement(_with_label(el.labels, dst, joined, "label_join"), el.value))
            return out
        raise QueryError(f"unknown function {func!r}")

    @staticmethod
    def _histogram_quantile_groups(q: float, vec) -> list[tuple[Labels, float]]:
        """Group ``_bucket`` elements by identity and compute quantiles.

        Elements without a parseable ``le`` label are ignored, as in
        Prometheus.  Shared by both evaluators (the columnar path calls
        this per step column) so results stay bit-identical.
        """
        groups: dict[Labels, list[tuple[float, float]]] = {}
        for el in vec:
            le_raw = el.labels.get("le", "")
            try:
                le = float(le_raw)
            except ValueError:
                continue
            key = el.labels.without_name().drop("le")
            groups.setdefault(key, []).append((le, el.value))
        out: list[tuple[Labels, float]] = []
        for key, buckets in groups.items():
            buckets.sort(key=lambda pair: pair[0])
            out.append((key, histogram_bucket_quantile(q, buckets)))
        return out

    # -- aggregations ------------------------------------------------------------
    def _eval_aggregation(self, node: Aggregation, at: float) -> _Vector:
        vec = self._eval_vector(node.expr, at)
        param = self._eval_scalar(node.param, at) if node.param is not None else None

        def group_key(labels: Labels) -> Labels:
            if node.without:
                return labels.drop(*node.grouping, METRIC_NAME_LABEL)
            if node.grouping:
                return labels.keep(node.grouping)
            return Labels()

        groups: dict[Labels, list[VectorElement]] = {}
        for el in vec:
            groups.setdefault(group_key(el.labels), []).append(el)

        out = _Vector()
        op = node.op
        for key, members in groups.items():
            values = [m.value for m in members]
            if op == "sum":
                out.append(VectorElement(key, _seq_sum(values)))
            elif op == "avg":
                out.append(VectorElement(key, _seq_sum(values) / len(values)))
            elif op == "min":
                out.append(VectorElement(key, float(np.min(np.asarray(values)))))
            elif op == "max":
                out.append(VectorElement(key, float(np.max(np.asarray(values)))))
            elif op == "count":
                out.append(VectorElement(key, float(len(values))))
            elif op == "stddev":
                _mean, var = _seq_moments(values)
                out.append(VectorElement(key, math.sqrt(var)))
            elif op == "stdvar":
                _mean, var = _seq_moments(values)
                out.append(VectorElement(key, var))
            elif op == "quantile":
                if param is None:
                    raise QueryError("quantile requires a parameter")
                # Prometheus: a q outside [0, 1] is -Inf/+Inf, never
                # the extreme member; a NaN q is NaN.
                if math.isnan(param):
                    value = math.nan
                elif param < 0:
                    value = -math.inf
                elif param > 1:
                    value = math.inf
                else:
                    value = float(np.quantile(np.asarray(values), param))
                out.append(VectorElement(key, value))
            elif op in ("topk", "bottomk"):
                if param is None:
                    raise QueryError(f"{op} requires a parameter")
                k = max(int(param), 0)
                ordered = sorted(members, key=lambda m: m.value, reverse=(op == "topk"))
                # topk keeps the original element labels (incl. name).
                out.extend(ordered[:k])
            else:
                raise QueryError(f"unknown aggregation {op!r}")
        return out

    # -- binary operators -----------------------------------------------------------
    def _eval_binary(self, node: BinaryOp, at: float):
        lhs = self._eval(node.lhs, at)
        rhs = self._eval(node.rhs, at)
        lhs_vec = isinstance(lhs, _Vector)
        rhs_vec = isinstance(rhs, _Vector)
        if node.op in ("and", "or", "unless"):
            if not (lhs_vec and rhs_vec):
                raise QueryError(f"set operator {node.op} requires vector operands")
            return self._set_op(node, lhs, rhs)
        if lhs_vec and rhs_vec:
            return self._vector_vector(node, lhs, rhs)
        if lhs_vec or rhs_vec:
            return self._vector_scalar(node, lhs, rhs, scalar_on_right=rhs_vec is False)
        return self._scalar_scalar(node, float(lhs), float(rhs))

    @staticmethod
    def _apply_op(op: str, a: float, b: float) -> float:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b if b != 0 else (math.nan if a == 0 else math.copysign(math.inf, a) * math.copysign(1, b))
        if op == "%":
            return math.fmod(a, b) if b != 0 else math.nan
        if op == "^":
            return a**b
        if op == "==":
            return float(a == b)
        if op == "!=":
            return float(a != b)
        if op == ">":
            return float(a > b)
        if op == "<":
            return float(a < b)
        if op == ">=":
            return float(a >= b)
        if op == "<=":
            return float(a <= b)
        raise QueryError(f"unknown operator {op!r}")

    def _scalar_scalar(self, node: BinaryOp, a: float, b: float) -> float:
        if node.op in ("==", "!=", ">", "<", ">=", "<=") and not node.return_bool:
            raise QueryError("comparisons between scalars must use the bool modifier")
        return self._apply_op(node.op, a, b)

    def _vector_scalar(self, node: BinaryOp, lhs, rhs, *, scalar_on_right: bool) -> _Vector:
        vec: _Vector = lhs if scalar_on_right else rhs
        scalar = float(rhs) if scalar_on_right else float(lhs)
        comparison = node.op in ("==", "!=", ">", "<", ">=", "<=")
        out = _Vector()
        for el in vec:
            a, b = (el.value, scalar) if scalar_on_right else (scalar, el.value)
            result = self._apply_op(node.op, a, b)
            if comparison and not node.return_bool:
                if result:  # keep the element unchanged (filter semantics)
                    out.append(el)
            else:
                labels = el.labels.without_name() if (not comparison or node.return_bool) else el.labels
                out.append(VectorElement(labels, result if not comparison else float(result)))
        return out

    @staticmethod
    def _signature(labels: Labels, matching: VectorMatching | None) -> Labels:
        if matching is None:
            return labels.without_name()
        if matching.on:
            return labels.keep(matching.labels)
        return labels.drop(*matching.labels, METRIC_NAME_LABEL)

    def _vector_vector(self, node: BinaryOp, lhs: _Vector, rhs: _Vector) -> _Vector:
        matching = node.matching
        group = matching.group if matching else ""
        comparison = node.op in ("==", "!=", ">", "<", ">=", "<=")

        if group == "right":
            # Mirror: evaluate as group_left with operands swapped for
            # matching purposes, then compute with original sides.
            many, one = rhs, lhs
        elif group == "left":
            many, one = lhs, rhs
        else:
            many, one = lhs, rhs  # one-to-one; names kept for error text

        one_index: dict[Labels, VectorElement] = {}
        for el in one:
            sig = self._signature(el.labels, matching)
            if sig in one_index:
                raise QueryError(
                    f"many-to-many matching: duplicate signature {sig} on the "
                    f"'one' side of {node.op}"
                )
            one_index[sig] = el

        out = _Vector()
        if group:
            emitted: set[Labels] = set()
            for el in many:
                sig = self._signature(el.labels, matching)
                partner = one_index.get(sig)
                if partner is None:
                    continue
                a, b = (el.value, partner.value) if group == "left" else (partner.value, el.value)
                value = self._apply_op(node.op, a, b)
                labels = el.labels.without_name()
                if matching and matching.include:
                    merged = labels.as_dict()
                    for name in matching.include:
                        value_from_one = partner.labels.get(name, "")
                        if value_from_one:
                            merged[name] = value_from_one
                        else:
                            merged.pop(name, None)
                    labels = Labels(merged)
                if comparison and not node.return_bool:
                    labels = el.labels
                if labels in emitted:
                    raise QueryError("multiple matches for labels: grouping labels must ensure unique matches")
                emitted.add(labels)
                if comparison and not node.return_bool:
                    if value:
                        out.append(VectorElement(el.labels, el.value))
                else:
                    out.append(VectorElement(labels, value))
            return out

        # one-to-one
        seen: set[Labels] = set()
        for el in lhs:
            sig = self._signature(el.labels, matching)
            if sig in seen:
                raise QueryError(f"many-to-many matching: duplicate signature {sig} on left side")
            seen.add(sig)
            partner = one_index.get(sig)
            if partner is None:
                continue
            value = self._apply_op(node.op, el.value, partner.value)
            if comparison and not node.return_bool:
                if value:
                    out.append(el)
            else:
                result_labels = sig if (matching and matching.on) else el.labels.without_name()
                out.append(VectorElement(result_labels, value))
        return out

    def _set_op(self, node: BinaryOp, lhs: _Vector, rhs: _Vector) -> _Vector:
        matching = node.matching
        rhs_sigs = {self._signature(el.labels, matching) for el in rhs}
        if node.op == "and":
            return _Vector(el for el in lhs if self._signature(el.labels, matching) in rhs_sigs)
        if node.op == "unless":
            return _Vector(el for el in lhs if self._signature(el.labels, matching) not in rhs_sigs)
        # or: all of lhs plus rhs elements whose signature is absent on lhs
        lhs_sigs = {self._signature(el.labels, matching) for el in lhs}
        out = _Vector(lhs)
        out.extend(el for el in rhs if self._signature(el.labels, matching) not in lhs_sigs)
        return out

    # -- coercion helpers -------------------------------------------------------
    def _eval_vector(self, node: Expr, at: float) -> _Vector:
        value = self._eval(node, at)
        if not isinstance(value, _Vector):
            raise QueryError("expected an instant vector")
        return value

    def _eval_scalar(self, node: Expr, at: float) -> float:
        value = self._eval(node, at)
        if isinstance(value, _Vector):
            raise QueryError("expected a scalar")
        return float(value)

    def _eval_string(self, node: Expr, at: float) -> str:
        value = self._eval(node, at)
        if not isinstance(value, str):
            raise QueryError("expected a string literal")
        return value


class PerStepEngine(ElementWalkEngine):
    """The walk with subquery windows synthesised one inner step at a
    time, each a full ``_eval`` (and a fresh ``select``)."""

    def _subquery_windows(self, node: Subquery, at: float):
        end = at - node.offset
        start = end - node.range_seconds
        step = node.step_seconds
        # Inner steps sit on the absolute grid ``m * step`` (Prometheus
        # subquery alignment), generated by index, never accumulated.
        acc: dict[Labels, tuple[list[float], list[float]]] = {}
        j = math.ceil(start / step)
        while j * step <= end + 1e-9:
            t = j * step
            value = self._eval(node.expr, t)
            if isinstance(value, _Vector):
                points = [(el.labels, el.value) for el in value]
            elif isinstance(value, (int, float)):
                points = [(Labels(), float(value))]
            else:
                points = []
            for labels, v in points:
                ts_list, vs_list = acc.setdefault(labels, ([], []))
                ts_list.append(t)
                vs_list.append(v)
            j += 1
        return [
            (labels, np.asarray(ts), np.asarray(vs), start, end)
            for labels, (ts, vs) in acc.items()
        ]


def query_range_per_step(
    engine, expr, start: float, end: float, step: float
) -> RangeResult:
    if step <= 0:
        raise QueryError("step must be positive")
    if end < start:
        raise QueryError("end before start")
    ast = parse_expr(expr) if isinstance(expr, str) else expr
    oracle = PerStepEngine.like(engine)
    acc: dict[Labels, tuple[list[float], list[float]]] = {}
    for t in range_steps(start, end, step).tolist():
        result = oracle.query(ast, t)
        if result.is_scalar:
            points = [(Labels(), result.scalar)]
        else:
            points = [(el.labels, el.value) for el in result.vector]
        for labels, value in points:
            ts, vs = acc.setdefault(labels, ([], []))
            ts.append(t)
            vs.append(value)
    series = {labels: (np.asarray(ts), np.asarray(vs)) for labels, (ts, vs) in acc.items()}
    return RangeResult(start=start, end=end, step=step, series=series)
