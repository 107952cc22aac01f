"""A grid is the instant query at every step — the oracle.

Two grids, two loops.  :func:`query_range_per_step` is "a range query
is the instant query at every step" as a loop over
:meth:`PromQLEngine.query`; the columnar evaluator behind
:meth:`PromQLEngine.query_range` must return bit-identical results.
:class:`PerStepEngine` is "a subquery window is the inner expression
at every inner step" as a loop over ``_eval`` — the walk's own
subquery code until the production walk started asking the columnar
evaluator for those windows.  The range oracle runs on it, so no
differential compares the columnar code with itself.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import QueryError
from repro.tsdb.model import Labels
from repro.tsdb.promql.ast import Subquery
from repro.tsdb.promql.engine import PromQLEngine, RangeResult, _Vector, range_steps
from repro.tsdb.promql.parser import parse_expr


class PerStepEngine(PromQLEngine):
    """The walk with subquery windows synthesised one inner step at a
    time, each a full ``_eval`` (and a fresh ``select``)."""

    @classmethod
    def like(cls, engine: PromQLEngine) -> "PerStepEngine":
        return cls(engine.storage, lookback=engine.lookback)

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
    engine: PromQLEngine, expr, start: float, end: float, step: float
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
