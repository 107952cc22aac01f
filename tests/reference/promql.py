"""A range query is the instant query at every step — the oracle.

:func:`query_range_per_step` is that sentence as a loop over
:meth:`PromQLEngine.query`; the columnar evaluator behind
:meth:`PromQLEngine.query_range` must return bit-identical results.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import QueryError
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine, RangeResult, range_steps
from repro.tsdb.promql.parser import parse_expr


def query_range_per_step(
    engine: PromQLEngine, expr, start: float, end: float, step: float
) -> RangeResult:
    if step <= 0:
        raise QueryError("step must be positive")
    if end < start:
        raise QueryError("end before start")
    ast = parse_expr(expr) if isinstance(expr, str) else expr
    acc: dict[Labels, tuple[list[float], list[float]]] = {}
    for t in range_steps(start, end, step).tolist():
        result = engine.query(ast, t)
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
