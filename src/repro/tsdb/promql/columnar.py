"""Columnar (vectorized) PromQL evaluation over a step grid.

Evaluating over a grid is by definition the instant AST walk of
:mod:`repro.tsdb.promql.engine` repeated at every step timestamp, but
doing it that way re-walks the AST and re-runs ``storage.select`` per
step: a 90-day query at 1 h resolution would be ~2160 full instant
evaluations, each doing fresh index intersections and per-series
bisects.  This module evaluates the whole grid in one pass instead —
the steps of a range query (:func:`eval_range_columnar`) and equally
the inner steps of a subquery.  Its window builder
(:func:`range_windows`) is the only one: the walk asks it for the
windows of a range function at its one step.

Its work is paid **once per AST node**, not once per series: the only
per-series steps left are reading a series' arrays and one
``searchsorted`` of the step grid into them.

* **Selectors.**  Every selector is resolved once per query (through
  the storage selector memo).  Each matched series' window
  (:meth:`query_window_arrays`) is searched once for all steps, then
  the series are laid back to back in **one flat** ``ts``/``vs`` pair
  with an ``(S, T)`` matrix of indices into it; lookback, staleness,
  gather and presence are a handful of ``(S, T)`` operations over the
  whole selector.  A one-series node uses the series' own arrays, no
  copy.
* **Range functions.**  A matrix selector or subquery becomes a
  :class:`Windows`: the flat pair plus ``(S, T)`` ``[lo, hi)`` bounds,
  staleness markers dropped by re-indexing the bounds through a prefix
  count of kept samples.  Every kernel in
  :data:`repro.tsdb.promql.functions.WINDOW_FUNCTIONS` takes bounds of
  any shape into one flat array, so a range function is **one kernel
  call per node**.
* **Aggregations** accumulate every group in one pass over the rows
  (below); binary operators and element functions are the numpy
  ufuncs of :mod:`repro.tsdb.promql.functions`, the walk's own,
  applied once to the whole ``(n_series × n_steps)`` matrix.

Values flow through evaluation as one of three shapes:

* :class:`_Matrix` — an instant vector per step: row labels plus a
  ``(S, T)`` value matrix and a same-shaped boolean **presence mask**.
  Presence is tracked separately from NaN because a present element
  may legitimately carry a NaN *value* (``0 / 0``), which aggregations
  must see, while an absent element must not participate at all.
* ``np.ndarray`` of shape ``(T,)`` — a scalar per step (always
  present, may be NaN-valued).
* ``str`` — a string literal.

**Labels.**  This module derives no label set of its own: every output
label tuple comes from a label half of :mod:`repro.tsdb.promql.engine`
(``_group_plan``, ``_match_plan``, ``_set_plan``, ``_bucket_plan``,
``_without_names``, ``_label_replace_plan``, ...), the walk's own,
taken through the expression's :class:`~repro.tsdb.promql.parser.PlanMemo`
under the node's grid key (``-id(node)``; the walk's is ``id(node)``).
A selector's or matrix selector's row labels enter as a leaf (compared
by value), so a query whose selectors return the series of last time
gets every plan of last time back, index arrays included, and hands
the very output label sets of last time to the renderer.
A plan lists its *clashes* — rows that must not be present at one step
together — and where the walk raises on any, a grid raises at the
earliest step two rows of one clash are present together; output rows
that share a label set at disjoint steps fold into one row, so no
``_Matrix`` holds a label set twice.

Bit-identity with the walk at every step is a hard contract (the
differential harness in ``tests/test_promql_reference.py`` asserts it
byte for byte against the per-step loops in
``tests/reference/promql.py``).  Values are computed by the one
implementation both evaluators share — window kernels, element
functions and operators from :mod:`repro.tsdb.promql.functions` —
and the label plans of :mod:`repro.tsdb.promql.engine`; what is left
here is order: accumulation (below) and where a clash raises.

**Accumulation order.**  ``sum``/``avg``/``stddev``/``stdvar`` must
equal the walk's ``_seq_sum``: each group accumulated
row-sequentially, in row order, **starting from +0.0** (so a group of
``-0.0`` members sums to ``+0.0``), absent cells adding an exact
``+0.0``.  The primitive is ``np.add.at`` into a zeroed ``(G, T)``
accumulator — unbuffered, it adds row ``r`` into its group's row for
``r`` in order, all groups in one pass.  It was chosen by measurement
at 41 steps against an axis-0 reduce (whose order numpy does not fix:
a one-step grid reduces pairwise) and a rank-by-rank loop (slow for
one group of many rows): it was never slower than the per-group loop
it replaced, from one group of 1000 rows to 1000 groups of one.
``count``, ``min`` and ``max`` use ``reduceat`` over the rows sorted
stably by group: a count is exact in any order, and a minimum or
maximum differs between orders only in which of ``+0.0``/``-0.0``
wins a tie, which the walk's ``np.min``/``np.max`` do not fix either.

Known, deliberate divergence: ``sort()`` inside a *range* query is an
ordering no-op (range results are keyed by labels, not ordered), so an
aggregation nested *outside* a ``sort()``/``topk()`` may accumulate in
a different element order than the walk.  Prometheus itself
defines sort order only for instant-query presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.common.errors import QueryError
from repro.obs import prof
from repro.obs import query as obsquery
from repro.tsdb.model import Labels
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
    VectorSelector,
)
from repro.tsdb.promql.engine import (
    OUT,
    SCALAR_LABELS,
    PromQLEngine,
    _absent_plan,
    _as_is,
    _bucket_plan,
    _group_plan,
    _label_join_plan,
    _label_replace_plan,
    _match_plan,
    _same_labelsets,
    _set_plan,
    _without_names,
)
from repro.tsdb.promql.functions import (
    BINARY_OPERATORS,
    ELEMENT_FUNCTIONS,
    WINDOW_FUNCTIONS,
    histogram_bucket_quantile,
    quantile,
    topk_counts,
)
from repro.tsdb.promql.parser import Kept, PlanMemo

#: Process-wide columnar-evaluator counters (self-telemetry): range
#: queries evaluated plus per-query memo hits.  Module level because
#: evaluator instances are per-query throwaways.  ``instant_queries``
#: stays at 0 now that instants never come here: its exported series
#: is kept so the scraped series population — which the pipeline
#: bench's digest counts — is unchanged.
COLUMNAR_STATS = {
    "range_queries": 0,
    "instant_queries": 0,
    "selector_memo_hits": 0,
    "window_memo_hits": 0,
}


@dataclass
class _Matrix:
    """An instant vector at every step: rows are elements, columns steps.
    No two rows hold the same label set."""

    labels: tuple[Labels, ...]
    values: np.ndarray  # (S, T) float64
    present: np.ndarray  # (S, T) bool

    @property
    def nrows(self) -> int:
        return len(self.labels)


def _raise_first_clash(clashes: list, presences: tuple) -> None:
    """Raise the clash of a label plan (``engine``'s label halves) that
    the walk at every step meets first: at the earliest step where two
    of its rows are present together, the first listed on a tie.
    ``presences`` holds the lhs, rhs and output presence masks."""
    first = None
    for message, side, rows in clashes:
        together = presences[side][rows].sum(axis=0) > 1
        if together.any():
            step = int(together.argmax())
            if first is None or step < first[0]:
                first = (step, message)
    if first is not None:
        raise QueryError(first[1])


def _folded(labels: tuple, values: np.ndarray, present: np.ndarray, clashes: list) -> _Matrix:
    """The rows of every output clash — one label set, present at
    disjoint steps once :func:`_raise_first_clash` passed — folded into
    the first, so one series carries each label set.  A row clashing
    with itself was never present, and is dropped."""
    groups = [rows for _message, side, rows in clashes if side == OUT]
    if not groups:
        return _Matrix(labels, values, present)
    values, present = values.copy(), present.copy()
    for head, *rest in groups:
        for row in rest:
            np.copyto(values[head], values[row], where=present[row])
            present[head] |= present[row]
    keep = np.delete(np.arange(len(labels)), [row for rows in groups for row in rows[1:]])
    return _Matrix(tuple([labels[i] for i in keep.tolist()]), values[keep], present[keep])


def _grid_groups(kept: Kept, node: Aggregation, labels: tuple) -> tuple:
    """``_group_plan`` as one pass over the rows wants it: the output
    keys, the rows in group order (``order``, group ``g`` from
    ``bounds[g]``) and each row's group (``gid``).  A lone group's rows
    already are in order."""
    keys, members = _group_plan(kept, node, labels)
    G, S = len(keys), len(labels)
    if G <= 1:
        return keys, slice(None), np.zeros(S, dtype=np.intp), np.zeros(1, dtype=np.intp)
    order = np.fromiter(chain.from_iterable(members), dtype=np.intp, count=S)
    sizes = np.fromiter(map(len, members), dtype=np.intp, count=G)
    bounds = np.zeros(G, dtype=np.intp)
    sizes[:-1].cumsum(out=bounds[1:])
    gid = np.empty(S, dtype=np.intp)
    gid[order] = np.repeat(np.arange(G), sizes)
    return keys, order, gid, bounds


def _grid_match(kept: Kept, node: BinaryOp, lhs: tuple, rhs: tuple) -> tuple:
    """``_match_plan`` with its pair indices as gather arrays."""
    labels, l_idx, r_idx, clashes = _match_plan(kept, node, lhs, rhs)
    return labels, np.asarray(l_idx, dtype=np.intp), np.asarray(r_idx, dtype=np.intp), clashes


def _grid_set(kept: Kept, node: BinaryOp, lhs: tuple, rhs: tuple) -> tuple:
    """``_set_plan``'s signature groups as index arrays, the number of
    group rows (one more, always absent, for a signature the other side
    lacks), and for ``or`` its rows — every row of both sides — with
    their clashes."""
    _labels, _l_idx, _r_idx, (member, groups) = _set_plan(kept, node, lhs, rhs)
    rows = None
    if node.op == "or":
        # An rhs row holding an lhs row's labels shares its signature,
        # so it only fills that row's gaps.
        rows = lhs + rhs
        rows = (rows, _same_labelsets(rows))
    return (
        np.asarray(member, dtype=np.intp),
        np.asarray(groups, dtype=np.intp),
        max(groups, default=-1) + 2,
        rows,
    )


def _relabelled(plan: tuple, values: np.ndarray, present: np.ndarray) -> _Matrix:
    """A one-input node's output from its ``(labels, clashes)`` plan."""
    labels, clashes = plan
    _raise_first_clash(clashes, (None, None, present))
    return _folded(labels, values, present, clashes)


@dataclass
class Windows:
    """The range-vector windows of one matrix selector or subquery.

    Every row's samples sit back to back in one flat ``ts``/``vs``
    pair, staleness markers dropped; ``los``/``his`` are ``(S, T)``
    ``[lo, hi)`` indices into it, one window per row and step, each
    inside its own row's samples, and ``starts``/``ends`` each step's
    window ``[start, end]``.
    """

    labels: tuple[Labels, ...]
    ts: np.ndarray
    vs: np.ndarray
    los: np.ndarray  # (S, T) intp
    his: np.ndarray  # (S, T) intp
    starts: np.ndarray  # (T,)
    ends: np.ndarray  # (T,)


def _flatten(
    ts_parts: list[np.ndarray], vs_parts: list[np.ndarray], bounds: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Samples ``[a, b)`` of every series, ``bounds[i] == (a, b)``, laid
    back to back in one flat ``ts``/``vs`` pair, plus where each series'
    samples start in it (and, last, where they end).  Only the samples
    some step can reach are copied — both arrays in one copy — and one
    series' are views of its own arrays: what a kernel scans is the
    reachable samples, never a series' whole history."""
    if len(ts_parts) == 1:
        ((a, b),) = bounds
        return ts_parts[0][a:b], vs_parts[0][a:b], [0, b - a]
    offsets = [0]
    ts_pieces: list[np.ndarray] = []
    vs_pieces: list[np.ndarray] = []
    for ts_a, vs_a, (a, b) in zip(ts_parts, vs_parts, bounds):
        ts_pieces.append(ts_a[a:b])
        vs_pieces.append(vs_a[a:b])
        offsets.append(offsets[-1] + (b - a))
    n = offsets[-1]
    flat = np.concatenate(ts_pieces + vs_pieces) if ts_pieces else np.zeros(0)
    return flat[:n], flat[n:], offsets


def eval_range_columnar(
    engine: PromQLEngine, ast: Expr, steps: np.ndarray, memo: PlanMemo
) -> dict[Labels, tuple[np.ndarray, np.ndarray]]:
    """Evaluate ``ast`` at every step, label plans from ``memo`` (the
    expression's); returns RangeResult.series data."""
    COLUMNAR_STATS["range_queries"] += 1
    ev = _ColumnarEval(engine, steps, memo)
    # Prometheus's IEEE answers (NaN, ±Inf) are values, not warnings.
    with np.errstate(all="ignore"):
        return ev.materialize(ev.eval(ast))


def range_windows(
    engine: PromQLEngine, node: MatrixSelector | Subquery, steps: np.ndarray, memo: PlanMemo
) -> Windows:
    """The windows of ``node`` ending at every one of ``steps``: the one
    window builder, for a range query's grid and for the walk's one
    step alike.  A matrix selector's row labels are a leaf plan of
    ``memo`` under the node's grid key."""
    return _ColumnarEval(engine, steps, memo)._windows(node)


class _ColumnarEval:
    def __init__(self, engine: PromQLEngine, steps: np.ndarray, memo: PlanMemo) -> None:
        self.engine = engine
        self.memo = memo
        self.storage = engine.storage
        self.lookback = engine.lookback
        self.steps = steps
        self.T = len(steps)
        # Per-query memos: identical selector / matrix-selector nodes
        # (e.g. rate(m[5m]) + increase(m[5m])) are resolved once.
        self._selector_memo: dict[Expr, _Matrix] = {}
        self._window_memo: dict[Expr, Windows] = {}

    def _plan(self, node: Expr, inputs: tuple, build, *consts, leaf: bool = False):
        """The label half of ``node`` under its grid key."""
        return self.memo.plan(-id(node), inputs, build, *consts, leaf=leaf)

    # -- materialization -------------------------------------------------
    def materialize(self, value) -> dict[Labels, tuple[np.ndarray, np.ndarray]]:
        steps = self.steps
        if isinstance(value, _Matrix):
            acc: dict[Labels, tuple[np.ndarray, np.ndarray]] = {}
            counts = value.present.sum(axis=1).tolist()
            for i, (labels, count) in enumerate(zip(value.labels, counts)):
                if not count:
                    continue
                if count == len(steps):
                    acc[labels] = (steps.copy(), value.values[i].copy())
                else:
                    pres = value.present[i]
                    acc[labels] = (steps[pres], value.values[i][pres])
            return acc
        if isinstance(value, np.ndarray):
            if not len(steps):
                return {}
            return {SCALAR_LABELS[0]: (steps.copy(), np.asarray(value, dtype=np.float64))}
        # String expressions accumulate nothing, as in the per-step loop.
        return {}

    # -- dispatch --------------------------------------------------------
    def eval(self, node: Expr):
        if isinstance(node, NumberLiteral):
            return np.full(self.T, float(node.value))
        if isinstance(node, StringLiteral):
            return node.value
        if isinstance(node, Paren):
            return self.eval(node.expr)
        if isinstance(node, UnaryOp):
            inner = self.eval(node.expr)
            if isinstance(inner, _Matrix):
                return _relabelled(self._plan(node, (inner.labels,), _without_names), -inner.values, inner.present)
            return -inner
        if isinstance(node, VectorSelector):
            return self._selector(node)
        if isinstance(node, (MatrixSelector, Subquery)):
            raise QueryError("range selector only valid as a range-function argument")
        if isinstance(node, Call):
            return self._call(node)
        if isinstance(node, Aggregation):
            return self._aggregation(node)
        if isinstance(node, BinaryOp):
            return self._binary(node)
        raise QueryError(f"cannot evaluate node {node!r}")

    # -- coercions -------------------------------------------------------
    def _vector(self, node: Expr) -> _Matrix:
        value = self.eval(node)
        if not isinstance(value, _Matrix):
            raise QueryError("expected an instant vector")
        return value

    def _scalar(self, node: Expr) -> np.ndarray:
        value = self.eval(node)
        if isinstance(value, _Matrix):
            raise QueryError("expected a scalar")
        if isinstance(value, str):
            return np.full(self.T, float(value))
        return value

    def _string(self, node: Expr) -> str:
        value = self.eval(node)
        if not isinstance(value, str):
            raise QueryError("expected a string literal")
        return value

    # -- selectors -------------------------------------------------------
    def _selector(self, node: VectorSelector) -> _Matrix:
        cached = self._selector_memo.get(node)
        if cached is not None:
            COLUMNAR_STATS["selector_memo_hits"] += 1
            return cached
        # Module-attribute call on purpose: the per-query stats hooks
        # stay swappable for the disabled-overhead bench.
        series_list = obsquery.tracked_select(self.storage, node.matchers)
        ats = self.steps - node.offset
        S = len(series_list)
        # Chunk-granular pruning: only samples in
        # [first step - lookback, last step] can be selected, and
        # pruned-out older samples can never shadow the
        # last-sample-<=-at search (they'd fail the lookback test
        # anyway), so a contiguous superset read is bit-identical.
        lo_bound = float(ats[0]) - self.lookback
        hi_bound = float(ats[-1])
        labels: list[Labels] = []
        ts_parts: list[np.ndarray] = []
        vs_parts: list[np.ndarray] = []
        # found[i, j]: how many of row i's samples are <= ats[j].
        found = np.empty((S, self.T), dtype=np.intp)
        for i, series in enumerate(series_list):
            labels.append(series.labels)
            ts_a, vs_a = series.query_window_arrays(lo_bound, hi_bound)
            found[i] = ts_a.searchsorted(ats, side="right")
            ts_parts.append(ts_a)
            vs_parts.append(vs_a)
        # Only each row's samples from the one before the first step
        # to the last step's are ever gathered.
        lo = np.maximum(found[:, 0] - 1, 0)
        ts, vs, offsets = _flatten(ts_parts, vs_parts, list(zip(lo.tolist(), found[:, -1].tolist())))
        if len(ts):
            present = found > 0
            idx = found + (np.array(offsets[:-1]) - lo - 1)[:, None]  # flat index of that last sample
            t_found = ts[idx]
            v_found = vs[idx]
            present &= t_found > ats - self.lookback
            present &= v_found == v_found  # False only for NaN, the staleness marker
            values = np.where(present, v_found, np.nan)
        else:
            present = np.zeros((S, self.T), dtype=bool)
            values = np.full((S, self.T), np.nan)
        obsquery.record_samples(int(present.sum()))
        mat = _Matrix(self._plan(node, (tuple(labels),), _as_is, leaf=True), values, present)
        self._selector_memo[node] = mat
        return mat

    # -- range-vector windows --------------------------------------------
    def _window_data(self, node) -> Windows:
        """The flat windows of a matrix selector / subquery, once per
        query for equal nodes."""
        cached = self._window_memo.get(node)
        if cached is not None:
            COLUMNAR_STATS["window_memo_hits"] += 1
            return cached
        win = self._window_memo[node] = self._windows(node)
        return win

    def _windows(self, node) -> Windows:
        if isinstance(node, Subquery):
            return self._subquery_window_data(node)
        return self._matrix_window_data(node)

    def _matrix_window_data(self, node: MatrixSelector) -> Windows:
        ends = self.steps - node.selector.offset
        starts = ends - node.range_seconds
        series_list = obsquery.tracked_select(self.storage, node.selector.matchers)
        labels = self._plan(node, (tuple([series.labels for series in series_list]),), _as_is, leaf=True)
        if not labels:
            return self._no_windows(starts, ends)
        T = self.T
        # Every bound of a series in one search: a window holds
        # ``start <= t <= end``, and ``t <= end`` is ``t < nextafter(end)``.
        edges = np.concatenate((starts, np.nextafter(ends, np.inf)))
        # Windows only ever span [first start, last end]; chunks
        # outside that never contribute, so skip decoding them.
        lo_bound = float(starts[0])
        hi_bound = float(ends[-1])
        ts_parts: list[np.ndarray] = []
        vs_parts: list[np.ndarray] = []
        cuts: list[np.ndarray] = []  # per series, every window's lo, then every hi
        for series in series_list:
            ts_a, vs_a = series.query_window_arrays(lo_bound, hi_bound)
            ts_parts.append(ts_a)
            vs_parts.append(vs_a)
            cuts.append(ts_a.searchsorted(edges))
        if T == 1:
            # A series' one window is all of its samples that are
            # copied: the flat offsets are the bounds.
            ts, vs, offsets = _flatten(ts_parts, vs_parts, [cut.tolist() for cut in cuts])
            at = np.array(offsets)
            los, his = at[:-1, None], at[1:, None]
        else:
            cut = np.array(cuts)  # (S, 2T)
            ts, vs, offsets = _flatten(ts_parts, vs_parts, list(zip(cut[:, 0].tolist(), cut[:, -1].tolist())))
            cut += (np.array(offsets[:-1]) - cut[:, 0])[:, None]
            los, his = cut[:, :T], cut[:, T:]
        nan = np.isnan(vs)
        if np.count_nonzero(nan):
            # Staleness markers delimit a series' life; range functions
            # never see them.  Dropping them re-indexes every bound by
            # the kept samples before it — the same sample set as the
            # reference's filter-after-slice.
            keep = ~nan
            kept_before = np.zeros(len(vs) + 1, dtype=np.intp)
            np.cumsum(keep, out=kept_before[1:])
            los = kept_before[los]
            his = kept_before[his]
            ts, vs = ts[keep], vs[keep]
        obsquery.record_samples(int(np.add.reduce(his - los, axis=None)))
        return Windows(labels, ts, vs, los, his, starts, ends)

    def _subquery_window_data(self, node: Subquery) -> Windows:
        """Range-vector windows from an instant sub-expression.

        Subquery steps live on the absolute grid ``m * step`` (exactly
        the reference's index-generated timestamps), so one inner
        columnar evaluation over the union grid serves every window.
        """
        ends = self.steps - node.offset
        starts = ends - node.range_seconds
        sstep = node.step_seconds
        k_lo = np.ceil(starts / sstep).astype(np.int64)
        k_hi = np.floor((ends + 1e-9) / sstep).astype(np.int64)
        # One-ULP corrections so membership exactly matches the
        # reference's `t <= end + 1e-9` loop condition.
        k_hi += ((k_hi + 1) * sstep <= ends + 1e-9).astype(np.int64)
        k_hi -= (k_hi * sstep > ends + 1e-9).astype(np.int64)
        if not len(k_lo) or k_hi.max() < k_lo.min():
            return self._no_windows(starts, ends)
        m0 = int(k_lo.min())
        grid = np.arange(m0, int(k_hi.max()) + 1, dtype=np.int64) * sstep
        inner = _ColumnarEval(self.engine, grid, self.memo).eval(node.expr)
        if isinstance(inner, np.ndarray):
            inner = _Matrix(
                SCALAR_LABELS,
                np.asarray(inner, dtype=np.float64).reshape(1, -1),
                np.ones((1, len(grid)), dtype=bool),
            )
        elif not isinstance(inner, _Matrix):
            return self._no_windows(starts, ends)  # string sub-expression
        # Row i's window is its present points at grid positions
        # [k_lo - m0, k_hi - m0].  Laid out row-major, a present point's
        # flat index is its place among all present points, so a bound
        # is the count of present positions before (row i, position).
        S, G = inner.present.shape
        at = np.flatnonzero(inner.present)  # i * G + g of each present point
        row_base = np.arange(-m0, S * G - m0, G, dtype=np.intp)[:, None]
        los = at.searchsorted(row_base + k_lo)
        his = at.searchsorted(row_base + (k_hi + 1))
        # NaN *values* are kept: the reference only filters
        # staleness markers for raw matrix selectors, not for
        # synthesised subquery windows.
        ts = grid[at % G]
        vs = inner.values[inner.present]
        return Windows(inner.labels, ts, vs, los, his, starts, ends)

    def _no_windows(self, starts: np.ndarray, ends: np.ndarray) -> Windows:
        empty = np.zeros((0, self.T), dtype=np.intp)
        return Windows((), np.zeros(0), np.zeros(0), empty, empty, starts, ends)

    # -- calls -----------------------------------------------------------
    def _call(self, node: Call):
        func = node.func
        if func in WINDOW_FUNCTIONS:
            if len(node.args) != 1 or not isinstance(node.args[0], (MatrixSelector, Subquery)):
                raise QueryError(f"{func}() expects a single range-vector argument")
            win = self._window_data(node.args[0])
            with prof.profile(f"promql.kernel.{func}"):
                values = WINDOW_FUNCTIONS[func](
                    win.ts, win.vs, win.los, win.his, win.starts, win.ends
                )
            # A NaN kernel result is no element.
            return _relabelled(self._plan(node, (win.labels,), _without_names), values, ~np.isnan(values))
        if func == "quantile_over_time":
            if len(node.args) != 2 or not isinstance(node.args[1], (MatrixSelector, Subquery)):
                raise QueryError("quantile_over_time(scalar, range-vector) expected")
            q = self._scalar(node.args[0]).tolist()
            win = self._window_data(node.args[1])
            present = win.his > win.los  # NaN quantiles stay present
            values = np.full(present.shape, np.nan)
            rows, cols = np.nonzero(present)
            vs = win.vs
            for i, j, lo, hi in zip(
                rows.tolist(), cols.tolist(), win.los[present].tolist(), win.his[present].tolist()
            ):
                values[i, j] = quantile(q[j], vs[lo:hi])
            return _relabelled(self._plan(node, (win.labels,), _without_names), values, present)
        if func in ELEMENT_FUNCTIONS:
            return self._element_call(node)
        return self._special(node)

    def _element_call(self, node: Call) -> _Matrix:
        func = node.func
        if not node.args:
            raise QueryError(f"{func}() needs at least one argument")
        vec = self._vector(node.args[0])
        extras = [self._scalar(arg) for arg in node.args[1:]]
        values = np.where(vec.present, ELEMENT_FUNCTIONS[func](vec.values, *extras), np.nan)
        return _relabelled(self._plan(node, (vec.labels,), _without_names), values, vec.present)

    # -- special forms ---------------------------------------------------
    def _special(self, node: Call):
        func = node.func
        T = self.T
        if func == "time":
            return self.steps.copy()
        if func == "scalar":
            vec = self._vector(node.args[0])
            out = np.full(T, np.nan)
            if vec.nrows:
                counts = vec.present.sum(axis=0)
                first = np.argmax(vec.present, axis=0)
                chosen = vec.values[first, np.arange(T)]
                one = counts == 1
                out[one] = chosen[one]
            return out
        if func == "vector":
            value = self._scalar(node.args[0])
            return _Matrix(
                SCALAR_LABELS,
                np.asarray(value, dtype=np.float64).reshape(1, -1).copy(),
                np.ones((1, T), dtype=bool),
            )
        if func == "timestamp":
            vec = self._vector(node.args[0])
            values = np.where(vec.present, self.steps, np.nan)
            return _relabelled(self._plan(node, (vec.labels,), _without_names), values, vec.present)
        if func == "absent":
            vec = self._vector(node.args[0])
            present = ~vec.present.any(axis=0, keepdims=True)
            return _Matrix(self._plan(node, ((),), _absent_plan, node), np.where(present, 1.0, np.nan), present)
        if func in ("sort", "sort_desc"):
            # Ordering is instant-query presentation; range results are
            # keyed by labels.
            return self._vector(node.args[0])
        if func == "label_replace":
            if len(node.args) != 5:
                raise QueryError("label_replace(v, dst, replacement, src, regex) expected")
            vec = self._vector(node.args[0])
            strings = [self._string(a) for a in node.args[1:]]
            return _relabelled(self._plan(node, (vec.labels,), _label_replace_plan, *strings), vec.values, vec.present)
        if func == "histogram_quantile":
            if len(node.args) != 2:
                raise QueryError("histogram_quantile(scalar, vector) expected")
            q = self._scalar(node.args[0])
            vec = self._vector(node.args[1])
            # The walk's bucket groups, then the shared bucketQuantile
            # helper per present column — same pairs, same helper,
            # bit-identical to the per-step path.
            keys, rows, bounds = self._plan(node, (vec.labels,), _bucket_plan)
            qs = q.tolist()
            out_values = np.full((len(keys), T), np.nan)
            out_present = np.zeros((len(keys), T), dtype=bool)
            for g, (members, les) in enumerate(zip(rows, bounds)):
                pres = vec.present[members]
                col_present = pres.any(axis=0)
                out_present[g] = col_present
                # One tolist of the group's slice: columns of plain
                # floats, the walk's element values.
                cols_v = vec.values[members].T.tolist()
                cols_p = pres.T.tolist()
                for j in np.flatnonzero(col_present).tolist():
                    buckets = [
                        (le, v) for le, v, p in zip(les, cols_v[j], cols_p[j]) if p
                    ]
                    out_values[g, j] = histogram_bucket_quantile(qs[j], buckets)
            return _Matrix(keys, out_values, out_present)
        if func == "label_join":
            if len(node.args) < 3:
                raise QueryError("label_join(v, dst, sep, src...) expected")
            vec = self._vector(node.args[0])
            dst = self._string(node.args[1])
            sep = self._string(node.args[2])
            sources = tuple(self._string(a) for a in node.args[3:])
            plan = self._plan(node, (vec.labels,), _label_join_plan, dst, sep, sources)
            return _relabelled(plan, vec.values, vec.present)
        raise QueryError(f"unknown function {func!r}")

    # -- aggregations ----------------------------------------------------
    def _aggregation(self, node: Aggregation) -> _Matrix:
        vec = self._vector(node.expr)
        param = self._scalar(node.param) if node.param is not None else None
        keys, order, gid, bounds = self._plan(node, (vec.labels,), _grid_groups, node)
        G = len(keys)
        op = node.op
        ranks = op in ("topk", "bottomk")
        if ranks:
            if param is None:
                raise QueryError(f"{op} requires a parameter")
            k_cols = topk_counts(param)
        if not G:
            return vec  # nothing to aggregate
        if ranks:
            return self._topk(node, vec, gid, bounds, k_cols)

        values, present = vec.values, vec.present
        count = np.add.reduceat(present[order].astype(np.intp), bounds, axis=0)
        col_present = count > 0
        if op in ("sum", "avg", "stddev", "stdvar"):
            vals = self._group_sums(gid, np.where(present, values, 0.0), G)
            if op == "avg":
                vals = vals / count
            elif op in ("stddev", "stdvar"):
                dev = values - (vals / count)[gid]
                vals = self._group_sums(gid, np.where(present, dev * dev, 0.0), G) / count
                if op == "stddev":
                    vals = np.sqrt(vals)
        elif op == "min":
            vals = np.minimum.reduceat(
                np.where(present, values, np.inf)[order], bounds, axis=0
            )
        elif op == "max":
            vals = np.maximum.reduceat(
                np.where(present, values, -np.inf)[order], bounds, axis=0
            )
        elif op == "count":
            vals = count.astype(np.float64)
        elif op == "quantile":
            if param is None:
                raise QueryError("quantile requires a parameter")
            vals = self._group_quantiles(param.tolist(), values[order], present[order], bounds)
        else:
            raise QueryError(f"unknown aggregation {op!r}")
        return _Matrix(keys, np.where(col_present, vals, np.nan), col_present)

    @staticmethod
    def _group_sums(gid: np.ndarray, masked: np.ndarray, G: int) -> np.ndarray:
        """Per-group column sums of ``masked``, every group accumulated
        row-sequentially from an exact +0.0 — the walk's ``_seq_sum``
        (module docstring, "Accumulation order")."""
        acc = np.zeros((G, masked.shape[1]))
        np.add.at(acc, gid, masked)
        return acc

    @staticmethod
    def _group_quantiles(q: list[float], values, present, bounds) -> np.ndarray:
        """``quantile`` per group and present column over rows sorted by
        group: ``np.quantile`` has no grouped form, so each group's
        slice is one ``tolist``."""
        ends = [*bounds.tolist()[1:], len(values)]
        out = np.full((len(bounds), len(q)), np.nan)
        for g, (lo, hi) in enumerate(zip(bounds.tolist(), ends)):
            cols_v = values[lo:hi].T.tolist()
            cols_p = present[lo:hi].T.tolist()
            for j, (vs, ps) in enumerate(zip(cols_v, cols_p)):
                members = [v for v, p in zip(vs, ps) if p]
                if members:
                    out[g, j] = quantile(q[j], members)
        return out

    def _topk(self, node, vec: _Matrix, gid: np.ndarray, bounds: np.ndarray, k_cols) -> _Matrix:
        op = node.op
        # Every column ranked at once: rows sorted by group, then by
        # value (stable, absent last), and a row's rank is its place
        # after its group's first.
        if op == "topk":
            key = -np.where(vec.present, vec.values, -np.inf)
        else:
            key = np.where(vec.present, vec.values, np.inf)
        S = vec.nrows
        by_group = np.broadcast_to(gid[:, None], key.shape)
        ranked = np.lexsort((key, by_group), axis=0)
        ranks = np.empty_like(ranked)
        np.put_along_axis(
            ranks,
            ranked,
            np.broadcast_to(np.arange(S).reshape(-1, 1), ranked.shape),
            axis=0,
        )
        # topk keeps the original element labels (incl. name).
        keep = vec.present & (ranks - bounds[gid][:, None] < k_cols)
        return _Matrix(vec.labels, np.where(keep, vec.values, np.nan), keep)

    # -- binary operators ------------------------------------------------
    def _binary(self, node: BinaryOp):
        lhs = self.eval(node.lhs)
        rhs = self.eval(node.rhs)
        lhs_mat = isinstance(lhs, _Matrix)
        rhs_mat = isinstance(rhs, _Matrix)
        if node.op in ("and", "or", "unless"):
            if not (lhs_mat and rhs_mat):
                raise QueryError(f"set operator {node.op} requires vector operands")
            return self._set_op(node, lhs, rhs)
        if lhs_mat and rhs_mat:
            return self._vector_vector(node, lhs, rhs)
        if lhs_mat or rhs_mat:
            return self._vector_scalar(node, lhs, rhs, scalar_on_right=not rhs_mat)
        return self._scalar_scalar(node, lhs, rhs)

    def _as_scalar_array(self, value) -> np.ndarray:
        if isinstance(value, str):
            return np.full(self.T, float(value))
        return value

    def _scalar_scalar(self, node: BinaryOp, lhs, rhs) -> np.ndarray:
        if node.op in COMPARISON_OPS and not node.return_bool:
            raise QueryError("comparisons between scalars must use the bool modifier")
        result = BINARY_OPERATORS[node.op](self._as_scalar_array(lhs), self._as_scalar_array(rhs))
        return result.astype(np.float64, copy=False)

    def _vector_scalar(self, node: BinaryOp, lhs, rhs, *, scalar_on_right: bool) -> _Matrix:
        vec: _Matrix = lhs if scalar_on_right else rhs
        scal = self._as_scalar_array(rhs if scalar_on_right else lhs)
        a = vec.values if scalar_on_right else scal
        b = scal if scalar_on_right else vec.values
        result = BINARY_OPERATORS[node.op](a, b)
        if node.op in COMPARISON_OPS and not node.return_bool:
            present = vec.present & result
            # Filter semantics: kept elements are unchanged.
            return _Matrix(vec.labels, np.where(present, vec.values, np.nan), present)
        values = np.where(vec.present, result, np.nan)
        return _relabelled(self._plan(node, (vec.labels,), _without_names), values, vec.present)

    def _vector_vector(self, node: BinaryOp, lhs: _Matrix, rhs: _Matrix) -> _Matrix:
        """One gather of every matched pair and one operation over them."""
        labels, l_idx, r_idx, clashes = self._plan(node, (lhs.labels, rhs.labels), _grid_match, node)
        a, b = lhs.values[l_idx], rhs.values[r_idx]
        present = lhs.present[l_idx] & rhs.present[r_idx]
        _raise_first_clash(clashes, (lhs.present, rhs.present, present))
        values = BINARY_OPERATORS[node.op](a, b)
        if node.op in COMPARISON_OPS and not node.return_bool:
            present &= values
            # The many side's element is kept.
            values = b if node.matching is not None and node.matching.group == "right" else a
        return _folded(labels, np.where(present, values, np.nan), present, clashes)

    def _set_op(self, node: BinaryOp, lhs: _Matrix, rhs: _Matrix) -> _Matrix:
        """Membership per step: a row's signature group is present on
        the other side where any of the group's rows is."""
        member, groups, group_rows, rows = self._plan(node, (lhs.labels, rhs.labels), _grid_set, node)
        other = lhs if node.op == "or" else rhs
        seen = np.zeros((group_rows, self.T), dtype=bool)
        np.logical_or.at(seen, groups, other.present)
        hit = seen[member]
        if node.op == "and":
            present = lhs.present & hit
        elif node.op == "unless":
            present = lhs.present & ~hit
        else:
            present = np.vstack([lhs.present, rhs.present & ~hit])
            values = np.vstack([lhs.values, rhs.values])
            return _relabelled(rows, np.where(present, values, np.nan), present)
        return _Matrix(lhs.labels, np.where(present, lhs.values, np.nan), present)
