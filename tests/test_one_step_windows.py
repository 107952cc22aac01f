"""The walk's one-step windows against the scalar oracle.

The walk asks the one window builder (``columnar.range_windows``) for a
grid of one step and makes one kernel call over every series.  At one
step the builder lays each series' window out back to back and takes
the bounds from where each series' samples land in the flat pair, and
the counter kernel masks short windows by their sampled interval; the
differential here holds that to ``tests/reference/promql.py``: its
per-series ``series.window`` read (staleness markers filtered out) and
its scalar range functions, bit for bit, for every window function.

The generated stores cover no matching series, one series (whose
window is a view of its own arrays), several, staleness markers,
counter resets inside a window, ``offset``, windows too short for two
samples, and samples that were appended after the last read and are
still staged when the builder reads them (the builder reads first; the
oracle's read flushes).
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb.model import Labels
from repro.tsdb.promql.columnar import range_windows
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.promql.functions import WINDOW_FUNCTIONS
from repro.tsdb.promql.parser import parse_expr, plan_memo
from repro.tsdb.storage import TSDB
from tests.reference.promql import RANGE_FUNCTIONS, ElementWalkEngine

#: One series: per sample, the gap to the previous one and a value step
#: (negative: a counter reset; ``None``: a staleness marker), and how
#: many of its samples are read (flushed) before the rest are appended.
_series = st.tuples(
    st.lists(
        st.tuples(
            st.sampled_from([1.0, 5.0, 15.0, 15.0, 30.0, 45.0]),
            st.one_of(st.none(), st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=32)),
        ),
        min_size=1,
        max_size=25,
    ),
    st.integers(min_value=0, max_value=25),
)


def _bits(values) -> list[bytes]:
    """Each float's bytes; every NaN alike (a NaN is no element)."""
    return [b"NaN" if v != v else struct.pack("<d", v) for v in values]


def _store(layout) -> tuple[TSDB, float]:
    db = TSDB()
    db.append(Labels({"__name__": "other"}), 0.0, 1.0)  # a store that holds no `c` at all
    newest = 0.0
    for i, (samples, flushed) in enumerate(layout):
        labels = Labels({"__name__": "c", "i": str(i)})
        t, v = 1000.0, 100.0
        for k, (gap, step) in enumerate(samples):
            t += gap
            if step is None:
                value = float("nan")
            else:
                v = v + step if step >= 0 else -step  # a drop is a reset to a small value
                value = v
            if k == flushed and k:
                db._series[labels].arrays()  # what follows stays staged
            db.append(labels, t, value)
        newest = max(newest, t)
    return db, newest


@settings(max_examples=250, deadline=None)
@given(
    layout=st.lists(_series, min_size=0, max_size=4),
    range_s=st.sampled_from([10.0, 30.0, 60.0, 120.0]),
    offset=st.sampled_from([0.0, 15.0, 40.0]),
    back=st.sampled_from([0.0, 7.0, 20.0, 90.0]),
)
def test_one_step_windows_equal_the_scalar_oracle(layout, range_s, offset, back):
    db, newest = _store(layout)
    at = newest - back
    text = f"c[{int(range_s)}s]" + (f" offset {int(offset)}s" if offset else "")
    node = parse_expr.__wrapped__(f"rate({text})").args[0]
    engine = PromQLEngine(db)
    # The builder reads first, while the late samples are still staged.
    win = range_windows(engine, node, np.array([at]), plan_memo(node))
    oracle = ElementWalkEngine(db)._windows(node, at)

    assert list(win.labels) == [labels for labels, *_ in oracle]
    assert win.los.shape == win.his.shape == (len(oracle), 1)
    end = at - node.selector.offset
    assert _bits(win.ends) == _bits([end]) and _bits(win.starts) == _bits([end - node.range_seconds])
    for row, (_labels, w_ts, w_vs, _start, _end) in enumerate(oracle):
        lo, hi = int(win.los[row, 0]), int(win.his[row, 0])
        assert _bits(win.ts[lo:hi]) == _bits(w_ts) and _bits(win.vs[lo:hi]) == _bits(w_vs)

    for func, kernel in WINDOW_FUNCTIONS.items():
        with np.errstate(all="ignore"):
            got = kernel(win.ts, win.vs, win.los[:, 0], win.his[:, 0], win.starts, win.ends)
        want = [RANGE_FUNCTIONS[func](w_ts, w_vs, start, end) for _labels, w_ts, w_vs, start, end in oracle]
        want = [float("nan") if value is None else float(value) for value in want]
        assert got.shape == (len(oracle),) and _bits(got) == _bits(want), func


def test_a_store_without_the_series_builds_no_windows():
    db = TSDB()
    db.append(Labels({"__name__": "other"}), 0.0, 1.0)
    node = parse_expr.__wrapped__("rate(c[1m])").args[0]
    win = range_windows(PromQLEngine(db), node, np.array([60.0]), plan_memo(node))
    assert win.labels == () and win.ts.size == 0 and win.los.shape == (0, 1)
    for kernel in WINDOW_FUNCTIONS.values():
        assert kernel(win.ts, win.vs, win.los[:, 0], win.his[:, 0], win.starts, win.ends).shape == (0,)


def test_one_series_window_is_a_view_of_its_samples():
    """What a kernel scans at one step is the window, not the history."""
    db = TSDB()
    labels = Labels({"__name__": "c"})
    db.append_array(labels, np.arange(0.0, 15.0 * 1000, 15.0), np.arange(1000.0))
    node = parse_expr.__wrapped__("rate(c[1m])").args[0]
    win = range_windows(PromQLEngine(db), node, np.array([15.0 * 999]), plan_memo(node))
    ts, _vs = db._series[labels].arrays()
    assert len(win.ts) == 5 and np.shares_memory(win.ts, ts)
    assert (int(win.los[0, 0]), int(win.his[0, 0])) == (0, 5)
