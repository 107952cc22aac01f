"""One read contract across every series kind.

Head series (:class:`~repro.tsdb.storage.ColumnarSeries`), chunk-backed
series (:class:`~repro.tsdb.persist.chunkio.ChunkSeries` over in-memory
``TailChunk``s and over ``FileChunk``s of blocks on disk) and merged
series (:class:`~repro.tsdb.persist.chunkio.MergedSeries`) get their
window and lookback reads from :class:`~repro.tsdb.storage.SeriesReads`.
Each is held against the list-backed oracle series of
``tests/reference/list_head.py``, which keeps its own implementations,
and must read the same samples bit for bit.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.thanos.store import ObjectStore
from repro.tsdb.model import Labels, Matcher
from repro.tsdb.persist.chunkio import ChunkSeries, MergedSeries, TailChunk
from repro.tsdb.storage import ColumnarSeries, SeriesReads
from tests.reference.list_head import Series

LABELS = Labels({"__name__": "m", "idx": "0"})

#: ("append", gap, value): time advances by ``gap`` (0 overwrites the
#: newest sample); ("truncate", back): drop samples older than
#: ``newest - back``.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.sampled_from([0.0, 1.0, 15.0, 60.0, 299.0, 300.0, 301.0]),
            st.one_of(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), st.just(math.nan)),
        ),
        st.tuples(st.just("truncate"), st.sampled_from([0.0, 15.0, 400.0])),
    ),
    min_size=0,
    max_size=40,
)


def _bits(a) -> list[int]:
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


def _same_point(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return got == want and [type(x) for x in got] == [float, float]


def _replay(ops, *series) -> None:
    now = 1000.0
    for op in ops:
        if op[0] == "append":
            now += op[1]
            for s in series:
                s.append(now, op[2])
        else:
            for s in series:
                s.truncate_before(now - op[1])


def _cuts(data, n: int) -> list[int]:
    """Sorted cut points splitting ``n`` samples into contiguous runs."""
    if n < 2:
        return []
    return sorted(set(data.draw(st.lists(st.integers(1, n - 1), max_size=4))))


def _runs(ts, vs, cuts):
    bounds = [0, *cuts, len(ts)]
    return [(ts[a:b].copy(), vs[a:b].copy()) for a, b in zip(bounds, bounds[1:]) if b > a]


def _probes(ts, lookback: float) -> list[float]:
    out = []
    for t in ts.tolist():
        out += [t - 0.5, t, t + 0.5, t + lookback - 0.5, t + lookback, t + lookback + 0.5]
    if len(ts):
        out.append(float(ts[0]) - 1.0)  # before the first sample
    return sorted(set(out), reverse=True)  # newest first: staged fast path before a flush


def _windows(ts, data) -> list[tuple[float, float]]:
    points = [float(t) + d for t in ts.tolist() for d in (-0.5, 0.0, 0.5)] or [0.0, 1.0]
    out = [(t, t) for t in ts.tolist()]  # single-point windows
    out.append((points[-1], points[0]))  # empty: end before start
    pick = st.sampled_from(points)
    out += data.draw(st.lists(st.tuples(pick, pick).map(sorted).map(tuple), min_size=1, max_size=8))
    return out


def _assert_reads(kind: str, series, oracle: Series, probes, windows, lookback: float) -> None:
    for ts in probes:
        got, want = series.at_or_before(ts, lookback), oracle.at_or_before(ts, lookback)
        assert _same_point(got, want), (kind, ts, got, want)
    for start, end in windows:
        for read in ("window", "window_half_open"):
            got_ts, got_vs = getattr(series, read)(start, end)
            want_ts, want_vs = getattr(oracle, read)(start, end)
            assert _bits(got_ts) == _bits(want_ts), (kind, read, start, end)
            assert _bits(got_vs) == _bits(want_vs), (kind, read, start, end)
        # query_window_arrays: sorted, and holding the window unchanged
        q_ts, q_vs = series.query_window_arrays(start, end)
        assert np.all(np.diff(q_ts) > 0), kind
        lo = np.searchsorted(q_ts, start, side="left")
        hi = np.searchsorted(q_ts, end, side="right")
        want_ts, want_vs = oracle.window(start, end)
        assert _bits(q_ts[lo:hi]) == _bits(want_ts) and _bits(q_vs[lo:hi]) == _bits(want_vs), kind
    got_ts, got_vs = series.arrays()
    want_ts, want_vs = oracle.arrays()
    assert _bits(got_ts) == _bits(want_ts) and _bits(got_vs) == _bits(want_vs), kind
    assert _bits(series.timestamps) == _bits(oracle.timestamps)
    assert _bits(series.values) == _bits(oracle.values)


def _file_series(root: str, runs) -> ChunkSeries:
    store = ObjectStore(persist_dir=root)
    for ts, vs in runs:
        store.store_block([(LABELS, ts, vs)], min_time=float(ts[0]), max_time=float(ts[-1]) + 1.0)
    (series,) = store.select_at("raw", [Matcher.eq("idx", "0")])
    return series


class TestOneReadContract:
    @settings(max_examples=150, deadline=None)
    @given(ops=_ops, lookback=st.sampled_from([15.0, 300.0]), data=st.data())
    def test_every_series_kind_reads_what_the_oracle_reads(self, ops, lookback, data):
        oracle = Series(LABELS)
        staged, flushed = ColumnarSeries(LABELS), ColumnarSeries(LABELS)
        _replay(ops, oracle, staged, flushed)
        flushed.arrays()
        ts, vs = (a.copy() for a in oracle.arrays())
        probes, windows = _probes(ts, lookback), _windows(ts, data)

        kinds = {"columnar staged": staged, "columnar flushed": flushed}
        tail_runs = _runs(ts, vs, _cuts(data, len(ts)))
        kinds["chunks in memory"] = ChunkSeries(
            LABELS, [TailChunk(t, v) for t, v in data.draw(st.permutations(tail_runs))]
        )
        # primary / secondary / both, the primary winning a shared
        # timestamp over a decoy value in the secondary
        sides = data.draw(st.lists(st.sampled_from("psb"), min_size=len(ts), max_size=len(ts)))
        primary = ColumnarSeries(LABELS)
        sec_ts, sec_vs = [], []
        for t, v, side in zip(ts.tolist(), vs.tolist(), sides):
            if side in "pb":
                primary.append(t, v)
            if side in "sb":
                sec_ts.append(t)
                sec_vs.append(v if side == "s" else -v - 7.0)
        sec_runs = _runs(np.array(sec_ts), np.array(sec_vs), _cuts(data, len(sec_ts)))
        kinds["merged"] = MergedSeries(primary, ChunkSeries(LABELS, [TailChunk(t, v) for t, v in sec_runs]), LABELS)

        with tempfile.TemporaryDirectory() as root:
            if len(ts):
                kinds["chunks on disk"] = _file_series(root, _runs(ts, vs, _cuts(data, len(ts))))
            for kind, series in kinds.items():
                # twice: the second pass reads cached snapshots and merges
                for _ in range(2):
                    _assert_reads(kind, series, oracle, probes, windows, lookback)


def test_series_carry_no_instance_dict():
    """A base without ``__slots__ = ()`` would give every head series a
    ``__dict__`` — thousands of them per deployment."""
    head = ColumnarSeries(LABELS)
    chunked = ChunkSeries(LABELS, [])
    for series in (head, chunked, MergedSeries(head, chunked, LABELS)):
        assert isinstance(series, SeriesReads)
        assert not hasattr(series, "__dict__")
