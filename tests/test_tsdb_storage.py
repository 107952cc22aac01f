"""Tests for the TSDB storage layer."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.tsdb.model import Labels, Matcher, MatchOp
from repro.tsdb.storage import TSDB, ColumnarSeries


def mklabels(name: str, **labels: str) -> Labels:
    return Labels({"__name__": name, **labels})


class TestAppend:
    def test_append_creates_series(self):
        db = TSDB()
        db.append(mklabels("up", job="a"), 1.0, 1.0)
        assert db.num_series == 1
        assert db.num_samples == 1

    def test_series_needs_metric_name(self):
        db = TSDB()
        with pytest.raises(StorageError, match="metric name"):
            db.append(Labels({"job": "a"}), 1.0, 1.0)

    def test_out_of_order_rejected(self):
        db = TSDB()
        labels = mklabels("up")
        db.append(labels, 10.0, 1.0)
        with pytest.raises(StorageError, match="out-of-order"):
            db.append(labels, 5.0, 2.0)

    def test_duplicate_timestamp_overwrites(self):
        """Last-write-wins keeps rule re-evaluation idempotent."""
        db = TSDB()
        labels = mklabels("up")
        db.append(labels, 10.0, 1.0)
        db.append(labels, 10.0, 2.0)
        series = db.select([Matcher.name_eq("up")])[0]
        assert series.nsamples == 1
        assert series.values[-1] == 2.0

    def test_min_max_time_tracked(self):
        db = TSDB()
        db.append(mklabels("a"), 5.0, 1.0)
        db.append(mklabels("b"), 2.0, 1.0)
        db.append(mklabels("a"), 9.0, 1.0)
        assert db.min_time == 2.0
        assert db.max_time == 9.0

    def test_append_many(self):
        db = TSDB()
        n = db.append_many([(mklabels("x"), float(i), float(i)) for i in range(10)])
        assert n == 10 and db.num_samples == 10

    def test_append_array_out_of_order_is_all_or_nothing(self):
        db = TSDB()
        labels = mklabels("x")
        db.append(labels, 10.0, 1.0)
        with pytest.raises(StorageError, match="out-of-order"):
            db.append_array(labels, [11.0, 12.0, 5.0], [1.0, 2.0, 3.0])
        series = db.select([Matcher.name_eq("x")])[0]
        assert series.timestamps == [10.0]
        assert db.num_samples == 1
        assert db.max_time == 10.0

    def test_append_array_rejected_batch_creates_no_series(self):
        db = TSDB()
        with pytest.raises(StorageError, match="out-of-order"):
            db.append_array(mklabels("x"), [2.0, 1.0], [1.0, 2.0])
        assert db.num_series == 0

    def test_append_array_fallback_overwrites_duplicates(self):
        db = TSDB()
        labels = mklabels("x")
        db.append(labels, 10.0, 1.0)
        assert db.append_array(labels, [10.0, 11.0], [5.0, 6.0]) == 2
        series = db.select([Matcher.name_eq("x")])[0]
        assert series.timestamps == [10.0, 11.0]
        assert series.values == [5.0, 6.0]


class TestSelect:
    def setup_method(self):
        self.db = TSDB()
        for node in ("n1", "n2"):
            for uuid in ("1", "2"):
                self.db.append(mklabels("power", instance=node, uuid=uuid), 1.0, 1.0)
        self.db.append(mklabels("up", instance="n1"), 1.0, 1.0)

    def test_select_by_name(self):
        assert len(self.db.select([Matcher.name_eq("power")])) == 4

    def test_select_intersection(self):
        out = self.db.select([Matcher.name_eq("power"), Matcher.eq("instance", "n1")])
        assert len(out) == 2

    def test_select_regex(self):
        out = self.db.select([Matcher.name_eq("power"), Matcher.re("uuid", "1|2")])
        assert len(out) == 4

    def test_select_neq(self):
        out = self.db.select([Matcher.name_eq("power"), Matcher("uuid", MatchOp.NEQ, "1")])
        assert len(out) == 2

    def test_select_no_match_returns_empty(self):
        assert self.db.select([Matcher.name_eq("missing")]) == []

    def test_select_requires_matchers(self):
        with pytest.raises(StorageError):
            self.db.select([])

    def test_results_sorted_by_labels(self):
        out = self.db.select([Matcher.name_eq("power")])
        keys = [tuple(s.labels) for s in out]
        assert keys == sorted(keys)

    def test_label_values(self):
        assert self.db.label_values("instance") == ["n1", "n2"]
        assert self.db.metric_names() == ["power", "up"]

    def test_cardinality_by_metric(self):
        assert self.db.cardinality_by_metric() == {"power": 4, "up": 1}


class TestSeriesReads:
    def test_window(self):
        series = ColumnarSeries(labels=mklabels("x"))
        for i in range(10):
            series.append(float(i), float(i * 10))
        ts, vs = series.window(2.0, 5.0)
        assert ts.tolist() == [2.0, 3.0, 4.0, 5.0]
        assert vs.tolist() == [20.0, 30.0, 40.0, 50.0]

    def test_window_empty(self):
        series = ColumnarSeries(labels=mklabels("x"))
        ts, vs = series.window(0, 10)
        assert len(ts) == 0

    def test_at_or_before_with_lookback(self):
        series = ColumnarSeries(labels=mklabels("x"))
        series.append(100.0, 7.0)
        assert series.at_or_before(100.0, 300.0) == (100.0, 7.0)
        assert series.at_or_before(350.0, 300.0) == (100.0, 7.0)
        assert series.at_or_before(400.1, 300.0) is None  # outside lookback
        assert series.at_or_before(99.0, 300.0) is None  # before first sample

    def test_stale_marker_hides_series(self):
        series = ColumnarSeries(labels=mklabels("x"))
        series.append(100.0, 7.0)
        series.append(115.0, math.nan)  # staleness marker
        assert series.at_or_before(110.0, 300.0) == (100.0, 7.0)
        assert series.at_or_before(120.0, 300.0) is None

    def test_series_resumes_after_stale(self):
        series = ColumnarSeries(labels=mklabels("x"))
        series.append(100.0, 7.0)
        series.append(115.0, math.nan)
        series.append(130.0, 9.0)
        assert series.at_or_before(135.0, 300.0) == (130.0, 9.0)


def _held(series: ColumnarSeries) -> tuple[list, list]:
    """A series' samples, ring then stage, read without flushing."""
    live = slice(series._start, series._start + series._len)
    return series._ts[live].tolist() + series._stage_ts, series._vs[live].tolist() + series._stage_vs


class TestRetention:
    def test_old_samples_dropped(self):
        db = TSDB(retention=100.0)
        labels = mklabels("x")
        for t in range(0, 300, 10):
            db.append(labels, float(t), 1.0)
        dropped, _ = db.apply_retention(now=290.0)
        assert dropped == 19  # everything strictly before t=190
        series = db.select([Matcher.name_eq("x")])[0]
        assert series.min_time == 190.0

    def test_empty_series_removed(self):
        db = TSDB(retention=10.0)
        db.append(mklabels("old"), 0.0, 1.0)
        db.append(mklabels("new"), 100.0, 1.0)
        _, series_dropped = db.apply_retention(now=100.0)
        assert series_dropped == 1
        assert db.num_series == 1
        assert db.metric_names() == ["new"]

    def test_zero_retention_keeps_everything(self):
        db = TSDB(retention=0.0)
        db.append(mklabels("x"), 0.0, 1.0)
        assert db.apply_retention(now=1e9) == (0, 0)

    @pytest.mark.parametrize("retention", [0.0, 1e9])
    def test_a_pass_bounds_staging_with_or_without_a_horizon(self, retention):
        """A series no reader flushes stays staged only up to
        ``STAGE_KEPT`` samples, also when nothing ever ages out."""
        db = TSDB(retention=retention)
        labels = mklabels("x")
        for i in range(5000):
            db.append(labels, float(i), float(i))
            if i % 40 == 39:
                db.apply_retention(now=float(i))
        series = db._series[labels]
        assert len(series._stage_ts) <= ColumnarSeries.STAGE_KEPT
        assert _held(series) == ([float(i) for i in range(5000)],) * 2

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.integers(0, 3), st.sampled_from([0.0, 1.0, 5.0, 15.0, 60.0])),
                st.tuples(st.just("flush"), st.integers(0, 3)),
                st.tuples(st.just("retain"), st.sampled_from([0.0, 10.0, 45.0, 200.0])),
                st.tuples(st.just("series"), st.integers(0, 3)),
            ),
            min_size=1,
            max_size=40,
        ),
        stage_kept=st.sampled_from([0, 2, ColumnarSeries.STAGE_KEPT]),
    )
    def test_skipping_untouched_series_equals_truncating_every_series(self, ops, stage_kept):
        """A pass reads each series' oldest sample (ring head or first
        staged sample) and does not search a series with nothing to
        drop, flushing it only if its stage is long; it must equal
        truncating every series — counts, arrays, series dropped,
        ``data_epoch`` and time bounds — whether the samples it looks at
        are staged or flushed."""

        class TruncateEverything(TSDB):
            def apply_retention(self, now):
                cutoff = now - self.retention
                samples_dropped, empty = 0, []
                for key, series in self._series.items():
                    samples_dropped += series.truncate_before(cutoff)
                    if not series.nsamples:
                        empty.append(key)
                for key in empty:
                    self._drop_series(key)
                if samples_dropped:
                    self.data_epoch += 1
                    self._recompute_time_bounds()
                return samples_dropped, len(empty)

        dbs = (TSDB(retention=30.0), TruncateEverything(retention=30.0))
        names = [mklabels("m", i=str(i)) for i in range(4)]
        now = 100.0
        with mock.patch.object(ColumnarSeries, "STAGE_KEPT", stage_kept):
            self._run(ops, dbs, names, now, stage_kept)

    @staticmethod
    def _run(ops, dbs, names, now, stage_kept) -> None:
        for op in ops:
            for db in dbs:
                if op[0] == "append":
                    db.append(names[op[1]], now + op[2], float(op[1]))
                elif op[0] == "flush" and db.has_series(names[op[1]]):
                    db._series[names[op[1]]].arrays()
                elif op[0] == "series":  # created, not yet appended to (a resolved scrape ref)
                    db.get_ref(names[op[1]])
            if op[0] == "append":
                now += op[2]
            elif op[0] == "retain":
                now += op[1]
                assert dbs[0].apply_retention(now) == dbs[1].apply_retention(now)
                # Staging stays bounded: a pass flushes a long stage.
                assert all(len(s._stage_ts) <= stage_kept for s in dbs[0]._series.values())
            got, want = dbs
            assert got.data_epoch == want.data_epoch
            assert (got.min_time, got.max_time) == (want.min_time, want.max_time)
            assert list(got._series) == list(want._series)
            for labels, series in got._series.items():
                # Read without flushing, so staged samples stay staged.
                assert _held(series) == _held(want._series[labels])


class TestDeleteSeries:
    def test_delete_by_uuid(self):
        db = TSDB()
        for uuid in ("1", "2"):
            for metric in ("cpu", "mem"):
                db.append(mklabels(metric, uuid=uuid), 1.0, 1.0)
        deleted = db.delete_series([Matcher.eq("uuid", "1")])
        assert deleted == 2
        assert db.num_series == 2
        assert all(s.labels.get("uuid") == "2" for s in db.all_series())

    def test_delete_cleans_index(self):
        db = TSDB()
        db.append(mklabels("cpu", uuid="1"), 1.0, 1.0)
        db.delete_series([Matcher.eq("uuid", "1")])
        assert db.label_values("uuid") == []
        assert db.select([Matcher.eq("uuid", "1")]) == []


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000), st.floats(allow_nan=False, allow_infinity=False, width=32)),
        min_size=1,
        max_size=50,
    )
)
def test_window_read_matches_naive_property(points):
    """Window reads agree with a brute-force filter."""
    points = sorted({t: v for t, v in points}.items())
    series = ColumnarSeries(labels=mklabels("p"))
    for t, v in points:
        series.append(float(t), v)
    lo, hi = 200.0, 800.0
    ts, vs = series.window(lo, hi)
    expected = [(float(t), v) for t, v in points if lo <= t <= hi]
    assert list(zip(ts.tolist(), vs.tolist())) == expected


class TestSeriesArrays:
    def test_snapshot_cached_between_reads(self):
        series = ColumnarSeries(labels=mklabels("s"))
        series.append(1.0, 10.0)
        first = series.arrays()
        assert series.arrays() is first  # same tuple until mutation
        assert first[0].tolist() == [1.0] and first[1].tolist() == [10.0]

    def test_snapshot_invalidated_on_append(self):
        series = ColumnarSeries(labels=mklabels("s"))
        series.append(1.0, 10.0)
        before = series.arrays()
        series.append(2.0, 20.0)
        after = series.arrays()
        assert after is not before
        assert after[1].tolist() == [10.0, 20.0]

    def test_snapshot_invalidated_on_overwrite(self):
        series = ColumnarSeries(labels=mklabels("s"))
        series.append(1.0, 10.0)
        series.arrays()
        series.append(1.0, 99.0)  # duplicate timestamp: last-write-wins
        assert series.arrays()[1].tolist() == [99.0]

    def test_snapshot_invalidated_on_truncate(self):
        series = ColumnarSeries(labels=mklabels("s"))
        for i in range(5):
            series.append(float(i), float(i))
        series.arrays()
        series.truncate_before(3.0)
        assert series.arrays()[0].tolist() == [3.0, 4.0]


class TestSelectorMemo:
    def test_repeat_select_hits_memo(self):
        db = TSDB()
        db.append(mklabels("cpu", host="a"), 1.0, 1.0)
        matchers = [Matcher.name_eq("cpu")]
        first = db.select(matchers)
        second = db.select(matchers)
        assert second is first
        stats = db.selector_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_memo_survives_appends_to_existing_series(self):
        db = TSDB()
        labels = mklabels("cpu", host="a")
        db.append(labels, 1.0, 1.0)
        matchers = [Matcher.name_eq("cpu")]
        first = db.select(matchers)
        db.append(labels, 2.0, 2.0)  # same series: population unchanged
        assert db.select(matchers) is first

    def test_memo_invalidated_on_new_series(self):
        db = TSDB()
        db.append(mklabels("cpu", host="a"), 1.0, 1.0)
        matchers = [Matcher.name_eq("cpu")]
        db.select(matchers)
        db.append(mklabels("cpu", host="b"), 1.0, 1.0)
        assert len(db.select(matchers)) == 2

    def test_memo_invalidated_on_series_delete(self):
        db = TSDB()
        db.append(mklabels("cpu", uuid="1"), 1.0, 1.0)
        db.append(mklabels("cpu", uuid="2"), 1.0, 1.0)
        matchers = [Matcher.name_eq("cpu")]
        assert len(db.select(matchers)) == 2
        db.delete_series([Matcher.eq("uuid", "1")])
        assert len(db.select(matchers)) == 1

    def test_empty_result_is_memoised_too(self):
        db = TSDB()
        db.append(mklabels("cpu"), 1.0, 1.0)
        matchers = [Matcher.eq("host", "nope")]
        db.select(matchers)
        db.select(matchers)
        assert db.selector_cache_stats()["hits"] == 1

    def test_epochs_track_mutations(self):
        db = TSDB()
        labels = mklabels("cpu")
        db.append(labels, 1.0, 1.0)
        data_epoch = db.data_epoch
        db.append(labels, 2.0, 2.0)
        assert db.data_epoch == data_epoch + 1
        db.append(mklabels("mem"), 1.0, 1.0)

    def test_memo_capped(self):
        db = TSDB()
        db.append(mklabels("cpu"), 1.0, 1.0)
        for i in range(db.SELECT_CACHE_MAX + 10):
            db.select([Matcher.eq("host", f"h{i}")])
        assert len(db._select_cache) <= db.SELECT_CACHE_MAX


class TestAppendByRef:
    """The scrape fast lane's ref API and its integrity guarantees."""

    def test_get_ref_stable_and_creating(self):
        db = TSDB()
        labels = mklabels("m", a="1")
        ref = db.get_ref(labels)
        assert ref > 0
        assert db.get_ref(labels) == ref
        assert db.num_series == 1
        assert db.resolve_ref(ref).labels == labels

    def test_append_refs_matches_append_by_labels(self):
        """One pair per call or the whole run in calls of two series:
        the same samples, counts and time bounds as appends by labels."""
        by_labels = TSDB()
        by_ref = TSDB()
        labels = [mklabels("m", a="1"), mklabels("m", a="2")]
        refs = [by_ref.get_ref(one) for one in labels]
        for i in range(5):
            for one in labels:
                by_labels.append(one, 10.0 * (i + 1), float(i))
            if i % 2:
                by_ref.append_refs(10.0 * (i + 1), [(ref, float(i)) for ref in refs])
            else:
                for ref in refs:
                    by_ref.append_refs(10.0 * (i + 1), [(ref, float(i))])
        for sa, sb in zip(by_labels.select([Matcher.name_eq("m")]), by_ref.select([Matcher.name_eq("m")])):
            assert sa.timestamps == sb.timestamps and sa.values == sb.values
        assert by_labels.samples_ingested == by_ref.samples_ingested
        assert by_labels.min_time == by_ref.min_time
        assert by_labels.max_time == by_ref.max_time

    def test_append_refs_batch_and_semantics(self):
        db = TSDB()
        r1 = db.get_ref(mklabels("m", a="1"))
        r2 = db.get_ref(mklabels("m", a="2"))
        count, dead = db.append_refs(10.0, [(r1, 1.0), (r2, 2.0)])
        assert (count, dead) == (2, [])
        # equal timestamp overwrites (idempotent re-ingest)
        count, dead = db.append_refs(10.0, [(r1, 9.0)])
        assert count == 1
        assert db.resolve_ref(r1).values == [9.0]
        # out-of-order still rejected
        with pytest.raises(StorageError, match="out-of-order"):
            db.append_refs(5.0, [(r1, 0.0)])
        assert db.min_time == 10.0 and db.max_time == 10.0

    def test_delete_series_kills_ref_forever(self):
        db = TSDB()
        labels = mklabels("m", a="1")
        ref = db.get_ref(labels)
        db.append_refs(1.0, [(ref, 1.0)])
        db.delete_series([Matcher.name_eq("m")])
        assert db.resolve_ref(ref) is None
        count, dead = db.append_refs(2.0, [(ref, 2.0)])
        assert (count, dead) == (0, [(ref, 2.0)])
        # recreating the same labels yields a NEW ref: the stale one
        # can never alias onto the recreated series.
        new_ref = db.get_ref(labels)
        assert new_ref != ref
        db.append_refs(3.0, [(new_ref, 3.0)])
        assert db.resolve_ref(ref) is None
        assert db.resolve_ref(new_ref).values == [3.0]

    def test_retention_drop_invalidates_ref(self):
        db = TSDB(retention=50.0)
        old = db.get_ref(mklabels("m", a="old"))
        live = db.get_ref(mklabels("m", a="live"))
        db.append_refs(10.0, [(old, 1.0)])
        db.append_refs(100.0, [(live, 2.0)])
        db.apply_retention(now=100.0)
        assert db.resolve_ref(old) is None
        assert db.resolve_ref(live) is not None
        count, dead = db.append_refs(110.0, [(old, 5.0), (live, 6.0)])
        assert count == 1 and dead == [(old, 5.0)]

    def test_dead_refs_reported_not_silently_dropped(self):
        db = TSDB()
        r1 = db.get_ref(mklabels("m", a="1"))
        r2 = db.get_ref(mklabels("m", a="2"))
        db.append_refs(1.0, [(r1, 1.0), (r2, 1.0)])
        db.delete_series([Matcher.eq("a", "1")])
        count, dead = db.append_refs(2.0, [(r1, 7.0), (r2, 8.0), (r1, 9.0)])
        assert count == 1
        assert dead == [(r1, 7.0), (r1, 9.0)]
        assert db.resolve_ref(r2).values == [1.0, 8.0]

    def test_append_refs_bumps_epoch_once(self):
        db = TSDB()
        r1 = db.get_ref(mklabels("m", a="1"))
        r2 = db.get_ref(mklabels("m", a="2"))
        before = db.data_epoch
        db.append_refs(1.0, [(r1, 1.0), (r2, 2.0)])
        assert db.data_epoch == before + 1


# -- the two leaf reads of the instant walk ----------------------------------

#: One step of a series' life: ("append", gap, value) advances time by
#: ``gap`` (0 overwrites the newest sample), ("truncate", back) drops
#: everything older than ``newest - back``, ("read",) flushes the
#: staged tail into the ring the way any window read does.
_series_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.sampled_from([0.0, 1.0, 15.0, 299.0, 300.0, 301.0]),
            st.one_of(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), st.just(math.nan)),
        ),
        st.tuples(st.just("truncate"), st.sampled_from([-1.0, 0.0, 15.0, 400.0])),
        st.tuples(st.just("read")),
    ),
    min_size=1,
    max_size=30,
)


def _at_or_before_by_bisection(series: ColumnarSeries, ts: float, lookback: float):
    """``at_or_before`` as it was before it looked at the newest sample
    first: ``arrays()`` and a bisection."""
    import numpy as np

    t_arr, v_arr = series.arrays()
    idx = int(np.searchsorted(t_arr, ts, side="right")) - 1
    if idx < 0:
        return None
    t, value = float(t_arr[idx]), float(v_arr[idx])
    if t <= ts - lookback or value != value:
        return None
    return t, value


def _same_point(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return got == want and [type(x) for x in got] == [float, float]


class TestAtOrBeforeNewestSample:
    """The read every instant selector makes — "the sample at or before
    now" — answers from the newest sample without flushing or
    bisecting.  It must equal the bisection at every probe, whether
    the newest sample is staged or in the ring."""

    @settings(max_examples=300, deadline=None)
    @given(ops=_series_ops, lookback=st.sampled_from([15.0, 300.0]))
    def test_equals_bisection_after_every_step(self, ops, lookback):
        series = ColumnarSeries(mklabels("m"))
        now = 1000.0
        for op in ops:
            if op[0] == "append":
                now += op[1]
                series.append(now, op[2])
            elif op[0] == "truncate":
                series.truncate_before(now - op[1])
            else:
                series.arrays()
            probes = [now - 1.0, now, now + 1.0, now + lookback - 1.0, now + lookback, now + lookback + 1.0, now - 400.0]
            # Fast path first: it must not depend on a flush the
            # reference read would have done for it.
            got = [series.at_or_before(ts, lookback) for ts in probes]
            want = [_at_or_before_by_bisection(series, ts, lookback) for ts in probes]
            assert all(_same_point(g, w) for g, w in zip(got, want)), (op, got, want)

    def test_staged_and_flushed_tails_and_the_lookback_edge(self):
        series = ColumnarSeries(mklabels("m"))
        series.append(10.0, 1.0)
        assert series._stage_vs and series.at_or_before(10.0, 300.0) == (10.0, 1.0)  # staged
        series.arrays()
        assert not series._stage_vs and series.at_or_before(10.0, 300.0) == (10.0, 1.0)  # ring tail
        series.append(10.0, 2.0)  # equal-timestamp overwrite lands in the ring
        assert series.at_or_before(11.0, 300.0) == (10.0, 2.0)
        assert series.at_or_before(309.9, 300.0) == (10.0, 2.0)
        assert series.at_or_before(310.0, 300.0) is None  # (ts - lookback, ts] is open on the left
        assert series.at_or_before(9.0, 300.0) is None  # older than everything
        series.append(25.0, math.nan)  # staleness marker as the newest sample
        assert series.at_or_before(25.0, 300.0) is None and series.at_or_before(24.0, 300.0) == (10.0, 2.0)
        series.truncate_before(100.0)  # emptied
        assert series.at_or_before(200.0, 300.0) is None


#: Matcher tuples worth memoising: equality, regex, negative, and
#: empty-value equality (which no posting list can answer).
_MEMO_KEYS = [
    (Matcher.name_eq("cpu"),),
    (Matcher.name_eq("cpu"), Matcher.eq("host", "a")),
    (Matcher.name_eq("cpu"), Matcher("host", MatchOp.NEQ, "a")),
    (Matcher.name_eq("cpu"), Matcher.re("host", "a|b")),
    (Matcher.name_eq("cpu"), Matcher("host", MatchOp.NRE, "b.*")),
    (Matcher.name_eq("cpu"), Matcher.eq("zone", "")),
    (Matcher.re("__name__", "cpu|mem"),),
    (Matcher("__name__", MatchOp.NEQ, "cpu"),),
    (Matcher.eq("host", "b"),),
    (Matcher.re("host", "[ab]"), Matcher("zone", MatchOp.NEQ, "")),
]

_series_pool = st.builds(
    lambda name, host, zone: mklabels(name, **({"host": host} if host else {}), **({"zone": zone} if zone else {})),
    st.sampled_from(["cpu", "mem", "net"]),
    st.sampled_from(["", "a", "b", "bb", "c"]),
    st.sampled_from(["", "z1"]),
)

_memo_ops = st.lists(
    st.one_of(
        st.tuples(st.just("create"), _series_pool),
        st.tuples(st.just("delete"), st.sampled_from(_MEMO_KEYS)),
        st.tuples(st.just("retention"), st.sampled_from([5.0, 50.0])),
        st.tuples(st.just("select"), st.sampled_from(_MEMO_KEYS)),
    ),
    min_size=1,
    max_size=25,
)


def _assert_memo_is_exact(db: TSDB) -> None:
    """Every memoised list is what an uncached select would return:
    the live series objects, in label order."""
    from repro.tsdb.model import select_labels

    for key, cached in db._select_cache.items():
        fresh = sorted(
            (db._series[labels] for labels in select_labels(db._index, db._series, key)),
            key=lambda s: tuple(s.labels),
        )
        assert len(cached) == len(fresh) and all(a is b for a, b in zip(cached, fresh)), key
    indexed = {key for keys in db._select_keys.values() for key in keys}
    assert indexed == set(db._select_cache)


class TestSelectMemoSelectiveInvalidation:
    """A created or dropped series forgets only the memoised selects
    whose matchers it satisfies; the rest stay, and stay right."""

    @settings(max_examples=300, deadline=None)
    @given(ops=_memo_ops)
    def test_memo_equals_uncached_select_after_every_step(self, ops):
        db = TSDB(retention=20.0)
        now = 100.0
        for op in ops:
            now += 1.0
            if op[0] == "create":
                db.append(op[1], now, 1.0)
            elif op[0] == "delete":
                db.delete_series(list(op[1]))
            elif op[0] == "retention":
                db.apply_retention(now + op[1])
            else:
                db.select(list(op[1]))
            _assert_memo_is_exact(db)
        for key in _MEMO_KEYS:  # and through the public read, hit or miss
            got = db.select(list(key))
            assert [s.labels for s in got] == sorted(
                (l for l in db._series if all(m.matches(l) for m in key)), key=tuple
            )

    def test_series_matching_only_a_regex_matcher_of_a_cached_key(self):
        """select, create a series that only the key's *regex* matcher
        can tell apart, select again: the new series must be there."""
        db = TSDB()
        db.append(mklabels("cpu", host="a"), 1.0, 1.0)
        by_regex = [Matcher.name_eq("cpu"), Matcher.re("host", "a|b")]
        by_other_name = [Matcher.name_eq("mem")]
        assert len(db.select(by_regex)) == 1 and db.select(by_other_name) == []
        db.append(mklabels("cpu", host="c"), 2.0, 1.0)  # same metric, regex says no
        assert tuple(by_regex) in db._select_cache  # ... so the memo stays
        db.append(mklabels("cpu", host="b"), 2.0, 1.0)  # regex says yes
        assert tuple(by_regex) not in db._select_cache
        assert tuple(by_other_name) in db._select_cache  # untouched either time
        assert [s.labels.get("host") for s in db.select(by_regex)] == ["a", "b"]
        misses = db.select_cache_misses
        assert db.select(by_other_name) == [] and db.select_cache_misses == misses

    def test_key_without_a_name_matcher_sees_every_metric(self):
        db = TSDB()
        db.append(mklabels("cpu", host="b"), 1.0, 1.0)
        assert len(db.select([Matcher.eq("host", "b")])) == 1
        db.append(mklabels("mem", host="b"), 1.0, 1.0)
        assert len(db.select([Matcher.eq("host", "b")])) == 2
        db.delete_series([Matcher.name_eq("cpu")])
        assert [s.labels.metric_name for s in db.select([Matcher.eq("host", "b")])] == ["mem"]


class TestRingGrowth:
    """What a head ring holds against what it stores: a grown ring is
    at most twice its samples when only appends come, and under
    retention a reallocation is paid for by half a ring of appends."""

    @staticmethod
    def _flush(series: ColumnarSeries, reallocations: list[int]) -> None:
        buffer = series._ts
        series.arrays()
        if series._ts is not buffer:
            reallocations.append(len(series._ts))

    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(st.integers(1, 300), min_size=1, max_size=40))
    def test_append_only_ring_is_at_most_twice_its_samples(self, batches):
        series = ColumnarSeries(mklabels("x"))
        reallocations: list[int] = []
        t = 0.0
        for size in batches:
            for _ in range(size):
                series.append(t, t * 0.5)
                t += 1.0
            before = len(reallocations)
            self._flush(series, reallocations)
            if len(reallocations) > before:
                assert len(series._ts) <= max(ColumnarSeries.MIN_CAPACITY, 2 * series.nsamples)
        n = series.nsamples
        # each reallocation at least doubles the ring: O(log n) of them
        assert len(reallocations) <= max(0, math.ceil(math.log2(n / ColumnarSeries.MIN_CAPACITY)))
        ts, vs = series.arrays()
        assert ts.tolist() == [float(i) for i in range(n)] and vs.tolist() == [i * 0.5 for i in range(n)]

    def test_a_full_minimum_ring_grows_to_twice_not_four_times(self):
        series = ColumnarSeries(mklabels("x"))
        for t in range(ColumnarSeries.MIN_CAPACITY + 1):
            series.append(float(t), 1.0)
            series.arrays()
        assert len(series._ts) == 2 * ColumnarSeries.MIN_CAPACITY

    @pytest.mark.parametrize("window", [5, 40, 63, 64, 100, 257])
    @pytest.mark.parametrize("batch", [1, 7])
    def test_sliding_ring_reallocates_once_per_half_ring_of_appends(self, window, batch):
        series = ColumnarSeries(mklabels("x"))
        appended_at: list[tuple[int, int]] = []  # (appends so far, ring replaced) per reallocation
        appends = 0
        t = 0
        while appends < 40 * max(window, ColumnarSeries.MIN_CAPACITY):
            for _ in range(batch):
                series.append(float(t), float(-t))
                t += 1
            appends += batch
            buffer = series._ts
            series.arrays()
            if series._ts is not buffer:
                appended_at.append((appends, len(buffer)))
            series.truncate_before(float(t - window))
        for (done, _cap), (next_done, cap) in zip(appended_at, appended_at[1:]):
            # `cap` is the ring the first of the two left behind
            assert next_done - done >= cap // 2 - batch, appended_at
        assert len(series._ts) <= max(ColumnarSeries.MIN_CAPACITY, 4 * (window + batch))
        ts, vs = series.arrays()
        assert ts.tolist() == [float(i) for i in range(t - window, t)]
        assert vs.tolist() == [-float(i) for i in range(t - window, t)]
