"""Property tests: the PromQL engine vs naive reference computations.

Hypothesis generates random series layouts and sample streams; each
engine result must match an independently-coded brute-force
implementation of the same semantics.

The second half of this module is the **differential harness** for the
columnar range evaluator: every reference query runs through
``engine.query_range`` and through the oracle that defines a range
query (``engine.query`` at every step, ``tests/reference/promql.py``)
over randomized series (including staleness markers and samples
straddling the lookback boundary), asserting bit-identical
``RangeResult``s — not approximately equal; ``np.array_equal`` on
timestamps and values.  The oracle evaluates subquery windows with its
own per-inner-step loop (``PerStepEngine``), so where the production
walk borrows the columnar window code the comparison is still against
independent code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError
from repro.common.units import parse_duration
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import DEFAULT_LOOKBACK, PromQLEngine
from repro.tsdb.storage import TSDB
from tests.reference.list_head import ListHeadTSDB
from tests.reference.promql import PerStepEngine, query_range_per_step

# series: (group_label, series_label) -> list of (t, v)
_series_strategy = st.dictionaries(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=0, max_value=5).map(str),
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2000),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
        ),
        min_size=1,
        max_size=20,
    ),
    min_size=1,
    max_size=8,
)


def build_db(layout, tsdb_class: type[TSDB] = TSDB) -> TSDB:
    db = tsdb_class()
    for (group, idx), points in layout.items():
        labels = Labels({"__name__": "m", "grp": group, "idx": idx})
        dedup = sorted({t: v for t, v in points}.items())
        for t, v in dedup:
            db.append(labels, float(t), v)
    return db


def naive_instant(layout, at: float) -> dict[tuple[str, str], float]:
    """Reference instant-selector semantics (lookback scan)."""
    out = {}
    for key, points in layout.items():
        dedup = sorted({t: v for t, v in points}.items())
        eligible = [(t, v) for t, v in dedup if at - DEFAULT_LOOKBACK < t <= at]
        if eligible:
            out[key] = eligible[-1][1]
    return out


@settings(max_examples=60, deadline=None)
@given(layout=_series_strategy, at=st.integers(min_value=0, max_value=2400))
def test_instant_selector_matches_reference(layout, at):
    engine = PromQLEngine(build_db(layout))
    result = engine.query("m", at=float(at))
    observed = {
        (el.labels.get("grp"), el.labels.get("idx")): el.value for el in result.vector
    }
    assert observed == pytest.approx(naive_instant(layout, float(at)))


@settings(max_examples=60, deadline=None)
@given(layout=_series_strategy, at=st.integers(min_value=0, max_value=2400))
def test_sum_by_matches_reference(layout, at):
    engine = PromQLEngine(build_db(layout))
    result = engine.query("sum by (grp) (m)", at=float(at))
    observed = {el.labels.get("grp"): el.value for el in result.vector}
    reference: dict[str, float] = {}
    for (group, _idx), value in naive_instant(layout, float(at)).items():
        reference[group] = reference.get(group, 0.0) + value
    assert set(observed) == set(reference)
    for group in observed:
        assert observed[group] == pytest.approx(reference[group], rel=1e-9, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(layout=_series_strategy, at=st.integers(min_value=0, max_value=2400))
def test_topk_matches_reference(layout, at):
    engine = PromQLEngine(build_db(layout))
    result = engine.query("topk(2, m)", at=float(at))
    reference = naive_instant(layout, float(at))
    expected_values = sorted(reference.values(), reverse=True)[:2]
    observed_values = sorted((el.value for el in result.vector), reverse=True)
    assert observed_values == pytest.approx(expected_values)


@settings(max_examples=40, deadline=None)
@given(
    slope=st.floats(min_value=0.01, max_value=100.0),
    gap=st.integers(min_value=1, max_value=60),
    n=st.integers(min_value=3, max_value=40),
)
def test_rate_of_linear_counter_is_slope(slope, gap, n):
    """For a perfectly linear counter fully covering the window, the
    extrapolated rate equals the slope regardless of sample spacing."""
    db = TSDB()
    labels = Labels({"__name__": "c"})
    for i in range(n):
        db.append(labels, float(i * gap), slope * i * gap)
    engine = PromQLEngine(db)
    window = (n - 1) * gap
    at = float((n - 1) * gap)
    result = engine.query(f"rate(c[{window + gap}s])", at=at)
    if result.vector:
        assert result.vector[0].value == pytest.approx(slope, rel=0.6)
        # and increase() is consistent with rate() by definition
        inc = engine.query(f"increase(c[{window + gap}s])", at=at)
        assert inc.vector[0].value == pytest.approx(
            result.vector[0].value * (window + gap), rel=1e-9
        )


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e5, max_value=1e5, allow_nan=False, width=32),
        min_size=1,
        max_size=25,
    )
)
def test_over_time_family_matches_numpy(values):
    db = TSDB()
    labels = Labels({"__name__": "g"})
    for i, v in enumerate(values):
        db.append(labels, float(i * 10), v)
    engine = PromQLEngine(db)
    at = float((len(values) - 1) * 10)
    window = f"[{len(values) * 10}s]"
    checks = {
        f"avg_over_time(g{window})": np.mean(values),
        f"sum_over_time(g{window})": np.sum(values),
        f"min_over_time(g{window})": np.min(values),
        f"max_over_time(g{window})": np.max(values),
        f"count_over_time(g{window})": len(values),
        f"last_over_time(g{window})": values[-1],
    }
    for query, expected in checks.items():
        result = engine.query(query, at=at)
        assert result.vector[0].value == pytest.approx(expected, rel=1e-6, abs=1e-6), query


@settings(max_examples=40, deadline=None)
@given(layout=_series_strategy)
def test_binary_op_vector_scalar_elementwise(layout):
    engine = PromQLEngine(build_db(layout))
    at = 2400.0
    base = engine.query("m", at=at)
    doubled = engine.query("m * 2 + 1", at=at)
    base_map = {el.labels.without_name(): el.value for el in base.vector}
    for el in doubled.vector:
        assert el.value == pytest.approx(base_map[el.labels] * 2 + 1, rel=1e-12, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(layout=_series_strategy, threshold=st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
def test_comparison_filter_matches_reference(layout, threshold):
    engine = PromQLEngine(build_db(layout))
    at = 2400.0
    kept = engine.query(f"m > {threshold!r}", at=at)
    reference = {k: v for k, v in naive_instant(layout, at).items() if v > threshold}
    observed = {
        (el.labels.get("grp"), el.labels.get("idx")): el.value for el in kept.vector
    }
    assert observed == pytest.approx(reference)


# ---------------------------------------------------------------------------
# Differential harness: columnar range evaluator vs the per-step oracle.
# ---------------------------------------------------------------------------

# Like _series_strategy, but values occasionally become staleness
# markers (NaN samples), and timestamps spread wide enough that some
# windows straddle the 300 s lookback boundary.
_stale_series_strategy = st.dictionaries(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=0, max_value=5).map(str),
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2000),
            st.one_of(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
                st.just(math.nan),  # staleness marker
            ),
        ),
        min_size=1,
        max_size=20,
    ),
    min_size=1,
    max_size=8,
)

#: Every construct the engine supports, exercised through both
#: evaluators.  Compositions whose result order is defined only for
#: instant presentation (aggregating *over* topk/sort output) are the
#: one documented divergence and are deliberately absent.
DIFFERENTIAL_QUERIES = [
    "m",
    "m offset 45",
    'm{grp="a"}',
    'm{grp=~"a|b", idx!="3"}',
    "rate(m[4m])",
    "increase(m[3m])",
    "delta(m[5m])",
    "irate(m[4m])",
    "idelta(m[4m])",
    "changes(m[6m])",
    "resets(m[6m])",
    "deriv(m[5m])",
    "avg_over_time(m[4m])",
    "sum_over_time(m[4m])",
    "min_over_time(m[4m])",
    "max_over_time(m[4m])",
    "count_over_time(m[4m])",
    "stddev_over_time(m[4m])",
    "stdvar_over_time(m[4m])",
    "last_over_time(m[4m])",
    "present_over_time(m[4m])",
    "quantile_over_time(0.9, m[5m])",
    "sum by (grp) (m)",
    "avg without (idx) (m)",
    "count(m)",
    "min(m)",
    "max(m)",
    "stddev by (grp) (m)",
    "stdvar(m)",
    "quantile(0.7, m)",
    "quantile(-0.5, m)",
    "quantile(1.5, m)",
    # Group shapes of the one-pass accumulation: many groups of a few,
    # one group of every row, many groups of one row each.
    "sum by (grp) (rate(m[4m]))",
    "min by (grp) (m)",
    "max by (idx) (m)",
    "count(m == 0)",
    "sum(m)",
    "max by (grp, idx) (m)",
    "topk(2, m)",
    "bottomk(2, m)",
    "m * 2 + 1",
    "m % 7",
    "m ^ 2",
    "m > 0",
    "m >= bool 0",
    "m + on(grp, idx) m",
    "m * on(grp) group_left() sum by (grp) (m)",
    "sum by (grp) (m) - on(grp) group_right() m",
    'm and m{grp="a"}',
    "m or vector(0)",
    'm unless m{idx="1"}',
    "-m",
    "abs(m)",
    "clamp(m, -10, 10)",
    "sgn(m)",
    'label_replace(m, "dst", "$1-x", "grp", "(.*)")',
    'label_join(m, "j", "-", "grp", "idx")',
    'absent(m{grp="zz"})',
    "absent(m)",
    'scalar(m{grp="a", idx="0"})',
    "time()",
    "timestamp(m)",
    "vector(7)",
    "sort(m)",
    "sort_desc(m)",
    "max_over_time(m[4m:1m])",
    "rate(m[6m:47s])",
    "avg_over_time(sum by (grp) (m)[5m:90s])",
    # The one subquery the stack ships (the ceems-fig2c peak-power
    # panel), scaled from [24h:5m] to the test data's 2000 s.
    'max_over_time((sum by (idx) (m{grp="a"}))[12m:50s])',
    # One label set twice at one step is an error (Prometheus); at
    # steps apart it is one series.
    'label_replace(m, "idx", "0", "idx", ".*")',
    'm * on(grp) group_left(idx) max by (grp, idx) (m{idx="0"})',
    # Label-half shapes: "one"-side rows that share a signature without
    # being present together (one label set folded, or several), set
    # operators across signatures, ties broken by aggregation group order.
    'm / ignoring(idx) group_left() label_replace(m, "idx", "", "idx", ".*")',
    "m / ignoring(idx) group_left() m",
    'm or on(grp) m{idx="1"}',
    'm unless ignoring(idx) m{idx="2"}',
    "m and on() vector(1)",
    'sum by (grp) (label_replace(m, "grp", "z", "idx", "[01]"))',
    "topk(1, count by (grp) (m))",
    # label_join and absent as Prometheus has them: an empty joined
    # value is no label (rows may then clash or fold), a metric name
    # written must be a valid one; absent's labels come from its
    # selector's matchers one by one (the first "=" of a name sets it,
    # any other matcher of the name deletes it).
    'label_join(m, "grp", "", "nope")',
    'label_join(m, "j", "-", "grp", "nope", "idx")',
    'label_join(m, "__name__", "_", "grp", "idx")',
    'label_join(m, "__name__", "-", "grp", "idx")',
    'label_replace(m, "__name__", "$1", "idx", "(.*)")',
    'absent(m{grp="zz", grp="yy"})',
    'absent(m{grp=~"z+", grp="zz", idx="9"})',
    'absent(m{grp="zz", grp=~"z+"})',
    'absent(nope{grp=""})',
    'sum by (j) (label_join(absent(m{grp="zz"}), "j", "-", "grp", "idx"))',
]


#: The two ways to answer a range query: the production columnar
#: evaluator and the loop that defines what it must return.
RANGE_EVALUATORS = {
    "columnar": lambda engine, *args: engine.query_range(*args),
    "per_step": query_range_per_step,
}


def _range_outcome(engine, query, start, end, step, evaluator):
    try:
        return RANGE_EVALUATORS[evaluator](engine, query, start, end, step)
    except Exception as exc:  # noqa: BLE001 - recorded for comparison
        return (type(exc), str(exc))


def _run_both_range(engine, query, start, end, step):
    return [
        _range_outcome(engine, query, start, end, step, evaluator)
        for evaluator in ("columnar", "per_step")
    ]


def assert_range_identical(engine, query, start, end, step):
    col, ref = _run_both_range(engine, query, start, end, step)
    if isinstance(col, tuple) or isinstance(ref, tuple):
        # Both evaluators must fail identically (type and message).
        assert col == ref, f"{query}: divergent errors {col!r} vs {ref!r}"
        return
    assert set(col.series) == set(ref.series), query
    for labels in ref.series:
        col_ts, col_vs = col.series[labels]
        ref_ts, ref_vs = ref.series[labels]
        assert np.array_equal(col_ts, ref_ts), f"{query}: {labels}"
        assert np.array_equal(col_vs, ref_vs, equal_nan=True), f"{query}: {labels}"


def _instant_outcome(engine, query, at):
    try:
        return engine.query(query, at)
    except Exception as exc:  # noqa: BLE001 - recorded for comparison
        return (type(exc), str(exc))


def assert_walk_matches_oracle(engine, query, at):
    """The production walk equals the oracle walk, whose subquery
    windows come from one ``_eval`` per inner step."""
    got = _instant_outcome(engine, query, at)
    ref = _instant_outcome(PerStepEngine.like(engine), query, at)
    if isinstance(got, tuple) or isinstance(ref, tuple):
        assert got == ref, f"{query} @ {at!r}: divergent errors {got!r} vs {ref!r}"
        return
    assert got.is_scalar == ref.is_scalar, query
    if ref.is_scalar:
        assert repr(got.scalar) == repr(ref.scalar), query
    assert [(el.labels, repr(el.value)) for el in got.vector] == [
        (el.labels, repr(el.value)) for el in ref.vector
    ], f"{query} @ {at!r}"


def assert_instant_identical(engine, query, at):
    """The walk at one timestamp equals a one-step columnar range: what
    licenses routing instants (rule groups included) through the walk
    while dashboards' grids go columnar."""
    assert_walk_matches_oracle(engine, query, at)
    ref = _instant_outcome(engine, query, at)
    col = _range_outcome(engine, query, at, at, 15.0, "columnar")
    if isinstance(col, tuple) or isinstance(ref, tuple):
        assert col == ref, f"{query}: divergent errors {col!r} vs {ref!r}"
        return
    if ref.is_scalar:
        points = [(Labels(), ref.scalar)]
    else:
        points = [(el.labels, el.value) for el in ref.vector]
    assert {labels for labels, _ in points} == set(col.series), query
    for labels, value in points:
        col_ts, col_vs = col.series[labels]
        assert col_ts.tolist() == [at], query
        assert repr(float(col_vs[0])) == repr(float(value)), query


@pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
@settings(max_examples=10, deadline=None)
@given(
    layout=_stale_series_strategy,
    start=st.integers(min_value=-100, max_value=500),
    span=st.integers(min_value=60, max_value=1800),
    step=st.sampled_from([7.3, 15.0, 37.0, 61.7, 290.0]),
)
def test_columnar_matches_per_step(query, layout, start, span, step):
    engine = PromQLEngine(build_db(layout))
    assert_range_identical(engine, query, float(start), float(start + span), step)
    assert_instant_identical(engine, query, float(start + span // 2))


#: ``grp`` values holding a newline, and what each regex must select:
#: Prometheus anchors a regex as ``^(?s:…)$``, so ``.`` matches a
#: newline and ``$`` only the end of the value (Python's ``$`` would
#: also match before a final newline).
NEWLINE_GROUPS = ("a\nb", "a", "a\n", "ab")
NEWLINE_QUERIES = {
    'm{grp=~"a.b"}': {("a\nb", "")},
    'm{grp=~"a"}': {("a", "")},
    'm{grp=~"a.*"}': {(grp, "") for grp in NEWLINE_GROUPS},
    'm{grp!~"a.*"}': set(),
    'm{grp=~"a\\n"}': {("a\n", "")},
    'label_replace(m, "g2", "[$1]", "grp", "a(.*)")': {
        ("a\nb", "[\nb]"), ("a", "[]"), ("a\n", "[\n]"), ("ab", "[b]"),
    },
    'label_replace(m, "g2", "x", "grp", "a")': {("a\nb", ""), ("a", "x"), ("a\n", ""), ("ab", "")},
}  # fmt: skip


@pytest.mark.parametrize("query", sorted(NEWLINE_QUERIES))
def test_regexes_match_newlines_as_prometheus(query):
    db = TSDB()
    for i, grp in enumerate(NEWLINE_GROUPS):
        labels = Labels({"__name__": "m", "grp": grp, "idx": str(i)})
        for t in range(0, 600, 15):
            db.append(labels, float(t), i + t / 100)
    engine = PromQLEngine(db)
    got = engine.query(query, 300.0)
    assert {(l.get("grp"), l.get("g2")) for l in got.labels} == NEWLINE_QUERIES[query]
    assert_range_identical(engine, query, 100.0, 500.0, 15.0)
    assert_instant_identical(engine, query, 300.0)


#: ``le`` bounds of the bucket layouts: ``1`` and ``1.0`` name the same
#: bound twice (Prometheus coalesces them).
BUCKET_LES = ("0.1", "1", "1.0", "10", "+Inf")


@st.composite
def _bucket_layouts(draw):
    """Cumulative bucket counters ``h{grp, le}`` sharing scrape times:
    group ``a`` has every bound, group ``b`` lacks ``+Inf``; each
    counter grows by random increments and resets to 0 at up to two
    scrapes, so neighbouring buckets need not stay monotonic."""
    times = sorted(draw(st.sets(st.integers(min_value=0, max_value=2000), min_size=2, max_size=25)))
    layout = {}
    for grp in ("a", "b"):
        for le in BUCKET_LES if grp == "a" else BUCKET_LES[:-1]:
            steps = draw(
                st.lists(st.integers(min_value=0, max_value=20), min_size=len(times), max_size=len(times))
            )
            resets = draw(st.sets(st.integers(min_value=0, max_value=len(times) - 1), max_size=2))
            value, points = 0.0, []
            for k, (t, inc) in enumerate(zip(times, steps)):
                value = 0.0 if k in resets else value + inc
                points.append((t, value))
            layout[(grp, le)] = points
    return layout


def build_bucket_db(layout) -> TSDB:
    db = TSDB()
    for (grp, le), points in layout.items():
        labels = Labels({"__name__": "h", "grp": grp, "le": le})
        for t, v in points:
            db.append(labels, float(t), v)
    return db


@pytest.mark.parametrize(
    "query",
    [
        "histogram_quantile(0.9, sum by (le) (rate(h[5m])))",
        "histogram_quantile(0.9, rate(h[5m]))",
        "histogram_quantile(0.5, h)",
    ],
)
@settings(max_examples=15, deadline=None)
@given(
    layout=_bucket_layouts(),
    start=st.integers(min_value=-100, max_value=500),
    span=st.integers(min_value=60, max_value=1800),
    step=st.sampled_from([7.3, 15.0, 61.7]),
)
def test_histogram_quantile_columnar_matches_per_step(query, layout, start, span, step):
    engine = PromQLEngine(build_bucket_db(layout))
    assert_range_identical(engine, query, float(start), float(start + span), step)
    assert_instant_identical(engine, query, float(start + span // 2))


def test_columnar_group_sums_start_from_positive_zero():
    """Each group's sum starts from +0.0, as the walk's ``_seq_sum``
    does, so a group of -0.0 members sums to +0.0, not -0.0 — the one
    input where starting from the first row instead shows."""
    db = TSDB()
    for grp, idx in (("a", "0"), ("a", "1"), ("b", "0")):
        for t in (0.0, 15.0, 30.0):
            db.append(Labels({"__name__": "m", "grp": grp, "idx": idx}), t, -0.0)
    engine = PromQLEngine(db)
    for query in ("sum by (grp, idx) (m)", "sum by (grp) (m)", "sum(m)", "avg by (grp) (m)"):
        assert_range_identical(engine, query, 0.0, 30.0, 15.0)
        assert_instant_identical(engine, query, 30.0)
        for _ts, vs in engine.query_range(query, 0.0, 30.0, 15.0).series.values():
            assert not np.signbit(vs).any(), query


#: Range-vector consumers of a subquery: over a plain selector, over an
#: aggregation (the fig2c shape), and over ``time()``, which has a
#: point at every inner step, so the count is the grid membership.
SUBQUERY_SHAPES = [
    "max_over_time(m[{w}])",
    "rate(m[{w}])",
    "quantile_over_time(0.5, m[{w}])",
    "avg_over_time((sum by (grp) (m))[{w}])",
    "count_over_time(time()[{w}])",
]


def _end_landing_on(x: float) -> float:
    """An ``end`` with ``end + 1e-9 == x`` exactly, if a float near
    ``x - 1e-9`` has one (the sum need not round-trip)."""
    end = x - 1e-9
    for toward in (math.inf, -math.inf):
        cand = end
        for _ in range(4):
            if cand + 1e-9 == x:
                return cand
            cand = math.nextafter(cand, toward)
    return end


def _near_grid_point(step: float, k: int, ulps: int) -> float:
    """A window end whose membership bound ``end + 1e-9`` sits ``ulps``
    ULPs off the inner grid point ``k * step``: where ``floor`` of the
    division and the loop's ``t <= end + 1e-9`` can disagree by one."""
    x = k * step
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return _end_landing_on(x)


@pytest.mark.parametrize("shape", SUBQUERY_SHAPES)
@settings(max_examples=25, deadline=None)
@given(
    layout=_stale_series_strategy,
    range_s=st.integers(min_value=1, max_value=1500),
    step=st.sampled_from(["100ms", "7300ms", "15s", "47s", "60s", "290s"]),
    offset=st.sampled_from([0, 45, 300]),
    k=st.integers(min_value=-2, max_value=40),
    ulps=st.sampled_from([None, -2, -1, 0, 1, 2]),
    jitter=st.floats(min_value=0.0, max_value=300.0),
)
def test_subquery_walk_matches_per_step_oracle(shape, layout, range_s, step, offset, k, ulps, jitter):
    """Random ``(range, step, offset, at)``: the walk's subquery windows
    (one columnar pass) equal the oracle's (one ``_eval`` per inner
    step), bit for bit.  With ``ulps`` set the window end sits on, or
    within two ULPs of, an inner grid point's ``end + 1e-9`` bound."""
    sstep = parse_duration(step)
    range_s = min(range_s, int(sstep * 2000))  # keep the oracle's loop short
    window = f"{range_s}s:{step}" + (f"] offset {offset}s" if offset else "]")
    end = k * sstep + jitter if ulps is None else _near_grid_point(sstep, k, ulps)
    assert_walk_matches_oracle(
        PromQLEngine(build_db(layout)), shape.replace("[{w}]", "[" + window), end + offset
    )


def test_subquery_grid_membership_at_the_ulp():
    """The columnar grid bounds are index arithmetic (``ceil``/``floor``
    of a division) corrected by one where the division rounds across
    the oracle's ``j * step <= end + 1e-9`` — about 1% of ends placed
    within two ULPs of a far grid point need it.  Sweep 3000 of them."""
    rng = np.random.default_rng(18)
    engine = PromQLEngine(TSDB())
    oracle = PerStepEngine.like(engine)
    for step, text in ((0.1, "100ms"), (7.3, "7300ms"), (61.7, "61700ms")):
        query = f"count_over_time(time()[{4 * step:g}s:{text}])"
        for k, ulps in zip(rng.integers(1000, 200000, 1000), rng.integers(-2, 3, 1000)):
            at = _near_grid_point(step, int(k), int(ulps))
            got, ref = engine.query(query, at).vector, oracle.query(query, at).vector
            assert got == ref, (step, int(k), int(ulps), at)


def test_columnar_lookback_boundary_identical():
    """At exactly t + lookback the sample must drop out of both paths."""
    db = TSDB()
    labels = Labels({"__name__": "m", "grp": "a", "idx": "0"})
    db.append(labels, 0.0, 42.0)
    engine = PromQLEngine(db)
    inside = engine.query("m", 299.0)
    at_boundary = engine.query("m", 300.0)
    assert [el.value for el in inside.vector] == [42.0]
    assert at_boundary.vector == []
    assert_instant_identical(engine, "m", 299.0)
    assert_instant_identical(engine, "m", 300.0)
    # and over a range whose steps straddle the boundary
    assert_range_identical(engine, "m", 0.0, 600.0, 60.0)


def test_columnar_staleness_marker_identical():
    """A NaN sample hides the series immediately, in both evaluators."""
    db = TSDB()
    labels = Labels({"__name__": "m", "grp": "a", "idx": "0"})
    db.append(labels, 0.0, 5.0)
    db.append(labels, 10.0, math.nan)
    db.append(labels, 20.0, 7.0)
    engine = PromQLEngine(db)
    assert [el.value for el in engine.query("m", 5.0).vector] == [5.0]
    assert engine.query("m", 12.0).vector == []
    assert [el.value for el in engine.query("m", 25.0).vector] == [7.0]
    for at in (5.0, 12.0, 25.0):
        assert_instant_identical(engine, "m", at)
    for query in ("m", "rate(m[1m])", "count_over_time(m[30s])", "sum(m)"):
        assert_range_identical(engine, query, 0.0, 120.0, 5.0)


def test_columnar_many_to_many_error_identical():
    """Duplicate one-side signatures raise the same QueryError."""
    db = TSDB()
    db.append(Labels({"__name__": "m", "grp": "a", "idx": "0"}), 0.0, 1.0)
    db.append(Labels({"__name__": "m", "grp": "a", "idx": "1"}), 0.0, 2.0)
    db.append(Labels({"__name__": "n", "grp": "a"}), 0.0, 3.0)
    engine = PromQLEngine(db)
    assert_range_identical(engine, "n * on(grp) m", 0.0, 60.0, 15.0)
    assert_instant_identical(engine, "n * on(grp) m", 30.0)


def _pair_db(late_start: float = 0.0) -> TSDB:
    """``m{grp="a", idx="0"} = 1`` and ``m{grp="a", idx="1"} = 2`` every
    15 s from 0 to 30 s; ``idx="1"`` starts at ``late_start`` instead."""
    db = TSDB()
    for t in (0.0, 15.0, 30.0):
        db.append(Labels({"__name__": "m", "grp": "a", "idx": "0"}), t, 1.0)
        db.append(Labels({"__name__": "m", "grp": "a", "idx": "1"}), late_start + t, 2.0)
    return db


@pytest.mark.parametrize(
    "query, error",
    [
        ('label_replace(m, "idx", "0", "idx", ".*")', "vector cannot contain metrics with the same labelset"),
        (
            'm * on(grp) group_left(idx) max by (grp, idx) (m{idx="0"})',
            "multiple matches for labels: grouping labels must ensure unique matches",
        ),
    ],
)
def test_one_label_set_twice_at_one_step_is_an_error(query, error):
    """Parent: two elements with one label set (instant), and one series
    with every timestamp twice (range)."""
    engine = PromQLEngine(_pair_db())
    with pytest.raises(QueryError) as walk:
        engine.query(query, 30.0)
    with pytest.raises(QueryError) as grid:
        engine.query_range(query, 0.0, 30.0, 15.0)
    assert str(walk.value) == str(grid.value) == error
    assert_range_identical(engine, query, 0.0, 30.0, 15.0)
    assert_instant_identical(engine, query, 30.0)


def test_one_label_set_at_disjoint_steps_is_one_series():
    """``idx="1"`` starts after ``idx="0"`` has left the lookback: the
    relabelled rows never meet, and the range holds both as one series."""
    engine = PromQLEngine(_pair_db(late_start=400.0))
    query = 'label_replace(m, "idx", "0", "idx", ".*")'
    result = engine.query_range(query, 0.0, 420.0, 105.0)
    ((labels, (ts, vs)),) = result.series.items()
    assert labels == Labels({"__name__": "m", "grp": "a", "idx": "0"})
    assert ts.tolist() == [0.0, 105.0, 210.0, 315.0, 420.0] and vs.tolist() == [1.0, 1.0, 1.0, 1.0, 2.0]
    assert_range_identical(engine, query, 0.0, 420.0, 105.0)


# ---------------------------------------------------------------------------
# Differential harness: columnar head layout vs list head layout.
# ---------------------------------------------------------------------------
#
# The ring-buffer head (``ColumnarSeries``) must be *observationally
# identical* to the original list-backed head (the oracle in
# ``tests/reference/list_head.py``): same PromQL answers, bit for bit,
# from both range evaluators.  The hypothesis sweep feeds the same
# random layout (staleness markers included) into one TSDB of each
# layout and compares engine output
# across layouts; a deterministic test then stresses the paths the
# small random layouts cannot reach — buffer growth, tail overwrite
# after sealing, retention trims that cut through sealed chunks.


def assert_layouts_identical(engines, query, start, end, step):
    """Engine output over a list-head and a columnar-head TSDB match."""
    for strategy in RANGE_EVALUATORS:
        ref = _range_outcome(engines["list"], query, start, end, step, strategy)
        got = _range_outcome(engines["columnar"], query, start, end, step, strategy)
        if isinstance(ref, tuple) or isinstance(got, tuple):
            assert ref == got, f"{query} [{strategy}]: {ref!r} vs {got!r}"
            continue
        assert set(ref.series) == set(got.series), f"{query} [{strategy}]"
        for labels in ref.series:
            ref_ts, ref_vs = ref.series[labels]
            got_ts, got_vs = got.series[labels]
            assert ref_ts.tobytes() == got_ts.tobytes(), f"{query} [{strategy}]: {labels}"
            assert ref_vs.tobytes() == got_vs.tobytes(), f"{query} [{strategy}]: {labels}"


#: A representative slice of DIFFERENTIAL_QUERIES — the full list runs
#: in the evaluator differential above; the layout differential only
#: needs one query per selector/kernel shape the head serves.
LAYOUT_QUERIES = [
    "m",
    'm{grp=~"a|b", idx!="3"}',
    "m offset 45",
    "rate(m[4m])",
    "avg_over_time(m[4m])",
    "quantile_over_time(0.9, m[5m])",
    "sum by (grp) (m)",
    "topk(2, m)",
    "m + on(grp, idx) m",
    "avg_over_time(sum by (grp) (m)[5m:90s])",
]


@pytest.mark.parametrize("query", LAYOUT_QUERIES)
@settings(max_examples=8, deadline=None)
@given(
    layout=_stale_series_strategy,
    start=st.integers(min_value=-100, max_value=500),
    span=st.integers(min_value=60, max_value=1800),
    step=st.sampled_from([7.3, 15.0, 61.7, 290.0]),
)
def test_head_layouts_identical(query, layout, start, span, step):
    engines = {
        "list": PromQLEngine(build_db(layout, ListHeadTSDB)),
        "columnar": PromQLEngine(build_db(layout)),
    }
    assert_layouts_identical(engines, query, float(start), float(start + span), step)


def test_head_layouts_identical_dense_with_seal_and_trim():
    """Deterministic stress: growth, tail overwrite, trims.

    800 samples/series forces several ring-buffer doublings; two
    retention trims then advance the live region's start.  The list
    head sees the exact same mutations and every engine answer must
    stay bit-identical.
    """
    dbs = {"list": ListHeadTSDB(), "columnar": TSDB()}
    rng = np.random.default_rng(7)
    all_labels = [
        Labels({"__name__": "m", "grp": g, "idx": str(i)})
        for g in ("a", "b")
        for i in range(3)
    ]
    for labels in all_labels:
        vs = rng.normal(100.0, 25.0, size=800)
        for k in range(800):
            for db in dbs.values():
                db.append(labels, 15.0 * k, float(vs[k]))
    # Tail overwrite (idempotent re-ingest).
    for db in dbs.values():
        db.append(all_labels[0], 15.0 * 799, -1.0)
    # Two trims, 240 then 10 more samples.
    for db in dbs.values():
        for series in db.all_series():
            series.truncate_before(15.0 * 240)
            series.truncate_before(15.0 * 250)
    engines = {hl: PromQLEngine(db) for hl, db in dbs.items()}
    for query in LAYOUT_QUERIES:
        assert_layouts_identical(engines, query, 3000.0, 12000.0, 61.7)
