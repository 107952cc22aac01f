"""The query-answer renderer against the frozen pre-renderer render.

``repro.tsdb.http`` writes a query's 200 body as text straight from the
engine's result (:func:`~repro.tsdb.http.range_result`,
:func:`~repro.tsdb.http.instant_result`,
:func:`~repro.tsdb.http.query_response`).  The oracle is
``tests/reference/query_render.py``: the per-point lists and the one
``json.dumps`` pass PromAPI used before.  Every body with finite values
must be byte-identical to it; a non-finite value must differ only by
being spelled ``NaN`` / ``+Inf`` / ``-Inf``.

The generated cases cover label values with quotes, backslashes,
newlines and non-ASCII, empty results and zero-point series, series
covering sparse subsets of one step grid, the awkward floats (``-0.0``,
the smallest subnormal, ``1e22``, ``1e-7``, ``2**53 + 2``), vector and
scalar answers at int and float timestamps, and ``stats=all``.

The renderer writes each distinct value, label set and step once
across answers, through three process-wide memos, so every differential here
also runs *warm*: answers rendered in sequence through one memo, after
a fixed sequence that puts ``-0.0`` after ``0.0`` and the reverse,
NaN, ``±Inf``, ``5e-324`` and ``2**53 + 2`` through it; and after each
answer the value and step memos must hold no key they could answer
wrongly or never hit (no zero, no NaN).  ``TestSharedMemosUnderThreads`` serves a
PromAPI on a real threaded server while series appear and vanish
between rounds of concurrent clients, and every body must equal what a
memo-less evaluation and the frozen render give.

``TestSeededMutations`` edits the renderer's source in memory — step
text shared across series by index instead of by value, no ``", "``
between series, a ``numpy.float64`` ``repr`` for values, the ``stats``
key written before ``result``, the value memo's zero guard or NaN
guard dropped, the value memo keyed by a rounded value or by a
12-digit string, the step memo keyed by a rounded step — and the
derandomised warm differential must fail on each.
"""

from __future__ import annotations

import inspect
import json
import math
import threading
import types
import urllib.parse

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.common.httpx import http_get, serve_threading
from repro.tsdb import http
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import InstantResult, PromQLEngine, RangeResult, range_steps
from repro.tsdb.promql.parser import parse_expr
from repro.tsdb.storage import TSDB
from tests.reference.query_render import render_query, render_query_range

AWKWARD = (-0.0, 0.0, 5e-324, 1e22, 1e-7, 2.0**53 + 2.0, 1e16, 0.1, 1 / 3, -1.5e-300)
NON_FINITE = (math.nan, math.inf, -math.inf)


def prometheus_text(value) -> str:
    """The value spelling the renderer promises, written independently."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return str(value)


label_values = st.text(st.sampled_from('ab"\\\n\t/é日😀\x00\x7f '), max_size=6) | st.text(max_size=4)
label_sets = st.builds(
    lambda name, rest: Labels({**rest, **({"__name__": name} if name else {})}),
    st.sampled_from(["", "up", "ceems:node:power_watts"]),
    st.dictionaries(st.sampled_from(["job", "instance", "le", "a_b", "Z9"]), label_values, max_size=4),
)


def sample_values(finite: bool):
    values = st.sampled_from(AWKWARD) | st.floats(allow_nan=False, allow_infinity=False)
    return values if finite else values | st.sampled_from(NON_FINITE)


stats_dicts = st.none() | st.dictionaries(
    st.text(max_size=5),
    st.floats(allow_nan=False) | st.integers() | st.text(max_size=5) | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    max_size=3,
)


@st.composite
def range_results(draw, finite: bool = True) -> RangeResult:
    start = draw(st.sampled_from([0.0, 1700000000.0, 1700000000.125, 1e9 + 0.1, 86385.0]))
    step = draw(st.sampled_from([15.0, 30.0, 0.1, 1 / 3, 60.0]))
    points = draw(st.integers(1, 12))
    end = start + (points - 1) * step
    grid = range_steps(start, end, step)
    result = RangeResult(start=start, end=end, step=step)
    for labels in draw(st.lists(label_sets, max_size=5, unique=True)):
        mask = np.array(draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid))), dtype=bool)
        values = draw(st.lists(sample_values(finite), min_size=int(mask.sum()), max_size=int(mask.sum())))
        result.series[labels] = (grid[mask], np.array(values, dtype=np.float64))
    return result


@st.composite
def instant_results(draw, finite: bool = True) -> InstantResult:
    at = draw(st.sampled_from([1700000000, 0, 1700000000.0, 1700000000.125, 86385.5]))
    if draw(st.booleans()):
        return InstantResult(timestamp=at, scalar=draw(sample_values(finite)))
    labels = draw(st.lists(label_sets, max_size=5, unique=True))
    values = draw(st.lists(sample_values(finite), min_size=len(labels), max_size=len(labels)))
    return InstantResult(timestamp=at, labels=tuple(labels), values=values)


def rendered(module, result, stats) -> bytes:
    render = module.range_result if isinstance(result, RangeResult) else module.instant_result
    response = module.query_response(*render(result), stats)
    assert response.status == 200 and response.headers == {"content-type": "application/json"}
    return response.body


def frozen(result, stats, value_text=str) -> bytes:
    render = render_query_range if isinstance(result, RangeResult) else render_query
    return render(result, None if stats is None else dict(stats), value_text)


def assert_memo_holds_only_hittable_keys(module) -> None:
    """A zero key would answer ``-0.0`` with ``0.0``'s text or the
    reverse; a NaN key can never be hit and only fills the memo."""
    assert all(key == key and key != 0 for key in module._VALUE_TEXT), "value memo holds a zero or NaN key"
    assert all(key == key and key != 0 for key in module._STEP_TEXT), "step memo holds a zero or NaN key"


#: Value columns rendered in this order, through one memo, before any
#: generated answer of a warm differential: each pair of neighbouring
#: columns puts a value after one it must not be confused with.
WARM_SEQUENCE = (
    (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.0**53 + 2.0, 1.0, 1 / 3),
    (-0.0, 0.0, math.nan, -math.inf, math.inf, 1e-7, 2.0**53, 1.0000000000000002, 0.3333333333333),
    (0.0, -0.0, -1.5e-300, 5e-324, 2.0**53 + 2.0, 1e22, 1e16, 0.1, 1 / 3),
)


def warm_results():
    """The :data:`WARM_SEQUENCE` as range, vector and scalar answers."""
    labels = Labels({"__name__": "up", "job": "a"})
    for values in WARM_SEQUENCE:
        grid = range_steps(60.0, 60.0 + 15.0 * (len(values) - 1), 15.0)
        yield RangeResult(grid[0], grid[-1], 15.0, {labels: (grid, np.array(values))})
        yield InstantResult(timestamp=75.5, labels=tuple(Labels(job=str(i)) for i in range(len(values))), values=list(values))
        yield from (InstantResult(timestamp=90, scalar=value) for value in values)


def assert_renders_in_sequence(module, results) -> None:
    """Each answer, rendered after the ones before it through the
    module's memos, equals the frozen render of that answer alone."""
    for result in results:
        assert rendered(module, result, None) == frozen(result, None, prometheus_text)
        assert_memo_holds_only_hittable_keys(module)


class TestAgainstFrozenRender:
    @settings(max_examples=300, deadline=None)
    @given(result=range_results(), stats=stats_dicts)
    def test_matrix_bytes_equal_the_old_render(self, result, stats):
        assert rendered(http, result, stats) == frozen(result, stats)

    @settings(max_examples=200, deadline=None)
    @given(result=instant_results(), stats=stats_dicts)
    def test_vector_and_scalar_bytes_equal_the_old_render(self, result, stats):
        assert rendered(http, result, stats) == frozen(result, stats)

    @settings(max_examples=200, deadline=None)
    @given(result=range_results(finite=False) | instant_results(finite=False), stats=stats_dicts)
    def test_non_finite_values_differ_only_in_spelling(self, result, stats):
        body = rendered(http, result, stats)
        assert body == frozen(result, stats, prometheus_text)
        json.loads(body)  # still plain JSON: the spelling sits inside quotes

    def test_the_listed_awkward_values_and_labels_once_each(self):
        labels = Labels({"__name__": "up", "job": 'q"uo\\te\nnew', "le": "日本😀"})
        grid = range_steps(1700000000.0, 1700000000.0 + 15.0 * (len(AWKWARD) - 1), 15.0)
        result = RangeResult(grid[0], grid[-1], 15.0, {labels: (grid, np.array(AWKWARD)), Labels(): (grid[:0], grid[:0])})
        body = rendered(http, result, {"timings": {"evalTotalTime": 0.5}})
        assert body == frozen(result, {"timings": {"evalTotalTime": 0.5}})
        assert b'"values": []' in body and b"5e-324" in body and b"1e+22" in body and b"9007199254740994.0" in body

    def test_empty_answers(self):
        assert rendered(http, RangeResult(0.0, 60.0, 15.0), None) == frozen(RangeResult(0.0, 60.0, 15.0), None)
        empty = InstantResult(timestamp=60.0)
        assert rendered(http, empty, None) == frozen(empty, None)
        assert rendered(http, empty, None) == b'{"status": "success", "data": {"resultType": "vector", "result": []}}'


class TestWarmMemo:
    def test_the_warm_sequence_twice_over(self):
        assert_renders_in_sequence(http, [*warm_results(), *warm_results()])

    @settings(max_examples=200, deadline=None)
    @given(
        results=st.lists(
            range_results(finite=False) | instant_results(finite=False), min_size=2, max_size=4
        )
    )
    def test_answers_rendered_in_sequence_share_one_memo(self, results):
        assert_renders_in_sequence(http, [*results, *reversed(results)])

    def test_a_refresh_reuses_every_value_text_and_metric_text(self):
        grid = range_steps(0.0, 150.0, 15.0)
        result = RangeResult(0.0, 150.0, 15.0, {Labels(job="a"): (grid, grid / 7.0)})
        first = rendered(http, result, None)
        texts = {http._VALUE_TEXT[v] for v in (grid / 7.0).tolist() if v}
        assert rendered(http, result, None) == first
        assert {http._VALUE_TEXT[v] for v in (grid / 7.0).tolist() if v} == texts
        assert http._METRIC_TEXT[Labels(job="a")] == '{"job": "a"}'

    def test_each_memo_is_emptied_wholesale_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(http, "VALUE_TEXT_MAX", 8)
        monkeypatch.setattr(http, "METRIC_TEXT_MAX", 4)
        http._VALUE_TEXT.clear()
        http._METRIC_TEXT.clear()
        for n in range(1, 40):
            values = [n + i / 16 for i in range(5)]
            labels = tuple(Labels(job=f"{n}-{i}") for i in range(5))
            result = InstantResult(timestamp=n, labels=labels, values=values)
            assert rendered(http, result, None) == frozen(result, None)
            # Cleared before a batch of misses goes in, never after it.
            assert len(http._VALUE_TEXT) < 8 + len(values) and len(http._METRIC_TEXT) < 4 + 1


#: ``(path, query)`` pairs the threaded clients ask, each evaluated
#: through the per-expression plan memos and rendered through the
#: render memos every thread shares.
THREAD_QUERIES = (
    ("/api/v1/query_range", "sum by (grp) (m)"),
    ("/api/v1/query_range", "sum by (grp) (rate(m[2m]))"),
    ("/api/v1/query_range", "m * on(grp) group_left(site) n"),
    ("/api/v1/query_range", 'label_replace(m, "g2", "$1-x", "grp", "(.*)")'),
    ("/api/v1/query_range", "-m / 3"),
    ("/api/v1/query_range", "m / (m - m)"),
    ("/api/v1/query", "sum by (grp) (m)"),
    ("/api/v1/query", "m * on(grp) group_left(site) n"),
    ("/api/v1/query", 'm unless m{idx="1"}'),
)
STEP, WINDOW = 15.0, 300.0


class TestSharedMemosUnderThreads:
    """Several clients on one threaded PromAPI, series appearing and
    vanishing between rounds: every body equals a memo-less engine's
    answer in the frozen render."""

    def test_clients_get_the_memo_less_bytes(self):
        db = TSDB()
        engine = PromQLEngine(db)
        live = {Labels({"__name__": "m", "grp": g, "idx": str(i)}): float(i) for g in "ab" for i in range(3)}
        live.update({Labels({"__name__": "n", "grp": g, "site": f"s-{g}"}): 2.0 for g in "ab"})
        now = 0.0
        for now in np.arange(STEP, WINDOW + STEP, STEP).tolist():
            for labels, value in live.items():
                db.append(labels, now, value)
        api = http.PromAPI(db)
        server = serve_threading(api.app)
        try:
            for round_no in range(6):
                now = self._edit(db, live, round_no, now)
                expected = {(path, query): self._memo_less(engine, path, query, now) for path, query in THREAD_QUERIES}
                urls = {
                    key: f"{server.url}{key[0]}?" + urllib.parse.urlencode(self._params(key[0], key[1], now))
                    for key in THREAD_QUERIES
                }
                got: list[tuple[tuple, int, bytes]] = []

                def client(offset: int) -> None:
                    keys = [*THREAD_QUERIES[offset:], *THREAD_QUERIES[:offset]] * 2
                    for key in keys:
                        status, body = http_get(urls[key])
                        got.append((key, status, body))

                threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert len(got) == 4 * 2 * len(THREAD_QUERIES)
                for key, status, body in got:
                    assert (status, body) == (200, expected[key]), f"round {round_no}: {key}"
                assert_memo_holds_only_hittable_keys(http)
        finally:
            server.close()

    @staticmethod
    def _edit(db: TSDB, live: dict, round_no: int, now: float) -> float:
        """A new series appears, from the second round on an old one
        vanishes (staleness marker), a value turns to ``-0.0`` or
        ``0.0``; then two scrapes.  In the first round the instant's
        series are the grid's, so the walk's and the grid's plans of
        one node meet the same inputs and must still be kept apart."""
        fresh = Labels({"__name__": "m", "grp": "ab"[round_no % 2], "idx": str(3 + round_no)})
        live[fresh] = round_no / 7
        if round_no:
            gone = sorted((labels for labels in live if labels.get("__name__") == "m"), key=tuple)[round_no % 3]
            del live[gone]
            db.append(gone, now + STEP, math.nan)
        for labels in live:
            if labels.get("idx") == "0":
                live[labels] = -0.0 if round_no % 2 else 0.0
        for now in (now + STEP, now + 2 * STEP):
            for labels, value in live.items():
                db.append(labels, now, value if labels.get("idx") == "0" else value + now / 1e3)
        return now

    @staticmethod
    def _params(path: str, query: str, now: float) -> dict:
        if path == "/api/v1/query":
            return {"query": query, "time": repr(now)}
        return {"query": query, "start": repr(now - WINDOW), "end": repr(now), "step": repr(STEP)}

    @staticmethod
    def _memo_less(engine: PromQLEngine, path: str, query: str, now: float) -> bytes:
        """A tree ``parse_expr`` never handed out has a fresh memo, and
        the frozen render keeps no memo."""
        ast = parse_expr.__wrapped__(query)
        if path == "/api/v1/query":
            return render_query(engine.query(ast, now), None, prometheus_text)
        return render_query_range(engine.query_range(ast, now - WINDOW, now, STEP), None, prometheus_text)


class TestNonFiniteSpelling:
    def test_sample_text(self):
        assert [http.sample_text(v) for v in (*NON_FINITE, -0.0, 2.5)] == ["NaN", "+Inf", "-Inf", "-0.0", "2.5"]

    def test_matrix_scalar_and_vector(self):
        grid = np.array([15.0, 30.0, 45.0, 60.0])
        result = RangeResult(15.0, 60.0, 15.0, {Labels(): (grid, np.array([math.nan, math.inf, -math.inf, 1.0]))})
        assert json.loads(rendered(http, result, None))["data"]["result"][0]["values"] == [
            [15.0, "NaN"], [30.0, "+Inf"], [45.0, "-Inf"], [60.0, "1.0"],
        ]  # fmt: skip
        assert rendered(http, InstantResult(timestamp=7, scalar=-math.inf), None).endswith(b'"result": [7, "-Inf"]}}')
        vector = InstantResult(timestamp=7.5, labels=(Labels(job="inf"),), values=[math.nan])
        assert b'{"metric": {"job": "inf"}, "value": [7.5, "NaN"]}' in rendered(http, vector, None)

    def test_text_columns_already_spelled_are_left_alone(self):
        """The frontend hands the renderer value texts it parsed from a
        backend answer: spelled already, and written back unchanged."""
        text = http.matrix_text([('{"a": "b"}', [1.0, 2.0], ["+Inf", "NaN"])], [0.0, 1.0, 2.0])
        assert text == '[{"metric": {"a": "b"}, "values": [[1.0, "+Inf"], [2.0, "NaN"]]}]'


def mutant(*edits: tuple[str, str]) -> types.ModuleType:
    """``repro.tsdb.http`` with each ``(old, new)`` edit made, loaded as
    a module of its own (with memos of its own)."""
    source = inspect.getsource(http)
    for old, new in edits:
        assert source.count(old) >= 1, f"mutation site gone from repro.tsdb.http: {old!r}"
        source = source.replace(old, new)
    module = types.ModuleType("mutated_http")
    exec(compile(source, http.__file__, "exec"), module.__dict__)
    return module


def _value_memo_keyed_by(key: str) -> tuple[tuple[str, str], ...]:
    return (
        ("list(map(memo.get, values))", f"list(map(memo.get, [{key.format('v')} for v in values]))"),
        ("memo[value] = text", f"memo[{key.format('value')}] = text"),
    )


MUTATIONS = {
    "step text shared across series by index": (
        ("map(heads.__getitem__, ts)", "(heads.setdefault(i, f'[{t!r}, \"') for i, t in enumerate(ts))"),
    ),
    "no separator between series": (
        (
            '", ".join(\n        f\'{{"metric": {metric}, "values"',
            '"".join(\n        f\'{{"metric": {metric}, "values"',
        ),
    ),
    "numpy.float64 repr of values": (("value_texts(vs.tolist())", "value_texts(list(vs))"),),
    "stats before result": (
        (
            """"resultType": "{result_type}", "result": {result}{tail}}}}}'""",
            """"resultType": "{result_type}"{tail}, "result": {result}}}}}'""",
        ),
    ),
    "value memo zero guard dropped": (("if value and value == value:", "if value == value:"),),
    "value memo NaN guard dropped": (("if value and value == value:", "if value:"),),
    "value memo keyed by a rounded value": _value_memo_keyed_by("round({}, 6)"),
    "value memo keyed by a 12-digit str": _value_memo_keyed_by("'{{:.12g}}'.format({})"),
    "step memo keyed by a rounded step": (
        ("list(map(memo.get, grid))", "list(map(memo.get, [round(t, 1) for t in grid]))"),
        ("memo[t] = head", "memo[round(t, 1)] = head"),
    ),
}


def seeded_differential(module) -> None:
    """The warm differential on a fixed, derandomised set of cases: the
    warm sequence, then generated answers in sequence, through the
    module's own memos."""
    assert_renders_in_sequence(module, warm_results())

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        phases=[Phase.generate],
        report_multiple_bugs=False,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(result=range_results() | instant_results(finite=False), stats=stats_dicts)
    def differential(result, stats):
        assert rendered(module, result, stats) == frozen(result, stats, prometheus_text)
        assert_memo_holds_only_hittable_keys(module)

    differential()


class TestSeededMutations:
    def test_the_unmutated_module_passes_through_the_same_loader(self):
        seeded_differential(mutant(("def sample_text(", "def sample_text(")))

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_the_differential_fails_on_each(self, name):
        module = mutant(*MUTATIONS[name])
        with pytest.raises(AssertionError, match="assert b'|value memo holds"):
            seeded_differential(module)
