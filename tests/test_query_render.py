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

``TestSeededMutations`` edits the renderer's source in memory four
ways — step text shared across series by index instead of by value, no
``", "`` between series, a ``numpy.float64`` ``repr`` for values, the
``stats`` key written before ``result`` — and the derandomised
differential must fail on each.
"""

from __future__ import annotations

import inspect
import json
import math
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.tsdb import http
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import InstantResult, RangeResult, range_steps
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
        text = http.matrix_text([({"a": "b"}, [1.0, 2.0], ["+Inf", "NaN"])], [0.0, 1.0, 2.0])
        assert text == '[{"metric": {"a": "b"}, "values": [[1.0, "+Inf"], [2.0, "NaN"]]}]'


def mutant(old: str, new: str) -> types.ModuleType:
    """``repro.tsdb.http`` with one edit, loaded as a module of its own."""
    source = inspect.getsource(http)
    assert source.count(old) >= 1, f"mutation site gone from repro.tsdb.http: {old!r}"
    module = types.ModuleType("mutated_http")
    exec(compile(source.replace(old, new), http.__file__, "exec"), module.__dict__)
    return module


MUTATIONS = {
    "step text shared across series by index": (
        "map(heads.__getitem__, ts)",
        "(heads.setdefault(i, f'[{t!r}, \"') for i, t in enumerate(ts))",
    ),
    "no separator between series": (
        """", ".join(\n        f'{{"metric": {json.dumps(metric)}""",
        """"".join(\n        f'{{"metric": {json.dumps(metric)}""",
    ),
    "numpy.float64 repr of values": ("list(map(repr, vs.tolist()))", "list(map(repr, vs))"),
    "stats before result": (
        """"resultType": "{result_type}", "result": {result}{tail}}}}}'""",
        """"resultType": "{result_type}"{tail}, "result": {result}}}}}'""",
    ),
}


def seeded_differential(module) -> None:
    """The matrix differential on a fixed, derandomised set of cases."""

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        phases=[Phase.generate],
        report_multiple_bugs=False,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(result=range_results(), stats=stats_dicts)
    def differential(result, stats):
        assert rendered(module, result, stats) == frozen(result, stats)

    differential()


class TestSeededMutations:
    def test_the_unmutated_module_passes_through_the_same_loader(self):
        seeded_differential(mutant("def sample_text(", "def sample_text("))

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_the_differential_fails_on_each(self, name):
        with pytest.raises(AssertionError, match="assert b'"):
            seeded_differential(mutant(*MUTATIONS[name]))
