"""``parse_expr`` remembers the AST of the last few hundred texts.

Every door reaches the parser through ``plan_query``, and a dashboard
re-sends the same few texts on every refresh.  These tests pin what the
memo may and may not do: the same text gets the same (frozen) tree, a
remembered tree equals what a fresh ``_Parser`` run builds, a text that
does not parse is lexed again and raises the same error on every call,
the bound holds and evicts only the oldest, and threads may share it.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import yamlite
from repro.common.errors import QueryError
from repro.dashboard.grafana_json import all_dashboards
from repro.tsdb.promql import parser
from repro.tsdb.promql.lexer import tokenize
from repro.tsdb.promql.parser import AST_MEMO_SIZE, parse_expr
from tests.test_promql_reference import DIFFERENTIAL_QUERIES

REPO = Path(__file__).resolve().parents[1]


#: What ``parse_expr`` does, with nothing remembered: a fresh ``_Parser`` run.
fresh = parse_expr.__wrapped__


def outcome(parse, text: str):
    try:
        return ("ok", parse(text))
    except QueryError as exc:
        return ("error", str(exc), exc.position)


def remembered() -> int:
    return parse_expr.cache_info().currsize


@pytest.fixture(autouse=True)
def empty_memo():
    """The memo is one per process: start and leave each test with none."""
    parse_expr.cache_clear()
    yield
    parse_expr.cache_clear()


def shipped_expressions() -> list[str]:
    panels = [
        target["expr"].replace("$job", "12345")
        for dashboard in all_dashboards().values()
        for panel in dashboard["panels"]
        for target in panel.get("targets", [])
        if "expr" in target
    ]
    rules = yamlite.load_file(str(REPO / "etc" / "prometheus-rules.yml"))
    return panels + [rule["expr"] for group in rules["groups"] for rule in group["rules"]]


class TestSameTextSameTree:
    def test_second_ask_returns_the_first_object(self):
        text = 'sum by (uuid) (rate(ceems_cpu_seconds_total{uuid="7"}[5m]))'
        first = parse_expr(text)
        assert parse_expr(text) is first and remembered() == 1
        assert first == fresh(text)

    def test_the_key_is_the_text_not_its_length(self):
        asts = {text: parse_expr(text) for text in ("up", "xy", "m1", "-1", "1h")}
        assert remembered() == len(asts)
        for text, ast in asts.items():
            assert parse_expr(text) is ast and ast == fresh(text)
        assert asts["up"].name == "up" and asts["xy"].name == "xy"

    def test_whitespace_variants_are_distinct_texts_with_equal_trees(self):
        assert parse_expr("a + b") == parse_expr("a+b")
        assert parse_expr("a + b") is not parse_expr("a+b") and remembered() == 2


class TestErrorsAreNeverRemembered:
    @pytest.mark.parametrize("bad", ["sum(", "up{a=}", "1.2.3", "up @ 5", '"never ends', "up)", "topk(x)", "{}"])
    def test_failing_text_raises_alike_every_time_and_is_lexed_every_time(self, bad, monkeypatch):
        parse_expr("up")
        lexed: list[str] = []

        def counting(text):
            lexed.append(text)
            return tokenize(text)

        monkeypatch.setattr(parser, "tokenize", counting)
        expected = outcome(fresh, bad)
        assert expected[0] == "error"
        del lexed[:]
        for ask in range(1, 4):
            assert outcome(parse_expr, bad) == expected
            assert lexed == [bad] * ask  # not an error replayed from a store
            assert remembered() == 1

    def test_a_text_that_fails_does_not_push_a_good_one_out(self):
        good = [parse_expr(f"m{i}") for i in range(AST_MEMO_SIZE)]
        for i in range(AST_MEMO_SIZE):
            with pytest.raises(QueryError):
                parse_expr(f"m{i} +")
        assert all(parse_expr(f"m{i}") is good[i] for i in range(AST_MEMO_SIZE))


class TestBound:
    def test_one_text_past_the_bound_evicts_the_oldest_and_nothing_else(self):
        asts = [parse_expr(f"m{i}") for i in range(AST_MEMO_SIZE)]
        assert remembered() == AST_MEMO_SIZE
        asts.append(parse_expr("one_more"))
        assert remembered() == AST_MEMO_SIZE
        # Everything but the oldest is still the object first handed out.
        for i in range(1, AST_MEMO_SIZE):
            assert parse_expr(f"m{i}") is asts[i]
        assert parse_expr("one_more") is asts[-1]
        again = parse_expr("m0")
        assert again is not asts[0] and again == asts[0]
        assert remembered() == AST_MEMO_SIZE

    def test_many_distinct_texts_never_grow_it_past_the_bound(self):
        for i in range(3 * AST_MEMO_SIZE):
            parse_expr(f'm{{uuid="{i}"}}')
            assert remembered() <= AST_MEMO_SIZE
        assert remembered() == AST_MEMO_SIZE

    def test_the_bound_fits_what_the_issue_sized_it_for(self):
        """A dash_live round (49 texts), the dash_cold pages (~160) and
        every shipped rule and panel, all at once."""
        assert AST_MEMO_SIZE >= 49 + 160 + len(set(shipped_expressions()))


class TestThreads:
    def test_eight_threads_over_one_pool_get_equal_trees(self):
        pool = DIFFERENTIAL_QUERIES + ["sum(", "1.2.3"]
        expected = [outcome(fresh, text) for text in pool]
        results: dict[int, list] = {}
        start = threading.Barrier(8)

        def work(worker: int) -> None:
            start.wait(timeout=10)
            got = []
            for _ in range(5):
                # Each worker walks the pool from its own offset, so
                # hits, misses and inserts of one text interleave.
                order = pool[worker * 7 % len(pool) :] + pool[: worker * 7 % len(pool)]
                got = [(text, outcome(parse_expr, text)) for text in order]
            results[worker] = got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(results) == 8
        want = dict(zip(pool, expected))
        for got in results.values():
            assert all(answer == want[text] for text, answer in got)
        # Every text that parses is held once; those that fail, never.
        assert remembered() == len({text for text, answer in want.items() if answer[0] == "ok"})


def remembered_as_fresh(text: str) -> bool:
    """A miss, then a hit (or the error again), against a fresh parse."""
    expected = outcome(fresh, text)
    assert outcome(parse_expr, text) == expected
    assert outcome(parse_expr, text) == expected
    if expected[0] == "ok":
        assert parse_expr(text) is parse_expr(text)
    return expected[0] == "ok"


class TestRememberedEqualsFresh:
    def test_differential_queries(self):
        assert len(DIFFERENTIAL_QUERIES) == 100
        parsed = [text for text in DIFFERENTIAL_QUERIES if remembered_as_fresh(text)]
        assert len(parsed) == 99  # "m offset 45" is there for its error

    def test_shipped_dashboards_and_rule_files(self):
        texts = shipped_expressions()
        assert len(texts) > 80
        assert all(remembered_as_fresh(text) for text in texts)


_NAMES = st.sampled_from(["up", "x", "ceems:node:power_watts", "m_total", "sum", "rate", "by", "offset"])
_NUMBERS = st.sampled_from(["0", "1", "2.5", "1e3", ".5", "1.2.3", "5m", "1h30m", "5x"])
_MATCHERS = st.sampled_from(['{a="b"}', '{a=~"x.*",}', '{a!="b", c!~"d"}', "{}", "{,}", '{a="b"', "{a=}"])


def _combine(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.flatmap(
            lambda ab: st.sampled_from(["+", "-", "*", "/", "%", "^", "==", "> bool", "and", "or", "unless", "* on(a)"]).map(
                lambda op: f"{ab[0]} {op} {ab[1]}"
            )
        ),
        children.map(lambda c: f"-{c}"),
        children.map(lambda c: f"({c})"),
        children.map(lambda c: f"sum by (a) ({c})"),
        children.map(lambda c: f"topk(2, {c})"),
        children.map(lambda c: f"rate({c}[5m])"),
        children.map(lambda c: f"max_over_time({c}[10m:1m])"),
        children.map(lambda c: f"{c} offset 5m"),
        children.map(lambda c: f"clamp_min({c}, 0"),  # never closes
    )


_TEXTS = st.recursive(
    st.one_of(_NAMES, _NUMBERS, st.tuples(_NAMES, _MATCHERS).map("".join)), _combine, max_leaves=6
)


@settings(max_examples=300, deadline=None)
@given(text=_TEXTS)
def test_generated_texts_parse_or_fail_as_a_fresh_parser_does(text):
    remembered_as_fresh(text)
