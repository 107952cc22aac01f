"""Tests for the PromQL lexer and parser."""

import pytest

from repro.common.errors import QueryError
from repro.tsdb.model import MatchOp
from repro.tsdb.promql.ast import (
    Aggregation,
    BinaryOp,
    Call,
    MatrixSelector,
    NumberLiteral,
    Paren,
    UnaryOp,
    VectorSelector,
)
from repro.tsdb.promql.lexer import TokenType, tokenize
from repro.tsdb.promql.parser import parse_expr


class TestLexer:
    def test_simple_tokens(self):
        tokens = tokenize("sum(rate(up[5m]))")
        types = [t.type for t in tokens]
        assert types[0] == TokenType.IDENT
        assert TokenType.DURATION in types
        assert types[-1] == TokenType.EOF

    def test_operators(self):
        tokens = tokenize("a == b != c =~ d !~ e >= f <= g")
        ops = [t.text for t in tokens if t.type == TokenType.OP]
        assert ops == ["==", "!=", "=~", "!~", ">=", "<="]

    def test_numbers(self):
        tokens = tokenize("1 2.5 1e3 1.5e-2 .5")
        values = [t.text for t in tokens if t.type == TokenType.NUMBER]
        assert values == ["1", "2.5", "1e3", "1.5e-2", ".5"]

    def test_durations(self):
        tokens = tokenize("[5m] [1h30m] [90s] [500ms]")
        durations = [t.text for t in tokens if t.type == TokenType.DURATION]
        assert durations == ["5m", "1h30m", "90s", "500ms"]

    def test_strings_with_escapes(self):
        tokens = tokenize(r'"a\"b" ' + r"'c\nd'")
        strings = [t.text for t in tokens if t.type == TokenType.STRING]
        assert strings == ['a"b', "c\nd"]

    def test_metric_name_with_colons(self):
        tokens = tokenize("ceems:compute_unit:power_watts")
        assert tokens[0].text == "ceems:compute_unit:power_watts"

    def test_comment_skipped(self):
        tokens = tokenize("up # a comment\n+ 1")
        texts = [t.text for t in tokens if t.type != TokenType.EOF]
        assert texts == ["up", "+", "1"]

    def test_malformed_number_is_a_query_error_with_its_position(self):
        """parent: a bare ``ValueError`` from ``float()`` in the parser,
        whose Python text reached the client's 400 body."""
        for text, pos in [("1.2.3", 0), ("x + 1..2", 4), ("sum(m) / 1.2.3e4", 9)]:
            with pytest.raises(QueryError) as excinfo:
                tokenize(text)
            assert excinfo.value.position == pos
            assert "malformed number" in str(excinfo.value) and "float" not in str(excinfo.value)
        # Everything float() takes that the scan can produce still lexes.
        texts = ["1.", ".5", "1.5e3", "1e", "1e+", "1.5h"]
        assert [tokenize(t)[0].text for t in texts] == ["1.", ".5", "1.5e3", "1", "1", "1.5h"]

    def test_unterminated_string_rejected(self):
        with pytest.raises(QueryError):
            tokenize('"never ends')

    def test_unexpected_character_rejected(self):
        with pytest.raises(QueryError):
            tokenize("up @ 5")


class TestSelectorParsing:
    def test_bare_metric(self):
        ast = parse_expr("up")
        assert isinstance(ast, VectorSelector)
        assert ast.name == "up"
        assert ast.matchers[0].value == "up"

    def test_matchers(self):
        ast = parse_expr('metric{a="1", b!="2", c=~"x.*", d!~"y"}')
        assert isinstance(ast, VectorSelector)
        ops = {m.name: m.op for m in ast.matchers if m.name != "__name__"}
        assert ops == {"a": MatchOp.EQ, "b": MatchOp.NEQ, "c": MatchOp.RE, "d": MatchOp.NRE}

    def test_nameless_selector(self):
        ast = parse_expr('{job="ceems"}')
        assert isinstance(ast, VectorSelector)
        assert ast.name == ""

    def test_trailing_comma_in_matchers(self):
        """Accepted as Prometheus accepts it; a lone or doubled comma is not."""
        assert parse_expr('foo{a="b",}') == parse_expr('foo{a="b"}')
        assert parse_expr('{a="b", c!="d",}') == parse_expr('{a="b", c!="d"}')
        for bad, pos in [("foo{,}", 4), ('foo{a="b",,}', 10), ('foo{a="b" c="d"}', 10)]:
            with pytest.raises(QueryError) as excinfo:
                parse_expr(bad)
            assert excinfo.value.position == pos

    def test_empty_nameless_selector_rejected(self):
        with pytest.raises(QueryError):
            parse_expr("{}")

    def test_matrix_selector(self):
        ast = parse_expr("up[5m]")
        assert isinstance(ast, MatrixSelector)
        assert ast.range_seconds == 300.0

    def test_offset(self):
        ast = parse_expr("up offset 1h")
        assert isinstance(ast, VectorSelector)
        assert ast.offset == 3600.0

    def test_matrix_with_offset(self):
        ast = parse_expr("up[5m] offset 30m")
        assert isinstance(ast, MatrixSelector)
        assert ast.selector.offset == 1800.0

    def test_range_on_expression_rejected(self):
        with pytest.raises(QueryError):
            parse_expr("(up + 1)[5m]")


class TestFunctionParsing:
    def test_rate_call(self):
        ast = parse_expr("rate(up[5m])")
        assert isinstance(ast, Call)
        assert ast.func == "rate"
        assert isinstance(ast.args[0], MatrixSelector)

    def test_nested_calls(self):
        ast = parse_expr("clamp_min(rate(x[1m]), 0)")
        assert isinstance(ast, Call) and ast.func == "clamp_min"
        assert isinstance(ast.args[0], Call)
        assert isinstance(ast.args[1], NumberLiteral)

    def test_label_replace_strings(self):
        ast = parse_expr('label_replace(m, "dst", "$1", "src", "(.*)")')
        assert isinstance(ast, Call)
        assert len(ast.args) == 5

    def test_unknown_function_is_selector(self):
        """An unknown ident followed by parens is an error, not a call."""
        with pytest.raises(QueryError):
            parse_expr("frobnicate(up)")


class TestAggregationParsing:
    def test_sum_by(self):
        ast = parse_expr("sum by (job, instance) (up)")
        assert isinstance(ast, Aggregation)
        assert ast.op == "sum" and ast.grouping == ("job", "instance") and not ast.without

    def test_trailing_by(self):
        ast = parse_expr("sum(up) by (job)")
        assert isinstance(ast, Aggregation)
        assert ast.grouping == ("job",)

    def test_without(self):
        ast = parse_expr("avg without (instance) (up)")
        assert ast.without and ast.grouping == ("instance",)

    def test_topk_param(self):
        ast = parse_expr("topk(3, rate(x[1m]))")
        assert isinstance(ast, Aggregation)
        assert isinstance(ast.param, NumberLiteral) and ast.param.value == 3

    def test_quantile_param(self):
        ast = parse_expr("quantile(0.99, x)")
        assert ast.param.value == 0.99

    def test_topk_without_param_rejected(self):
        with pytest.raises(QueryError):
            parse_expr("topk(rate(x[1m]))")

    def test_sum_with_two_args_rejected(self):
        with pytest.raises(QueryError):
            parse_expr("sum(a, b)")


class TestBinaryOps:
    def test_precedence_mul_over_add(self):
        ast = parse_expr("1 + 2 * 3")
        assert isinstance(ast, BinaryOp) and ast.op == "+"
        assert isinstance(ast.rhs, BinaryOp) and ast.rhs.op == "*"

    def test_power_right_assoc(self):
        ast = parse_expr("2 ^ 3 ^ 2")
        assert ast.op == "^"
        assert isinstance(ast.rhs, BinaryOp) and ast.rhs.op == "^"

    def test_parens_override(self):
        ast = parse_expr("(1 + 2) * 3")
        assert ast.op == "*"
        assert isinstance(ast.lhs, Paren)

    def test_comparison_with_bool(self):
        ast = parse_expr("up > bool 0")
        assert ast.op == ">" and ast.return_bool

    def test_set_ops_precedence(self):
        ast = parse_expr("a and b or c")
        assert ast.op == "or"
        assert isinstance(ast.lhs, BinaryOp) and ast.lhs.op == "and"

    def test_vector_matching_on(self):
        ast = parse_expr("a * on(instance) b")
        assert ast.matching is not None
        assert ast.matching.on and ast.matching.labels == ("instance",)

    def test_vector_matching_ignoring(self):
        ast = parse_expr("a / ignoring(uuid) b")
        assert not ast.matching.on
        assert ast.matching.labels == ("uuid",)

    def test_group_left_with_include(self):
        ast = parse_expr("a * on(host) group_left(extra) b")
        assert ast.matching.group == "left"
        assert ast.matching.include == ("extra",)

    def test_group_right(self):
        ast = parse_expr("a * on(host) group_right() b")
        assert ast.matching.group == "right"

    def test_unary_minus(self):
        ast = parse_expr("-up")
        assert isinstance(ast, UnaryOp)
        assert parse_expr("-5") == NumberLiteral(-5.0)

    def test_unary_minus_binds_looser_than_power(self):
        """``-a ^ b`` is ``-(a ^ b)``; against ``*`` and below, the sign
        still belongs to its operand."""
        two, x = NumberLiteral(2.0), parse_expr("x")
        assert parse_expr("-2 ^ 2") == UnaryOp("-", BinaryOp("^", two, two))
        assert parse_expr("-x ^ 2") == UnaryOp("-", BinaryOp("^", x, two))
        assert parse_expr("+x ^ 2") == BinaryOp("^", x, two)
        assert parse_expr("-(2) ^ 2") == UnaryOp("-", BinaryOp("^", Paren(two), two))
        assert parse_expr("(-2) ^ 2") == BinaryOp("^", Paren(NumberLiteral(-2.0)), two)
        assert parse_expr("2 ^ -1") == BinaryOp("^", two, NumberLiteral(-1.0))
        assert parse_expr("2 ^ -x ^ 2") == BinaryOp("^", two, UnaryOp("-", BinaryOp("^", x, two)))
        assert parse_expr("-2 * 3") == BinaryOp("*", NumberLiteral(-2.0), NumberLiteral(3.0))
        assert parse_expr("-x * 3") == BinaryOp("*", UnaryOp("-", x), NumberLiteral(3.0))
        assert parse_expr("-x ^ 2 * 3") == BinaryOp(
            "*", UnaryOp("-", BinaryOp("^", x, two)), NumberLiteral(3.0)
        )
        assert parse_expr("1 - -x ^ 2") == BinaryOp(
            "-", NumberLiteral(1.0), UnaryOp("-", BinaryOp("^", x, two))
        )
        for text in ("-x ^ 2", "-x ^ 2 * 3", "2 ^ -x ^ 2", "1 - -2 ^ 2"):
            assert parse_expr(str(parse_expr(text))) == parse_expr(text)

    def test_bare_duration_is_seconds(self):
        ast = parse_expr("rate(x[1m]) * 1h")
        assert isinstance(ast.rhs, NumberLiteral) and ast.rhs.value == 3600.0


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "up +",
            "sum(",
            "up{a=}",
            "up[]",
            "up[5x]",
            "rate(up)",  # checked at eval time? parser allows; engine rejects
            "up)",
            "1 +* 2",
        ],
    )
    def test_malformed_queries(self, bad):
        if bad == "rate(up)":
            pytest.skip("arity of range functions is checked at evaluation")
        with pytest.raises(QueryError):
            parse_expr(bad)

    def test_error_carries_position(self):
        with pytest.raises(QueryError) as excinfo:
            parse_expr("up{a=}")
        assert "offset" in str(excinfo.value)

    def test_eq1_shape_parses(self):
        """The full Eq. (1) recording-rule expression must parse."""
        query = (
            '0.9 * (instance:ipmi_watts{nodegroup="intel-cpu"} * on(hostname, nodegroup) '
            '(instance:rapl_package_watts / on(hostname, nodegroup) '
            "(instance:rapl_package_watts + on(hostname, nodegroup) instance:rapl_dram_watts)))"
            " * on(hostname, nodegroup) group_right() "
            "(instance:unit_cpu_rate / on(hostname, nodegroup) group_left() instance:cpu_rate)"
        )
        ast = parse_expr(query)
        assert isinstance(ast, BinaryOp)
