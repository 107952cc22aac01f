"""PromQL parser (precedence-climbing).

Operator precedence follows Prometheus, weakest to strongest::

    or  <  and/unless  <  comparisons  <  +/-  <  */%/ and unary  <  ^

``^`` is right-associative; all others are left-associative.  A unary
sign takes everything up to the next operator weaker than ``^``, so
``-x ^ 2`` is ``-(x ^ 2)`` and ``-x * 3`` is ``(-x) * 3``.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache

from repro.common.errors import QueryError
from repro.common.units import parse_duration
from repro.tsdb.model import Matcher, MatchOp
from repro.tsdb.promql.ast import (
    AGGREGATION_OPS,
    PARAM_AGGREGATIONS,
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
    VectorMatching,
    VectorSelector,
)
from repro.tsdb.promql.functions import FUNCTIONS
from repro.tsdb.promql.lexer import Token, TokenType, tokenize

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "unless": 2,
    "==": 3,
    "!=": 3,
    ">": 3,
    "<": 3,
    ">=": 3,
    "<=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
    "%": 5,
    "^": 6,
}

_COMPARISONS = {"==", "!=", ">", "<", ">=", "<="}
_MATCH_OPS = {"=": MatchOp.EQ, "!=": MatchOp.NEQ, "=~": MatchOp.RE, "!~": MatchOp.NRE}


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token helpers --------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, ttype: TokenType, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.type is not ttype or (text is not None and tok.text != text):
            want = text or ttype.name
            raise QueryError(f"expected {want}, got {tok.text!r}", position=tok.pos)
        return self.next()

    def accept(self, ttype: TokenType, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.type is ttype and (text is None or tok.text == text):
            return self.next()
        return None

    def accept_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.type is TokenType.IDENT and tok.text == word:
            self.next()
            return True
        return False

    # -- grammar ----------------------------------------------------------
    def parse_expression(self, min_prec: int = 0) -> Expr:
        lhs = self.parse_unary()
        while True:
            tok = self.peek()
            op: str | None = None
            if tok.type is TokenType.OP and tok.text in _PRECEDENCE:
                op = tok.text
            elif tok.type is TokenType.IDENT and tok.text in ("and", "or", "unless"):
                op = tok.text
            if op is None:
                return lhs
            prec = _PRECEDENCE[op]
            if prec < min_prec:
                return lhs
            self.next()
            return_bool = False
            if op in _COMPARISONS and self.accept_keyword("bool"):
                return_bool = True
            matching = self.parse_vector_matching()
            # right-assoc for ^, left-assoc otherwise
            next_min = prec if op == "^" else prec + 1
            rhs = self.parse_expression(next_min)
            lhs = BinaryOp(op=op, lhs=lhs, rhs=rhs, matching=matching, return_bool=return_bool)

    def parse_vector_matching(self) -> VectorMatching | None:
        tok = self.peek()
        if tok.type is not TokenType.IDENT or tok.text not in ("on", "ignoring"):
            return None
        on = self.next().text == "on"
        labels = self.parse_label_list()
        group = ""
        include: tuple[str, ...] = ()
        tok = self.peek()
        if tok.type is TokenType.IDENT and tok.text in ("group_left", "group_right"):
            group = "left" if self.next().text == "group_left" else "right"
            if self.peek().type is TokenType.LPAREN:
                include = self.parse_label_list()
        return VectorMatching(on=on, labels=labels, group=group, include=include)

    def parse_label_list(self) -> tuple[str, ...]:
        self.expect(TokenType.LPAREN)
        labels: list[str] = []
        if self.peek().type is not TokenType.RPAREN:
            while True:
                labels.append(self.expect(TokenType.IDENT).text)
                if not self.accept(TokenType.COMMA):
                    break
        self.expect(TokenType.RPAREN)
        return tuple(labels)

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.type is TokenType.OP and tok.text in ("+", "-"):
            self.next()
            operand = self.parse_expression(_PRECEDENCE["^"])
            if tok.text == "-":
                if isinstance(operand, NumberLiteral):
                    return NumberLiteral(-operand.value)
                return UnaryOp(op="-", expr=operand)
            return operand
        return self.parse_postfix(self.parse_atom())

    def parse_postfix(self, expr: Expr) -> Expr:
        """Handle ``[range]``, ``[range:step]`` and ``offset``."""
        while True:
            tok = self.peek()
            if tok.type is TokenType.LBRACKET:
                self.next()
                dur = self.expect(TokenType.DURATION)
                # subquery: [range:step] (step optional)
                if self._accept_colon():
                    step_tok = self.peek()
                    if step_tok.type is TokenType.DURATION:
                        self.next()
                        step = parse_duration(step_tok.text)
                    else:
                        step = max(parse_duration(dur.text) / 10.0, 1.0)
                    self.expect(TokenType.RBRACKET)
                    expr = Subquery(
                        expr=expr,
                        range_seconds=parse_duration(dur.text),
                        step_seconds=step,
                    )
                    continue
                self.expect(TokenType.RBRACKET)
                if not isinstance(expr, VectorSelector):
                    raise QueryError(
                        "range selector on non-selector expression (use a [range:step] subquery)",
                        position=tok.pos,
                    )
                expr = MatrixSelector(selector=expr, range_seconds=parse_duration(dur.text))
                continue
            if tok.type is TokenType.IDENT and tok.text == "offset":
                self.next()
                dur = self.expect(TokenType.DURATION)
                offset = parse_duration(dur.text)
                if isinstance(expr, VectorSelector):
                    expr = VectorSelector(name=expr.name, matchers=expr.matchers, offset=offset)
                elif isinstance(expr, MatrixSelector):
                    inner = expr.selector
                    expr = MatrixSelector(
                        selector=VectorSelector(name=inner.name, matchers=inner.matchers, offset=offset),
                        range_seconds=expr.range_seconds,
                    )
                elif isinstance(expr, Subquery):
                    expr = Subquery(
                        expr=expr.expr,
                        range_seconds=expr.range_seconds,
                        step_seconds=expr.step_seconds,
                        offset=offset,
                    )
                else:
                    raise QueryError("offset on non-selector expression", position=tok.pos)
                continue
            return expr

    def _accept_colon(self) -> bool:
        tok = self.peek()
        if tok.type is TokenType.COLON:
            self.next()
            return True
        return False

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.type is TokenType.NUMBER:
            self.next()
            return NumberLiteral(float(tok.text))
        if tok.type is TokenType.DURATION:
            # A bare duration is a number of seconds (Prometheus extension).
            self.next()
            return NumberLiteral(parse_duration(tok.text))
        if tok.type is TokenType.STRING:
            self.next()
            return StringLiteral(tok.text)
        if tok.type is TokenType.LPAREN:
            self.next()
            inner = self.parse_expression()
            self.expect(TokenType.RPAREN)
            return Paren(inner)
        if tok.type is TokenType.LBRACE:
            return self.parse_selector("")
        if tok.type is TokenType.IDENT:
            name = tok.text
            if name in AGGREGATION_OPS:
                return self.parse_aggregation()
            if name in FUNCTIONS and self.tokens[self.pos + 1].type is TokenType.LPAREN:
                self.next()
                args = self.parse_call_args()
                return Call(func=name, args=tuple(args))
            self.next()
            return self.parse_selector(name)
        raise QueryError(f"unexpected token {tok.text!r}", position=tok.pos)

    def parse_call_args(self) -> list[Expr]:
        self.expect(TokenType.LPAREN)
        args: list[Expr] = []
        if self.peek().type is not TokenType.RPAREN:
            while True:
                args.append(self.parse_expression())
                if not self.accept(TokenType.COMMA):
                    break
        self.expect(TokenType.RPAREN)
        return args

    def parse_aggregation(self) -> Expr:
        op = self.next().text
        grouping: tuple[str, ...] = ()
        without = False
        # modifier may come before or after the parenthesised body
        if self.peek().type is TokenType.IDENT and self.peek().text in ("by", "without"):
            without = self.next().text == "without"
            grouping = self.parse_label_list()
        args = self.parse_call_args()
        if self.peek().type is TokenType.IDENT and self.peek().text in ("by", "without"):
            without = self.next().text == "without"
            grouping = self.parse_label_list()
        param: Expr | None = None
        if op in PARAM_AGGREGATIONS:
            if len(args) != 2:
                raise QueryError(f"{op} expects (param, expression), got {len(args)} args")
            param, body = args
        else:
            if len(args) != 1:
                raise QueryError(f"{op} expects exactly one expression, got {len(args)}")
            body = args[0]
        return Aggregation(op=op, expr=body, param=param, grouping=grouping, without=without)

    def parse_selector(self, name: str) -> VectorSelector:
        matchers: list[Matcher] = []
        if name:
            matchers.append(Matcher.name_eq(name))
        if self.accept(TokenType.LBRACE):
            # ``{a="b",}``: a comma may end the list, as in Prometheus.
            while self.peek().type is not TokenType.RBRACE:
                label_tok = self.expect(TokenType.IDENT)
                op_tok = self.expect(TokenType.OP)
                if op_tok.text not in _MATCH_OPS:
                    raise QueryError(f"bad matcher operator {op_tok.text!r}", position=op_tok.pos)
                value = self.expect(TokenType.STRING).text
                try:
                    matchers.append(Matcher(label_tok.text, _MATCH_OPS[op_tok.text], value))
                except re.error as exc:
                    raise QueryError(
                        f"invalid regular expression {value!r} in matcher: {exc.msg}", position=label_tok.pos
                    ) from None
                if not self.accept(TokenType.COMMA):
                    break
            self.expect(TokenType.RBRACE)
        if not matchers:
            raise QueryError("vector selector must have a name or at least one matcher")
        return VectorSelector(name=name, matchers=tuple(matchers))


#: Distinct query texts whose AST stays remembered.  A ``dash_live``
#: round re-sends 49 texts, the ``dash_cold`` pages hold ~160 (39 units
#: x 4 panels), the shipped rules 37 and dashboards 33: all of them at
#: once with room to spare, and a few hundred small frozen trees at most.
AST_MEMO_SIZE = 512


@lru_cache(maxsize=AST_MEMO_SIZE)
def parse_expr(query: str) -> Expr:
    """Parse a PromQL expression string into an AST.

    The same text gets the same (frozen, shareable) tree back while it
    is among the last :data:`AST_MEMO_SIZE` distinct ones; a text that
    does not parse raises on every call and is never remembered.
    """
    parser = _Parser(tokenize(query))
    expr = parser.parse_expression()
    trailing = parser.peek()
    if trailing.type is not TokenType.EOF:
        raise QueryError(f"unexpected trailing input {trailing.text!r}", position=trailing.pos)
    return expr


class PlanMemo:
    """The last label plan of every node of *one* parsed expression.

    Every expression has one (:func:`plan_memo`), whoever evaluates it:
    a recording rule, a dashboard panel refreshed through PromAPI, an
    alert.  Per key it holds the input label tuples the plan was built
    from and the plan: nothing older, so memory is one plan per node
    and evaluator.  The walk keys a node by its ``id``, the columnar
    evaluator by ``-id`` (the two see different input tuples for one
    node, so they must not evict each other), and a caller may name a
    step of its own.  A plan is stored only after its label half
    returned; one that raised leaves nothing behind and raises again
    next time.  A plan listing clashes is stored, and the evaluators
    raise them on every evaluation that reuses it.

    Threads may share a memo: every read and write is one dict
    operation on a whole ``(inputs, plan)`` entry, so a racing writer
    costs a rebuild, never a plan for other inputs (the counters are
    approximate under races).
    """

    __slots__ = ("ast", "plans", "hits", "rebuilds")

    def __init__(self, ast: Expr) -> None:
        #: The expression the plans belong to, held so node ids stay unique.
        self.ast = ast
        self.plans: dict[object, tuple[tuple, object]] = {}
        self.hits = 0
        self.rebuilds = 0

    def plan(self, key, inputs: tuple, build, *consts, leaf: bool = False):
        """``build(*consts, *inputs)``, or the plan built last time
        when ``inputs`` are the same tuple objects as then.  A leaf's
        input is assembled from storage on every evaluation, so it is
        compared by value instead (element identity first), and a hit
        keeps the inputs just compared: equal label sets that are new
        objects (another storage with the same series) are compared
        value by value once, then by identity again."""
        entry = self.plans.get(key)
        if entry is not None and (entry[0] == inputs if leaf else all(map(operator.is_, entry[0], inputs))):
            if leaf:
                self.plans[key] = (inputs, entry[1])
            self.hits += 1
            return entry[1]
        plan = build(*consts, *inputs)
        self.plans[key] = (inputs, plan)
        self.rebuilds += 1
        return plan

    def fixed(self, key: str, build, *args):
        """What the expression's text alone decides (a fingerprint of
        its selectors, the uuids it may read): built on the first ask
        and never counted as a plan."""
        entry = self.plans.get(key)
        if entry is None:
            entry = self.plans[key] = ((), build(*args))
        return entry[1]


#: Expressions whose :class:`PlanMemo` is kept, by the ``id`` of the
#: tree: as many as ``parse_expr`` remembers.  Emptied wholesale when
#: full (as the storage selector memo is); an expression evaluated
#: afterwards starts a new memo, which costs one rebuild per node.
PLAN_MEMO_MAX = AST_MEMO_SIZE
_PLAN_MEMOS: dict[int, PlanMemo] = {}


def plan_memo(ast: Expr) -> PlanMemo:
    """The one :class:`PlanMemo` of the parsed expression ``ast``.

    ``parse_expr`` hands one text the same tree, so a text asked again
    — a dashboard refresh, a rule tick — finds the plans its last
    evaluation left.  A memo holds its tree, so an ``id`` is never
    reused while its entry stands.
    """
    memo = _PLAN_MEMOS.get(id(ast))
    if memo is None or memo.ast is not ast:
        if len(_PLAN_MEMOS) >= PLAN_MEMO_MAX:
            _PLAN_MEMOS.clear()
        memo = _PLAN_MEMOS[id(ast)] = PlanMemo(ast)
    return memo
