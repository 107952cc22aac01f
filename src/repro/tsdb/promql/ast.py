"""PromQL abstract syntax tree nodes."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tsdb.model import Matcher

AGGREGATION_OPS = (
    "sum",
    "avg",
    "min",
    "max",
    "count",
    "stddev",
    "stdvar",
    "topk",
    "bottomk",
    "quantile",
)

#: Operators needing a scalar parameter before the vector expression.
PARAM_AGGREGATIONS = ("topk", "bottomk", "quantile")

ARITHMETIC_OPS = ("+", "-", "*", "/", "%", "^")
COMPARISON_OPS = ("==", "!=", ">", "<", ">=", "<=")
SET_OPS = ("and", "or", "unless")


class Expr:
    """Base class for every AST node."""

    __slots__ = ()


@dataclass(frozen=True)
class NumberLiteral(Expr):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class StringLiteral(Expr):
    value: str

    def __str__(self) -> str:
        return f'"{self.value}"'


@dataclass(frozen=True)
class VectorSelector(Expr):
    """``metric{label="x"}`` with optional ``offset``."""

    name: str
    matchers: tuple[Matcher, ...] = ()
    offset: float = 0.0

    def __str__(self) -> str:
        inner = ",".join(str(m) for m in self.matchers if m.name != "__name__")
        base = f"{self.name}{{{inner}}}" if inner else self.name
        if self.offset:
            base += f" offset {self.offset}s"
        return base


@dataclass(frozen=True)
class MatrixSelector(Expr):
    """``metric{...}[5m]`` — only valid as a range-function argument."""

    selector: VectorSelector
    range_seconds: float

    def __str__(self) -> str:
        return f"{self.selector}[{self.range_seconds}s]"


@dataclass(frozen=True)
class Subquery(Expr):
    """``<expr>[range:step]`` — a range vector built by evaluating an
    instant expression at every step inside the window."""

    expr: "Expr"
    range_seconds: float
    step_seconds: float
    offset: float = 0.0

    def __str__(self) -> str:
        base = f"({self.expr})[{self.range_seconds}s:{self.step_seconds}s]"
        if self.offset:
            base += f" offset {self.offset}s"
        return base


@dataclass(frozen=True)
class Call(Expr):
    """Function call, e.g. ``rate(x[5m])``."""

    func: str
    args: tuple[Expr, ...]

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Aggregation(Expr):
    """``sum by (a) (expr)`` / ``topk(3, expr)``…"""

    op: str
    expr: Expr
    param: Expr | None = None
    grouping: tuple[str, ...] = ()
    without: bool = False

    def __str__(self) -> str:
        mode = "without" if self.without else "by"
        grp = f" {mode} ({', '.join(self.grouping)})" if (self.grouping or self.without) else ""
        if self.param is not None:
            return f"{self.op}{grp}({self.param}, {self.expr})"
        return f"{self.op}{grp}({self.expr})"


@dataclass(frozen=True)
class VectorMatching:
    """The ``on``/``ignoring`` + ``group_left``/``group_right`` clause."""

    on: bool = False
    labels: tuple[str, ...] = ()
    #: "" (one-to-one), "left" (many-to-one) or "right" (one-to-many).
    group: str = ""
    include: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    matching: VectorMatching | None = None
    #: ``bool`` modifier on comparison operators.
    return_bool: bool = False

    def __str__(self) -> str:
        mod = " bool" if self.return_bool else ""
        clause = ""
        if self.matching is not None:
            kind = "on" if self.matching.on else "ignoring"
            clause = f" {kind}({', '.join(self.matching.labels)})"
            if self.matching.group:
                clause += f" group_{self.matching.group}({', '.join(self.matching.include)})"

        def wrap(child: "Expr") -> str:
            return f"({child})" if isinstance(child, BinaryOp) else str(child)

        return f"{wrap(self.lhs)} {self.op}{mod}{clause} {wrap(self.rhs)}"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "-" or "+"
    expr: Expr

    def __str__(self) -> str:
        return f"{self.op}{self.expr}"


@dataclass(frozen=True)
class Paren(Expr):
    expr: Expr

    def __str__(self) -> str:
        return f"({self.expr})"


def iter_nodes(node: Expr):
    """Yield ``node`` and every node below it, reading order: the one
    walker behind authz, tracking, exemplars and limits, so no node
    kind is visible to one of them and not to another."""
    yield node
    if isinstance(node, MatrixSelector):
        children = (node.selector,)
    elif isinstance(node, (Paren, UnaryOp, Subquery)):
        children = (node.expr,)
    elif isinstance(node, Aggregation):
        children = (node.expr,) if node.param is None else (node.expr, node.param)
    elif isinstance(node, Call):
        children = node.args
    elif isinstance(node, BinaryOp):
        children = (node.lhs, node.rhs)
    else:
        return
    for child in children:
        yield from iter_nodes(child)


def iter_selectors(node: Expr):
    """Yield every :class:`VectorSelector` in ``node``, reading order.

    The active-query tracker fingerprints queries by the plain series
    selectors they touch (bounded cardinality, unlike raw query text).
    """
    return (n for n in iter_nodes(node) if isinstance(n, VectorSelector))
