"""PromQL query introspection: which compute units does a query touch?

The LB *"intercepts the query request to the backend Prometheus
instance [and] retrieves the workload unique identifier"* (§II.B.c).
Rather than regex-scraping the query string, the authorizer reads the
parsed query.  The AST is the one the request's
:class:`~repro.tsdb.plan.QueryPlan` carries (query text is parsed here
only for callers off the serving path), and its selectors are found by
:func:`repro.tsdb.promql.ast.iter_selectors` — the walker the query
tracker and the exemplar lookup use too, so evaluation can reach no
selector the authorizer did not see.  Each selector's matchers on the
``uuid`` label decide the scope:

* ``uuid="123"`` contributes ``123``;
* ``uuid=~"123|456"`` contributes both (the alternation form Grafana's
  multi-select variables generate);
* a query with **no** uuid matcher touches node-level or other users'
  series, so it is only allowed for admins — the conservative default
  the access-control argument requires;
* an unparseable query is rejected outright (fail closed).
"""

from __future__ import annotations

from repro.tsdb.model import MatchOp
from repro.tsdb.promql.ast import Expr, VectorSelector, iter_selectors
from repro.tsdb.promql.parser import parse_expr

#: Characters allowed in a regex matcher we are willing to expand into
#: an explicit uuid list.  Anything fancier (wildcards, classes) could
#: match arbitrary units, so it is treated as "touches everything".
_SAFE_ALTERNATION = set("0123456789abcdefABCDEF-|_")


class QueryScope:
    """The set of uuids a query touches, or 'unbounded'."""

    def __init__(self) -> None:
        self.uuids: set[str] = set()
        #: True when at least one selector has no uuid constraint or a
        #: non-enumerable regex — i.e. the query can see other units.
        self.unbounded: bool = False

    def add_selector(self, selector: VectorSelector) -> None:
        found = False
        for matcher in selector.matchers:
            if matcher.name != "uuid":
                continue
            if matcher.op is MatchOp.EQ and matcher.value:
                self.uuids.add(matcher.value)
                found = True
            elif matcher.op is MatchOp.RE and set(matcher.value) <= _SAFE_ALTERNATION:
                parts = [p for p in matcher.value.split("|") if p]
                if parts:
                    self.uuids.update(parts)
                    found = True
            # NEQ/NRE and exotic regexes don't bound the scope.
        if not found:
            self.unbounded = True


def extract_uuids(query: str | Expr) -> QueryScope:
    """Analyse one PromQL query, given as text or already parsed.

    Raises :class:`QueryError` when query text does not parse — fail
    closed, before any backend sees the query.
    """
    scope = QueryScope()
    for selector in iter_selectors(parse_expr(query) if isinstance(query, str) else query):
        scope.add_selector(selector)
    return scope
