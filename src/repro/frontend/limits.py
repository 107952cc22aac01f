"""Admission-side query guardrails (SNIPPETS.md snippet 3 style).

The limits are part of request validation, which has one home for
every door a query can come through: :mod:`repro.tsdb.plan`.  This
module keeps the frontend's import path for them.
"""

from repro.tsdb.plan import DEFAULT_MAX_QUERY_LENGTH, QueryLimits, limit_error

__all__ = ["DEFAULT_MAX_QUERY_LENGTH", "QueryLimits", "limit_error"]
