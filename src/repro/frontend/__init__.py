"""Query frontend: range splitting, results caching, coalescing,
admission — the serving-tier layer between the LB and the PromQL
backends (PR 10)."""

from repro.frontend.cache import DEFAULT_FRESHNESS, ResultsCache
from repro.frontend.server import (
    AdmissionGate,
    AdmissionRejected,
    QueryFrontend,
    SingleFlight,
)
from repro.frontend.split import (
    DEFAULT_SPLIT_INTERVAL,
    clamp_runs_to_parts,
    grid_parts,
    uncovered_runs,
)

__all__ = [
    "DEFAULT_FRESHNESS",
    "DEFAULT_SPLIT_INTERVAL",
    "AdmissionGate",
    "AdmissionRejected",
    "QueryFrontend",
    "ResultsCache",
    "SingleFlight",
    "clamp_runs_to_parts",
    "grid_parts",
    "uncovered_runs",
]
