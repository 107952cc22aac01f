"""Shared infrastructure for the CEEMS reproduction.

Hosts the pieces every component of the stack relies on: the exception
hierarchy, unit formatting helpers, the simulation clock, the YAML-subset
configuration loader (the whole stack is configured from a single YAML
file, as in the paper), an in-process HTTP abstraction used by the
exporter / API server / load balancer, and basic-auth support.
"""

from repro.common.clock import SimClock, WallClock
from repro.common.errors import (
    AuthError,
    CEEMSError,
    ConfigError,
    NotFoundError,
    QueryError,
    StorageError,
)

__all__ = [
    "SimClock",
    "WallClock",
    "CEEMSError",
    "ConfigError",
    "AuthError",
    "NotFoundError",
    "QueryError",
    "StorageError",
]
