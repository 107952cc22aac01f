"""Query introspection: per-query stats, active-query tracker, slow log.

Reproduces the Prometheus operational trio the paper's deployments
lean on:

* **per-query stats** (``stats=all`` on the HTTP API): per-phase wall
  timings (parse / select / eval / render), series selected and
  samples touched.  A :class:`QueryStats` is activated on a
  :mod:`contextvars` variable for the duration of one evaluation; the
  engine's selector paths report into it through
  :func:`tracked_select` / :func:`record_samples`, which cost one
  context-variable read when no stats object is active.

* an **active query tracker** with bounded concurrency slots and
  queued → running → done states, backed by a crash-surviving on-disk
  journal à la Prometheus's ``queries.active``: each admitted query
  appends a ``start`` record, each completion an ``end`` record.  A
  journal reopened with unmatched ``start`` records means the previous
  process died mid-query — those entries are *logged* ("unclean
  shutdown, N queries were in flight") and cleared, never replayed as
  running.

* a **slow-query log**: queries whose total wall time exceeds a
  configurable threshold land in a bounded ring and (via the
  structured logger) an optional JSONL sink, each entry carrying the
  query, its stats and the trace id it ran under.

Call sites in the engine must call through the module
(``obsquery.tracked_select(...)``) so the overhead bench can swap the
hooks for no-ops and measure their disabled cost.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, TextIO

from repro.common.errors import QueryError
from repro.obs.log import StructuredLogger
from repro.obs.scope import Scope

#: Per-query phases, in pipeline order.
PHASES = ("parse", "select", "eval", "render")
#: Each phase with its ``stats=all`` timing key.
_TIMING_KEYS = tuple((name, f"{name}Seconds") for name in PHASES)


class QueryQueueFullError(QueryError):
    """All tracker slots busy and the queue wait timed out (HTTP 503)."""


# -- per-query stats -----------------------------------------------------
@dataclass(slots=True)
class QueryStats:
    """Accounting for one query evaluation."""

    query: str = ""
    #: Wall seconds per phase; ``select`` is a subset of ``eval``.
    phases: dict[str, float] = field(default_factory=dict)
    series_selected: int = 0
    samples_touched: int = 0

    def phase(self, name: str) -> Scope:
        """Time a block into phase ``name`` (added to what it holds)."""
        return Scope(self, name)

    def _scope_enter(self, scope: Scope) -> None:
        return None

    def _scope_exit(self, scope: Scope, exc_type) -> None:
        self.add_phase(scope.key, scope.ended - scope.started)

    def add_phase(self, name: str, seconds: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def add_select(self, series: int, seconds: float) -> None:
        self.series_selected += series
        self.phases["select"] = self.phases.get("select", 0.0) + seconds

    def total_seconds(self) -> float:
        """Pipeline wall time (select is nested inside eval)."""
        return sum(v for k, v in self.phases.items() if k != "select")

    def to_dict(self) -> dict[str, Any]:
        phases = self.phases
        return {
            "timings": {key: phases.get(name, 0.0) for name, key in _TIMING_KEYS},
            "samples": {
                "seriesSelected": self.series_selected,
                "samplesTouched": self.samples_touched,
            },
        }


_active_stats: ContextVar[QueryStats | None] = ContextVar(
    "repro_obs_query_stats", default=None
)


# The accessors are the context variable's own methods, as for the
# trace context (:mod:`repro.obs.trace`): every query calls them.

#: ``current_stats()`` — the stats object of the query being evaluated,
#: if any.
current_stats = _active_stats.get

#: ``activate_stats(stats)`` — make ``stats`` the ambient accounting
#: sink; returns the reset token.
activate_stats = _active_stats.set

#: ``deactivate_stats(token)`` — restore what ``activate_stats`` replaced.
deactivate_stats = _active_stats.reset


def tracked_select(storage, matchers):
    """``storage.select`` with per-query accounting.

    Free when no stats object is active (one context-variable read);
    otherwise times the select and counts the series it returned.
    """
    stats = _active_stats.get()
    if stats is None:
        return storage.select(matchers)
    started = time.perf_counter()
    series_list = storage.select(matchers)
    stats.add_select(len(series_list), time.perf_counter() - started)
    return series_list


def record_samples(n: int) -> None:
    """Count ``n`` samples consulted by the active query, if any."""
    stats = _active_stats.get()
    if stats is not None:
        stats.samples_touched += n


# -- active query tracker ------------------------------------------------
@dataclass(slots=True)
class QueryRecord:
    """One tracked query's lifecycle."""

    id: int
    query: str
    #: Selector fingerprint: the plain series selectors the query
    #: touches (bounded cardinality, unlike the raw query text).
    fingerprint: tuple[str, ...] = ()
    state: str = "queued"  # queued | running | done | error
    #: Wall-clock admission time (display, as in ``queries.active``).
    start_time: float = 0.0
    queued_seconds: float = 0.0
    duration_seconds: float = 0.0
    trace_id: str = ""
    stats: QueryStats | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "query": self.query,
            "fingerprint": list(self.fingerprint),
            "state": self.state,
            "start_time": self.start_time,
            "queued_seconds": self.queued_seconds,
            "duration_seconds": self.duration_seconds,
            "trace_id": self.trace_id,
        }
        if self.stats is not None:
            # Live view: an in-flight query shows the phases finished
            # so far; a done query its full breakdown.
            out["stats"] = self.stats.to_dict()
        return out


class ActiveQueryTracker:
    """Bounded-slot admission control plus the on-disk journal.

    ``max_concurrent`` callers run at once; excess queries wait in
    ``queued`` state up to ``queue_timeout`` seconds, then fail with
    :class:`QueryQueueFullError` — Prometheus's
    ``--query.max-concurrency`` gate.  With a ``journal_path`` every
    admission/completion is journaled so a killed process leaves
    evidence of what was in flight.
    """

    def __init__(
        self,
        max_concurrent: int = 20,
        *,
        journal_path: str = "",
        queue_timeout: float = 5.0,
        done_capacity: int = 64,
        logger: StructuredLogger | None = None,
    ) -> None:
        if max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")
        self.max_concurrent = max_concurrent
        self.journal_path = journal_path
        self.queue_timeout = queue_timeout
        self.done_capacity = done_capacity
        self.log = logger or StructuredLogger("query-tracker")
        self._cond = threading.Condition()
        self._next_id = 1
        self._queued: list[QueryRecord] = []
        self._running: list[QueryRecord] = []
        #: Finished records, oldest first, at most ``done_capacity``.
        self._done: deque[QueryRecord] = deque(maxlen=done_capacity)
        self._journal: TextIO | None = None
        self.queries_tracked = 0
        self.queue_timeouts = 0
        #: Queries found in flight in a stale journal at open (the
        #: previous process died mid-query).
        self.unclean_queries: list[dict[str, Any]] = []
        if journal_path:
            self._reopen_journal()

    # -- journal ---------------------------------------------------------
    def _reopen_journal(self) -> None:
        """Recover the journal: log + clear stale in-flight entries.

        Unmatched ``start`` records mean an unclean shutdown.  They are
        reported through the structured log and dropped — a dead
        process's queries must never reappear as running.
        """
        stale: dict[int, dict[str, Any]] = {}
        if os.path.exists(self.journal_path):
            with open(self.journal_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue  # torn tail of a killed writer
                    if entry.get("op") == "start":
                        stale[entry.get("id", 0)] = entry
                    elif entry.get("op") == "end":
                        stale.pop(entry.get("id", 0), None)
        self.unclean_queries = [
            {"query": e.get("query", ""), "start_time": e.get("ts", 0.0)}
            for e in stale.values()
        ]
        if self.unclean_queries:
            self.log.warning(
                "unclean shutdown, queries were in flight",
                in_flight=len(self.unclean_queries),
                queries=[q["query"] for q in self.unclean_queries],
            )
        # Truncate: recovered state must not be replayed on the next
        # reopen, and the journal restarts clean for this process.
        self._journal = open(self.journal_path, "w", encoding="utf-8")

    def _journal_write(self, entry: dict[str, Any]) -> None:
        if self._journal is None:
            return
        self._journal.write(json.dumps(entry) + "\n")
        self._journal.flush()

    # -- tracking --------------------------------------------------------
    def track(
        self,
        query: str,
        *,
        fingerprint: tuple[str, ...] = (),
        stats: QueryStats | None = None,
    ) -> Scope:
        """Admit one query: entering blocks for a slot, journals, and
        binds the :class:`QueryRecord`; leaving finishes it."""
        record = QueryRecord(
            id=0,
            query=query,
            fingerprint=fingerprint,
            start_time=time.time(),
            stats=stats,
        )
        return Scope(self, value=record)

    def _scope_enter(self, scope: Scope) -> QueryRecord:
        record = scope.value
        queued_at = time.perf_counter()
        # acquire/release, not ``with``: every query passes here twice,
        # and a Condition's ``with`` runs Python-level methods.
        cond = self._cond
        cond.acquire()
        try:
            record.id = self._next_id
            self._next_id += 1
            self.queries_tracked += 1
            if len(self._running) >= self.max_concurrent:
                self._wait_for_slot(record, queued_at)
            record.queued_seconds = time.perf_counter() - queued_at
            record.state = "running"
            self._running.append(record)
        finally:
            cond.release()
        if self._journal is not None:
            self._journal_write(
                {"op": "start", "id": record.id, "query": record.query, "ts": record.start_time}
            )
        return record

    def _wait_for_slot(self, record: QueryRecord, queued_at: float) -> None:
        """Hold ``record`` queued until a slot frees (lock held), or
        raise :class:`QueryQueueFullError` at the queue timeout."""
        self._queued.append(record)
        try:
            deadline = queued_at + self.queue_timeout
            while len(self._running) >= self.max_concurrent:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not self._cond.wait(timeout=remaining):
                    self.queue_timeouts += 1
                    raise QueryQueueFullError(
                        f"query queue full: {len(self._running)} of "
                        f"{self.max_concurrent} slots busy for "
                        f"{self.queue_timeout:.1f}s"
                    )
        finally:
            self._queued.remove(record)

    def _scope_exit(self, scope: Scope, exc_type) -> None:
        record = scope.value
        record.state = "done" if exc_type is None else "error"
        record.duration_seconds = scope.ended - scope.started
        if self._journal is not None:
            self._journal_write({"op": "end", "id": record.id})
        cond = self._cond
        cond.acquire()
        try:
            self._running.remove(record)
            self._done.append(record)
            if self._queued:  # every waiter's record is queued
                cond.notify()
        finally:
            cond.release()

    # -- views -----------------------------------------------------------
    def active(self) -> list[QueryRecord]:
        """Queued + running queries, admission order."""
        with self._cond:
            return list(self._queued) + list(self._running)

    def recent(self) -> list[QueryRecord]:
        """Finished queries, oldest first (bounded ring)."""
        with self._cond:
            return list(self._done)

    def to_dict(self) -> dict[str, Any]:
        return {
            "max_concurrent": self.max_concurrent,
            "queries_tracked": self.queries_tracked,
            "queue_timeouts": self.queue_timeouts,
            "active": [r.to_dict() for r in self.active()],
            "recent": [r.to_dict() for r in self.recent()],
            "unclean_shutdown": list(self.unclean_queries),
        }

    def close(self) -> None:
        with self._cond:
            if self._journal is not None:
                self._journal.close()
                self._journal = None


# -- slow-query log ------------------------------------------------------
class SlowQueryLog:
    """Ring of queries slower than the threshold, with a JSONL sink.

    ``threshold_ms < 0`` disables the log entirely; ``0`` records every
    query (useful in tests and for full query logs à la Prometheus's
    ``--query.log-file``).
    """

    def __init__(
        self,
        threshold_ms: float = 100.0,
        *,
        capacity: int = 128,
        sink_path: str = "",
        component: str = "slow-query",
    ) -> None:
        self.threshold_ms = threshold_ms
        self.capacity = capacity
        self.log = StructuredLogger(component, sink_path=sink_path)
        self._entries: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self.total_observed = 0
        self.total_slow = 0

    def observe(
        self,
        query: str,
        duration_seconds: float,
        *,
        stats: QueryStats | None = None,
        trace_id: str = "",
        endpoint: str = "",
    ) -> dict[str, Any] | None:
        """Record one finished query; returns the entry if it was slow."""
        self.total_observed += 1
        if self.threshold_ms < 0 or duration_seconds * 1000.0 < self.threshold_ms:
            return None
        entry: dict[str, Any] = {
            "ts": time.time(),
            "query": query,
            "endpoint": endpoint,
            "duration_seconds": duration_seconds,
            "trace_id": trace_id,
        }
        if stats is not None:
            entry["stats"] = stats.to_dict()
        with self._lock:
            self._entries.append(entry)
            self.total_slow += 1
            if len(self._entries) > self.capacity:
                del self._entries[: len(self._entries) - self.capacity]
        self.log.warning(
            "slow query",
            query=query,
            endpoint=endpoint,
            duration_ms=duration_seconds * 1000.0,
            threshold_ms=self.threshold_ms,
            series_selected=stats.series_selected if stats else 0,
            samples_touched=stats.samples_touched if stats else 0,
        )
        return entry

    def entries(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
