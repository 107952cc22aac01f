"""Trace context (W3C ``traceparent`` style) and the span store.

A trace is born at the edge of the stack — the LB or a Grafana-facing
endpoint — and flows through every forwarded request: the HTTP
middleware parses the incoming ``traceparent`` header, opens a child
span, and rewrites the header so the next hop sees this span as its
parent.  Non-HTTP hops (the in-process engine → storage call chain,
the updater's periodic pass) propagate through a :mod:`contextvars`
context variable instead, which also gives each socket-server thread
its own independent context.

Header format (the ``00`` version of the W3C spec, fixed sampled
flag)::

    traceparent: 00-<32 hex trace id>-<16 hex span id>-01

Span/trace ids come from one process-wide counter, so a simulation
run produces the same ids every time — determinism the rest of the
test suite relies on.

Spans land in a **bounded** per-component :class:`SpanStore` (a ring
buffer); self-observation must never become the memory leak it is
meant to detect.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any

TRACEPARENT_HEADER = "traceparent"

#: The digits of a trace or span id (lower-case hex only), as bytes:
#: ``bytes.strip`` by a set is a table lookup per byte.
_HEX_DIGITS = b"0123456789abcdef"


class TraceContext:
    """The propagated part of a trace: who we are inside which trace.

    A value (equality, hash and repr by its two ids) that every request
    builds once: a plain slotted class, since a frozen dataclass pays
    ``object.__setattr__`` per field on construction.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TraceContext:
            return NotImplemented
        return self.trace_id == other.trace_id and self.span_id == other.span_id

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:
        return f"TraceContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"

    def header_value(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-01"


def parse_traceparent(value: str | None) -> TraceContext | None:
    """Parse a ``traceparent`` header; malformed values yield ``None``.

    Malformed propagation must degrade to "start a new trace", never
    to an error — a monitoring stack cannot 500 on a bad header.
    """
    if not value:
        return None
    parts = value.strip().split("-")
    if len(parts) != 4 or parts[0] != "00":
        return None
    trace_id, span_id = parts[1], parts[2]
    ids = trace_id + span_id
    # ``strip`` by a character set leaves nothing exactly when every
    # character is in the set: all hex digits, and not all zeros.
    if (
        len(trace_id) != 32
        or len(span_id) != 16
        or not ids.isascii()
        or ids.encode().strip(_HEX_DIGITS)
        or not trace_id.strip("0")
        or not span_id.strip("0")
    ):
        return None
    return TraceContext(trace_id, span_id)


# One process-wide id source: deterministic (a counter, not random)
# and thread-safe (``next`` on an ``itertools.count`` is one C call
# under the GIL).  Trace and span ids share the counter; they only
# need to be unique, not dense.
_next_id = itertools.count(1).__next__


def new_trace_id() -> str:
    return f"{_next_id():032x}"


def new_span_id() -> str:
    return f"{_next_id():016x}"


_current: ContextVar[TraceContext | None] = ContextVar("repro_obs_trace", default=None)


# The three accessors are the context variable's own methods, not
# wrappers around them: every request and span calls them, and a
# Python-level wrapper doubles what a call costs.

#: ``current_trace()`` — the active trace context of this thread/task,
#: if any.
current_trace = _current.get

#: ``activate(ctx)`` — make ``ctx`` the active context; returns the
#: reset token.
activate = _current.set

#: ``deactivate(token)`` — restore the context ``activate`` replaced.
deactivate = _current.reset


#: Wall-clock time minus ``time.perf_counter()``, taken once: a span
#: timed by the monotonic clock gets its display start from its first
#: reading without a second clock read.
_WALL_OFFSET = time.time() - time.perf_counter()


def wall_time(perf: float) -> float:
    """The ``time.time()`` matching a ``time.perf_counter()`` reading."""
    return _WALL_OFFSET + perf


@dataclass(slots=True)
class Span:
    """One recorded operation inside a trace."""

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    component: str
    #: Wall-clock start (``time.time()``) — for display only; ordering
    #: and duration use the monotonic clock.
    start: float
    duration: float = 0.0
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "component": self.component,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


#: Process-wide tail-sampling totals, aggregated across every
#: component's sampler so the PromAPI engine-stats collector can
#: expose ``ceems_trace_sampler_{kept,dropped}_total`` without holding
#: references to each store.
SAMPLER_STATS = {"kept": 0, "dropped": 0}

#: Knuth's multiplicative-hash constant: spreads the (sequential,
#: deterministic) trace-id counter uniformly over [0, 1) so a sample
#: rate of 0.1 really keeps ~10% of traces, not the first 10%.
_HASH_MULT = 2654435761
_HASH_MOD = 2**32


def _trace_fraction(trace_id: str) -> float:
    """Deterministic per-trace uniform draw in [0, 1)."""
    try:
        seed = int(trace_id, 16)
    except ValueError:
        seed = hash(trace_id)
    return (seed * _HASH_MULT) % _HASH_MOD / _HASH_MOD


@dataclass
class TailSampler:
    """Tail-based sampling: decide *after* the span finished.

    Unlike head sampling the decision can see the outcome, so the
    traces worth keeping — errors and slow requests, exactly the ones
    exemplars point operators at — are always retained; only the
    boring fast-and-ok majority is thinned probabilistically.  The
    probabilistic draw hashes the trace id, so every span of a trace
    gets the same draw and a kept trace is kept coherently across
    components sharing the sampler.
    """

    #: Probability of keeping a fast, successful span. 1.0 keeps all.
    rate: float = 1.0
    #: Spans at least this slow (milliseconds) are always kept.
    keep_slow_ms: float = 250.0
    kept_total: int = 0
    dropped_total: int = 0

    def keep(self, span: Span) -> bool:
        if self.rate >= 1.0:
            decision = True  # whatever the status and duration
        elif span.status != "ok":
            decision = True
        elif span.duration * 1000.0 >= self.keep_slow_ms:
            decision = True
        elif self.rate <= 0.0:
            decision = False
        else:
            decision = _trace_fraction(span.trace_id) < self.rate
        if decision:
            self.kept_total += 1
            SAMPLER_STATS["kept"] += 1
        else:
            self.dropped_total += 1
            SAMPLER_STATS["dropped"] += 1
        return decision


class SpanStore:
    """Bounded in-memory ring of finished spans (newest last)."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("span store capacity must be positive")
        self.capacity = capacity
        self._spans: deque[Span] = deque()
        #: trace id -> retained spans of that trace, ring order.  The
        #: exemplar deep-link path (``/debug/traces?trace_id=``) made
        #: ``for_trace`` hot; the index turns its O(capacity) scan
        #: into a dict hit and is maintained on eviction so a dead
        #: trace id can never pin its spans.
        self._by_trace: dict[str, list[Span]] = {}
        self._lock = threading.Lock()
        #: Optional :class:`TailSampler`; when set, spans it rejects
        #: are counted in ``total_recorded`` but never stored.
        self.sampler: TailSampler | None = None
        self.total_recorded = 0

    def record(self, span: Span) -> None:
        # acquire/release, not ``with``: every request records a
        # span, and the ``with`` protocol costs more than the lock.
        self._lock.acquire()
        try:
            self.total_recorded += 1
            sampler = self.sampler
            if sampler is not None and not sampler.keep(span):
                return
            self._spans.append(span)
            bucket = self._by_trace.get(span.trace_id)
            if bucket is None:
                # A list, not a deque: most buckets hold one to six
                # spans, and a deque's block is ten times a short list.
                self._by_trace[span.trace_id] = [span]
            else:
                bucket.append(span)
            if len(self._spans) > self.capacity:
                # Both the ring and each trace bucket are append-
                # ordered, so the evicted span is always its bucket's
                # head; empty buckets are deleted so evicted trace ids
                # never leak.
                doomed = self._spans.popleft()
                bucket = self._by_trace[doomed.trace_id]
                bucket.pop(0)
                if not bucket:
                    del self._by_trace[doomed.trace_id]
        finally:
            self._lock.release()

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def for_trace(self, trace_id: str) -> list[Span]:
        with self._lock:
            return list(self._by_trace.get(trace_id, ()))

    def trace_ids(self) -> list[str]:
        """Distinct trace ids currently retained, oldest first."""
        seen: dict[str, None] = {}
        with self._lock:
            for span in self._spans:
                seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._by_trace.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


def make_span(
    name: str,
    component: str,
    parent: TraceContext | None,
    **attrs: Any,
) -> tuple[Span, TraceContext]:
    """Create a span continuing ``parent`` (or rooting a new trace).

    Returns the span plus the context downstream hops should see.
    """
    if parent is not None:
        trace_id, parent_id = parent.trace_id, parent.span_id
    else:
        trace_id, parent_id = new_trace_id(), ""
    ctx = TraceContext(trace_id, new_span_id())
    return Span(trace_id, ctx.span_id, parent_id, name, component, time.time(), attrs=attrs), ctx
