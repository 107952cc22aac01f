"""Per-component telemetry bundle: registry + span store + log.

Every :class:`~repro.common.httpx.App` owns one :class:`Telemetry`
(auto-created), and non-HTTP components (the TSDB storage, the scrape
manager, the updater) can be handed one to record spans and metrics
into.  Two span entry points cover the two call patterns:

* :meth:`Telemetry.span` — always records; roots a new trace when no
  context is active.  For periodic activities that *originate* work
  (an updater pass, a scrape cycle).
* :meth:`Telemetry.child_span` — records only when a trace is already
  active, and binds ``None`` otherwise.  For hot internals (storage
  selects, query evaluation) that must not mint junk traces on every
  rule evaluation.

Both return a :class:`~repro.obs.scope.Scope`, so a caller can read
the block's two clock readings after it (``scope.seconds``), traced or
not.
"""

from __future__ import annotations

from typing import Any

from repro.obs.log import StructuredLogger
from repro.obs.registry import MetricsRegistry
from repro.obs.scope import Scope
from repro.obs.trace import (
    Span,
    SpanStore,
    TailSampler,
    TraceContext,
    activate,
    current_trace,
    deactivate,
    make_span,
    new_span_id,
    wall_time,
)


class Telemetry:
    """One component's self-telemetry sink."""

    def __init__(
        self,
        component: str,
        span_capacity: int = 1024,
        sampler: TailSampler | None = None,
    ) -> None:
        self.component = component
        self.registry = MetricsRegistry()
        self.spans = SpanStore(capacity=span_capacity)
        #: Tail sampler applied at record time (shared across the sim's
        #: components so a trace is kept or dropped coherently).
        self.spans.sampler = sampler
        #: Structured JSONL log, trace-correlated via the ambient
        #: context (see :mod:`repro.obs.log`).
        self.log = StructuredLogger(component)

    def set_sampler(self, sampler: TailSampler | None) -> None:
        self.spans.sampler = sampler

    def span(self, name: str, **attrs: Any) -> Scope:
        """Record a span, rooting a new trace if none is active."""
        span, ctx = make_span(name, self.component, current_trace(), **attrs)
        return Scope(self, ctx, span)

    def child_span(self, name: str, **attrs: Any) -> Scope:
        """Record a span only when already inside a trace; outside one
        the block is only timed and binds ``None``."""
        parent = current_trace()
        if parent is None:
            return Scope(self)
        # make_span's work, inline on the hot path; the start is set
        # from the scope's first clock reading.
        trace_id, span_id = parent.trace_id, new_span_id()
        span = Span(trace_id, span_id, parent.span_id, name, self.component, 0.0, 0.0, "ok", attrs)
        return Scope(self, TraceContext(trace_id, span_id), span)

    def _scope_enter(self, scope: Scope):
        if scope.key is not None:
            scope.token = activate(scope.key)
        return scope.value

    def _scope_exit(self, scope: Scope, exc_type) -> None:
        span = scope.value
        if span is None:
            return
        deactivate(scope.token)
        if exc_type is not None and issubclass(exc_type, Exception):
            span.status = "error"
        span.start = wall_time(scope.started)
        span.duration = scope.ended - scope.started
        self.spans.record(span)

    # -- exposition -------------------------------------------------------
    def collect(self):
        return self.registry.collect()

    def render(self) -> str:
        return self.registry.render()
