"""Outside-in tracing: spans recorded from the benchmark's own files.

The program is not edited.  Top-level spans come from a ``SimClock``
subclass whose public ``every()`` wraps each periodic callback (named
by the class that owns it) and from the load generator around each
``App.handle`` it calls.  Child spans come from wrapping public methods
on *instances* (``obj.method = wrapper``), installed only for a traced
run.  Spans inside the program belong to a later "signal model" change.

A span is ``(id, parent, name, start, end, unit)``; ``unit`` is the
cycle / page / round the work belonged to.  A layer's self time is its
spans' durations minus the part their direct children cover — the
stack is single-threaded, so children nest and never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.common.clock import SimClock

#: Owning class of a periodic callback -> ledger layer.  The class is
#: the first component of the callback's ``__qualname__``, which names
#: the owner for bound methods and for lambdas defined in a
#: ``register_timer`` method alike.
CALLBACK_LAYERS = {
    "StackSimulation": "hwsim.advance",
    "ResourceManager": "resourcemgr.step",
    "SlurmCluster": "resourcemgr.step",
    "JobFeed": "resourcemgr.step",
    "ScrapeManager": "tsdb.scrape",
    "RuleManager": "tsdb.rules",
    "RuleEvaluator": "tsdb.alerts",
    "BlackboxProber": "obs.probe",
    "Alertmanager": "obs.alertmanager",
    "Sidecar": "thanos.sidecar",
    "Compactor": "thanos.compact",
    "Updater": "apiserver.updater",
    "LitestreamReplicator": "apiserver.backup",
}


def callback_layer(callback) -> str:
    owner = getattr(callback, "__qualname__", type(callback).__name__).split(".")[0]
    return CALLBACK_LAYERS.get(owner, f"other.{owner}")


class Tracer:
    """In-memory span recorder with instance-method wrapping."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self._stack: list[int] = []
        #: While False, wrappers and clock callbacks pass straight
        #: through: alternating traced and untraced units inside one
        #: run is how the tracing overhead is measured.
        self.enabled = True
        #: Cycle / page / round id stamped on every span recorded.
        self.unit = -1
        #: Counts taken by ``wrap(after=...)`` hooks.
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # type: ignore[arg-type]  # reserve: parents precede children
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (index, parent, name, start, end, self.unit)

    def wrap(self, obj: object, attr: str, name: str, *, skip=None, after=None) -> None:
        """Replace ``obj.attr`` (an instance's or a class's method)
        with a span-recording wrapper.

        ``skip(*args)`` true means the call is not a layer boundary
        (e.g. a ``/metrics`` scrape of a serving app) and passes
        through unrecorded.  ``after(args, result)`` runs on every
        recorded-or-not boundary call, for counts the program keeps no
        public counter of (bytes rendered, steps served).
        """
        original = getattr(obj, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if skip is not None and skip(*args):
                return original(*args, **kwargs)
            if not self.enabled:
                result = original(*args, **kwargs)
            else:
                # span() inlined: some boundaries are crossed hundreds
                # of times per page, and a generator-based context
                # manager per crossing is most of the tracing overhead.
                index = len(spans)
                parent = stack[-1] if stack else -1
                spans.append(None)
                stack.append(index)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (index, parent, name, start, end, self.unit)
            if after is not None:
                after(args, result)
            return result

        self._patched.append((obj, attr, vars(obj).get(attr)))
        setattr(obj, attr, traced)

    def unwrap_all(self) -> None:
        """Undo every ``wrap``: restore a class's own function, or
        delete the instance attribute that shadowed the method."""
        for obj, attr, own in reversed(self._patched):
            if own is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, own)
        self._patched.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Seconds of self time and span count per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for index, parent, _name, start, end, _unit in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for index, _parent, name, start, end, _unit in self.spans:
            self_s[name] += (end - start) - child_time.get(index, 0.0)
            counts[name] += 1
        return dict(self_s), dict(counts)

    def top_level_seconds(self) -> float:
        return sum(end - start for _i, parent, _n, start, end, _u in self.spans if parent < 0)

    def check_tree(self) -> list[str]:
        """Well-formedness problems (empty when the span tree is sound)."""
        problems = []
        for index, span in enumerate(self.spans):
            if span is None:
                problems.append(f"span {index} never closed")
                continue
            _i, parent, name, start, end, unit = span
            if end < start:
                problems.append(f"span {index} {name} ends before it starts")
            if parent >= 0:
                p = self.spans[parent]
                if p is None or parent >= index:
                    problems.append(f"span {index} {name} has a bad parent")
                elif not (p[3] <= start and end <= p[4]):
                    problems.append(f"span {index} {name} escapes its parent {p[2]}")
                elif p[5] != unit:
                    problems.append(f"span {index} {name} changes unit under {p[2]}")
        return problems

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans, columns named once, as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "columns": ["id", "parent", "name", "start_s", "end_s", "unit"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def tracing_clock(tracer: Tracer) -> type[SimClock]:
    """A ``SimClock`` subclass recording one top-level span per
    periodic callback, for substitution while a traced deployment is
    built."""

    class TracingSimClock(SimClock):
        def every(self, interval, callback, *, first_at=None):
            name = callback_layer(callback)
            span = tracer.span

            def traced(now: float) -> None:
                if not tracer.enabled:
                    callback(now)
                    return
                with span(name):
                    callback(now)

            return super().every(interval, traced, first_at=first_at)

    return TracingSimClock
