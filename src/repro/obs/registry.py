"""In-process metrics registry rendering to the exposition format.

The registry is the write side of the stack's self-telemetry: the
HTTP middleware and component internals record counters, gauges and
histograms here, and each component's ``/metrics`` endpoint renders
the registry through a :class:`repro.tsdb.exposition.Body` — the same
wire format the exporters speak, so the sim Prometheus can scrape the
stack's own components with zero new parsing code.

Histograms use fixed buckets and expose the standard Prometheus
triplet (``*_bucket`` with cumulative ``le`` labels including
``+Inf``, ``*_sum``, ``*_count``), which keeps them compatible with
``histogram_quantile()`` in the PromQL engine.

Thread safety: observation methods take the metric's lock, because
components mounted on :func:`repro.common.httpx.serve_threading`
handle requests from server threads concurrently; ``collect`` returns
live families, so a render holds :attr:`MetricsRegistry.scrape_lock`
across collect and render.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Iterable

from repro.common.errors import CEEMSError
from repro.obs.trace import current_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tsdb.exposition import MetricFamily, MetricPoint


def _exposition():
    """Deferred import of :mod:`repro.tsdb.exposition`.

    ``repro.tsdb``'s package init pulls in the scrape manager, which
    imports :mod:`repro.common.httpx`, which imports this module — a
    cycle if the exposition types were imported at module load.  At
    collect/render time every module involved is fully initialised.
    """
    from repro.tsdb import exposition

    return exposition

#: Default latency buckets (seconds), tuned for in-process handlers:
#: most requests land well under a millisecond, but socket-served and
#: query-evaluating requests reach into the tens of milliseconds.
DEFAULT_LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted(labels.items()))


#: Exemplar capture switch.  Process-wide on purpose: the bench guard
#: measures enabled-vs-disabled ingest, and an operator turning
#: exemplars off wants *every* component to stop paying for capture.
_EXEMPLARS_ENABLED = True

#: Per-slot replacement rate limit (seconds).  A hot counter or bucket
#: would otherwise replace its exemplar on every observation; one
#: fresh trace reference per slot per interval is plenty to drill into
#: a spike and keeps the capture branch off the allocation path.
_EXEMPLAR_MIN_INTERVAL = 0.25


def set_exemplars_enabled(enabled: bool) -> bool:
    """Toggle exemplar capture process-wide; returns the old value."""
    global _EXEMPLARS_ENABLED
    old = _EXEMPLARS_ENABLED
    _EXEMPLARS_ENABLED = bool(enabled)
    return old


#: The exemplar rate limit's clock.  ``perf_counter`` is monotonic,
#: and it is the clock request timing reads: the middleware hands its
#: closing reading in, so one request reads the clock twice in all.
_monotonic = time.perf_counter

# Each metric keeps its families: a ``MetricFamily`` made at the first
# collect and one ``MetricPoint`` per label set, made with the label set
# (with its label dicts, read-only from then on).  A counter or gauge
# writes straight into its point, so ``collect`` does no work per
# point; a histogram counts per bucket and writes the cumulative points
# at ``collect``, under its lock, for the label sets observed since the
# previous one — a render then never shows an observation half applied
# across buckets.  What ``collect`` returns is therefore live: valid
# until the next ``collect`` (see :class:`MetricsRegistry`).
#
# Exemplar capture keeps the capture's monotonic time beside the point
# the exemplar rides on — no side dict, so the hot path pays no second
# hash of the label key.  The rate-limit check runs before the trace
# lookup: on a hot metric nearly every observation exits on the
# freshness test, so the steady-state cost is one list index and one
# clock read.  A captured wire :class:`~repro.tsdb.exposition.Exemplar`
# is built once per capture — at most one per slot per
# ``_EXEMPLAR_MIN_INTERVAL`` — and handed out until the next capture
# replaces it, and with it its rendered suffix.


def _new_exemplar(trace_id: str, value: float):
    return _exposition().Exemplar(labels={"trace_id": trace_id}, value=value)


class _Metric:
    """Shared bookkeeping for labelled metrics."""

    type = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        #: The families ``collect`` hands out, made by the first one.
        self._families: list[MetricFamily] | None = None

    def _family(self, name: str, help: str = "", type: str | None = None) -> MetricFamily:
        return _exposition().MetricFamily(name, help=help, type=type or self.type)

    def collect(self) -> list[MetricFamily]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing value, optionally labelled."""

    type = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        # per label set: [its point (the running total), monotonic time
        # of the exemplar captured on it]
        self._values: dict[_LabelKey, list] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise CEEMSError(f"counter {self.name} cannot decrease")
        self.inc_key(_label_key(labels), amount)

    def inc_key(self, key: _LabelKey, amount: float = 1.0, now: float | None = None) -> None:
        """:meth:`inc` by a label key already in sorted order (no
        negative check); ``now`` is a :data:`_monotonic` reading the
        caller already took."""
        # acquire/release, not ``with``: every request pays this path,
        # and the ``with`` protocol costs more than the lock itself.
        self._lock.acquire()
        try:
            entry = self._values.get(key)
            if entry is None:
                entry = self._values[key] = [_exposition().MetricPoint(dict(key), 0.0), _NEVER]
            point = entry[0]
            point.value += amount
            if _EXEMPLARS_ENABLED:
                # Exemplar value is the increment, not the running
                # total: "this trace contributed this much".
                if now is None:
                    now = _monotonic()
                if now - entry[1] >= _EXEMPLAR_MIN_INTERVAL:
                    ctx = current_trace()
                    if ctx is not None:
                        entry[1] = now
                        point.exemplar = _new_exemplar(ctx.trace_id, amount)
        finally:
            self._lock.release()

    def value(self, **labels: str) -> float:
        entry = self._values.get(_label_key(labels))
        return entry[0].value if entry else 0.0

    def collect(self) -> list[MetricFamily]:
        with self._lock:
            if self._families is None:
                self._families = [self._family(self.name, self.help)]
            family = self._families[0]
            if len(family.points) != len(self._values):  # a new label set
                family.points = [entry[0] for entry in self._values.values()]
        return self._families


#: Capture time of a slot that has none yet: always due.
_NEVER = float("-inf")


class Gauge(_Metric):
    """A value that can go up and down, optionally labelled."""

    type = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        #: per label set: its point
        self._values: dict[_LabelKey, MetricPoint] = {}

    def _point(self, key: _LabelKey) -> MetricPoint:
        point = self._values.get(key)
        if point is None:
            point = self._values[key] = _exposition().MetricPoint(dict(key), 0.0)
        return point

    def set(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._point(key).value = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._point(key).value += amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        point = self._values.get(_label_key(labels))
        return point.value if point else 0.0

    def collect(self) -> list[MetricFamily]:
        with self._lock:
            if self._families is None:
                self._families = [self._family(self.name, self.help)]
            family = self._families[0]
            if len(family.points) != len(self._values):  # a new label set
                family.points = list(self._values.values())
        return self._families


class Histogram(_Metric):
    """Fixed-bucket histogram with cumulative Prometheus exposition."""

    type = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        self.buckets: tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise CEEMSError(f"histogram {self.name} needs at least one bucket")
        # ``le`` label text is a pure function of the (immutable)
        # bucket bounds, formatted once here.
        self._le_strs: tuple[str, ...] = tuple(self._le(b) for b in self.buckets)
        # per label set: (per-bucket counts (+overflow slot), [sum,
        # count], per-bucket exemplar captures (+overflow slot), then
        # for collect(): its points — one per bucket, +Inf, _sum,
        # _count — and per bucket the capture its point's exemplar
        # was built from)
        self._data: dict[_LabelKey, tuple[list[int], list[float], list, list[MetricPoint], list]] = {}

    def observe(self, value: float, **labels: str) -> None:
        self.observe_key(_label_key(labels), value)

    def observe_key(self, key: _LabelKey, value: float, now: float | None = None) -> None:
        """:meth:`observe` by a label key already in sorted order;
        ``now`` as for :meth:`Counter.inc_key`."""
        # First bucket with ``le >= value`` (Prometheus bucket rule);
        # past the last bucket the observation lands in +Inf only.
        idx = bisect_left(self.buckets, value)
        self._lock.acquire()  # not ``with``: see Counter.inc_key
        try:
            entry = self._data.get(key)
            if entry is None:
                entry = self._data[key] = self._new_entry(key)
            entry[0][idx] += 1
            entry[1][0] += value  # sum
            entry[1][1] += 1  # count
            if _EXEMPLARS_ENABLED:
                # Per-bucket slots, like Prometheus client_golang: the
                # exemplar rides the bucket the observation landed in,
                # so a p99 spike's bucket carries a p99 trace.
                exemplars = entry[2]
                prev = exemplars[idx]
                if now is None:
                    now = _monotonic()
                if prev is None or now - prev[2] >= _EXEMPLAR_MIN_INTERVAL:
                    ctx = current_trace()
                    if ctx is not None:
                        exemplars[idx] = (ctx.trace_id, value, now)
        finally:
            self._lock.release()

    def _new_entry(self, key: _LabelKey) -> tuple:
        point = _exposition().MetricPoint
        slots = len(self.buckets) + 1
        plain = dict(key)
        points = [point({**plain, "le": le}, 0.0) for le in (*self._le_strs, "+Inf")]
        points.append(point(plain, 0.0))  # _sum
        points.append(point(plain, 0.0))  # _count
        return ([0] * slots, [0.0, 0.0], [None] * slots, points, [None] * slots)

    def count(self, **labels: str) -> float:
        entry = self._data.get(_label_key(labels))
        return entry[1][1] if entry else 0.0

    def sum(self, **labels: str) -> float:
        entry = self._data.get(_label_key(labels))
        return entry[1][0] if entry else 0.0

    @staticmethod
    def _le(bound: float) -> str:
        if float(bound).is_integer():
            return str(float(bound))
        return repr(float(bound))

    def collect(self) -> list[MetricFamily]:
        # The marker family carries HELP/TYPE histogram; sample lines
        # live in the _bucket/_sum/_count families (what the scrape
        # parser turns into the queryable series).
        with self._lock:
            families = self._families
            if families is None:
                families = self._families = [
                    self._family(self.name, self.help),
                    self._family(f"{self.name}_bucket", type="counter"),
                    self._family(f"{self.name}_sum", type="counter"),
                    self._family(f"{self.name}_count", type="counter"),
                ]
            _marker, buckets, sums, counts = families
            data = self._data
            if len(sums.points) != len(data):  # a new label set
                buckets.points = [point for entry in data.values() for point in entry[3][:-2]]
                sums.points = [entry[3][-2] for entry in data.values()]
                counts.points = [entry[3][-1] for entry in data.values()]
            for per_bucket, sum_count, exemplars, points, built in data.values():
                if points[-1].value == sum_count[1]:
                    continue  # nothing observed since the last collect
                cumulative = 0
                for idx, count in enumerate(per_bucket):
                    cumulative += count
                    point = points[idx]
                    point.value = float(cumulative)
                    captured = exemplars[idx]
                    if captured is not built[idx]:
                        built[idx] = captured
                        point.exemplar = _new_exemplar(captured[0], captured[1])
                points[-2].value = sum_count[0]
                points[-1].value = sum_count[1]
        return families


class _CallbackGauge(_Metric):
    """A gauge whose value is read at collect time."""

    def __init__(
        self,
        name: str,
        fn: Callable[[], float],
        help: str = "",
        type: str = "gauge",
        **const_labels: str,
    ) -> None:
        super().__init__(name, help)
        self.type = type
        self.fn = fn
        self.const_labels = const_labels

    def collect(self) -> list[MetricFamily]:
        families = self._families
        if families is None:
            family = self._family(self.name, self.help)
            family.points.append(_exposition().MetricPoint(self.const_labels, 0.0))
            families = self._families = [family]
        families[0].points[0].value = float(self.fn())
        return families


class MetricsRegistry:
    """All of one component's self-telemetry metrics.

    Metrics are registered once (get-or-create by name) and collected
    in registration order; ``collector()`` callbacks run last, letting
    components expose pre-existing plain-attribute statistics (cache
    hit counters, backend health) without double bookkeeping.

    **Live families.** ``collect()`` returns the metrics' own families,
    kept between collects: valid until the next ``collect()``, which
    writes new readings into the same ``MetricFamily`` and
    ``MetricPoint`` objects (a family's point list is replaced only
    when a label set is new).  Whoever renders them therefore holds
    :attr:`scrape_lock` across collect and render — :meth:`render`
    does, and so does an exporter that serves these families inside
    its own body — so one scrape never shows another's readings.
    Label dicts and exemplars on the points stay read-only.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[[], list[MetricFamily]]] = []
        self._lock = threading.Lock()
        #: Held across one collect and the render of what it returned.
        self.scrape_lock = threading.Lock()
        #: The last rendered body (an ``exposition.Body``), made by the
        #: first render: the import is deferred, see :func:`_exposition`.
        self.body = None

    def _get_or_create(self, cls, name: str, *args, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise CEEMSError(
                        f"metric {name!r} already registered as {existing.type}"
                    )
                return existing
            metric = cls(name, *args, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets)

    def gauge_func(
        self,
        name: str,
        fn: Callable[[], float],
        help: str = "",
        type: str = "gauge",
        **const_labels: str,
    ) -> None:
        """Register a collect-time callback exposed as one sample."""
        with self._lock:
            if name in self._metrics:
                raise CEEMSError(f"metric {name!r} already registered")
            self._metrics[name] = _CallbackGauge(name, fn, help, type, **const_labels)

    def collector(self, fn: Callable[[], list[MetricFamily]]) -> None:
        """Register a callback producing whole metric families."""
        self._collectors.append(fn)

    @property
    def names(self) -> list[str]:
        return list(self._metrics)

    def collect(self) -> list[MetricFamily]:
        families: list[MetricFamily] = []
        for metric in list(self._metrics.values()):
            families.extend(metric.collect())
        for fn in self._collectors:
            families.extend(fn())
        return families

    def render(self) -> str:
        with self.scrape_lock:
            if self.body is None:
                self.body = _exposition().Body()
            return self.body.render(self.collect())
