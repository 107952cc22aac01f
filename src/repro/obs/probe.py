"""Blackbox probing of the simulated stack.

Meta-monitoring via ``/metrics`` scrapes only proves a component can
render its own telemetry; it says nothing about whether the component
answers the requests users actually send.  Following the blackbox-
exporter pattern, :class:`BlackboxProber` issues synthetic requests
on the sim clock against the LB readiness endpoint, the API server,
the Prometheus backends and every exporter, and records

* ``probe_success{instance=...}`` — 1 when the endpoint answered with
  the expected status, else 0;
* ``probe_duration_seconds{instance=...}`` — wall-clock handler time;
* ``probe_http_status_code{instance=...}`` — the observed status;

into the meta-monitoring TSDB, where alerting rules and the ops
dashboard consume them like any other series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.common.httpx import App, Request
from repro.tsdb.model import METRIC_NAME_LABEL, Labels

PROBE_JOB = "blackbox"


@dataclass
class ProbeTarget:
    """One endpoint the prober hits every interval."""

    app: App
    instance: str
    path: str = "/-/healthy"
    module: str = "http_2xx"
    headers: dict[str, str] = field(default_factory=dict)
    expect_status: int = 200

    last_success: bool | None = None
    last_duration: float = 0.0
    last_status: int = 0
    #: ``probe_success``, ``probe_duration_seconds`` and
    #: ``probe_http_status_code`` series of this target.
    _series: tuple[Labels, Labels, Labels] | None = field(default=None, repr=False)


class BlackboxProber:
    """Probes targets on the sim clock, recording results as series."""

    def __init__(self, storage, *, interval: float = 60.0, job: str = PROBE_JOB) -> None:
        self.storage = storage
        self.interval = interval
        self.job = job
        self.targets: list[ProbeTarget] = []
        self.probes_total = 0
        self.failures_total = 0

    def add_target(self, target: ProbeTarget) -> None:
        if any(t.instance == target.instance for t in self.targets):
            raise ValueError(f"duplicate probe target {target.instance!r}")
        self.targets.append(target)

    def _result_series(self, target: ProbeTarget) -> tuple[Labels, Labels, Labels]:
        """The target's three result series, built on its first probe."""
        if target._series is None:
            labels = {"instance": target.instance, "job": self.job, "module": target.module}
            target._series = tuple(
                Labels({METRIC_NAME_LABEL: name, **labels})
                for name in ("probe_success", "probe_duration_seconds", "probe_http_status_code")
            )
        return target._series

    def probe_all(self, now: float) -> int:
        """Probe every target once at sim time ``now``; returns failures.

        The round's results are committed in one batch (one WAL record
        on a durable head) after the last probe."""
        failures = 0
        batch = []
        for target in self.targets:
            request = Request.from_url("GET", target.path, headers=target.headers)
            started = time.perf_counter()
            try:
                response = target.app.handle(request)
                status = response.status
            except Exception:
                status = 0
            duration = time.perf_counter() - started
            success = status == target.expect_status
            target.last_success = success
            target.last_duration = duration
            target.last_status = status
            self.probes_total += 1
            if not success:
                failures += 1
                self.failures_total += 1
            ok, took, code = self._result_series(target)
            batch += ((ok, now, 1.0 if success else 0.0), (took, now, duration), (code, now, float(status)))
        self.storage.append_many(batch)
        return failures

    def register_timer(self, clock) -> None:
        clock.every(self.interval, self.probe_all)

    def register_metrics(self, registry) -> None:
        registry.gauge_func(
            "ceems_probes_total",
            lambda: float(self.probes_total),
            help="Blackbox probes issued.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_probe_failures_total",
            lambda: float(self.failures_total),
            help="Blackbox probes that failed.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_probe_targets",
            lambda: float(len(self.targets)),
            help="Probe targets configured.",
        )
