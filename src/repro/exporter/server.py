"""The CEEMS exporter HTTP server.

Wires a collector registry to an HTTP app with optional basic auth
and TLS (paper: *"The exporter supports basic auth and TLS to protect
it from DoS/DDoS attacks"*).  Tracks its own scrape cost — CPU time
per scrape and payload bytes — which the E6 benchmark reads back to
reproduce the paper's footprint claims (15–20 MB memory, tiny CPU
time per scrape).
"""

from __future__ import annotations

import time

from repro.common.auth import BasicAuth, TLSConfig
from repro.common.config import ExporterConfig
from repro.common.httpx import App, Request, Response
from repro.hwsim.node import SimulatedNode
from repro.obs import prof
from repro.tsdb import exposition

from repro.exporter.collector import CollectorRegistry
from repro.exporter.collectors import (
    CgroupCollector,
    GPUMapCollector,
    IPMICollector,
    NodeCollector,
    RAPLCollector,
    SelfCollector,
)
from repro.exporter.future_collectors import EBPFNetCollector, PerfCollector

_COLLECTOR_FACTORIES = {
    "cgroup": CgroupCollector,
    "rapl": RAPLCollector,
    "ipmi": IPMICollector,
    "node": NodeCollector,
    "gpu_map": GPUMapCollector,
    "ebpf_net": EBPFNetCollector,
    "perf": PerfCollector,
}


class CEEMSExporter:
    """One exporter instance bound to one simulated node."""

    def __init__(
        self,
        node: SimulatedNode,
        clock,
        config: ExporterConfig | None = None,
        *,
        auth: BasicAuth | None = None,
        tls: TLSConfig | None = None,
        rate_limiter: "RateLimiter | None" = None,
    ) -> None:
        self.node = node
        self.clock = clock
        self.config = config or ExporterConfig()
        self.rate_limiter = rate_limiter
        if auth is None and self.config.basic_auth.enabled:
            auth = BasicAuth.single_user(self.config.basic_auth.username, self.config.basic_auth.password)
        self.app = App(name=f"ceems-exporter-{node.spec.name}", auth=auth, tls=tls)
        self.registry = CollectorRegistry()
        for name in self.config.collectors:
            if name == "self":
                self.registry.register(SelfCollector(self))
            elif name in _COLLECTOR_FACTORIES:
                self.registry.register(_COLLECTOR_FACTORIES[name](node))
        self.scrapes_total = 0
        self.scrape_cpu_seconds = 0.0
        self.last_payload_bytes = 0
        #: The last scrape payload; the next re-formats what changed.
        self.body = exposition.Body()
        self.app.router.get("/metrics", self._handle_metrics)
        self.app.router.get("/", self._handle_index)
        self.app.router.get("/health", self._handle_health)
        # The exporter keeps its own /metrics (the scrape payload);
        # middleware metrics are appended to it below, so only the
        # trace endpoint comes from the shared telemetry plumbing.
        self.app.expose_telemetry(metrics=False)

    # -- handlers -----------------------------------------------------------
    def _handle_metrics(self, request: Request) -> Response:
        if self.rate_limiter is not None:
            rejection = self.rate_limiter.check(request)
            if rejection is not None:
                return rejection
        started = time.process_time()
        telemetry = self.app.telemetry.registry
        # The collected families are live until the next collect, so
        # one scrape's collect and render may not interleave another's.
        with telemetry.scrape_lock:
            with prof.profile("exporter.collect"):
                families = self.registry.collect(self.clock.now())
                families.extend(telemetry.collect())
            with prof.profile("exporter.render"):
                payload = self.body.render(families)
            self.scrape_cpu_seconds += time.process_time() - started
            self.scrapes_total += 1
        self.last_payload_bytes = len(payload)
        return Response.text(payload, content_type="text/plain; version=0.0.4; charset=utf-8")

    def _handle_index(self, request: Request) -> Response:
        lines = [f"CEEMS exporter on {self.node.spec.name}", "collectors:"]
        lines += [f"  - {name}" for name in self.registry.names]
        return Response.text("\n".join(lines) + "\n")

    def _handle_health(self, request: Request) -> Response:
        return Response.json({"status": "ok"})
