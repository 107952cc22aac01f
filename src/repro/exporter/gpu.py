"""Companion GPU exporters: NVIDIA DCGM-style and AMD SMI-style.

The paper (§II.B.a): *"When using GPU clusters, either DCGM exporter
or AMD SMI exporter must be deployed alongside the CEEMS exporter to
collect GPU metrics."*  These two apps reproduce the metric names of
those exporters so the recording rules and dashboards join against the
same series the real stack would see.
"""

from __future__ import annotations

from repro.common.httpx import App, Request, Response
from repro.hwsim.node import SimulatedNode
from repro.tsdb import exposition
from repro.tsdb.exposition import MetricFamily, MetricPoint


class DCGMExporter:
    """NVIDIA DCGM exporter facade over the node's NVIDIA devices."""

    def __init__(self, node: SimulatedNode, clock=None) -> None:
        self.node = node
        self.clock = clock
        self.body = exposition.Body()
        self.app = App(name=f"dcgm-{node.spec.name}")
        self.app.router.get("/metrics", self._metrics)

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def families(self, now: float) -> list[MetricFamily]:
        power = MetricFamily(
            "DCGM_FI_DEV_POWER_USAGE", help="Power draw (W).", type="gauge"
        )
        util = MetricFamily(
            "DCGM_FI_DEV_GPU_UTIL", help="GPU utilization (%).", type="gauge"
        )
        fb_used = MetricFamily(
            "DCGM_FI_DEV_FB_USED", help="Framebuffer used (MiB).", type="gauge"
        )
        energy = MetricFamily(
            "DCGM_FI_DEV_TOTAL_ENERGY_CONSUMPTION",
            help="Total energy consumption since boot (mJ).",
            type="counter",
        )
        for gpu in self.node.gpus:
            if gpu.profile.vendor != "nvidia":
                continue
            labels = {
                "gpu": str(gpu.index),
                "UUID": gpu.uuid,
                "modelName": gpu.profile.model,
            }
            # One read-only dict per GPU under its four points.
            power.points.append(MetricPoint(labels, gpu.power_w))
            util.points.append(MetricPoint(labels, round(gpu.sm_util * 100.0)))
            fb_used.points.append(MetricPoint(labels, gpu.mem_used_bytes / 1024**2))
            energy.points.append(MetricPoint(labels, float(gpu.energy_mj)))
        return [power, util, fb_used, energy]

    def _metrics(self, request: Request) -> Response:
        return Response.text(self.body.render(self.families(self._now())), content_type="text/plain; version=0.0.4")


class AMDSMIExporter:
    """AMD SMI exporter facade over the node's AMD devices."""

    def __init__(self, node: SimulatedNode, clock=None) -> None:
        self.node = node
        self.clock = clock
        self.body = exposition.Body()
        self.app = App(name=f"amd-smi-{node.spec.name}")
        self.app.router.get("/metrics", self._metrics)

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def families(self, now: float) -> list[MetricFamily]:
        power = MetricFamily(
            "amd_gpu_power", help="GPU package power (µW).", type="gauge"
        )
        util = MetricFamily(
            "amd_gpu_use_percent", help="GPU busy percent.", type="gauge"
        )
        mem = MetricFamily(
            "amd_gpu_memory_use_percent", help="GPU memory used percent.", type="gauge"
        )
        for gpu in self.node.gpus:
            if gpu.profile.vendor != "amd":
                continue
            labels = {"productname": gpu.profile.model, "gpu_id": str(gpu.index)}
            power.points.append(MetricPoint(labels, gpu.power_w * 1e6))
            util.points.append(MetricPoint(labels, round(gpu.sm_util * 100.0)))
            mem.points.append(MetricPoint(labels, round(gpu.mem_util * 100.0)))
        return [power, util, mem]

    def _metrics(self, request: Request) -> Response:
        return Response.text(self.body.render(self.families(self._now())), content_type="text/plain; version=0.0.4")
