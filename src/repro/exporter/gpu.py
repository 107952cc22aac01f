"""Companion GPU exporters: NVIDIA DCGM-style and AMD SMI-style.

The paper (§II.B.a): *"When using GPU clusters, either DCGM exporter
or AMD SMI exporter must be deployed alongside the CEEMS exporter to
collect GPU metrics."*  These two apps reproduce the metric names of
those exporters so the recording rules and dashboards join against the
same series the real stack would see.
"""

from __future__ import annotations

import operator
import threading

from repro.common.httpx import App, Request, Response
from repro.hwsim.node import SimulatedNode
from repro.tsdb import exposition
from repro.tsdb.exposition import KeptFamilies, MetricFamily


class _GPUExporter:
    """One ``/metrics`` endpoint over one vendor's devices of a node.

    ``families`` returns live families, valid until the next call (see
    :class:`~repro.exporter.collector.KeptFamilies`); the endpoint holds
    one lock across that call and the render."""

    #: ``profile.vendor`` of the devices exposed.
    vendor = ""

    def __init__(self, node: SimulatedNode, clock, app_name: str, *heads: tuple[str, str, str]) -> None:
        self.node = node
        self.clock = clock
        self.body = exposition.Body()
        self._lock = threading.Lock()
        self._families = KeptFamilies(*heads)
        #: The node's device list the label dicts were made for, and
        #: ``(gpu, labels)`` of this vendor's devices in it.
        self._seen: list = []
        self._devices: list[tuple[object, dict[str, str]]] = []
        self.app = App(name=app_name)
        self.app.router.get("/metrics", self._metrics)

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def families(self, now: float) -> list[MetricFamily]:
        gpus = self.node.gpus
        if len(gpus) != len(self._seen) or not all(map(operator.is_, gpus, self._seen)):
            self._seen = list(gpus)
            self._devices = [(gpu, self._labels(gpu)) for gpu in gpus if gpu.profile.vendor == self.vendor]
        return self._families.fill((labels, self._readings(gpu)) for gpu, labels in self._devices)

    def _metrics(self, request: Request) -> Response:
        with self._lock:
            text = self.body.render(self.families(self._now()))
        return Response.text(text, content_type="text/plain; version=0.0.4")


class DCGMExporter(_GPUExporter):
    """NVIDIA DCGM exporter facade over the node's NVIDIA devices."""

    vendor = "nvidia"

    def __init__(self, node: SimulatedNode, clock=None) -> None:
        super().__init__(
            node,
            clock,
            f"dcgm-{node.spec.name}",
            ("DCGM_FI_DEV_POWER_USAGE", "Power draw (W).", "gauge"),
            ("DCGM_FI_DEV_GPU_UTIL", "GPU utilization (%).", "gauge"),
            ("DCGM_FI_DEV_FB_USED", "Framebuffer used (MiB).", "gauge"),
            ("DCGM_FI_DEV_TOTAL_ENERGY_CONSUMPTION", "Total energy consumption since boot (mJ).", "counter"),
        )

    @staticmethod
    def _labels(gpu) -> dict[str, str]:
        return {"gpu": str(gpu.index), "UUID": gpu.uuid, "modelName": gpu.profile.model}

    @staticmethod
    def _readings(gpu) -> tuple[float, ...]:
        return (gpu.power_w, round(gpu.sm_util * 100.0), gpu.mem_used_bytes / 1024**2, float(gpu.energy_mj))


class AMDSMIExporter(_GPUExporter):
    """AMD SMI exporter facade over the node's AMD devices."""

    vendor = "amd"

    def __init__(self, node: SimulatedNode, clock=None) -> None:
        super().__init__(
            node,
            clock,
            f"amd-smi-{node.spec.name}",
            ("amd_gpu_power", "GPU package power (µW).", "gauge"),
            ("amd_gpu_use_percent", "GPU busy percent.", "gauge"),
            ("amd_gpu_memory_use_percent", "GPU memory used percent.", "gauge"),
        )

    @staticmethod
    def _labels(gpu) -> dict[str, str]:
        return {"productname": gpu.profile.model, "gpu_id": str(gpu.index)}

    @staticmethod
    def _readings(gpu) -> tuple[float, ...]:
        return (gpu.power_w * 1e6, round(gpu.sm_util * 100.0), round(gpu.mem_util * 100.0))
