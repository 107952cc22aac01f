"""The paper's §IV pipeline features: eBPF network and perf collectors.

*"Some of the important features in the pipeline are adding network
and IO stats to CEEMS exporter using extended Berkley Packet
Filtering (eBPF) framework and adding performance metrics like FLOPS,
caching, and memory IO bandwidth … from Linux's perf framework."*

Both are implemented here against the simulated substrate
(:mod:`repro.hwsim.perf`):

* :class:`EBPFNetCollector` — per-unit TX/RX bytes and packets, as a
  cgroup-attached eBPF probe would account them.  These series enable
  the Eq. (1) *network-share ablation*: distributing the 0.1·IPMI
  network share by observed traffic instead of equally (see
  :func:`repro.energy.rules_library.network_aware_power_rule`).
* :class:`PerfCollector` — instructions, cycles, FLOPs, LLC
  references/misses and DRAM traffic per unit, enabling the
  efficiency dashboards the paper sketches (FLOPS/W follows directly
  from these series joined with the power series).
"""

from __future__ import annotations

from repro.hwsim.node import SimulatedNode
from repro.tsdb.exposition import MetricFamily, MetricPoint

from repro.exporter.collector import Collector
from repro.exporter.collectors import extract_unit_uuid


def _unit_labels(node: SimulatedNode, uuid: str) -> dict[str, str] | None:
    task = node.tasks.get(uuid)
    if task is None:
        return None
    ident = extract_unit_uuid(task.cgroup_path)
    manager = ident[0] if ident else "unknown"
    return {"uuid": uuid, "manager": manager}


class EBPFNetCollector(Collector):
    """Per-unit network accounting from the (simulated) eBPF probes."""

    name = "ebpf_net"

    def __init__(self, node: SimulatedNode) -> None:
        self.node = node

    def collect(self, now: float) -> list[MetricFamily]:
        tx = MetricFamily(
            "ceems_compute_unit_net_tx_bytes_total",
            help="Bytes transmitted by the compute unit (eBPF cgroup probe).",
            type="counter",
        )
        rx = MetricFamily(
            "ceems_compute_unit_net_rx_bytes_total",
            help="Bytes received by the compute unit (eBPF cgroup probe).",
            type="counter",
        )
        tx_pkts = MetricFamily(
            "ceems_compute_unit_net_tx_packets_total",
            help="Packets transmitted by the compute unit.",
            type="counter",
        )
        rx_pkts = MetricFamily(
            "ceems_compute_unit_net_rx_packets_total",
            help="Packets received by the compute unit.",
            type="counter",
        )
        for uuid, telemetry in self.node.telemetry.items():
            labels = _unit_labels(self.node, uuid)
            if labels is None:
                continue
            tx.points.append(MetricPoint(labels, float(telemetry.net.tx_bytes)))
            rx.points.append(MetricPoint(labels, float(telemetry.net.rx_bytes)))
            tx_pkts.points.append(MetricPoint(labels, float(telemetry.net.tx_packets)))
            rx_pkts.points.append(MetricPoint(labels, float(telemetry.net.rx_packets)))
        return [tx, rx, tx_pkts, rx_pkts]


class PerfCollector(Collector):
    """Per-unit perf-events counters (instructions, FLOPs, caches)."""

    name = "perf"

    def __init__(self, node: SimulatedNode) -> None:
        self.node = node

    def collect(self, now: float) -> list[MetricFamily]:
        cycles = MetricFamily(
            "ceems_compute_unit_perf_cycles_total",
            help="CPU cycles consumed by the compute unit.",
            type="counter",
        )
        instructions = MetricFamily(
            "ceems_compute_unit_perf_instructions_total",
            help="Instructions retired by the compute unit.",
            type="counter",
        )
        flops = MetricFamily(
            "ceems_compute_unit_perf_flops_total",
            help="Floating-point operations retired by the compute unit.",
            type="counter",
        )
        llc_refs = MetricFamily(
            "ceems_compute_unit_perf_llc_references_total",
            help="Last-level cache references.",
            type="counter",
        )
        llc_misses = MetricFamily(
            "ceems_compute_unit_perf_llc_misses_total",
            help="Last-level cache misses.",
            type="counter",
        )
        dram = MetricFamily(
            "ceems_compute_unit_perf_dram_bytes_total",
            help="DRAM traffic caused by the compute unit (miss * line).",
            type="counter",
        )
        for uuid, telemetry in self.node.telemetry.items():
            labels = _unit_labels(self.node, uuid)
            if labels is None:
                continue
            perf = telemetry.perf
            cycles.points.append(MetricPoint(labels, float(perf.cycles)))
            instructions.points.append(MetricPoint(labels, float(perf.instructions)))
            flops.points.append(MetricPoint(labels, float(perf.flops)))
            llc_refs.points.append(MetricPoint(labels, float(perf.llc_references)))
            llc_misses.points.append(MetricPoint(labels, float(perf.llc_misses)))
            dram.points.append(MetricPoint(labels, float(perf.dram_bytes)))
        return [cycles, instructions, flops, llc_refs, llc_misses, dram]
