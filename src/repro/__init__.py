"""CEEMS reproduction — Compute Energy & Emissions Monitoring Stack.

A from-scratch Python reproduction of the CEEMS monitoring stack
(Paipuri, SC 2024): a resource-manager-agnostic system that attributes
node-level energy consumption (RAPL + IPMI-DCMI) to individual compute
workloads (SLURM jobs, OpenStack VMs, Kubernetes pods) and converts
energy to equivalent CO2 emissions using static and real-time emission
factors.

Every substrate the original Go implementation relies on — cgroup
pseudo-filesystems, RAPL counters, BMC/IPMI power readings, GPU
telemetry, resource managers, a Prometheus-style TSDB with a PromQL
subset and recording rules, and a Thanos-style long-term store — is
implemented here as a deterministic simulation, so the full stack runs
on a laptop with no hardware access.

Top-level subpackages
---------------------
``repro.hwsim``
    Simulated node hardware: power model, RAPL, IPMI-DCMI, GPUs,
    cgroupfs and procfs pseudo-filesystems.
``repro.resourcemgr``
    SLURM / OpenStack / Kubernetes resource-manager simulators plus
    workload generators.
``repro.tsdb``
    Miniature Prometheus: storage, scraping, exposition format, a
    PromQL subset, and recording rules.
``repro.thanos``
    Long-term storage: block upload, compaction, downsampling and a
    store gateway.
``repro.exporter``
    The CEEMS exporter (per-node collectors + HTTP endpoint) and the
    companion DCGM / AMD-SMI GPU exporters.
``repro.apiserver``
    The CEEMS API server: unified SQLite schema, updater, aggregator,
    HTTP API, TSDB cleanup, backups.
``repro.lb``
    The CEEMS load balancer: query introspection, ownership checks and
    round-robin / least-connection balancing.
``repro.energy``
    The recording-rule library implementing the paper's Eq. (1) and its
    per-node-group variants.
``repro.emissions``
    Emission-factor providers (OWID static, RTE, Electricity Maps) and
    the energy → CO2e pipeline.
``repro.dashboard``
    Grafana-like data sources and panels regenerating the data behind
    the paper's Fig. 2.
``repro.cluster``
    Deterministic cluster simulation harness, including the Jean-Zay
    topology used for the scale experiments.
"""

from repro.common.clock import SimClock

__version__ = "1.0.0"

__all__ = ["SimClock", "__version__"]
