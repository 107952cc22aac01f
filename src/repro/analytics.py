"""Operator analytics over the accounting data.

Paper §III.B: cluster operators can *"perform data analysis on the
job metrics data to optimize the cluster usage, identify users and/or
projects that are using the cluster resources inefficiently"*.  This
module is that analysis layer, computed from the two stores the stack
already maintains:

* :func:`efficiency_report` — per-user resource-efficiency scores
  from the API server's SQLite (CPU efficiency = used core-seconds /
  allocated core-seconds; memory efficiency = peak / requested;
  energy per delivered core-hour), with an inefficiency flag list;
* :func:`cluster_utilisation_report` — fleet-level numbers from the
  TSDB: power by node group, idle-node detection (nodes drawing only
  their idle floor while running no units), and the cluster's
  aggregate carbon intensity.

Both return plain dataclasses with ``render()`` text tables so the
examples and the CLI can print them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apiserver.db import Database
from repro.common.units import format_co2, format_energy
from repro.tsdb.promql.engine import PromQLEngine


@dataclass
class UserEfficiency:
    """One user's efficiency scores over their finished units."""

    user: str
    project: str
    num_units: int
    core_hours_allocated: float
    cpu_efficiency: float  # mean used/allocated cores, time-weighted
    memory_efficiency: float  # mean peak/requested
    energy_joules: float
    emissions_g: float

    @property
    def energy_per_core_hour(self) -> float:
        return self.energy_joules / self.core_hours_allocated if self.core_hours_allocated else 0.0


@dataclass
class EfficiencyReport:
    rows: list[UserEfficiency]
    inefficiency_threshold: float

    @property
    def flagged(self) -> list[UserEfficiency]:
        """Users below the CPU-efficiency threshold (the paper's lens)."""
        return [r for r in self.rows if r.cpu_efficiency < self.inefficiency_threshold]

    def render(self) -> str:
        header = (
            f"{'user':<10} {'project':<11} {'units':>5} {'core-h':>8} "
            f"{'cpu-eff':>8} {'mem-eff':>8} {'J/core-h':>9} {'energy':>11} {'CO2e':>11}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            flag = " ⚠" if r.cpu_efficiency < self.inefficiency_threshold else ""
            lines.append(
                f"{r.user:<10} {r.project:<11} {r.num_units:>5} {r.core_hours_allocated:>8.1f} "
                f"{r.cpu_efficiency * 100:>7.1f}% {r.memory_efficiency * 100:>7.1f}% "
                f"{r.energy_per_core_hour:>9.0f} {format_energy(r.energy_joules):>11} "
                f"{format_co2(r.emissions_g):>11}{flag}"
            )
        return "\n".join(lines)


def efficiency_report(
    db: Database,
    cluster: str | None = None,
    *,
    inefficiency_threshold: float = 0.25,
    min_elapsed: float = 300.0,
) -> EfficiencyReport:
    """Per-user efficiency from the unit accounting records.

    Units shorter than ``min_elapsed`` are excluded (their averages
    are dominated by ramp-up noise; they are also the cleanup-cutoff
    population whose series may be gone).
    """
    clauses = ["elapsed >= ?"]
    params: list = [min_elapsed]
    if cluster is not None:
        clauses.append("cluster = ?")
        params.append(cluster)
    rows = db.query(
        f"""
        SELECT user, project,
               COUNT(*) AS num_units,
               SUM(elapsed * cpus) / 3600.0 AS core_hours,
               SUM(elapsed * MIN(avg_cpu_usage / MAX(cpus, 1), 1.0)) / SUM(elapsed) AS cpu_eff,
               SUM(elapsed * MIN(peak_memory_bytes / MAX(memory_bytes, 1), 1.0)) / SUM(elapsed) AS mem_eff,
               SUM(energy_joules) AS energy,
               SUM(emissions_g) AS emissions
        FROM units
        WHERE {' AND '.join(clauses)}
        GROUP BY user, project
        ORDER BY energy DESC
        """,
        params,
    )
    report_rows = [
        UserEfficiency(
            user=r["user"],
            project=r["project"],
            num_units=r["num_units"],
            core_hours_allocated=r["core_hours"] or 0.0,
            cpu_efficiency=min(max(r["cpu_eff"] or 0.0, 0.0), 1.0),
            memory_efficiency=min(max(r["mem_eff"] or 0.0, 0.0), 1.0),
            energy_joules=r["energy"] or 0.0,
            emissions_g=r["emissions"] or 0.0,
        )
        for r in rows
    ]
    return EfficiencyReport(rows=report_rows, inefficiency_threshold=inefficiency_threshold)


@dataclass
class ClusterUtilisation:
    """Fleet-level snapshot from the TSDB."""

    at: float
    total_power_w: float
    attributed_power_w: float
    power_by_nodegroup: dict[str, float] = field(default_factory=dict)
    nodes_total: int = 0
    nodes_idle: int = 0
    idle_power_w: float = 0.0
    carbon_intensity_g_per_kwh: float = 0.0

    @property
    def attribution_ratio(self) -> float:
        return self.attributed_power_w / self.total_power_w if self.total_power_w else 0.0

    def render(self) -> str:
        lines = [
            f"cluster power: {self.total_power_w / 1000:.1f} kW "
            f"({self.attribution_ratio * 100:.0f}% attributed to units)",
            f"idle nodes: {self.nodes_idle}/{self.nodes_total} "
            f"drawing {self.idle_power_w / 1000:.1f} kW doing nothing",
            f"grid intensity: {self.carbon_intensity_g_per_kwh:.0f} gCO2e/kWh",
            "power by node group:",
        ]
        for group, watts in sorted(self.power_by_nodegroup.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {group:<16} {watts / 1000:8.2f} kW")
        return "\n".join(lines)


def cluster_utilisation_report(engine: PromQLEngine, at: float) -> ClusterUtilisation:
    """Fleet snapshot at time ``at``.

    A node counts as *idle* when it draws power but hosts no unit CPU
    activity — detected as a ``ceems:node:power_watts`` series with no
    matching per-unit series on the same hostname.
    """
    node_power = engine.query("ceems:node:power_watts", at=at)
    unit_power = engine.query("sum by (hostname) (ceems:compute_unit:power_watts)", at=at)
    busy_hosts = {el.labels.get("hostname") for el in unit_power.vector}
    total = sum(el.value for el in node_power.vector)
    attributed = sum(el.value for el in unit_power.vector)
    by_group: dict[str, float] = {}
    idle_nodes = 0
    idle_power = 0.0
    for el in node_power.vector:
        group = el.labels.get("nodegroup", "unknown")
        by_group[group] = by_group.get(group, 0.0) + el.value
        if el.labels.get("hostname") not in busy_hosts:
            idle_nodes += 1
            idle_power += el.value
    factor = engine.query('ceems_emissions_gCo2_kWh{provider="resolved"}', at=at)
    intensity = factor.vector[0].value if factor.vector else 0.0
    return ClusterUtilisation(
        at=at,
        total_power_w=total,
        attributed_power_w=attributed,
        power_by_nodegroup=by_group,
        nodes_total=len(node_power.vector),
        nodes_idle=idle_nodes,
        idle_power_w=idle_power,
        carbon_intensity_g_per_kwh=intensity,
    )
