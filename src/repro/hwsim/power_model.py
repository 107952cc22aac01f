"""Ground-truth node power model.

Converts instantaneous workload activity into per-component power.
This is the *physical reality* of the simulation; RAPL, IPMI and GPU
telemetry all measure (imperfectly) what this model produces, and the
CEEMS estimation rules are evaluated against it.

The model follows the standard affine server power decomposition used
across the DC energy literature (Dayarathna et al., ref. [24] of the
paper):

* CPU package power: ``idle + (max - idle) * util^alpha`` per socket,
  with ``alpha`` slightly below 1 to capture the sub-linear frequency/
  voltage response of real parts.
* DRAM power: ``idle + slope * bandwidth_proxy`` where the proxy is a
  blend of resident-set fraction and CPU activity (memory traffic
  correlates with both footprint and compute intensity).
* GPU power: per-device, delegated to the device model.
* "Other" (VRMs, fans, NIC, board): a constant platform floor plus a
  small activity-dependent term; this is the part RAPL cannot see but
  IPMI can, which is exactly why the paper's Eq. (1) redistributes
  IPMI power using RAPL ratios.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CPUPowerParams:
    """Per-socket CPU power curve parameters (watts)."""

    idle_w: float = 35.0
    max_w: float = 180.0
    alpha: float = 0.85

    def power(self, util: float) -> float:
        """Package power at a given utilisation in [0, 1]."""
        util = min(max(util, 0.0), 1.0)
        return self.idle_w + (self.max_w - self.idle_w) * util**self.alpha


@dataclass(frozen=True)
class DRAMPowerParams:
    """Per-socket DRAM power curve parameters (watts)."""

    idle_w: float = 8.0
    max_w: float = 40.0

    def power(self, activity: float) -> float:
        """DRAM power at a memory-activity level in [0, 1]."""
        activity = min(max(activity, 0.0), 1.0)
        return self.idle_w + (self.max_w - self.idle_w) * activity


@dataclass(frozen=True)
class PlatformPowerParams:
    """Non-RAPL node components: fans, VRM losses, NIC, board."""

    floor_w: float = 60.0
    #: Extra platform power at full node activity (fan speed-up, VRM
    #: losses grow with load).
    activity_w: float = 25.0

    def power(self, activity: float) -> float:
        activity = min(max(activity, 0.0), 1.0)
        return self.floor_w + self.activity_w * activity


@dataclass(frozen=True)
class PowerBreakdown:
    """Instantaneous per-component node power, in watts.

    ``total`` is the wall power an external watt-meter would read;
    IPMI-DCMI reads either ``total`` or ``total - gpu`` depending on
    the server class (both exist on Jean-Zay, paper §III.A).
    """

    cpu_w: float
    dram_w: float
    gpu_w: float
    platform_w: float

    @property
    def total_w(self) -> float:
        return self.cpu_w + self.dram_w + self.gpu_w + self.platform_w

    @property
    def rapl_visible_w(self) -> float:
        """Power visible to RAPL (package + dram domains)."""
        return self.cpu_w + self.dram_w


@dataclass(frozen=True)
class NodePowerModel:
    """Complete ground-truth power model for one node.

    Parameters are per-socket for CPU/DRAM; ``sockets`` scales them.
    GPU power is computed by the caller per device and passed in, so
    the same model serves CPU-only and GPU nodes.
    """

    sockets: int = 2
    cpu: CPUPowerParams = CPUPowerParams()
    dram: DRAMPowerParams = DRAMPowerParams()
    platform: PlatformPowerParams = PlatformPowerParams()

    def evaluate(
        self,
        cpu_util: float,
        mem_activity: float,
        gpu_power_w: float = 0.0,
    ) -> PowerBreakdown:
        """Compute node power at the given activity levels.

        Parameters
        ----------
        cpu_util:
            Node-wide CPU utilisation in [0, 1] (busy cores / cores).
        mem_activity:
            Memory activity proxy in [0, 1].
        gpu_power_w:
            Sum of per-device GPU power, already computed.
        """
        node_activity = min(max(max(cpu_util, 0.6 * (gpu_power_w > 0.0)), 0.0), 1.0)
        return PowerBreakdown(
            cpu_w=self.sockets * self.cpu.power(cpu_util),
            dram_w=self.sockets * self.dram.power(mem_activity),
            gpu_w=gpu_power_w,
            platform_w=self.platform.power(node_activity),
        )


#: Per-socket profiles for the node families used in the Jean-Zay
#: topology.  Values are in the realistic range for the parts named in
#: the paper (Intel Cascade Lake / AMD Milan era, DDR4).
CPU_PROFILES: dict[str, CPUPowerParams] = {
    "intel-cascadelake": CPUPowerParams(idle_w=38.0, max_w=165.0, alpha=0.85),
    "intel-sapphirerapids": CPUPowerParams(idle_w=55.0, max_w=350.0, alpha=0.88),
    "amd-milan": CPUPowerParams(idle_w=45.0, max_w=280.0, alpha=0.82),
    "amd-rome": CPUPowerParams(idle_w=42.0, max_w=225.0, alpha=0.82),
}

DRAM_PROFILES: dict[str, DRAMPowerParams] = {
    "ddr4-192g": DRAMPowerParams(idle_w=9.0, max_w=36.0),
    "ddr4-384g": DRAMPowerParams(idle_w=14.0, max_w=55.0),
    "ddr5-512g": DRAMPowerParams(idle_w=16.0, max_w=60.0),
}
