"""RAPL (Running Average Power Limit) counter simulation.

Models the Linux *powercap* sysfs interface
(``/sys/class/powercap/intel-rapl:<socket>[:<sub>]/energy_uj``) that
the CEEMS exporter's RAPL collector reads:

* energy is an integer **microjoule** counter,
* each domain wraps at ``max_energy_range_uj`` (a real constraint —
  package counters wrap every few hours under load, and naive
  subtraction goes negative; the exporter must handle this),
* Intel parts expose ``package`` and ``dram`` domains; AMD parts
  expose only ``package`` (paper §III.A: *"on AMD compute nodes, only
  CPU energy counters are reported by RAPL"*),
* counters are available at effectively arbitrary read granularity
  (the paper contrasts this with IPMI's slow sampling).

Energy accumulation is exact: the node simulation integrates the
ground-truth power model into the counters, so the only measurement
artefacts are quantisation to 1 µJ and wraparound.

Each domain also exposes the read-only ``constraint_0_*`` files of
the ``long_term`` RAPL constraint, as real sysfs does; the stack only
ever reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SimulationError

#: Default counter range: the common 32-bit-scaled package window
#: (~262 kJ, wraps in ~20 min at 200 W — deliberately small enough
#: that long simulations exercise wraparound handling).
DEFAULT_MAX_ENERGY_RANGE_UJ = 262_143_328_850


@dataclass
class RAPLDomain:
    """One RAPL power domain (``package``, ``dram``, ``psys``…)."""

    name: str
    max_energy_range_uj: int = DEFAULT_MAX_ENERGY_RANGE_UJ
    #: ``constraint_0_power_limit_uw`` — the ``long_term`` power
    #: limit in microwatts; 0 means unconstrained.
    power_limit_uw: int = 0
    #: ``constraint_0_max_power_uw`` — the largest limit the part
    #: advertises (µW); 0 = unknown.
    max_power_uw: int = 0
    #: Exact accumulated energy in microjoules (never wraps; the
    #: counter view wraps).
    _energy_uj_exact: float = field(default=0.0, repr=False)

    def add_energy(self, joules: float) -> None:
        """Integrate ground-truth energy into the counter."""
        if joules < 0:
            raise SimulationError(f"negative energy into RAPL domain {self.name}")
        self._energy_uj_exact += joules * 1e6

    @property
    def energy_uj(self) -> int:
        """The wrapped microjoule counter, as ``energy_uj`` exposes it."""
        return int(self._energy_uj_exact) % self.max_energy_range_uj

    @property
    def total_energy_joules(self) -> float:
        """Ground-truth (unwrapped) energy — test oracle only."""
        return self._energy_uj_exact * 1e-6

    @staticmethod
    def counter_delta(previous_uj: int, current_uj: int, max_range_uj: int) -> int:
        """Wraparound-correct difference between two counter reads.

        This is the arithmetic the exporter/TSDB ``rate()`` pipeline
        must perform.  Assumes at most one wrap between reads — with
        two or more wraps inside one interval the missing full ranges
        are unrecoverable from the counter alone.  Callers that know
        the elapsed time should use :meth:`counter_delta_checked` to
        detect when that assumption is no longer safe.
        """
        if current_uj >= previous_uj:
            return current_uj - previous_uj
        return current_uj + max_range_uj - previous_uj

    @staticmethod
    def counter_delta_checked(
        previous_uj: int,
        current_uj: int,
        max_range_uj: int,
        elapsed_seconds: float,
        max_plausible_watts: float,
    ) -> tuple[int, bool]:
        """Wrap-correct delta plus a trustworthiness verdict.

        The single-wrap assumption of :meth:`counter_delta` holds only
        while the domain cannot traverse a full counter range between
        reads: ``elapsed * max_plausible_power < max_range``.  Returns
        ``(delta_uj, trustworthy)``; when ``trustworthy`` is False the
        delta may silently be short by one or more full ranges and the
        reader should degrade to an explicit health signal instead of
        publishing a confident number.
        """
        delta = RAPLDomain.counter_delta(previous_uj, current_uj, max_range_uj)
        budget_uj = elapsed_seconds * max_plausible_watts * 1e6
        return delta, budget_uj < max_range_uj


@dataclass
class RAPLPackage:
    """The RAPL domains of one CPU socket.

    ``dram`` is ``None`` on AMD-style parts.
    """

    socket: int
    package: RAPLDomain
    dram: RAPLDomain | None = None

    @classmethod
    def intel(cls, socket: int) -> "RAPLPackage":
        return cls(
            socket=socket,
            package=RAPLDomain(name=f"package-{socket}"),
            dram=RAPLDomain(name=f"dram-{socket}", max_energy_range_uj=65_712_999_613),
        )

    @classmethod
    def amd(cls, socket: int) -> "RAPLPackage":
        return cls(socket=socket, package=RAPLDomain(name=f"package-{socket}"), dram=None)

    @property
    def has_dram(self) -> bool:
        return self.dram is not None

    def domains(self) -> list[RAPLDomain]:
        out = [self.package]
        if self.dram is not None:
            out.append(self.dram)
        return out

    def read_sysfs(self, path: str) -> int | str:
        """Read one powercap sysfs file, e.g. ``intel-rapl:0/energy_uj``
        (package) or ``intel-rapl:0:0/energy_uj`` (DRAM sub-domain).
        Only the attribute asked for is read."""
        zone, _, attribute = path.partition("/")
        read = _POWERCAP_ATTRIBUTES.get(attribute)
        base = f"intel-rapl:{self.socket}"
        if zone == base:
            domain = self.package
        elif self.dram is not None and zone == f"{base}:0":
            domain = self.dram
        else:
            domain = None
        if read is None or domain is None:
            raise SimulationError(f"no powercap file {path!r}")
        return read(domain)

    def sysfs_entries(self) -> dict[str, int | str]:
        """Render the powercap sysfs view of this package.

        Returns a mapping of pseudo-paths to file values, e.g.::

            intel-rapl:0/energy_uj -> 12345
            intel-rapl:0/max_energy_range_uj -> ...
            intel-rapl:0:0/energy_uj -> ...      (dram sub-domain)
        """
        zones = [f"intel-rapl:{self.socket}"]
        if self.dram is not None:
            zones.append(f"intel-rapl:{self.socket}:0")
        paths = [f"{zone}/{attribute}" for zone in zones for attribute in _POWERCAP_ATTRIBUTES]
        return {path: self.read_sysfs(path) for path in paths}


#: A powercap zone's readable attributes, in ``sysfs_entries`` order:
#: file name -> its one reader.
_POWERCAP_ATTRIBUTES = {
    "name": lambda domain: domain.name,
    "energy_uj": lambda domain: domain.energy_uj,
    "max_energy_range_uj": lambda domain: domain.max_energy_range_uj,
    "constraint_0_name": lambda domain: "long_term",
    "constraint_0_power_limit_uw": lambda domain: domain.power_limit_uw,
    "constraint_0_max_power_uw": lambda domain: domain.max_power_uw,
}
