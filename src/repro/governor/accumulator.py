"""High-rate RAPL accumulation: wrapped counters → monotonic joules.

A 15 s Prometheus scrape of ``energy_uj`` aliases: with the default
262 kJ package range a ~200 W socket wraps every ~20 minutes, and the
TSDB's counter-reset heuristic (``current < previous`` → treat
``current`` as the delta) silently loses ``max_range - previous``
microjoules at every wrap.  Steinke et al. (PAPERS.md) make the same
point for microgrid control: decisions need telemetry sampled fast
enough that a wrap can never hide inside one interval.

:class:`DomainAccumulator` closes the gap by polling at high rate
(10 Hz on the sim clock) and folding each reading modularly:

    ``delta = (current - previous) mod max_range``

which is *exact* while at most one wrap occurs between polls — at
10 Hz that would require a >2.6 GW package.  Totals telescope, so the
accumulated energy equals the ground-truth counter to within the 1 µJ
quantisation of the last read.

:class:`NodeAccumulator` aggregates a node's domains and attributes
package+DRAM energy to running compute units by **allocation ratio**
(unit's allocated cores / node cores) — the attribution the exporter's
RAPL collector serves per cgroup when a governor is attached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.hwsim.node import SimulatedNode
from repro.hwsim.rapl import RAPLDomain


@dataclass
class DomainAccumulator:
    """Monotonic accumulator over one wrapped RAPL domain counter."""

    domain: str  #: "package" or "dram"
    path: str  #: powercap pseudo-path, e.g. "intel-rapl:0"
    socket: int
    max_range_uj: int
    #: Power-estimate window; must exceed the node physics step (the
    #: counters move stepwise, so shorter windows read 0 W between
    #: steps and a burst at each one).
    window_seconds: float = 60.0
    total_uj: int = 0
    wraps: int = 0
    last_raw_uj: int | None = None
    last_poll_at: float | None = None
    _window: deque = field(default_factory=deque, repr=False)

    def observe(self, now: float, raw_uj: int) -> int:
        """Fold one counter reading; returns the delta in µJ."""
        if self.last_raw_uj is None:
            delta = 0
        else:
            delta = RAPLDomain.counter_delta(self.last_raw_uj, raw_uj, self.max_range_uj)
            if raw_uj < self.last_raw_uj:
                self.wraps += 1
        self.last_raw_uj = raw_uj
        self.last_poll_at = now
        self.total_uj += delta
        self._window.append((now, self.total_uj))
        horizon = now - self.window_seconds
        while len(self._window) > 1 and self._window[0][0] < horizon:
            self._window.popleft()
        return delta

    @property
    def joules(self) -> float:
        return self.total_uj / 1e6

    def power_w(self) -> float:
        """Mean power over the sliding window, watts."""
        if len(self._window) < 2:
            return 0.0
        (t0, e0), (t1, e1) = self._window[0], self._window[-1]
        if t1 <= t0:
            return 0.0
        return (e1 - e0) / 1e6 / (t1 - t0)

    def staleness(self, now: float) -> float:
        """Seconds since the last poll (``inf`` before the first)."""
        if self.last_poll_at is None:
            return float("inf")
        return max(now - self.last_poll_at, 0.0)


class NodeAccumulator:
    """All RAPL domains of one node, plus per-unit attribution.

    Reads the same wrapped integer view of the counters a daemon would
    read from the ``energy_uj`` sysfs files; the exact float
    accumulator inside the simulation is never consulted (it is the
    test oracle, not an input).
    """

    def __init__(self, node: SimulatedNode, *, window_seconds: float = 60.0) -> None:
        self.node = node
        self.domains: list[DomainAccumulator] = []
        for pkg in node.rapl:
            self.domains.append(
                DomainAccumulator(
                    domain="package",
                    path=f"intel-rapl:{pkg.socket}",
                    socket=pkg.socket,
                    max_range_uj=pkg.package.max_energy_range_uj,
                    window_seconds=window_seconds,
                )
            )
            if pkg.dram is not None:
                self.domains.append(
                    DomainAccumulator(
                        domain="dram",
                        path=f"intel-rapl:{pkg.socket}:0",
                        socket=pkg.socket,
                        max_range_uj=pkg.dram.max_energy_range_uj,
                        window_seconds=window_seconds,
                    )
                )
        #: (hardware domain, its accumulator), flattened for the poll
        #: loop — at 10 Hz the iteration itself is on the cost budget.
        self._pairs = []
        it = iter(self.domains)
        for pkg in node.rapl:
            self._pairs.append((pkg.package, next(it)))
            if pkg.dram is not None:
                self._pairs.append((pkg.dram, next(it)))
        #: Change-detection stamps, aligned with ``_pairs``.  The raw
        #: attribute is compared (not its value used): unchanged stamp
        #: ⟺ unchanged ``energy_uj``, and the plain attribute read
        #: keeps the 10 Hz hot path off the wrapped-view arithmetic.
        self._last_stamp = [float("nan")] * len(self._pairs)
        #: :attr:`RAPLDomain.changes` as the last poll found it.
        self._seen_changes = -1
        #: uuid -> attributed µJ (allocation-ratio share of RAPL energy).
        self.unit_uj: dict[str, float] = {}
        self.polls = 0
        #: Time of the last poll, the node's staleness reference (a
        #: domain's own ``last_poll_at`` is its last fold).
        self.last_poll_at: float | None = None

    # -- polling -----------------------------------------------------------
    def poll(self, now: float) -> None:
        """One high-rate pass over every domain counter.

        Most polls land between energy updates: when no RAPL counter
        anywhere moved since the last poll (:attr:`RAPLDomain.changes`
        unchanged) the poll only refreshes the staleness stamp, one
        comparison whatever the node's domain count.  Otherwise each
        unchanged counter is skipped by its own stamp and a changed
        one folded.  This is what keeps a 10 Hz daemon well under the
        data plane's cost.
        """
        self.polls += 1
        self.last_poll_at = now
        changes = RAPLDomain.changes
        if changes == self._seen_changes:
            return
        self._seen_changes = changes
        rapl_delta_uj = 0
        stamps = self._last_stamp
        for i, (domain, acc) in enumerate(self._pairs):
            stamp = domain._energy_uj_exact
            if stamp == stamps[i]:
                continue
            stamps[i] = stamp
            rapl_delta_uj += acc.observe(now, domain.energy_uj)
        if rapl_delta_uj and self.node.tasks:
            ncores = self.node.spec.ncores
            for task in self.node.tasks.values():
                ratio = len(task.cores) / ncores
                self.unit_uj[task.uuid] = (
                    self.unit_uj.get(task.uuid, 0.0) + rapl_delta_uj * ratio
                )

    # -- reads -------------------------------------------------------------
    @property
    def joules(self) -> float:
        """Aliasing-free accumulated RAPL energy, all domains."""
        return sum(acc.joules for acc in self.domains)

    @property
    def wraps(self) -> int:
        return sum(acc.wraps for acc in self.domains)

    def power_w(self) -> float:
        """Windowed RAPL-visible node power, watts."""
        return sum(acc.power_w() for acc in self.domains)

    def domain_joules(self, domain: str, socket: int) -> float:
        for acc in self.domains:
            if acc.domain == domain and acc.socket == socket:
                return acc.joules
        return 0.0

    def unit_joules(self, uuid: str) -> float:
        """Allocation-ratio attributed energy for one compute unit."""
        return self.unit_uj.get(uuid, 0.0) / 1e6

    def staleness(self, now: float) -> float:
        """Seconds since the last poll (``inf`` before the first)."""
        if self.last_poll_at is None:
            return float("inf")
        return max(now - self.last_poll_at, 0.0)

    def allocation_ratio(self, uuid: str) -> float:
        task = self.node.tasks.get(uuid)
        if task is None:
            return 0.0
        return len(task.cores) / self.node.spec.ncores
