"""The governor daemon: accumulate, decide, actuate, report.

One daemon serves a whole deployment (mirroring the emissions
exporter: control decisions are site-wide).  Per node it owns a
:class:`~repro.governor.accumulator.NodeAccumulator` polled at high
rate on the sim clock; per policy step it

* evaluates the cap policies and writes per-socket package limits
  through the powercap sysfs write interface
  (``constraint_0_power_limit_uw``) — the same actuation path a
  privileged daemon uses on real hardware;
* classifies the carbon window and, via the SLURM admission hook,
  defers deferrable jobs while intensity is high, releasing them when
  the window clears;
* accounts **avoided emissions**: for every job it deferred, each
  step adds ``ΔE_unit × (I_defer − I_now)`` using its *own*
  allocation-ratio attribution (never the simulation oracle), clamped
  at zero so the counter stays monotonic.

The daemon is scraped like every other component (``job="governor"``):
its ``App`` exposes ``/metrics`` with the ``ceems_governor_*`` family
set, plus ``/-/healthy``.  The Unix-socket line protocol lives in
:meth:`GovernorDaemon.handle_line` (transport in
:mod:`repro.governor.socket`).
"""

from __future__ import annotations

import time

from repro.common.httpx import App, Request, Response
from repro.common.units import JOULES_PER_KWH
from repro.governor.accumulator import NodeAccumulator
from repro.governor.policy import AdmissionDecision, CapPolicy, CarbonPolicy
from repro.hwsim.node import SimulatedNode


class GovernorDaemon:
    """Site-wide energy/carbon governor over simulated nodes."""

    #: Tolerated overshoot before a cap counts as violated (RAPL is a
    #: running average; small excursions are normal).
    CAP_VIOLATION_FACTOR = 1.05

    def __init__(
        self,
        nodes: list[SimulatedNode],
        clock,
        *,
        slurm=None,
        cap_policy: CapPolicy | None = None,
        carbon_policy: CarbonPolicy | None = None,
        poll_interval: float = 0.1,
        policy_interval: float = 60.0,
        accumulator_window: float = 60.0,
        name: str = "ceems-governor",
    ) -> None:
        if poll_interval <= 0 or policy_interval <= 0:
            raise ValueError("governor intervals must be positive")
        self.clock = clock
        self.slurm = slurm
        self.cap_policy = cap_policy
        self.carbon_policy = carbon_policy
        self.poll_interval = poll_interval
        self.policy_interval = policy_interval

        self.accumulators: dict[str, NodeAccumulator] = {}
        for node in nodes:
            acc = NodeAccumulator(node, window_seconds=accumulator_window)
            self.accumulators[node.spec.name] = acc
            # The exporter's RAPL collector switches to aliasing-free
            # accumulator reads once this attribute is set.
            node.governor_accumulator = acc

        # -- control state ------------------------------------------------
        self.polls_total = 0
        self.poll_cpu_seconds = 0.0
        self.cap_writes_total = 0
        self.jobs_deferred_total = 0
        self.jobs_released_total = 0
        self.co2e_avoided_g = 0.0
        self.policy_steps = 0
        #: node name -> per-socket cap currently written (W, 0 = none).
        self._written_w: dict[str, float] = {name: 0.0 for name in self.accumulators}
        #: node name -> policy step index of the last cap change (the
        #: violation check skips one step of settle grace after it).
        self._cap_changed_step: dict[str, int] = {}
        self._violations: dict[str, float] = {}
        #: uuid -> intensity (g/kWh) at first deferral.
        self._defer_intensity: dict[str, float] = {}
        #: uuid -> (I_defer, attributed joules already accounted).
        self._tracked: dict[str, tuple[float, float]] = {}
        self.high_carbon = (
            carbon_policy.is_high(clock.now()) if carbon_policy is not None else False
        )

        if slurm is not None and carbon_policy is not None and carbon_policy.defer:
            slurm.admission_hook = self._admission

        # -- scrape surface -----------------------------------------------
        self.app = App(name)
        self.app.expose_telemetry()
        self._register_metrics(self.app.telemetry.registry)
        self.app.router.get("/-/healthy", lambda req: Response.text("ok"))
        #: socket command -> request count (line-protocol telemetry).
        self._socket_requests = self.app.telemetry.registry.counter(
            "ceems_governor_socket_requests_total",
            help="Line-protocol requests served, by command.",
        )

    # -- timers ------------------------------------------------------------
    def register_timers(self, clock) -> None:
        clock.every(self.poll_interval, self.poll)
        clock.every(self.policy_interval, self.policy_step)

    # -- high-rate accumulation --------------------------------------------
    def poll(self, now: float) -> None:
        started = time.perf_counter()
        for acc in self.accumulators.values():
            acc.poll(now)
        self.polls_total += 1
        self.poll_cpu_seconds += time.perf_counter() - started

    # -- the policy loop ---------------------------------------------------
    def policy_step(self, now: float) -> None:
        self.policy_steps += 1
        was_high = self.high_carbon
        if self.carbon_policy is not None:
            self.high_carbon = self.carbon_policy.is_high(now)
        self._apply_caps(now)
        self._check_violations()
        if was_high and not self.high_carbon:
            self._release(now)
        self._account_avoided(now)

    def _desired_cap_w(self, acc: NodeAccumulator, now: float) -> float:
        """Effective per-socket cap: tightest of the active policies."""
        candidates = []
        if self.cap_policy is not None:
            candidates.append(self.cap_policy.desired_cap_w(acc, now))
        if (
            self.carbon_policy is not None
            and self.high_carbon
            and self.carbon_policy.high_cap_w > 0
        ):
            candidates.append(self.carbon_policy.high_cap_w)
        positive = [c for c in candidates if c > 0]
        return min(positive) if positive else 0.0

    def _apply_caps(self, now: float) -> None:
        for name, acc in self.accumulators.items():
            cap_w = self._desired_cap_w(acc, now)
            if abs(cap_w - self._written_w[name]) < 1e-9:
                continue
            for pkg in acc.node.rapl:
                pkg.write_sysfs(
                    f"intel-rapl:{pkg.socket}/constraint_0_power_limit_uw",
                    int(cap_w * 1e6),
                )
                self.cap_writes_total += 1
            self._written_w[name] = cap_w
            self._cap_changed_step[name] = self.policy_steps

    def _check_violations(self) -> None:
        """Flag nodes whose package power exceeds their settled cap."""
        for name, acc in self.accumulators.items():
            cap_w = self._written_w[name]
            # One full policy interval of settle grace after any change.
            settled = self.policy_steps > self._cap_changed_step.get(name, 0)
            if cap_w <= 0 or not settled:
                self._violations[name] = 0.0
                continue
            package_w = sum(
                d.power_w() for d in acc.domains if d.domain == "package"
            )
            limit_w = cap_w * acc.node.spec.sockets
            self._violations[name] = (
                1.0 if package_w > self.CAP_VIOLATION_FACTOR * limit_w else 0.0
            )

    # -- carbon admission --------------------------------------------------
    def _admission(self, uuid: str, spec, now: float) -> AdmissionDecision:
        """SLURM admission hook: defer deferrable jobs in high windows."""
        if (
            self.high_carbon
            and self.carbon_policy is not None
            and getattr(spec, "deferrable", False)
        ):
            if uuid not in self._defer_intensity:
                self._defer_intensity[uuid] = self.carbon_policy.intensity(now)
                self.jobs_deferred_total += 1
            return AdmissionDecision.DEFER
        return AdmissionDecision.ADMIT

    def _release(self, now: float) -> None:
        if self.slurm is None:
            return
        released = self.slurm.release_deferred(now)
        self.jobs_released_total += len(released)
        for uuid in released:
            i_defer = self._defer_intensity.pop(uuid, None)
            if i_defer is not None:
                self._tracked[uuid] = (i_defer, self._unit_joules(uuid))

    def _unit_joules(self, uuid: str) -> float:
        return sum(acc.unit_joules(uuid) for acc in self.accumulators.values())

    def _account_avoided(self, now: float) -> None:
        """Convert deferred-then-released energy into avoided grams.

        Each released job's energy (the daemon's own allocation-ratio
        attribution) accrues at ``I_defer − I_now`` grams per kWh; the
        clamp keeps the counter monotonic if intensity later rises
        above the deferral level.
        """
        if self.carbon_policy is None or not self._tracked:
            return
        i_now = self.carbon_policy.intensity(now)
        for uuid, (i_defer, seen_j) in list(self._tracked.items()):
            cur_j = self._unit_joules(uuid)
            delta_j = cur_j - seen_j
            if delta_j <= 0:
                continue
            self.co2e_avoided_g += max(delta_j * (i_defer - i_now), 0.0) / JOULES_PER_KWH
            self._tracked[uuid] = (i_defer, cur_j)

    # -- line protocol ------------------------------------------------------
    def handle_line(self, line: str) -> str:
        """One request of the Unix-socket line protocol.

        Commands (whitespace-separated, response ``OK …`` / ``ERR …``):

        ``PING`` · ``NODES`` · ``ENERGY <node>`` · ``POWER <node>`` ·
        ``UNITS <node>`` · ``UNIT <node> <uuid>`` ·
        ``CAP <node> <watts>`` · ``STATS``
        """
        parts = line.strip().split()
        if not parts:
            return "ERR empty request"
        cmd = parts[0].upper()
        self._socket_requests.inc(command=cmd)
        if cmd == "PING":
            return "OK pong"
        if cmd == "NODES":
            return "OK " + " ".join(sorted(self.accumulators))
        if cmd == "STATS":
            return (
                f"OK polls={self.polls_total} wraps={sum(a.wraps for a in self.accumulators.values())} "
                f"cap_writes={self.cap_writes_total} deferred={self.jobs_deferred_total} "
                f"released={self.jobs_released_total} avoided_g={self.co2e_avoided_g:.3f}"
            )
        if cmd in ("ENERGY", "POWER", "UNITS") and len(parts) == 2:
            acc = self.accumulators.get(parts[1])
            if acc is None:
                return f"ERR no node {parts[1]}"
            if cmd == "ENERGY":
                return f"OK {acc.joules:.6f}"
            if cmd == "POWER":
                return f"OK {acc.power_w():.3f}"
            return "OK " + " ".join(sorted(acc.unit_uj))
        if cmd == "UNIT" and len(parts) == 3:
            acc = self.accumulators.get(parts[1])
            if acc is None:
                return f"ERR no node {parts[1]}"
            return f"OK {acc.unit_joules(parts[2]):.6f} {acc.allocation_ratio(parts[2]):.4f}"
        if cmd == "CAP" and len(parts) == 3:
            acc = self.accumulators.get(parts[1])
            if acc is None:
                return f"ERR no node {parts[1]}"
            try:
                cap_w = float(parts[2])
            except ValueError:
                return f"ERR bad watts {parts[2]!r}"
            if cap_w < 0:
                return "ERR cap must be >= 0"
            written = 0
            for pkg in acc.node.rapl:
                written = pkg.write_sysfs(
                    f"intel-rapl:{pkg.socket}/constraint_0_power_limit_uw",
                    int(cap_w * 1e6),
                )
                self.cap_writes_total += 1
            self._written_w[acc.node.spec.name] = written / 1e6
            self._cap_changed_step[acc.node.spec.name] = self.policy_steps
            return f"OK {written / 1e6:.3f}"
        return f"ERR unknown command {line.strip()!r}"

    # -- metrics ------------------------------------------------------------
    def _register_metrics(self, registry) -> None:
        registry.gauge_func(
            "ceems_governor_polls_total",
            lambda: float(self.polls_total),
            help="High-rate accumulator poll passes.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_governor_cap_writes_total",
            lambda: float(self.cap_writes_total),
            help="powercap sysfs limit writes issued.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_governor_jobs_deferred_total",
            lambda: float(self.jobs_deferred_total),
            help="Jobs deferred by the carbon admission policy.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_governor_jobs_released_total",
            lambda: float(self.jobs_released_total),
            help="Deferred jobs released into low-carbon windows.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_governor_co2e_avoided_grams_total",
            lambda: self.co2e_avoided_g,
            help="Estimated emissions avoided by deferral (g CO2e).",
            type="counter",
        )
        registry.gauge_func(
            "ceems_governor_deferred_jobs",
            lambda: float(
                self.slurm.deferred_count if self.slurm is not None else 0
            ),
            help="Jobs currently parked by the admission policy.",
        )
        registry.gauge_func(
            "ceems_governor_high_carbon",
            lambda: 1.0 if self.high_carbon else 0.0,
            help="1 while the current window is classified high-carbon.",
        )
        registry.gauge_func(
            "ceems_governor_intensity_gco2_kwh",
            lambda: (
                self.carbon_policy.intensity(self.clock.now())
                if self.carbon_policy is not None
                else 0.0
            ),
            help="Grid intensity the governor is acting on.",
        )
        registry.gauge_func(
            "ceems_governor_intensity_threshold_gco2_kwh",
            lambda: (
                self.carbon_policy.current_threshold(self.clock.now())
                if self.carbon_policy is not None
                else 0.0
            ),
            help="Intensity above which windows classify high-carbon.",
        )
        #: Per-node families, kept between scrapes (made by the first),
        #: and their label dicts.
        self._node_families = None
        self._node_label_sets: dict[tuple, dict[str, str]] = {}
        registry.collector(self._collect_node_families)

    def _collect_node_families(self):
        kept = self._node_families
        if kept is None:
            from repro.tsdb.exposition import KeptFamilies

            kept = self._node_families = (
                KeptFamilies(
                    ("ceems_governor_accumulated_joules_total", "Aliasing-free accumulated RAPL energy per domain.", "counter")
                ),
                KeptFamilies(
                    ("ceems_governor_wraps_total", "Counter wraps folded by the accumulator.", "counter"),
                    ("ceems_governor_power_watts", "Windowed RAPL-visible node power.", "gauge"),
                    ("ceems_governor_cap_limit_watts", "Per-socket package cap currently written (0 = uncapped).", "gauge"),
                    ("ceems_governor_accumulator_staleness_seconds", "Seconds since the accumulator last polled the node.", "gauge"),
                    ("ceems_governor_cap_violation", "1 while settled package power exceeds the written cap.", "gauge"),
                ),
            )
        energy, nodes = kept
        now = self.clock.now()
        labels = self._node_labels
        energy.fill(
            (labels(name, d.domain, str(d.socket)), (d.joules,))
            for name, acc in self.accumulators.items()
            for d in acc.domains
        )
        nodes.fill(
            (
                labels(name),
                (
                    float(acc.wraps),
                    acc.power_w(),
                    self._written_w[name],
                    _finite_staleness(acc.staleness(now)),
                    self._violations.get(name, 0.0),
                ),
            )
            for name, acc in self.accumulators.items()
        )
        return [*energy.families, *nodes.families]

    def _node_labels(self, hostname: str, domain: str | None = None, socket: str | None = None) -> dict[str, str]:
        """The kept label dict of a node's (or one of its RAPL domains')
        series."""
        key = (hostname, domain, socket)
        labels = self._node_label_sets.get(key)
        if labels is None:
            labels = {"hostname": hostname} if domain is None else {"hostname": hostname, "domain": domain, "socket": socket}
            self._node_label_sets[key] = labels
        return labels


def _finite_staleness(seconds: float) -> float:
    """An accumulator that never polled reads 1e9 s stale, not +Inf."""
    return seconds if seconds != float("inf") else 1e9
