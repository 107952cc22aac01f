"""Energy → CO2e conversion and the emissions metric collector.

Two consumers need emission factors:

* **recording rules** multiply live per-job power by the current
  factor, so the factor must exist *as a series in the TSDB* — that is
  :class:`EmissionsCollector`, a CEEMS-exporter collector publishing
  ``ceems_emissions_gCo2_kWh{country,provider}``;
* **the API server** converts each unit's aggregate energy into
  emissions at rollup time — :class:`EmissionsCalculator`, which also
  supports integrating a time-varying factor over an energy series
  (the honest way to account a job that ran across a factor swing).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.common.httpx import App, Request, Response
from repro.common.units import JOULES_PER_KWH
from repro.emissions.provider import ProviderRegistry
from repro.exporter.collector import Collector
from repro.tsdb import exposition
from repro.tsdb.exposition import KeptFamilies, MetricFamily


class EmissionsCollector(Collector):
    """Exports emission factors as a metric family.

    One sample per (zone, provider) pair that can currently answer,
    plus the resolved fallback-chain answer labelled
    ``provider="resolved"`` — what the recording rules consume.
    """

    name = "emissions"

    def __init__(self, registry: ProviderRegistry, zone: str) -> None:
        self.registry = registry
        self.zone = zone
        self._families = KeptFamilies(
            ("ceems_emissions_gCo2_kWh", "Grid emission factor in gCO2e per kWh.", "gauge")
        )
        #: (zone, provider) -> its kept label dict
        self._labels: dict[tuple[str, str], dict[str, str]] = {}

    def collect(self, now: float) -> list[MetricFamily]:
        factors = self.registry.all_factors(self.zone, now)
        resolved = self.registry.factor(self.zone, now)
        rows = [(self._series(f.zone, f.provider), (f.value,)) for f in factors]
        rows.append((self._series(resolved.zone, "resolved"), (resolved.value,)))
        return self._families.fill(rows)

    def _series(self, zone: str, provider: str) -> dict[str, str]:
        labels = self._labels.get((zone, provider))
        if labels is None:
            labels = self._labels[(zone, provider)] = {"country": zone, "provider": provider}
        return labels


class EmissionsExporter:
    """A standalone scrape target exposing the emissions collector.

    CEEMS runs one emissions collector per deployment (grid factors
    are site-wide, not per-node); this app is its scrape endpoint.
    """

    def __init__(self, registry: ProviderRegistry, zone: str, clock) -> None:
        self.collector = EmissionsCollector(registry, zone)
        self.clock = clock
        self.body = exposition.Body()
        #: Held across collect and render: the collector's families
        #: are live (see ``KeptFamilies``).
        self._lock = threading.Lock()
        self.app = App(name="ceems-emissions")
        self.app.router.get("/metrics", self._metrics)

    def _metrics(self, request: Request) -> Response:
        with self._lock:
            text = self.body.render(self.collector.collect(self.clock.now()))
        return Response.text(text, content_type="text/plain; version=0.0.4")


class EmissionsCalculator:
    """Converts energy to equivalent emissions."""

    def __init__(self, registry: ProviderRegistry, zone: str) -> None:
        self.registry = registry
        self.zone = zone

    def emissions_g(self, energy_joules: float, at: float) -> float:
        """Point conversion with the factor valid at ``at``."""
        factor = self.registry.factor(self.zone, at)
        return energy_joules / JOULES_PER_KWH * factor.value

    def integrate(self, timestamps: np.ndarray, power_watts: np.ndarray) -> float:
        """Integrate a power series against the time-varying factor.

        Trapezoidal integration of ``power × factor`` over the series;
        returns grams of CO2e.  Used for long-running units that span
        factor changes (a job running through the evening gas peak
        emits more per joule than one at solar noon).
        """
        if len(timestamps) != len(power_watts):
            raise ValueError("timestamps and power arrays must align")
        if len(timestamps) < 2:
            return 0.0
        factors = np.array(
            [self.registry.factor(self.zone, float(t)).value for t in timestamps]
        )
        rate_g_per_s = power_watts * factors / JOULES_PER_KWH  # W * g/kWh / (J/kWh) = g/s
        return float(np.trapezoid(rate_g_per_s, timestamps))
