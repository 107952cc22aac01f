"""RTE éco2mix real-time emission factor for France.

RTE publishes France's CO2 intensity at 15-minute resolution.  This
provider reproduces the *shape* of that signal with a deterministic
physical mix model:

* a nuclear-dominated baseload keeps the factor low (~40–80 g/kWh);
* solar output depresses the factor around midday (more in summer);
* demand peaks (morning, evening, colder months) are served by gas
  peakers, raising the factor;
* wind output varies slowly and pseudo-randomly (hash-seeded per
  6-hour block, so the series is reproducible yet irregular).

The factor is quantised to RTE's 15-minute publication grid: two
queries inside the same window return the identical value, as against
the real API.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ProviderError
from repro.emissions.provider import EmissionFactor, EmissionFactorProvider

_WINDOW = 900.0  # 15 minutes


class RTEProvider(EmissionFactorProvider):
    """France-only real-time factors, éco2mix style."""

    name = "rte"
    realtime = True

    #: Mix-model parameters (gCO2e/kWh contributions).
    BASE = 45.0
    DEMAND_PEAK = 38.0
    SOLAR_DIP = 22.0
    WIND_SWING = 18.0
    SEASON_SWING = 20.0

    def __init__(self, seed: int = 0, *, available: bool = True) -> None:
        self.seed = seed
        #: Simulates API outage for fallback-chain tests.
        self.available = available
        #: ``(window_start, seed, value)`` of the last window asked for:
        #: every scrape inside one window reads the same published value.
        self._published: tuple[float, int, float] | None = None

    def factor(self, zone: str, now: float) -> EmissionFactor:
        if zone.upper() != "FR":
            raise ProviderError(f"RTE only covers FR, not {zone!r}")
        if not self.available:
            raise ProviderError("éco2mix API unavailable")
        window_start = math.floor(now / _WINDOW) * _WINDOW
        published = self._published
        if published is None or published[:2] != (window_start, self.seed):
            published = self._published = (window_start, self.seed, self._mix_model(window_start))
        return EmissionFactor(
            zone="FR",
            value=published[2],
            provider=self.name,
            timestamp=window_start,
        )

    def zones(self) -> list[str]:
        return ["FR"]

    # -- the mix model -----------------------------------------------------
    def _mix_model(self, t: float) -> float:
        day_seconds = t % 86400.0
        hour = day_seconds / 3600.0
        day_of_year = (t / 86400.0) % 365.25

        # Seasonal demand: peaks mid-winter (electric heating).
        season = math.cos(2 * math.pi * (day_of_year - 15.0) / 365.25)
        seasonal = self.SEASON_SWING * max(season, 0.0)

        # Daily demand: morning (8h) and evening (19h) peaks.
        morning = math.exp(-((hour - 8.0) ** 2) / 4.0)
        evening = math.exp(-((hour - 19.0) ** 2) / 3.0)
        demand = self.DEMAND_PEAK * (0.6 * morning + evening) / 1.6

        # Solar: midday production lowers the factor, stronger in summer.
        solar_strength = 0.5 + 0.5 * max(-season, 0.0)
        solar = -self.SOLAR_DIP * solar_strength * max(math.cos((hour - 13.0) / 5.5), 0.0) ** 2

        # Wind: slowly varying, reproducible via a per-block generator.
        block = int(t // (6 * 3600.0))
        rng = np.random.default_rng(self.seed * 1_000_003 + block)
        wind = self.WIND_SWING * (float(rng.uniform()) - 0.5)

        return max(self.BASE + seasonal + demand + solar + wind, 15.0)
