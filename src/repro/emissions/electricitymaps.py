"""Electricity Maps provider: multi-zone real-time factors.

Reproduces the behavioural contract of the Electricity Maps API that
CEEMS integrates (paper §II.A.c): many zones, hourly resolution,
token authentication, and a free-tier rate limit for non-commercial
use.  Each zone's signal is a parametric perturbation around its OWID
annual average — fossil-heavy grids swing hard with daily demand,
hydro/nuclear grids barely move — so cross-provider comparisons (bench
E12) show realistic divergences.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ProviderError
from repro.emissions.owid_data import OWID_FACTORS
from repro.emissions.provider import EmissionFactor, EmissionFactorProvider

_WINDOW = 3600.0  # hourly publication grid

#: Relative diurnal swing per zone class: how much the factor moves
#: with demand.  Fossil-marginal grids swing the most.
_SWING_BY_LEVEL = ((100.0, 0.10), (250.0, 0.22), (450.0, 0.30), (float("inf"), 0.18))


class ElectricityMapsProvider(EmissionFactorProvider):
    """The Electricity Maps API facade."""

    name = "electricity_maps"
    realtime = True

    def __init__(
        self,
        token: str = "free-tier",
        seed: int = 0,
        *,
        rate_limit_per_hour: int = 0,
    ) -> None:
        if not token:
            raise ProviderError("Electricity Maps requires an API token")
        self.token = token
        self.seed = seed
        self.rate_limit_per_hour = rate_limit_per_hour
        self._calls_in_window: dict[int, int] = {}
        #: zone -> ``(window_start, seed, value)`` of the last window
        #: asked for: every call inside one window reads the same
        #: published value.
        self._published: dict[str, tuple[float, int, float]] = {}

    def factor(self, zone: str, now: float) -> EmissionFactor:
        zone = zone.upper()
        base = OWID_FACTORS.get(zone)
        if base is None:
            raise ProviderError(f"zone {zone!r} not covered by Electricity Maps")
        self._check_rate_limit(now)
        window_start = math.floor(now / _WINDOW) * _WINDOW
        published = self._published.get(zone)
        if published is None or published[:2] != (window_start, self.seed):
            published = self._published[zone] = (window_start, self.seed, self._zone_model(zone, base, window_start))
        return EmissionFactor(
            zone=zone,
            value=published[2],
            provider=self.name,
            timestamp=window_start,
        )

    def zones(self) -> list[str]:
        return sorted(OWID_FACTORS)

    # -- API behaviour ---------------------------------------------------
    def _check_rate_limit(self, now: float) -> None:
        if self.rate_limit_per_hour <= 0:
            return
        window = int(now // 3600)
        self._calls_in_window = {w: c for w, c in self._calls_in_window.items() if w == window}
        count = self._calls_in_window.get(window, 0)
        if count >= self.rate_limit_per_hour:
            raise ProviderError("free-tier rate limit exceeded (HTTP 429)")
        self._calls_in_window[window] = count + 1

    # -- signal model --------------------------------------------------------
    def _zone_model(self, zone: str, base: float, t: float) -> float:
        for level, swing in _SWING_BY_LEVEL:
            if base <= level:
                break
        hour = (t % 86400.0) / 3600.0
        # Demand curve: single broad daytime hump plus evening shoulder.
        demand = 0.6 * math.sin(math.pi * max(hour - 6.0, 0.0) / 17.0) + 0.4 * math.exp(
            -((hour - 19.5) ** 2) / 4.0
        )
        block = int(t // _WINDOW)
        rng = np.random.default_rng((hash(zone) & 0xFFFF) * 2_000_003 + self.seed + block)
        noise = float(rng.normal(0.0, 0.04))
        return max(base * (1.0 + swing * (demand - 0.3) + noise), 5.0)
