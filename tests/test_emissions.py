"""Tests for emission-factor providers and the emissions pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProviderError
from repro.common.clock import SimClock
from repro.emissions import (
    ElectricityMapsProvider,
    EmissionsCalculator,
    EmissionsCollector,
    OWIDProvider,
    ProviderRegistry,
    RTEProvider,
)
from repro.emissions.owid_data import OWID_FACTORS, WORLD_AVERAGE
from repro.emissions.pipeline import EmissionsExporter
from repro.tsdb import exposition


class TestOWID:
    def test_known_zone(self):
        factor = OWIDProvider().factor("FR", now=0.0)
        assert factor.value == OWID_FACTORS["FR"]
        assert factor.provider == "owid"

    def test_case_insensitive(self):
        assert OWIDProvider().factor("fr", now=0.0).zone == "FR"

    def test_unknown_zone_rejected_by_default(self):
        with pytest.raises(ProviderError):
            OWIDProvider().factor("XX", now=0.0)

    def test_world_fallback(self):
        factor = OWIDProvider(world_fallback=True).factor("XX", now=0.0)
        assert factor.value == WORLD_AVERAGE

    def test_zone_list(self):
        zones = OWIDProvider().zones()
        assert "FR" in zones and "US" in zones and len(zones) >= 25

    def test_nuclear_and_coal_grids_ordered(self):
        """Sanity of the embedded data: FR << DE << PL."""
        assert OWID_FACTORS["FR"] < OWID_FACTORS["DE"] < OWID_FACTORS["PL"]


class TestRTE:
    def test_france_only(self):
        with pytest.raises(ProviderError, match="only covers FR"):
            RTEProvider().factor("DE", now=0.0)

    def test_quantised_to_15_minutes(self):
        provider = RTEProvider(seed=1)
        a = provider.factor("FR", now=1000.0)
        b = provider.factor("FR", now=1400.0)  # same 15-min window
        assert a.value == b.value
        c = provider.factor("FR", now=2000.0)  # next window
        assert c.timestamp != a.timestamp

    def test_deterministic(self):
        assert RTEProvider(seed=2).factor("FR", 5e5).value == RTEProvider(seed=2).factor("FR", 5e5).value

    def test_plausible_range(self):
        provider = RTEProvider(seed=3)
        values = [provider.factor("FR", t * 900.0).value for t in range(400)]
        assert all(15.0 <= v <= 160.0 for v in values)

    def test_evening_peak_above_night(self):
        """Average factor at 19h exceeds the 3h one (gas peakers)."""
        provider = RTEProvider(seed=4)
        nights, evenings = [], []
        for day in range(30):
            base = day * 86400.0
            nights.append(provider.factor("FR", base + 3 * 3600.0).value)
            evenings.append(provider.factor("FR", base + 19 * 3600.0).value)
        assert np.mean(evenings) > np.mean(nights)

    def test_outage_mode(self):
        provider = RTEProvider(available=False)
        with pytest.raises(ProviderError, match="unavailable"):
            provider.factor("FR", now=0.0)


#: Probe times around window edges: inside, on and either side of a
#: boundary, going back to an earlier window and forward past several.
_EDGE_TIMES = st.lists(
    st.tuples(st.integers(1, 200), st.sampled_from([-1e-6, 0.0, 1e-6, 1.0, 449.5, 899.999, 1799.0, 3599.0])),
    min_size=1,
    max_size=40,
)


class TestRememberedWindows:
    """A provider answers from the value it published for the current
    window; that value must be what computing it afresh gives, at every
    call, across window boundaries and back."""

    @settings(max_examples=100, deadline=None)
    @given(times=_EDGE_TIMES, seed=st.integers(0, 3))
    def test_rte_equals_a_fresh_computation(self, times, seed):
        provider = RTEProvider(seed=seed)
        for window, offset in times:
            now = window * 900.0 + offset
            got = provider.factor("FR", now)
            fresh = RTEProvider(seed=seed)
            assert got.value == fresh._mix_model(got.timestamp) == fresh.factor("FR", now).value
            assert got.timestamp == fresh.factor("FR", now).timestamp

    @settings(max_examples=100, deadline=None)
    @given(times=_EDGE_TIMES, zones=st.lists(st.sampled_from(["FR", "DE", "PL", "NO"]), min_size=1, max_size=40))
    def test_electricity_maps_equals_a_fresh_computation_per_zone(self, times, zones):
        provider = ElectricityMapsProvider(seed=5)
        for (window, offset), zone in zip(times, zones * len(times)):
            now = window * 3600.0 + offset
            got = provider.factor(zone, now)
            fresh = ElectricityMapsProvider(seed=5)
            assert got.value == fresh._zone_model(zone, OWID_FACTORS[zone], got.timestamp)
            assert (got.value, got.timestamp) == (fresh.factor(zone, now).value, fresh.factor(zone, now).timestamp)

    @pytest.mark.parametrize("make", [RTEProvider, ElectricityMapsProvider])
    def test_a_changed_seed_is_not_served_the_old_value(self, make):
        provider = make(seed=1)
        before = provider.factor("FR", 1000.0).value
        provider.seed = 2
        assert provider.factor("FR", 1000.0).value == make(seed=2).factor("FR", 1000.0).value != before


class TestElectricityMaps:
    def test_many_zones(self):
        provider = ElectricityMapsProvider(seed=1)
        for zone in ("FR", "DE", "US", "NO"):
            assert provider.factor(zone, now=0.0).value > 0

    def test_unknown_zone(self):
        with pytest.raises(ProviderError):
            ElectricityMapsProvider().factor("ZZ", now=0.0)

    def test_token_required(self):
        with pytest.raises(ProviderError):
            ElectricityMapsProvider(token="")

    def test_hourly_quantisation(self):
        provider = ElectricityMapsProvider(seed=1)
        a = provider.factor("DE", now=100.0)
        b = provider.factor("DE", now=3500.0)
        assert a.value == b.value

    def test_values_orbit_owid_average(self):
        provider = ElectricityMapsProvider(seed=2)
        values = [provider.factor("DE", t * 3600.0).value for t in range(24 * 14)]
        assert np.mean(values) == pytest.approx(OWID_FACTORS["DE"], rel=0.25)

    def test_fossil_grids_swing_more(self):
        provider = ElectricityMapsProvider(seed=3)
        def relative_swing(zone):
            values = np.array([provider.factor(zone, t * 3600.0).value for t in range(24 * 7)])
            return values.std() / values.mean()
        assert relative_swing("PL") > relative_swing("NO")

    def test_rate_limit(self):
        provider = ElectricityMapsProvider(seed=1, rate_limit_per_hour=3)
        for _ in range(3):
            provider.factor("FR", now=100.0)
        with pytest.raises(ProviderError, match="rate limit"):
            provider.factor("FR", now=200.0)
        # next hour window resets the budget
        assert provider.factor("FR", now=3700.0).value > 0


class TestRegistry:
    def test_fallback_chain(self):
        registry = ProviderRegistry()
        registry.register(RTEProvider(available=False))
        registry.register(OWIDProvider())
        factor = registry.factor("FR", now=0.0)
        assert factor.provider == "owid"

    def test_first_provider_wins_when_available(self):
        registry = ProviderRegistry()
        registry.register(RTEProvider(seed=1))
        registry.register(OWIDProvider())
        assert registry.factor("FR", now=0.0).provider == "rte"

    def test_no_provider_raises_with_details(self):
        registry = ProviderRegistry()
        registry.register(RTEProvider())
        with pytest.raises(ProviderError, match="rte"):
            registry.factor("DE", now=0.0)

    def test_duplicate_provider_rejected(self):
        registry = ProviderRegistry()
        registry.register(OWIDProvider())
        with pytest.raises(ProviderError):
            registry.register(OWIDProvider())

    def test_all_factors_for_comparison(self):
        registry = ProviderRegistry()
        registry.register(RTEProvider(seed=1))
        registry.register(ElectricityMapsProvider(seed=1))
        registry.register(OWIDProvider())
        factors = registry.all_factors("FR", now=0.0)
        assert {f.provider for f in factors} == {"rte", "electricity_maps", "owid"}


class TestCalculator:
    def make_registry(self):
        registry = ProviderRegistry()
        registry.register(OWIDProvider())
        return registry

    def test_point_conversion(self):
        calc = EmissionsCalculator(self.make_registry(), "FR")
        grams = calc.emissions_g(3.6e6, at=0.0)  # 1 kWh
        assert grams == pytest.approx(OWID_FACTORS["FR"])

    def test_integration_constant_power(self):
        calc = EmissionsCalculator(self.make_registry(), "FR")
        ts = np.arange(0, 3601.0, 60.0)
        pw = np.full_like(ts, 1000.0)  # 1 kW for 1 h = 1 kWh
        assert calc.integrate(ts, pw) == pytest.approx(OWID_FACTORS["FR"], rel=1e-6)

    def test_integration_respects_time_varying_factor(self):
        registry = ProviderRegistry()
        registry.register(RTEProvider(seed=1))
        calc = EmissionsCalculator(registry, "FR")
        ts = np.arange(0, 86400.0, 900.0)
        pw = np.full_like(ts, 1000.0)
        static = EmissionsCalculator(self.make_registry(), "FR").integrate(ts, pw)
        dynamic = calc.integrate(ts, pw)
        assert dynamic != pytest.approx(static, rel=0.01)

    def test_mismatched_arrays_rejected(self):
        calc = EmissionsCalculator(self.make_registry(), "FR")
        with pytest.raises(ValueError):
            calc.integrate(np.arange(3.0), np.arange(4.0))

    def test_short_series_is_zero(self):
        calc = EmissionsCalculator(self.make_registry(), "FR")
        assert calc.integrate(np.array([0.0]), np.array([100.0])) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0, max_value=1e6))
    def test_emissions_proportional_to_energy_property(self, joules):
        calc = EmissionsCalculator(self.make_registry(), "DE")
        assert calc.emissions_g(joules, 0.0) == pytest.approx(
            joules / 3.6e6 * OWID_FACTORS["DE"], rel=1e-9, abs=1e-12
        )


class TestCollectorAndExporter:
    def make_registry(self):
        registry = ProviderRegistry()
        registry.register(RTEProvider(seed=1))
        registry.register(OWIDProvider())
        return registry

    def test_collector_exports_all_and_resolved(self):
        collector = EmissionsCollector(self.make_registry(), "FR")
        families = collector.collect(now=0.0)
        points = families[0].points
        providers = {p.labels["provider"] for p in points}
        assert providers == {"rte", "owid", "resolved"}
        resolved = [p for p in points if p.labels["provider"] == "resolved"][0]
        rte = [p for p in points if p.labels["provider"] == "rte"][0]
        assert resolved.value == rte.value  # RTE preferred for FR

    def test_exporter_scrapeable(self):
        exporter = EmissionsExporter(self.make_registry(), "FR", SimClock(start=0.0))
        response = exporter.app.get("/metrics")
        families = exposition.parse(response.body.decode())
        assert families[0].name == "ceems_emissions_gCo2_kWh"
        assert len(families[0].points) == 3
