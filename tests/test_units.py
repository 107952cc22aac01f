"""Unit tests for repro.common.units."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.units import (
    JOULES_PER_KWH,
    format_bytes,
    format_co2,
    format_duration,
    format_energy,
    parse_duration,
)


class TestFormatting:
    @pytest.mark.parametrize(
        "joules,expected",
        [
            (0.5, "0.50 J"),
            (1500.0, "1.50 kJ"),
            (2.5e6, "2.50 MJ"),
            (7.2e6, "2.00 kWh"),
            (JOULES_PER_KWH, "1.00 kWh"),
        ],
    )
    def test_format_energy(self, joules, expected):
        assert format_energy(joules) == expected

    @pytest.mark.parametrize(
        "grams,expected",
        [(10.0, "10.00 gCO2e"), (2500.0, "2.50 kgCO2e"), (3.2e6, "3.20 tCO2e")],
    )
    def test_format_co2(self, grams, expected):
        assert format_co2(grams) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(512, "512 B"), (2048, "2.00 KiB"), (3 * 1024**2, "3.00 MiB"), (5 * 1024**3, "5.00 GiB")],
    )
    def test_format_bytes(self, n, expected):
        assert format_bytes(n) == expected


class TestDurations:
    @pytest.mark.parametrize(
        "text,seconds",
        [
            ("15s", 15.0),
            ("5m", 300.0),
            ("1h30m", 5400.0),
            ("2d", 172800.0),
            ("1w", 604800.0),
            ("500ms", 0.5),
            ("1y", 31536000.0),
            ("1h30m15s", 5415.0),
        ],
    )
    def test_parse(self, text, seconds):
        assert parse_duration(text) == pytest.approx(seconds)

    @pytest.mark.parametrize("bad", ["", "5", "m5", "5x", "5m3", "abc"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_duration(bad)

    @pytest.mark.parametrize(
        "seconds,expected",
        [(0, "0s"), (45, "45s"), (3600, "1h"), (93784, "1d2h3m4s"), (-60, "-1m")],
    )
    def test_format(self, seconds, expected):
        assert format_duration(seconds) == expected

    @given(st.integers(min_value=1, max_value=10**7))
    def test_format_parse_roundtrip_property(self, seconds):
        assert parse_duration(format_duration(seconds)) == pytest.approx(seconds)
