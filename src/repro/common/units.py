"""Unit conversions and human-readable formatting.

The stack moves between several unit systems — RAPL counters count
microjoules, IPMI reports watts, dashboards show kWh and grams of CO2e.
Quantities travel as plain floats in SI units (joules, watts, grams,
seconds); this module holds the kWh conversion constant, the Grafana-
style formatters of energy, CO2e and bytes, and Prometheus duration
strings.
"""

from __future__ import annotations

import math

#: Joules in one kilowatt-hour.
JOULES_PER_KWH = 3.6e6


def format_energy(joules: float) -> str:
    """Human-readable energy string, matching Grafana's unit scaling.

    >>> format_energy(1500.0)
    '1.50 kJ'
    >>> format_energy(7.2e6)
    '2.00 kWh'
    """
    if not math.isfinite(joules):
        return str(joules)
    absval = abs(joules)
    if absval >= JOULES_PER_KWH:
        return f"{joules / JOULES_PER_KWH:.2f} kWh"
    if absval >= 1e6:
        return f"{joules / 1e6:.2f} MJ"
    if absval >= 1e3:
        return f"{joules / 1e3:.2f} kJ"
    return f"{joules:.2f} J"


def format_co2(grams: float) -> str:
    """Human-readable CO2e mass string.

    >>> format_co2(2500.0)
    '2.50 kgCO2e'
    """
    if not math.isfinite(grams):
        return str(grams)
    absval = abs(grams)
    if absval >= 1e6:
        return f"{grams / 1e6:.2f} tCO2e"
    if absval >= 1e3:
        return f"{grams / 1e3:.2f} kgCO2e"
    return f"{grams:.2f} gCO2e"


def format_bytes(n: float) -> str:
    """IEC byte formatting used by the memory panels.

    >>> format_bytes(2 * 1024 * 1024)
    '2.00 MiB'
    """
    absval = abs(n)
    for unit, threshold in (
        ("TiB", 1024**4),
        ("GiB", 1024**3),
        ("MiB", 1024**2),
        ("KiB", 1024),
    ):
        if absval >= threshold:
            return f"{n / threshold:.2f} {unit}"
    return f"{n:.0f} B"


def format_duration(seconds: float) -> str:
    """Compact duration string (``1d2h3m4s`` style, like Prometheus).

    >>> format_duration(93784)
    '1d2h3m4s'
    >>> format_duration(45.0)
    '45s'
    """
    seconds = int(round(seconds))
    if seconds == 0:
        return "0s"
    sign = "-" if seconds < 0 else ""
    seconds = abs(seconds)
    parts = []
    for label, size in (("d", 86400), ("h", 3600), ("m", 60), ("s", 1)):
        qty, seconds = divmod(seconds, size)
        if qty:
            parts.append(f"{qty}{label}")
    return sign + "".join(parts)


def parse_duration(text: str) -> float:
    """Parse a Prometheus-style duration (``5m``, ``1h30m``, ``90s``…).

    Returns seconds.  Raises ``ValueError`` on malformed input.

    >>> parse_duration("1h30m")
    5400.0
    """
    units = {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0, "y": 31536000.0}
    text = text.strip()
    if not text:
        raise ValueError("empty duration")
    total = 0.0
    i = 0
    matched = False
    while i < len(text):
        j = i
        while j < len(text) and (text[j].isdigit() or text[j] == "."):
            j += 1
        if j == i:
            raise ValueError(f"bad duration {text!r}")
        value = float(text[i:j])
        # Longest-match the unit suffix ("ms" before "m").
        for unit in ("ms", "w", "d", "h", "m", "s", "y"):
            if text.startswith(unit, j):
                total += value * units[unit]
                i = j + len(unit)
                matched = True
                break
        else:
            raise ValueError(f"bad duration unit in {text!r}")
    if not matched:
        raise ValueError(f"bad duration {text!r}")
    return total
