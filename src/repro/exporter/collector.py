"""Collector interface and registry.

A collector turns one hardware/OS data source into metric families.
The registry runs every enabled collector per scrape and adds the
``ceems_exporter_collector_success`` health gauge — a failing
collector reports 0 there instead of failing the whole scrape,
matching the resilience contract of the Go exporter.

Families are kept, not rebuilt: a collector makes its
``MetricFamily`` and ``MetricPoint`` objects (and the label dict under
each series) once and writes every scrape's readings into them
(:class:`~repro.tsdb.exposition.KeptFamilies`), so what ``collect``
returns is the collector's *live* families — valid until its next
``collect``, which writes into the same objects.  An endpoint
therefore holds one lock across collect and render.  Only a change of
the series set (a unit or GPU comes or goes, a reading appears or
vanishes) rebuilds a family's point list.
"""

from __future__ import annotations

import abc

from repro.common.errors import CollectorError
from repro.obs import prof
from repro.tsdb.exposition import KeptFamilies, MetricFamily


class Collector(abc.ABC):
    """One metrics source inside the exporter."""

    #: Collector name used in CLI options and the success gauge.
    name: str = "collector"

    @abc.abstractmethod
    def collect(self, now: float) -> list[MetricFamily]:
        """This collector's metric families at logical time ``now``.

        They may be live: valid until the next ``collect``, which may
        write new readings into the same objects."""

    def describe(self) -> str:
        """One-line description for the exporter's landing page."""
        return self.__class__.__doc__.splitlines()[0] if self.__class__.__doc__ else self.name


class CollectorRegistry:
    """Runs collectors and assembles the full scrape payload."""

    def __init__(self) -> None:
        self._collectors: list[Collector] = []
        #: Cumulative collect() failures per collector name.
        self.errors_total: dict[str, int] = {}
        #: 1.0/0.0 outcome of each collector's most recent run.
        self.last_success: dict[str, float] = {}
        #: ``{"collector": name}`` of every collector ever registered:
        #: one read-only dict under each point that names it (see
        #: ``exposition.Body``).
        self.label_sets: dict[str, dict[str, str]] = {}
        self._success = KeptFamilies(
            (
                "ceems_exporter_collector_success",
                "1 if the collector succeeded on the last scrape.",
                "gauge",
            )
        )

    def register(self, collector: Collector) -> None:
        if any(c.name == collector.name for c in self._collectors):
            raise CollectorError(f"duplicate collector {collector.name!r}")
        collector._prof_phase = f"exporter.collect.{collector.name}"
        self.label_sets[collector.name] = {"collector": collector.name}
        self._collectors.append(collector)

    def unregister(self, name: str) -> None:
        before = len(self._collectors)
        self._collectors = [c for c in self._collectors if c.name != name]
        if len(self._collectors) == before:
            raise CollectorError(f"no collector named {name!r}")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self._collectors]

    def collect(self, now: float) -> list[MetricFamily]:
        """Run every collector; failures degrade to success=0.

        The families in the list are the collectors' live ones (see
        the module docstring); a failed collector's are left out, not
        served half written."""
        families: list[MetricFamily] = []
        last_success = self.last_success
        for collector in self._collectors:
            try:
                with prof.profile(collector._prof_phase):
                    families.extend(collector.collect(now))
                last_success[collector.name] = 1.0
            except Exception:  # noqa: BLE001 - collector isolation is the point
                last_success[collector.name] = 0.0
                self.errors_total[collector.name] = self.errors_total.get(collector.name, 0) + 1
        label_sets = self.label_sets
        families.extend(self._success.fill((label_sets[c.name], (last_success[c.name],)) for c in self._collectors))
        return families
