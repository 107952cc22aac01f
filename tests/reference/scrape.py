"""The parse-everything scrape lane, kept as a differential-test oracle.

Every cycle re-parses the whole exposition body with
:func:`repro.tsdb.exposition.parse`, rebuilds and re-validates every
``Labels`` and appends sample by sample through :meth:`TSDB.append` —
no scrape cache, no series refs, no fetch/apply split.  The production
:class:`~repro.tsdb.scrape.ScrapeManager` must leave a TSDB with
bit-identical contents.  Import-only: nothing in ``src/`` can select it.
"""

from __future__ import annotations

import time

from repro.common.auth import make_basic_auth_header
from repro.common.errors import ScrapeError
from repro.common.httpx import Request
from repro.tsdb import exposition
from repro.tsdb.model import Labels
from repro.tsdb.scrape import ScrapeManager, ScrapeTarget

_STALE = float("nan")


class ReferenceScrapeManager(ScrapeManager):
    """Same targets, config and counters; the obvious ingest path."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (job, instance) -> series of its last successful scrape
        self._previous: dict[tuple[str, str], set[Labels]] = {}

    def scrape_target(self, target: ScrapeTarget, now: float) -> int:
        storage = self.storage
        target.scrapes_total += 1
        started = time.perf_counter()
        batch: list[tuple[Labels, float]] = []
        exemplars = []
        try:
            headers = {}
            if target.username:
                headers["authorization"] = make_basic_auth_header(target.username, target.password)
            response = target.app.handle(Request.from_url("GET", target.metrics_path, headers=headers))
            if response.status != 200:
                raise ScrapeError(f"scrape returned HTTP {response.status}")
            identity = target.identity_labels()
            for family in exposition.parse(response.body.decode()):
                for point in family.points:
                    labels = exposition.to_labels(family.name, point, identity)
                    batch.append((labels, point.value))
                    if point.exemplar is not None:
                        exemplars.append((labels, point.exemplar))
            ok = True
        except Exception:  # noqa: BLE001 — any bad payload is a failed scrape
            ok = False
            batch, exemplars = [], []
        seen: set[Labels] = set()
        for labels, value in batch:
            storage.append(labels, now, value)
            seen.add(labels)
        for labels, exemplar in exemplars:
            storage.append_exemplar(labels, exemplar, now)
        # Series exposed last time but not now — all of them, when the
        # scrape failed — get a staleness marker.
        key = (target.job, target.instance)
        for labels in self._previous.get(key, set()) - seen:
            storage.append(labels, now, _STALE)
        self._previous[key] = seen
        target.last_scrape_ok = ok
        target.scrape_failures_total += not ok
        target.last_scrape_duration = time.perf_counter() - started
        target.last_scrape_samples = len(batch)
        storage.append(target.up_labels(), now, 1.0 if ok else 0.0)
        return len(batch)

    def scrape_all(self, now: float) -> int:
        total = sum(self.scrape_target(target, now) for target in self.targets)
        self.cycles_total += 1
        self.samples_appended_total += total
        every = self.config.retention_every
        if every and self.cycles_total % every == 0:
            self.storage.apply_retention(now)
        return total


#: ``use_cache`` → manager class, for differentials parametrised on the
#: lane: the production manager, or the parse-everything oracle.
MANAGERS = {True: ScrapeManager, False: ReferenceScrapeManager}
