"""TSDB cardinality cleanup.

Paper Fig. 1 discussion: *"It is possible to configure the CEEMS API
server to clean up TSDB by removing metrics of workloads that did not
last more than the configured cutoff time.  This helps in reducing
the cardinality of metrics."*

Every ``uuid``-labelled series of a finished unit shorter than the
cutoff is deleted from the hot TSDB (and optionally the long-term
store).  The unit's *accounting record stays in SQLite* — only its
time series vanish, which is the design's entire point: short jobs
dominate series counts but carry negligible dashboard value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apiserver.db import Database
from repro.tsdb.model import Matcher
from repro.tsdb.storage import TSDB


@dataclass
class CleanupStats:
    runs: int = 0
    units_cleaned: int = 0
    series_deleted: int = 0
    cleaned_uuids: set[str] = field(default_factory=set)


class CardinalityCleaner:
    """Deletes TSDB series of short-lived finished units."""

    def __init__(
        self,
        db: Database,
        tsdbs: list[TSDB],
        cutoff: float,
    ) -> None:
        self.db = db
        self.tsdbs = tsdbs
        self.cutoff = cutoff
        self.stats = CleanupStats()

    def run(self, now: float) -> CleanupStats:
        if self.cutoff <= 0:
            return self.stats
        self.stats.runs += 1
        for row in self.db.short_lived_finished_units(self.cutoff):
            uuid = row["uuid"]
            if uuid in self.stats.cleaned_uuids:
                continue
            deleted = 0
            for tsdb in self.tsdbs:
                deleted += tsdb.delete_series([Matcher.eq("uuid", uuid)])
            self.stats.cleaned_uuids.add(uuid)
            if deleted:
                self.stats.units_cleaned += 1
                self.stats.series_deleted += deleted
        return self.stats
