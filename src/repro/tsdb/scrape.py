"""Scrape manager: pulls exporter metrics into the TSDB.

Models Prometheus's scrape layer (paper Fig. 1: *"A hot TSDB instance
will scrape these compute nodes at a configured interval"*):

* **targets** are HTTP apps (the in-process :class:`~repro.common.
  httpx.App` of an exporter) with attached identity labels
  (``instance``, ``job``) and optional basic-auth credentials;
* **target groups** carry extra labels — this is how Jean-Zay's node
  classes are told apart so that the right Eq. (1) rule variant
  applies (§III.A: *"grouping them in different scrape target groups
  and defining the recording rules accordingly"*);
* each scrape GETs ``/metrics``, parses the exposition text and
  appends every sample at the scrape timestamp;
* scrape health is recorded as the synthetic ``up`` series, exactly
  like Prometheus, and per-scrape duration/sample counts are kept for
  the benchmarks.

Ingest path
-----------
At Jean-Zay scale (~1700 targets) re-parsing every label set and
re-hashing every ``Labels`` key each cycle dominates the duty cycle,
so the manager mirrors Prometheus's ingest optimisations:

* a per-target :class:`ScrapeCache` keyed on each sample line's raw
  ``name{labels}`` text maps straight to an interned ``Labels`` and a
  TSDB series ref — a repeat scrape of unchanged structure skips
  label parsing, validation and sorting entirely (Prometheus
  ``scrapeCache``).  Any text change is a cache miss (per-line
  invalidation); lines that stop appearing are evicted by generation.
* samples are appended by ref through :meth:`TSDB.append_refs`; refs
  that died since the last cycle (retention, ``delete_series``) are
  re-resolved through their labels, exactly like Prometheus re-lodges
  a head ref miss.
* each cycle is split into a **fetch** phase (HTTP + decode + parse +
  cache resolution, safe to run on a worker pool because it never
  touches storage) and an **apply** phase that commits per-target
  batches to the TSDB in registration order — results are identical
  for any worker count, see DESIGN.md.

The parse-everything manager this lane must match bit-for-bit is a
test oracle (``tests/reference/scrape.py``), built on
:func:`exposition.parse` and :meth:`TSDB.append`.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.common.auth import make_basic_auth_header
from repro.common.errors import ScrapeError
from repro.common.httpx import App, Request
from repro.obs import prof
from repro.obs.registry import Histogram
from repro.tsdb import exposition
from repro.tsdb.model import Labels
from repro.tsdb.storage import TSDB

_STALE = float("nan")


@dataclass(slots=True)
class _CacheEntry:
    """Resolved identity of one raw series-text prefix."""

    labels: Labels
    #: TSDB series ref; 0 until the apply phase first resolves it
    #: (workers must not touch storage).
    ref: int
    last_gen: int


class ScrapeCache:
    """Per-target sample-line cache (Prometheus ``scrapeCache``).

    Keys are the raw ``name{labels}`` prefix of each sample line, so
    any byte-level change in how a target renders a series is simply
    a miss that re-parses and re-validates — the cache can serve
    stale *work*, never stale *identity*.  ``gen`` advances once per
    parsed scrape; entries untouched by the latest generation are
    evicted so a disappeared series cannot pin its ``Labels`` forever.
    """

    __slots__ = ("entries", "comments", "gen", "hits", "misses", "evictions")

    #: Cap on memoised comment lines per target; cleared wholesale at
    #: the cap so a pathological target cannot grow it without bound.
    COMMENTS_MAX = 4096

    def __init__(self) -> None:
        self.entries: dict[str, _CacheEntry] = {}
        #: Comment lines that already passed ``comment_parts``
        #: validation — HELP/TYPE headers are byte-identical every
        #: scrape, so re-validating them each cycle is pure waste.
        #: Only *accepted* lines enter the set; a bad TYPE line is
        #: never cached and re-raises on every scrape.
        self.comments: set[str] = set()
        self.gen = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def evict_stale(self) -> int:
        """Drop entries not seen in the current generation."""
        gen = self.gen
        doomed = [key for key, entry in self.entries.items() if entry.last_gen != gen]
        for key in doomed:
            del self.entries[key]
        self.evictions += len(doomed)
        return len(doomed)


@dataclass
class ScrapeTarget:
    """One scrape endpoint plus its identity labels."""

    app: App
    instance: str
    job: str = "ceems"
    group_labels: dict[str, str] = field(default_factory=dict)
    metrics_path: str = "/metrics"
    username: str = ""
    password: str = ""

    #: health bookkeeping
    last_scrape_ok: bool = False
    last_scrape_duration: float = 0.0
    last_scrape_samples: int = 0
    scrapes_total: int = 0
    scrape_failures_total: int = 0
    #: Series seen in the previous successful scrape (``ref ->
    #: Labels``, so the staleness pass stays on refs); series absent
    #: from the next scrape get a staleness marker.
    _previous_refs: dict = field(default_factory=dict, repr=False)
    _cache: ScrapeCache = field(default_factory=ScrapeCache, repr=False)
    _up_labels: Labels | None = field(default=None, repr=False)

    def identity_labels(self) -> dict[str, str]:
        labels = {"instance": self.instance, "job": self.job}
        labels.update(self.group_labels)
        return labels

    def up_labels(self) -> Labels:
        if self._up_labels is None:
            self._up_labels = Labels({"__name__": "up", **self.identity_labels()})
        return self._up_labels


@dataclass
class ScrapeConfig:
    """Scrape loop settings."""

    interval: float = 15.0
    timeout: float = 10.0
    #: Run storage retention every this many scrape cycles.
    retention_every: int = 40
    #: Fetch-phase worker threads; <=1 scrapes serially.  Apply stays
    #: single-threaded and ordered either way.
    workers: int = 0


@dataclass
class _ScrapeResult:
    """Everything a fetch produced; applied to storage later."""

    target: ScrapeTarget
    ok: bool = False
    error: str = ""
    duration: float = 0.0
    #: line-ordered (cache entry, value) pairs
    ref_batch: list | None = None
    #: exemplar-carrying lines, in line order: ``(entry, Exemplar)``.
    #: Kept separate from the sample batch so the sample hot loop
    #: stays two-tuples.
    exemplars: list | None = None
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class ScrapeManager:
    """Scrapes a set of targets into one TSDB."""

    def __init__(self, storage: TSDB, config: ScrapeConfig | None = None, telemetry=None) -> None:
        self.storage = storage
        self.config = config or ScrapeConfig()
        self.targets: list[ScrapeTarget] = []
        # (job, instance) identity index: registering N targets was a
        # quadratic scan (felt at Jean-Zay scale, ~1400 nodes).
        self._target_index: set[tuple[str, str]] = set()
        self._cycles = 0
        #: Optional :class:`repro.obs.telemetry.Telemetry`; when set,
        #: every scrape cycle roots a ``scrape.cycle`` trace.
        self.telemetry = telemetry
        self.samples_appended_total = 0
        self.cycles_total = 0
        self.cache_hits_total = 0
        self.cache_misses_total = 0
        self.cache_evictions_total = 0
        self.cycle_seconds = Histogram(
            "ceems_scrape_cycle_seconds",
            help="Wall seconds per full scrape cycle (fetch + apply).",
        )

    def add_target(self, target: ScrapeTarget) -> None:
        key = (target.job, target.instance)
        if key in self._target_index:
            raise ScrapeError(f"duplicate target {target.job}/{target.instance}")
        self._target_index.add(key)
        self.targets.append(target)

    def add_targets(self, targets: list[ScrapeTarget]) -> None:
        for t in targets:
            self.add_target(t)

    # -- fetch phase (storage-free; may run on worker threads) -----------
    def _parse_cached(
        self, target: ScrapeTarget, text: str
    ) -> tuple[list, list, int, int]:
        """Parse exposition text through the target's scrape cache.

        Returns ``(batch, exemplars, hits, misses)`` with ``batch``
        holding line-ordered ``(entry, value)`` pairs and
        ``exemplars`` line-ordered ``(entry, Exemplar)`` pairs.  Error
        behaviour is bit-identical to :func:`exposition.parse`:
        comment validation, every cache miss and every exemplar suffix
        go through the same shared helpers, and the hit path re-checks
        value/timestamp tokens the same way — a payload is accepted or
        rejected identically on both paths.
        """
        cache = target._cache
        cache.gen += 1
        gen = cache.gen
        entries = cache.entries
        identity = target.identity_labels()
        parse_value = exposition._parse_value
        entries_get = entries.get
        comments = cache.comments
        batch: list = []
        append = batch.append
        exemplars: list = []
        hits = 0
        misses = 0
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                if line not in comments:
                    exposition.comment_parts(line, lineno)
                    if len(comments) >= ScrapeCache.COMMENTS_MAX:
                        comments.clear()
                    comments.add(line)
                continue
            # Carve off an exemplar suffix first (the `'#' in line`
            # guard keeps exemplar-free lines — the vast majority — on
            # the original C-speed path).  This must happen before the
            # rfind below: an exemplar's own label set ends in '}', so
            # on exemplar-carrying lines the *last* '}' is no longer
            # the series' closing brace.
            ex_text = None
            full_line = line
            if "#" in line:
                line, ex_text = exposition.split_exemplar(line)
            # Split the raw `name{labels}` prefix (the cache key) from
            # the value/timestamp tail.  rfind is sound: value and
            # timestamp tokens of any *valid* line cannot contain '}',
            # so the last '}' is the closing brace; lines without one
            # are bare `name value [ts]`; anything structurally odd
            # falls through to the reference parser and fails
            # identically (keys only enter the cache after a full
            # reference parse succeeds).
            end = line.rfind("}")
            if end != -1:
                key = line[: end + 1]
                tail = line[end + 1 :]
            else:
                parts = line.split(None, 1)
                key = parts[0]
                tail = parts[1] if len(parts) > 1 else ""
            entry = entries_get(key)
            if entry is not None:
                tokens = tail.split()
                if tokens:
                    token = tokens[0]
                    try:
                        # float() accepts the full value grammar
                        # (NaN/+Inf/-Inf included); _parse_value only
                        # differs in the error it raises, so fall back
                        # to it on failure for identical rejection.
                        value = float(token)
                    except ValueError:
                        value = parse_value(token, lineno)
                    if len(tokens) > 1:
                        # scrape appends at the cycle timestamp, but a
                        # malformed timestamp must still reject the
                        # payload (parity with parse_sample_line's
                        # int()).
                        int(tokens[1])
                    # Exemplar last, mirroring parse_sample_line's
                    # validation order on doubly-malformed lines.
                    if ex_text is not None:
                        exemplars.append(
                            (entry, exposition.parse_exemplar(ex_text, lineno))
                        )
                    entry.last_gen = gen
                    append((entry, value))
                    hits += 1
                    continue
            # miss (or structurally odd line): reference parse + full
            # Labels validation before anything enters the cache.  The
            # *full* line goes through, so the exemplar suffix is
            # parsed by exactly the reference helper too.
            name, labels, value, _ts, exemplar = exposition.parse_sample_line(
                full_line, lineno
            )
            point = exposition.MetricPoint(labels=labels, value=value)
            full = exposition.to_labels(name, point, identity)
            misses += 1
            entry = _CacheEntry(labels=full, ref=0, last_gen=gen)
            entries[key] = entry
            if exemplar is not None:
                exemplars.append((entry, exemplar))
            append((entry, value))
        cache.hits += hits
        cache.misses += misses
        return batch, exemplars, hits, misses

    def _fetch(self, target: ScrapeTarget, now: float) -> _ScrapeResult:
        """HTTP + decode + parse + cache resolution for one target.

        Touches only the target and its private cache — never the
        TSDB — so any number of fetches may run concurrently while
        the apply phase stays single-threaded and deterministic.
        """
        target.scrapes_total += 1
        started = time.perf_counter()
        result = _ScrapeResult(target=target)
        try:
            headers = {}
            if target.username:
                headers["authorization"] = make_basic_auth_header(target.username, target.password)
            response = target.app.handle(Request.from_url("GET", target.metrics_path, headers=headers))
            if response.status != 200:
                raise ScrapeError(f"scrape returned HTTP {response.status}")
            body = response.body.decode()
            with prof.profile("scrape.parse"):
                result.ref_batch, result.exemplars, result.hits, result.misses = (
                    self._parse_cached(target, body)
                )
                result.evictions = target._cache.evict_stale()
            result.ok = True
        except Exception as exc:  # noqa: BLE001 — one bad node must
            # never stall the cluster scrape: a non-UTF-8 body, a bad
            # Labels name or a collector crash all count as a failed
            # scrape (``up == 0``), like ScrapeError always did.
            result.ok = False
            result.error = repr(exc)
        result.duration = time.perf_counter() - started
        return result

    # -- apply phase (single-threaded, registration order) ---------------
    def _apply(self, result: _ScrapeResult, now: float) -> int:
        """Commit one fetch result: samples, staleness markers, ``up``."""
        target = result.target
        storage = self.storage
        samples = 0
        if result.ok:
            samples = self._apply_refs(target, result.ref_batch, now, result.exemplars)
            target.last_scrape_ok = True
        else:
            target.scrape_failures_total += 1
            target.last_scrape_ok = False
            # Prometheus writes staleness markers for every series of
            # a failed target so instant queries stop returning zombie
            # values the moment the node dies, instead of after the
            # lookback window.
            for ref, labels in target._previous_refs.items():
                if storage.resolve_ref(ref) is not None:
                    storage.append_ref(ref, now, _STALE)
                else:
                    storage.append(labels, now, _STALE)
            target._previous_refs = {}
        target.last_scrape_duration = result.duration
        target.last_scrape_samples = samples
        storage.append(target.up_labels(), now, 1.0 if target.last_scrape_ok else 0.0)
        self.cache_hits_total += result.hits
        self.cache_misses_total += result.misses
        self.cache_evictions_total += result.evictions
        return samples

    def _apply_refs(
        self, target: ScrapeTarget, batch: list, now: float, exemplars: list | None = None
    ) -> int:
        """Batched append by ref + ref-set staleness pass."""
        storage = self.storage
        get_ref = storage.get_ref
        pairs: list[tuple[int, float]] = []
        pairs_append = pairs.append
        for entry, value in batch:
            if entry.ref == 0:
                entry.ref = get_ref(entry.labels)
            pairs_append((entry.ref, value))
        samples, dead = storage.append_refs(now, pairs)
        if dead:
            # Refs that died since the last cycle (retention or
            # delete_series dropped the series): re-resolve through
            # labels — recreating the series exactly like a plain
            # append by labels — and heal the cache entries so the
            # next cycle is back on the fast path.
            dead_refs = {ref for ref, _ in dead}
            for i, (entry, value) in enumerate(batch):
                if pairs[i][0] in dead_refs:
                    entry.ref = get_ref(entry.labels)
                    storage.append_ref(entry.ref, now, value)
                    samples += 1
        if exemplars:
            # After the sample loop: dead refs have been healed above,
            # so entry.ref is always live here and the exemplar lands
            # on the same series the sample did.
            for entry, exemplar in exemplars:
                storage.append_exemplar_ref(entry.ref, entry.labels, exemplar, now)
        # Staleness markers: series this target exposed last time but
        # not now have disappeared (e.g. a finished job's cgroup) —
        # mark them stale so instant queries stop returning zombie
        # values during the lookback window.
        new_prev: dict[int, Labels] = {}
        for entry, _value in batch:
            new_prev[entry.ref] = entry.labels
        prev = target._previous_refs
        if prev:
            seen_labels = None
            for ref, labels in prev.items():
                if ref in new_prev:
                    continue
                series = storage.resolve_ref(ref)
                if series is not None:
                    storage.append_ref(ref, now, _STALE)
                    continue
                # The prev ref died; its labels may have been
                # re-scraped this cycle under a fresh ref, in which
                # case the series is live, not stale.
                if seen_labels is None:
                    seen_labels = set(new_prev.values())
                if labels not in seen_labels:
                    storage.append(labels, now, _STALE)
        target._previous_refs = new_prev
        return samples

    # -- scraping ---------------------------------------------------------
    def scrape_target(self, target: ScrapeTarget, now: float) -> int:
        """Scrape one target at logical time ``now``.

        Returns the number of samples ingested (not counting ``up``).
        Failures are recorded as ``up == 0`` rather than raised, so one
        bad node never stalls the cluster scrape — Prometheus
        behaviour the Jean-Zay scale bench depends on.
        """
        return self._apply(self._fetch(target, now), now)

    def scrape_all(self, now: float) -> int:
        """One scrape cycle over every target; applies retention."""
        if self.telemetry is not None:
            with self.telemetry.span("scrape.cycle", targets=len(self.targets)) as span:
                total = self._scrape_all(now)
                span.attrs["samples"] = total
                return total
        return self._scrape_all(now)

    def _scrape_all(self, now: float) -> int:
        started = time.perf_counter()
        workers = self.config.workers
        if workers > 1 and len(self.targets) > 1:
            # Workers only fetch (HTTP + parse + cache resolution);
            # map() yields results in submission order, and the apply
            # loop below commits them to storage one at a time — so
            # the TSDB sees the exact same operations in the exact
            # same order as a serial cycle, for any worker count.
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(lambda t: self._fetch(t, now), self.targets))
        else:
            results = [self._fetch(target, now) for target in self.targets]
        with prof.profile("scrape.append"):
            total = sum(self._apply(result, now) for result in results)
        self._cycles += 1
        self.cycles_total += 1
        self.samples_appended_total += total
        if self.config.retention_every and self._cycles % self.config.retention_every == 0:
            self.storage.apply_retention(now)
        self.cycle_seconds.observe(time.perf_counter() - started)
        return total

    def register_timer(self, clock) -> None:
        """Drive the scrape loop from a :class:`SimClock`."""
        clock.every(self.config.interval, lambda now: self.scrape_all(now))

    def register_metrics(self, registry) -> None:
        """Expose scrape-loop totals on a component's registry."""
        registry.gauge_func(
            "ceems_scrape_samples_appended_total",
            lambda: float(self.samples_appended_total),
            help="Samples appended by the scrape loop (excluding up).",
            type="counter",
        )
        registry.gauge_func(
            "ceems_scrape_cycles_total",
            lambda: float(self.cycles_total),
            help="Completed scrape cycles.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_scrape_targets",
            lambda: float(len(self.targets)),
            help="Registered scrape targets.",
        )
        registry.gauge_func(
            "ceems_scrape_targets_healthy",
            lambda: float(self.healthy_targets()),
            help="Targets whose last scrape succeeded.",
        )
        registry.gauge_func(
            "ceems_scrape_cache_hits_total",
            lambda: float(self.cache_hits_total),
            help="Sample lines resolved from the per-target scrape cache.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_scrape_cache_misses_total",
            lambda: float(self.cache_misses_total),
            help="Sample lines that required a full parse + Labels build.",
            type="counter",
        )
        registry.gauge_func(
            "ceems_scrape_cache_evictions_total",
            lambda: float(self.cache_evictions_total),
            help="Scrape cache entries evicted after their series disappeared.",
            type="counter",
        )
        exemplars = getattr(self.storage, "exemplars", None)
        if exemplars is not None:
            registry.gauge_func(
                "ceems_exemplars_appended_total",
                lambda: float(exemplars.appended_total),
                help="Exemplars accepted into the circular exemplar storage.",
                type="counter",
            )
            registry.gauge_func(
                "ceems_exemplars_dropped_total",
                lambda: float(exemplars.dropped_total),
                help="Exemplars dropped (duplicates or capacity eviction).",
                type="counter",
            )
            registry.gauge_func(
                "ceems_exemplar_storage_exemplars",
                lambda: float(len(exemplars)),
                help="Live exemplars currently held by the storage ring.",
            )
        registry.collector(self.cycle_seconds.collect)

    # -- health ------------------------------------------------------------
    def healthy_targets(self) -> int:
        return sum(1 for t in self.targets if t.last_scrape_ok)
