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
At Jean-Zay scale (~1700 targets) almost every line of a body is the
line the same target sent last time — same series, often the same
value — so the manager pays per *changed* line:

* each target keeps one :class:`_Layout` of its last accepted body:
  the raw lines and, per sample line, the series text it starts with,
  the validated ``Labels``, the TSDB series ref, the last value and
  the last exemplar.  A new body with the same number of lines is
  compared to it line against line at C speed; an unchanged line
  reuses what it parsed to, a changed one stays on the lane only if it
  still starts with the remembered series text followed by ``value``
  or ``value # exemplar``.
* anything else — another line count, a changed comment or blank
  line, other series text, a timestamp, a malformed token, a failed
  previous scrape — **rebuilds** the layout through the reference
  grammar (:func:`exposition.parse_sample_line` and friends), looking
  series text up in the old layout so only text never seen before
  costs a label parse (Prometheus ``scrapeCache``).
* a target's samples, staleness markers and ``up`` sample are
  committed by ref in one :meth:`TSDB.append_refs` call (one WAL
  record on a durable head, as Prometheus commits a scrape's appender
  once); refs that died since the last cycle (retention,
  ``delete_series``) are re-resolved through their labels, as
  Prometheus re-lodges a head ref miss, and committed in one more
  call.  Only a rebuild or a failed scrape marks series stale.
* each cycle is split into a **fetch** phase over every target (HTTP
  + decode + line compare/parse, touching only the target's own
  layout, never storage) and an **apply** phase that commits the
  per-target batches to the TSDB in registration order.

The parse-everything manager this lane must match bit-for-bit is a
test oracle (``tests/reference/scrape.py``), built on
:func:`exposition.parse` and :meth:`TSDB.append`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import ne

from repro.common.auth import make_basic_auth_header
from repro.common.errors import ScrapeError
from repro.common.httpx import App, Request
from repro.obs import prof
from repro.obs.registry import Histogram
from repro.tsdb import exposition
from repro.tsdb.model import Labels
from repro.tsdb.storage import TSDB

_STALE = float("nan")


class _Layout:
    """What one target's last accepted body parsed to, line by line.

    ``slot_of_line[i]`` is the sample slot of body line ``i`` (``-1``
    for a comment or blank line); the remaining lists are indexed by
    slot.  ``refs`` and ``values`` are handed to
    :meth:`TSDB.append_refs` as they are.  Series text only enters
    ``slot_of_text`` after a full reference parse of its line
    succeeded, so the layout can serve stale *work*, never stale
    *identity*.

    There are two ways to take a new body: :meth:`refill` this layout
    in place, paying per changed line, or :meth:`parse` a fresh one,
    paying per line and a label parse per series text never seen.
    """

    __slots__ = ("lines", "slot_of_line", "texts", "labels", "refs", "values", "exemplars", "slot_of_text")

    def __init__(self, lines: list[str]) -> None:
        self.lines = lines
        self.slot_of_line: list[int] = []
        #: The ``name{labels}`` text (a bare ``name`` plus the one
        #: whitespace character after it) each sample line starts with.
        self.texts: list[str] = []
        self.labels: list[Labels] = []
        #: 0 until the apply phase first resolves it (a fetch never
        #: touches storage).
        self.refs: list[int] = []
        self.values: list[float] = []
        #: slot -> (exemplar text, parsed ``Exemplar``)
        self.exemplars: dict[int, tuple[str, exposition.Exemplar]] = {}
        #: series text -> a slot that carries it
        self.slot_of_text: dict[str, int] = {}

    def series(self) -> dict[int, Labels]:
        """The distinct series of the body, ``ref -> Labels``."""
        return dict(zip(self.refs, self.labels))

    def refill(self, lines: list[str]) -> bool:
        """The lane: fit a new body into the layout of the last one.

        Only lines that differ from the remembered body are looked at.
        Returns ``False`` — possibly with some values already
        overwritten, which the :meth:`parse` that must follow ignores
        — as soon as one of them is not the remembered series text
        followed by ``value`` or ``value # exemplar``.  Everything
        that holds is a sub-grammar of
        :func:`exposition.parse_sample_line`, so the lane accepts
        nothing the reference parser would reject or read differently;
        what it cannot judge, the full parse does.
        """
        old = self.lines
        if len(lines) != len(old):
            return False
        slot_of_line = self.slot_of_line
        texts = self.texts
        values = self.values
        exemplars = self.exemplars
        for i in compress(range(len(lines)), map(ne, lines, old)):
            slot = slot_of_line[i]
            if slot < 0:
                return False  # a comment or blank line changed
            raw = lines[i]
            tail = raw.removeprefix(texts[slot])
            if len(tail) == len(raw):
                return False  # other series text
            # The first '#' after a lone numeric token sits outside
            # any quotes, so it is where split_exemplar would cut.
            cut = tail.find("#")
            tokens = (tail if cut < 0 else tail[:cut]).split()
            if len(tokens) != 1 or "_" in tokens[0]:
                return False  # no value, a timestamp, or `1_0`
            try:
                values[slot] = float(tokens[0])
            except ValueError:
                return False
            if cut < 0:
                if slot in exemplars:
                    del exemplars[slot]
                continue
            text = tail[cut:]
            known = exemplars.get(slot)
            if known is None or known[0] != text:
                exemplars[slot] = (text, exposition.parse_exemplar(text, i + 1))
        self.lines = lines
        return True

    @classmethod
    def parse(
        cls, lines: list[str], old: "_Layout | None", identity: dict[str, str]
    ) -> tuple["_Layout", int, int]:
        """The rebuild: parse a whole body into a fresh layout.

        Returns ``(layout, misses, evictions)``.  Error behaviour is
        bit-identical to :func:`exposition.parse`: comment lines,
        value/timestamp tokens, exemplar suffixes and every line whose
        series text is new go through the same shared helpers.  Series
        text that ``old`` (or an earlier line of this body) already
        resolved keeps its ``Labels`` and ref without a label parse;
        text of ``old`` that is gone from this body is an eviction.
        """
        known = old.slot_of_text if old is not None else {}
        layout = cls(lines)
        slot_of_text = layout.slot_of_text
        misses = 0
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                if line:
                    exposition.comment_parts(line, lineno)
                layout.slot_of_line.append(-1)
                continue
            # Carve off an exemplar suffix first (the `'#' in line`
            # guard keeps exemplar-free lines on the C-speed path): an
            # exemplar's own label set ends in '}', so with it the
            # *last* '}' would not be the series' closing brace.
            sample, ex_text = exposition.split_exemplar(line) if "#" in line else (line, None)
            # The series text ends at the last '}' — value and
            # timestamp tokens of a *valid* line cannot contain one —
            # or, for a bare name, after its first whitespace.  A line
            # that is structurally odd yields text no valid line ever
            # registered and fails in the reference parser below.
            end = sample.rfind("}")
            if end < 0:
                end = len(sample.split(None, 1)[0])
            text = sample[: end + 1]
            source, at = layout, slot_of_text.get(text)
            if at is None:
                source, at = old, known.get(text)
            if at is not None:
                value, _ts = exposition.parse_sample_tail(sample[end + 1 :].split(), lineno)
                # Exemplar last, mirroring parse_sample_line's
                # validation order on doubly-malformed lines.
                exemplar = None if ex_text is None else exposition.parse_exemplar(ex_text, lineno)
                labels, ref = source.labels[at], source.refs[at]
            else:
                name, own, value, _ts, exemplar = exposition.parse_sample_line(line, lineno)
                point = exposition.MetricPoint(labels=own, value=value)
                labels, ref = exposition.to_labels(name, point, identity), 0
                misses += 1
            slot = slot_of_text[text] = len(layout.refs)
            layout.slot_of_line.append(slot)
            layout.texts.append(text)
            layout.labels.append(labels)
            layout.refs.append(ref)
            layout.values.append(value)
            if exemplar is not None:
                layout.exemplars[slot] = (ex_text, exemplar)
        return layout, misses, len(known.keys() - slot_of_text.keys())


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
    #: The last accepted body.  It outlives a failed scrape (so the
    #: recovery still knows every series text) but then only as a
    #: lookup: ``last_scrape_ok`` says whether its lines and values
    #: are current and its series still unmarked.
    _layout: _Layout | None = field(default=None, repr=False)
    _up_labels: Labels | None = field(default=None, repr=False)
    #: Storage ref of the ``up`` series; 0 until the first scrape
    #: resolves it, and healed like a layout ref when it dies.
    _up_ref: int = field(default=0, repr=False)

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


@dataclass
class _ScrapeResult:
    """Everything a fetch produced; applied to storage later."""

    target: ScrapeTarget
    ok: bool = False
    error: str = ""
    duration: float = 0.0
    #: What to append from: the target's own layout, refilled in
    #: place (the lane), or a freshly rebuilt one for apply to install.
    layout: _Layout | None = None
    #: Sample lines resolved without / with a label parse, and series
    #: texts of the old layout that the rebuilt one no longer has.
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
        #: Successful scrapes that had to rebuild their target's layout
        #: (the rest stayed on the per-changed-line lane).
        self.layout_rebuilds_total = 0
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

    # -- fetch phase (storage-free) ----------------------------------------
    def _fetch(self, target: ScrapeTarget, now: float) -> _ScrapeResult:
        """HTTP + decode + line compare/parse for one target.

        Touches only the target and its private layout — never the
        TSDB; the apply phase commits what it produced.
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
                lines = body.splitlines()
                layout = target._layout
                # After a failed scrape the layout's values may be
                # half-refilled, so only a successful one is refilled.
                if layout is None or not target.last_scrape_ok or not layout.refill(lines):
                    layout, result.misses, result.evictions = _Layout.parse(
                        lines, layout, target.identity_labels()
                    )
            result.layout = layout
            result.hits = len(layout.refs) - result.misses
            result.ok = True
        except Exception as exc:  # noqa: BLE001 — one bad node must
            # never stall the cluster scrape: a non-UTF-8 body, a bad
            # Labels name or a collector crash all count as a failed
            # scrape (``up == 0``), like ScrapeError always did.
            result.ok = False
            result.error = repr(exc)
        result.duration = time.perf_counter() - started
        return result

    # -- apply phase (registration order) ------------------------------------
    def _apply(self, result: _ScrapeResult, now: float) -> int:
        """Commit one fetch result: samples, staleness markers and
        ``up`` in one batch."""
        target = result.target
        storage = self.storage
        layout, stale = result.layout, []
        samples = 0
        if result.ok:
            if layout is not target._layout:
                for slot, ref in enumerate(layout.refs):
                    if not ref:
                        layout.refs[slot] = storage.get_ref(layout.labels[slot])
                # Series this target exposed last time but not now
                # have disappeared (e.g. a finished job's cgroup).
                # Only a rebuild can find any: the same layout means
                # the same series.
                stale = self._stale_refs(target, layout.series())
                target._layout = layout
                self.layout_rebuilds_total += 1
            samples = len(layout.refs)
        else:
            target.scrape_failures_total += 1
            # Prometheus writes staleness markers for every series of
            # a failed target so instant queries stop returning zombie
            # values the moment the node dies, instead of after the
            # lookback window.
            layout, stale = None, self._stale_refs(target, {})
        self._append(target, layout, stale, float(result.ok), now)
        target.last_scrape_ok = result.ok
        target.last_scrape_duration = result.duration
        target.last_scrape_samples = samples
        self.cache_hits_total += result.hits
        self.cache_misses_total += result.misses
        self.cache_evictions_total += result.evictions
        return samples

    def _append(self, target: ScrapeTarget, layout: _Layout | None, stale: list[int], up: float, now: float) -> None:
        """One batched append by ref of a body's samples, the
        target's staleness markers and its ``up`` sample, then the
        body's exemplars."""
        storage = self.storage
        refs = layout.refs if layout is not None else []
        values = layout.values if layout is not None else []
        _appended, dead = storage.append_refs(
            now, chain(zip(refs, values), zip(stale, repeat(_STALE)), ((target._up_ref, up),))
        )
        if dead:
            # Refs that died since the last cycle (retention or
            # delete_series dropped the series; `up`'s before its first
            # resolution): re-resolve through labels — recreating the
            # series exactly like a plain append by labels — heal the
            # layout so the next cycle is back on the fast path, and
            # commit the healed samples as one more batch.
            dead_refs = {ref for ref, _ in dead}
            healed = []
            for slot, ref in enumerate(refs):
                if ref in dead_refs:
                    refs[slot] = storage.get_ref(layout.labels[slot])
                    healed.append((refs[slot], values[slot]))
            if target._up_ref in dead_refs:
                target._up_ref = storage.get_ref(target.up_labels())
                healed.append((target._up_ref, up))
            storage.append_refs(now, healed)
        if layout is None:
            return
        # After the sample loop: dead refs have been healed above, so
        # the ref is always live here and the exemplar lands on the
        # same series the sample did.  In line order, and unchanged
        # exemplars are offered again every scrape: the store drops
        # and counts the repeats.
        for slot, (_text, exemplar) in sorted(layout.exemplars.items()):
            storage.append_exemplar_ref(refs[slot], layout.labels[slot], exemplar, now)

    def _stale_refs(self, target: ScrapeTarget, current: dict[int, Labels]) -> list[int]:
        """Refs to stale-mark: the series of the target's installed
        layout that are not in ``current`` (``ref -> Labels``)."""
        if not target.last_scrape_ok:
            return []  # never scraped, or a failed scrape marked them all
        storage = self.storage
        stale = []
        seen_labels = None
        for ref, labels in target._layout.series().items():
            if ref in current:
                continue
            if storage.resolve_ref(ref) is None:
                # The ref died; its labels may be in this body under a
                # fresh ref, in which case the series is live, not
                # stale.  Otherwise recreate it for the marker.
                if seen_labels is None:
                    seen_labels = set(current.values())
                if labels in seen_labels:
                    continue
                ref = storage.get_ref(labels)
            stale.append(ref)
        return stale

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
            help="Sample lines resolved without a label parse: unchanged, or of series text the target's layout knows.",
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
            help="Series texts dropped from a target's layout after their line disappeared.",
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
