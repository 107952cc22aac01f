"""``ingest_mem`` and ``ingest_durable``: the collection pipeline only.

hwsim tick -> exporter render -> scrape fetch/parse/append -> recording
rules (Eq. 1) -> alerts/probes -> updater, driven one *cycle* of sim
time at a time; nothing is served.  ``ingest_durable`` runs the same
pipeline with a WAL beside every append, crosses one block cut / WAL
checkpoint / compactor pass, then kills the deployment and recovers it
three times from only the bytes that were synced.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import numpy as np

from repro.cluster import StackSimulation
from repro.thanos import ObjectStore

from benchmarks.e2e import deploy, harness, stats
from benchmarks.e2e.harness import Outcome
from benchmarks.e2e.trace import Tracer

MEM_SHAPE = deploy.Shape(
    scale=0.05,  # 73 nodes, 184 GPUs, ~103 targets, ~8k series
    scrape_interval=15.0,
    rule_interval=30.0,
    update_interval=600.0,
    mean_interarrival=30.0,  # ~2.9k jobs/day
    backlog=40,
)
MEM_CYCLE = 30.0  # sim-seconds: two scrapes, one rule evaluation
MEM_WARM_CYCLES = 8  # scrape cache, render memos and the 2 m rate windows fill
MEM_CYCLES_PER_SECOND = 3.5  # measured cycles per --seconds second

DURABLE_SHAPE = deploy.Shape(
    scale=0.02,  # 31 nodes, ~48 targets
    scrape_interval=30.0,
    rule_interval=60.0,
    update_interval=900.0,
    mean_interarrival=60.0,
    backlog=20,
    # One hour into a 2 h block, so the block cut, its WAL checkpoint
    # (sidecar tick at +60 min) and one compactor pass (+72 min) fall
    # inside a window short enough for the run budget — and, with ten
    # warm-up cycles, on cycles 49 and 61, both of which are traced.
    start_offset=3600.0,
    sidecar_interval=3600.0,
    compactor_interval=4320.0,
)
DURABLE_CYCLE = 60.0
DURABLE_WARM_CYCLES = 10
DURABLE_CYCLES_PER_SECOND = 6.6  # 66 cycles at the contract's 10 s: enough to cross the block cut and compactor pass
DURABLE_SYNC_SLACK = 4  # the sync point is a seeded 0..3 cycles after the window
DURABLE_TAIL_CYCLES = 10  # 20 scrape ticks ingested after the sync point
REOPENS = 3
SERIES_SAMPLE = 50

POWER_QUERY = "ceems:compute_unit:power_watts"


class Counters:
    """Public counters of one deployment, read twice and subtracted."""

    def __init__(self, sim: StackSimulation) -> None:
        targets = sim.scrape_manager.targets
        self.scrapes = sum(t.scrapes_total for t in targets)
        self.scrape_failures = sum(t.scrape_failures_total for t in targets)
        self.exporter_scrapes = sum(t.scrapes_total for t in targets if t.job in deploy.EXPORTER_JOBS)
        self.scrape_samples = sim.scrape_manager.samples_appended_total
        self.cache_hits = sim.scrape_manager.cache_hits_total
        self.cache_misses = sim.scrape_manager.cache_misses_total
        self.probes = sim.prober.probes_total
        self.probe_failures = sim.prober.failures_total
        self.updater_passes = sim.updater.stats.passes
        self.select_hits = sim.hot_tsdb.select_cache_hits + sim.fanout.select_cache_hits
        self.select_misses = sim.hot_tsdb.select_cache_misses + sim.fanout.select_cache_misses


class CycleLog:
    """Timed ``sim.run`` calls of one measured window: their walls,
    appended-sample counts and failures, and the counters around them."""

    def __init__(self, sim: StackSimulation, tracer: Tracer | None) -> None:
        self.sim = sim
        self.tracer = tracer
        self.starts: list[float] = []
        self.walls: list[float] = []
        self.samples: list[int] = []
        self.traced: list[bool] = []
        self.rule_samples = 0
        self.rule_failures = 0
        self.rule_evaluations = 0
        self._groups = list(sim.rule_evaluator.groups) + list(sim.rule_evaluator.alert_groups)
        if tracer is not None:
            tracer.counts.clear()  # hooks also ran during set-up
        self.before = Counters(sim)
        self.after = self.before

    def advance(self, seconds: float) -> float:
        """One unit of ingest: time ``sim.run`` and nothing else.  The
        caller has set the tracer's unit and on/off state."""
        hot = self.sim.hot_tsdb
        evaluations = [g.evaluations for g in self._groups]
        before = hot.samples_ingested
        started = time.perf_counter()
        self.sim.run(seconds)
        wall = time.perf_counter() - started
        self.starts.append(started)
        self.walls.append(wall)
        self.samples.append(hot.samples_ingested - before)
        self.traced.append(self.tracer is not None and self.tracer.enabled)
        # Outside the clock: every group evaluates at most once per
        # unit at these cadences, so last_error covers the unit.
        for group, was in zip(self._groups, evaluations):
            if group.evaluations != was:
                self.rule_evaluations += 1
                self.rule_failures += bool(group.last_error)
                self.rule_samples += getattr(group, "last_samples", 0)
        return wall

    def close(self, outcome: Outcome) -> None:
        """Read the counters again; book attempted / failed."""
        if self.tracer is not None:
            self.tracer.enabled = False
        before, after = self.before, Counters(self.sim)
        self.after = after
        outcome.attempted += (
            (after.scrapes - before.scrapes)
            + (after.probes - before.probes)
            + (after.updater_passes - before.updater_passes)
            + self.rule_evaluations
        )
        outcome.failed += (
            (after.scrape_failures - before.scrape_failures)
            + (after.probe_failures - before.probe_failures)
            + self.rule_failures
        )

    def layers(self) -> dict[str, float]:
        """Per-layer counts of the ingest side, per unit of work."""
        sim, before, after, units = self.sim, self.before, self.after, len(self.walls)
        return {
            "exporter.renders": (after.exporter_scrapes - before.exporter_scrapes) / units,
            "exporter.bytes": self.tracer.counts["exporter.bytes"] / units,
            "tsdb.scrape.samples": (after.scrape_samples - before.scrape_samples) / units,
            "tsdb.scrape.cache_hit_ratio": _ratio(
                after.cache_hits - before.cache_hits, after.cache_misses - before.cache_misses
            ),
            "tsdb.scrape.failed": after.scrape_failures - before.scrape_failures,
            "tsdb.storage.series": sim.hot_tsdb.num_series,
            "tsdb.storage.select_cache_hit_ratio": _ratio(
                after.select_hits - before.select_hits, after.select_misses - before.select_misses
            ),
            "tsdb.rules.samples_out": self.rule_samples / units,
            "tsdb.rules.failed": self.rule_failures,
            "apiserver.units": sim.db.count_units(),
            "thanos.blocks": len(sim.object_store.blocks),
            "bench.cycle_max_ms": max(self.walls) * 1000.0,
        }


def run_cycles(sim, n: int, cycle: float, tracer: Tracer | None, meter, outcome: Outcome) -> CycleLog:
    """Advance ``n`` cycles, alternating traced and untraced pairs,
    with a speed-calibration tick before each."""
    log = CycleLog(sim, tracer)
    for index in range(n):
        meter.tick()
        if tracer is not None:
            tracer.enabled = harness.traced_unit(index)
            tracer.unit = index
        log.advance(cycle)
    meter.tick()
    log.close(outcome)
    return log


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def power_vector(sim: StackSimulation) -> list[tuple[tuple, float]]:
    """The final Eq. 1 output, as sorted ``(labels, watts)``."""
    result = sim.engine.query(POWER_QUERY, sim.now)
    return sorted((tuple(sorted(el.labels.as_dict().items())), el.value) for el in result.vector)


def check_power_vector(sim: StackSimulation, outcome: Outcome) -> list:
    """Eq. 1 produced one finite, non-negative power per running job,
    and only for jobs this run submitted."""
    vector = power_vector(sim)
    known = {unit.uuid for unit in sim.slurm.list_units(0.0, sim.now)}
    uuids = {dict(labels).get("uuid") for labels, _watts in vector}
    outcome.check("power_vector_nonempty", bool(vector), f"{len(vector)} series")
    outcome.check("power_vector_known_jobs", uuids <= known)
    outcome.check(
        "power_vector_finite",
        all(np.isfinite(watts) and watts >= 0.0 for _labels, watts in vector),
    )
    return vector


def summarise(log: CycleLog, slice_cycles: int, setup_s: float, meter, outcome: Outcome) -> None:
    """The end-to-end numbers of an ingest run, at calibration speed."""
    spans = [(start, start + wall) for start, wall in zip(log.starts, log.walls)]
    walls = [meter.normalised(start, end) for start, end in spans]
    walls_ms = [w * 1000.0 for w in walls]
    q, tail_ms = stats.tail(walls_ms)
    rates = []
    for i in range(0, len(walls) - slice_cycles + 1, slice_cycles):
        rates.append(sum(log.samples[i : i + slice_cycles]) / sum(walls[i : i + slice_cycles]))
    outcome.end_to_end.update(
        setup_s=setup_s,
        op_p50_ms=statistics.median(walls_ms),
        op_tail_ms=tail_ms,
        work_per_s=statistics.median(rates),
        peak_rss_mb=harness.rss_mb(),
    )
    outcome.notes.append(
        f"op = one cycle; {len(walls_ms)} cycles, op_tail_ms is p{round(q * 100)}; "
        f"work = samples appended, median of {len(rates)} sim-minute slices"
    )
    harness.note_speed(meter, spans, outcome)


def fill_layers(tracer: Tracer, log: CycleLog, outcome: Outcome) -> None:
    """Per-layer numbers of a traced ingest run."""
    traced_walls = [w for w, on in zip(log.walls, log.traced) if on]
    plain_walls = [w for w, on in zip(log.walls, log.traced) if not on]
    outcome.layers.update(harness.fold_trace(tracer, traced_walls, outcome))
    outcome.layers.update(log.layers())
    outcome.layers["bench.trace_overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)


def run_mem(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    outcome = Outcome()
    cycles = max(8, round(MEM_CYCLES_PER_SECOND * seconds))
    horizon = (MEM_WARM_CYCLES + cycles) * MEM_CYCLE

    meter = harness.Speedometer()
    sim, setup_s = harness.repeated_setup(
        lambda: deploy.metered_setup(
            lambda: deploy.build(seed, MEM_SHAPE, horizon, tracer=tracer), MEM_WARM_CYCLES, MEM_CYCLE, meter
        ),
        outcome,
        lambda old: deploy.discard(old, tracer),
    )
    log = run_cycles(sim, cycles, MEM_CYCLE, tracer, meter, outcome)
    summarise(log, 2, setup_s, meter, outcome)
    if tracer is not None:
        fill_layers(tracer, log, outcome)

    vector = check_power_vector(sim, outcome)
    outcome.note_digest(
        {
            "scrape samples": log.after.scrape_samples,
            "series": sim.hot_tsdb.num_series,
            "jobs": sim.slurm.jobs_submitted,
        },
        vector,
    )
    return outcome


# -- ingest_durable ------------------------------------------------------


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total


def _open_segment(wal) -> str:
    """Path of the segment the WAL is appending to (its newest file)."""
    newest = max(name for name in os.listdir(wal.path))
    return os.path.join(wal.path, newest)


def _series_bits(series, lo: float, hi: float) -> bytes:
    ts, vs = series.window(lo, hi)
    return np.asarray(ts, dtype=np.float64).tobytes() + np.asarray(vs, dtype=np.float64).tobytes()


def run_durable(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    outcome = Outcome()
    cycles = max(8, round(DURABLE_CYCLES_PER_SECOND * seconds))
    horizon = (DURABLE_WARM_CYCLES + cycles + DURABLE_SYNC_SLACK + DURABLE_TAIL_CYCLES) * DURABLE_CYCLE
    root = harness.scratch_dir("durable")
    try:
        _run_durable(seed, cycles, horizon, root, tracer, outcome)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return outcome


def _run_durable(seed, cycles, horizon, root, tracer, outcome: Outcome) -> None:
    live_dir = os.path.join(root, "live")

    meter = harness.Speedometer()

    def build():
        shutil.rmtree(live_dir, ignore_errors=True)
        return deploy.build(seed, DURABLE_SHAPE, horizon, persist_dir=live_dir, tracer=tracer)

    sim, setup_s = harness.repeated_setup(
        lambda: deploy.metered_setup(build, DURABLE_WARM_CYCLES, DURABLE_CYCLE, meter),
        outcome,
        lambda old: deploy.discard(old, tracer),
    )
    hot = sim.hot_tsdb
    wal_before = (hot.wal.bytes_written, hot.wal.fsyncs)
    log = run_cycles(sim, cycles, DURABLE_CYCLE, tracer, meter, outcome)
    wal_written = (hot.wal.bytes_written - wal_before[0], hot.wal.fsyncs - wal_before[1])
    summarise(log, 1, setup_s, meter, outcome)

    # -- durability: sync at a seeded tick, then keep ingesting ----------
    rng = np.random.default_rng(seed)
    sim.run(int(rng.integers(0, DURABLE_SYNC_SLACK)) * DURABLE_CYCLE)
    hot.wal.sync()
    # Samples the head holds, all of them journaled and now synced (a
    # few appends replace a sample at the same timestamp, so this is
    # slightly under samples_ingested).
    acked = hot.num_samples
    synced_max_time = hot.max_time
    segment = _open_segment(hot.wal)
    synced_size = os.path.getsize(segment)
    disk_bytes = _tree_bytes(live_dir)
    sim.run(DURABLE_TAIL_CYCLES * DURABLE_CYCLE)
    vector = check_power_vector(sim, outcome)

    # -- crash: no close(); recover REOPENS times from copies ------------
    live = {s.labels: s for s in hot.all_series()}
    # Series that existed at the sync point and were still being
    # written shortly before it: their recovered range must be whole.
    active = sorted(
        (
            labels
            for labels, s in live.items()
            if s.min_time is not None and s.min_time <= synced_max_time and s.max_time >= synced_max_time - 600.0
        ),
        key=lambda labels: tuple(sorted(labels.as_dict().items())),
    )
    picks = [active[i] for i in rng.choice(len(active), size=min(SERIES_SAMPLE, len(active)), replace=False)]
    recovery, replay_ms, store_load_ms = [], [], 0.0
    for attempt in range(REOPENS):
        copy_dir = os.path.join(root, f"copy{attempt}")
        shutil.copytree(live_dir, copy_dir)
        wal_dir = os.path.join(copy_dir, "hot", "wal")
        # Discard what was never synced: later segments, and the tail
        # of the segment that was open at the sync point.
        for name in os.listdir(wal_dir):
            if name > os.path.basename(segment):
                os.remove(os.path.join(wal_dir, name))
        os.truncate(os.path.join(wal_dir, os.path.basename(segment)), synced_size)

        if attempt == 0:
            # Once is enough: loading the store alone repeats work the
            # reopen below does again.
            started = time.perf_counter()
            ObjectStore(persist_dir=os.path.join(copy_dir, "store"))
            store_load_ms = (time.perf_counter() - started) * 1000.0
        started = time.perf_counter()
        reopened = deploy.build(seed, DURABLE_SHAPE, None, persist_dir=copy_dir)
        recovery.append(time.perf_counter() - started)
        replay_ms.append(reopened.hot_tsdb.replay_seconds * 1000.0)

        recovered = {s.labels: s for s in reopened.hot_tsdb.all_series()}
        in_blocks = sum(block.num_samples for block in reopened.object_store.blocks)
        total = reopened.hot_tsdb.num_samples + in_blocks
        outcome.check(f"reopen{attempt}_acknowledged_samples", total >= acked, f"{total} >= {acked}")
        outcome.check(
            f"reopen{attempt}_reaches_sync_point",
            reopened.hot_tsdb.max_time == synced_max_time and not reopened.hot_tsdb.replay_result.torn,
        )
        equal = 0
        for labels in picks:
            got = recovered.get(labels)
            if got is None or got.min_time is None:
                continue
            lo, hi = got.min_time, got.max_time
            equal += _series_bits(got, lo, hi) == _series_bits(live[labels], lo, hi)
        outcome.check(f"reopen{attempt}_series_bit_equal", equal == len(picks), f"{equal}/{len(picks)}")
        reopened.hot_tsdb.close()
        shutil.rmtree(copy_dir)
    hot.close()

    outcome.note_digest(
        {
            "scrape samples": log.after.scrape_samples,
            "series": hot.num_series,
            "jobs": sim.slurm.jobs_submitted,
            "WAL bytes": hot.wal.bytes_written,
        },
        vector,
    )
    outcome.notes.append(
        f"recovery_s {statistics.median(recovery):.4f} s (median of {REOPENS} reopens); "
        f"disk_bytes_per_sample {disk_bytes / acked:.4f} B ({disk_bytes} B / {acked} acknowledged samples); "
        f"blocks {len(sim.object_store.blocks)}, checkpoints {hot.checkpoints}, "
        f"compactor passes {sim.compactor.downsample_passes}"
    )
    if tracer is not None:
        fill_layers(tracer, log, outcome)
        outcome.layers.update(
            {
                "tsdb.persist.wal_bytes": wal_written[0],
                "tsdb.persist.wal_fsyncs": wal_written[1],
                "tsdb.persist.block_bytes": sim.object_store.persisted_encoded_bytes,
                "tsdb.persist.replay_ms": statistics.median(replay_ms),
                "tsdb.persist.recovery_s": statistics.median(recovery),
                "tsdb.persist.disk_bytes_per_sample": disk_bytes / acked,
                "thanos.store_load_ms": store_load_ms,
            }
        )
