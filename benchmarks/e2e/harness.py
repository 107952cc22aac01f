"""What every workload shares: the metric ledger, the outcome record,
repeated set-up, the scratch directory and the per-layer fold of a
trace."""

from __future__ import annotations

import bisect
import gc
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

from benchmarks.e2e.stats import digest
from benchmarks.e2e.trace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: Set-up is repeated this many times per run (each on a fresh
#: deployment of the same seed; the last one is measured on) and
#: ``setup_s`` is the median, so one scheduler hiccup cannot move it.
SETUP_REPEATS = 3

#: End-to-end metrics: (name, unit, better, regression bound).  Every
#: workload reports every one; what ``op`` and ``work`` mean on each
#: workload is tabulated in README.md.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.20),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

#: Per-layer metrics: (name, unit, better).  ``*_ms`` is mean self time
#: per unit of the workload's work (cycle, page or round) over the
#: traced units; ``/op`` counts are per unit of work too; the rest are
#: states read at the end of the run.
PER_LAYER = (
    ("hwsim.advance_ms", "ms", "lower"),
    ("resourcemgr.step_ms", "ms", "lower"),
    ("exporter.render_ms", "ms", "lower"),
    ("exporter.renders", "1/op", "lower"),
    ("exporter.bytes", "B/op", "lower"),
    ("tsdb.scrape.self_ms", "ms", "lower"),
    ("tsdb.scrape.samples", "1/op", "higher"),
    ("tsdb.scrape.cache_hit_ratio", "ratio", "higher"),
    ("tsdb.scrape.failed", "count", "lower"),
    ("tsdb.storage.append_ms", "ms", "lower"),
    ("tsdb.storage.series", "count", "lower"),
    ("tsdb.storage.select_ms", "ms", "lower"),
    ("tsdb.storage.select_cache_hit_ratio", "ratio", "higher"),
    ("tsdb.rules.eval_ms", "ms", "lower"),
    ("tsdb.rules.samples_out", "1/op", "higher"),
    ("tsdb.rules.failed", "count", "lower"),
    ("tsdb.alerts.eval_ms", "ms", "lower"),
    ("tsdb.promql.eval_ms", "ms", "lower"),
    ("tsdb.promql.queries", "1/op", "lower"),
    ("tsdb.http.self_ms", "ms", "lower"),
    ("tsdb.http.bytes_out", "B/op", "lower"),
    ("lb.self_ms", "ms", "lower"),
    ("lb.requests", "1/op", "lower"),
    ("lb.denied", "count", "lower"),
    ("frontend.self_ms", "ms", "lower"),
    ("frontend.cache_hit_ratio", "ratio", "higher"),
    ("frontend.subqueries", "1/op", "lower"),
    ("frontend.cache_bytes", "B", "lower"),
    ("frontend.memo_hits", "count", "higher"),
    ("frontend.rejected", "count", "lower"),
    ("frontend.memo_replay_p50_ms", "ms", "lower"),
    ("apiserver.api_ms", "ms", "lower"),
    ("apiserver.updater_ms", "ms", "lower"),
    ("apiserver.units", "count", "higher"),
    ("apiserver.backup_ms", "ms", "lower"),
    ("tsdb.persist.wal_append_ms", "ms", "lower"),
    ("tsdb.persist.wal_bytes", "B", "lower"),
    ("tsdb.persist.wal_fsyncs", "count", "lower"),
    ("tsdb.persist.checkpoint_ms", "ms", "lower"),
    ("tsdb.persist.block_write_ms", "ms", "lower"),
    ("tsdb.persist.block_bytes", "B", "lower"),
    ("tsdb.persist.replay_ms", "ms", "lower"),
    ("tsdb.persist.recovery_s", "s", "lower"),
    ("tsdb.persist.disk_bytes_per_sample", "B", "lower"),
    ("thanos.store_load_ms", "ms", "lower"),
    ("thanos.sidecar_ms", "ms", "lower"),
    ("thanos.compact_ms", "ms", "lower"),
    ("thanos.blocks", "count", "lower"),
    ("obs.probe_ms", "ms", "lower"),
    ("obs.alertmanager_ms", "ms", "lower"),
    ("bench.ops_refresh_p50_ms", "ms", "lower"),
    ("bench.ladder.low_p50_ms", "ms", "lower"),
    ("bench.ladder.low_p90_ms", "ms", "lower"),
    ("bench.ladder.high_p50_ms", "ms", "lower"),
    ("bench.ladder.high_p90_ms", "ms", "lower"),
    ("bench.ladder.max_rate_ok", "1/s", "higher"),
    ("bench.slowdown", "ratio", "lower"),
    ("bench.residual_ratio", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.gen_late_p99_ms", "ms", "lower"),
    ("bench.cycle_max_ms", "ms", "lower"),
    ("bench.page_p99_ms", "ms", "lower"),
    ("bench.rss_end_mb", "MB", "lower"),
)

#: Span name -> the per-layer metric its self time lands in.  Spans not
#: listed (other.*) only count towards the residual check.
SPAN_METRICS = {
    "hwsim.advance": "hwsim.advance_ms",
    "resourcemgr.step": "resourcemgr.step_ms",
    "exporter.render": "exporter.render_ms",
    "tsdb.scrape": "tsdb.scrape.self_ms",
    "tsdb.storage.append": "tsdb.storage.append_ms",
    "tsdb.storage.select": "tsdb.storage.select_ms",
    "tsdb.rules": "tsdb.rules.eval_ms",
    "tsdb.alerts": "tsdb.alerts.eval_ms",
    "tsdb.promql": "tsdb.promql.eval_ms",
    "tsdb.http": "tsdb.http.self_ms",
    "lb": "lb.self_ms",
    "frontend": "frontend.self_ms",
    "apiserver.api": "apiserver.api_ms",
    "apiserver.updater": "apiserver.updater_ms",
    "apiserver.backup": "apiserver.backup_ms",
    "tsdb.persist.wal_append": "tsdb.persist.wal_append_ms",
    "tsdb.persist.checkpoint": "tsdb.persist.checkpoint_ms",
    "tsdb.persist.block_write": "tsdb.persist.block_write_ms",
    "thanos.sidecar": "thanos.sidecar_ms",
    "thanos.compact": "thanos.compact_ms",
    "obs.probe": "obs.probe_ms",
    "obs.alertmanager": "obs.alertmanager_ms",
}


@dataclass
class Outcome:
    """What one workload run hands back to the command line."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Failed correctness checks, by name (empty = correct).
    problems: list[str] = field(default_factory=list)
    #: Human-readable lines: digests, sample counts, which percentile
    #: ``op_tail_ms`` is at this length.
    notes: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.notes.append(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())
        if not ok:
            self.problems.append(name)

    def note_digest(self, counts: dict[str, int], vector: list) -> None:
        """One line two runs of a seed must agree on: exact counts and
        the final power vector, bit for bit."""
        listed = ", ".join(f"{name} {value}" for name, value in counts.items())
        self.notes.append(f"digest {digest([*counts.values(), vector])} ({listed}, power series {len(vector)})")


def rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scratch_dir(tag: str) -> str:
    """A fresh directory under ``out/`` (inside the checkout, ignored
    by git); the caller removes it."""
    path = os.path.join(OUT_DIR, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Speedometer:
    """How fast is this machine right now, next to when the benchmark
    was calibrated?

    The sandbox's CPU is shared: the same Python loop runs up to 1.8x
    slower, in CPU time as much as in wall time, for seconds or
    minutes while a neighbour is busy, so no amount of repetition
    inside a run averages it out (README.md, "Speed normalisation",
    has the measurements).  What mostly cancels it is a fixed
    calibration kernel — interpreter dispatch, a cache-missing walk
    over 6 MB of floats and exposition-line parsing — run between the
    units of timed work.  Every timed unit is divided by
    ``slowdown()`` of the ticks either side of it.

    The kernel is deliberately generic Python that shares no code with
    the program, so speeding the program up cannot speed the ruler up.
    """

    #: Kernel seconds between units of work on the quiet sandbox.
    NOMINAL_S = 0.0075
    #: The stack slows by about ``kernel slowdown ** ALPHA``: the
    #: kernel misses cache more than the stack does, so it feels a busy
    #: neighbour more.  Fitted on 14 runs of one seed spanning a 1.45x
    #: swing in raw cycle time (see README.md).
    ALPHA = 0.7

    def __init__(self) -> None:
        self._pool = [i * 1.5 for i in range(150_000)]
        order = list(range(0, 150_000, 4))
        random.Random(1).shuffle(order)
        self._order = order
        self._lines = [
            f'ceems_compute_unit_cpu_usage_seconds_total{{uuid="{i}",hostname="node-{i % 97:04d}"}} {i * 1.37!r}'
            for i in range(700)
        ]
        self._starts: list[float] = []
        self._elapsed: list[float] = []

    def tick(self) -> None:
        """Run the kernel once and remember when and how long."""
        started = time.perf_counter()
        table: dict = {}
        for i in range(7000):
            table[i & 1023] = str(i)
        total = 0.0
        pool = self._pool
        for i in self._order:
            total += pool[i]
        for line in self._lines:
            cut = line.rfind(" ")
            table[line[:cut]] = float(line[cut + 1 :])
        self._starts.append(started)
        self._elapsed.append(time.perf_counter() - started)

    def slowdown(self, start: float, end: float) -> float:
        """Factor by which work timed over ``[start, end]`` was slowed:
        from the last tick begun before it and the first begun after."""
        before = bisect.bisect_right(self._starts, start) - 1
        after = bisect.bisect_left(self._starts, end)
        near = [self._elapsed[i] for i in (before, after) if 0 <= i < len(self._elapsed)]
        return (sum(near) / len(near) / self.NOMINAL_S) ** self.ALPHA

    def normalised(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at calibration speed."""
        return (end - start) / self.slowdown(start, end)


def repeated_setup(make, outcome: Outcome, dispose=None):
    """Run ``make()`` ``SETUP_REPEATS`` times; return the last result
    and the median set-up time.  ``make`` returns ``(result, seconds)``
    with its own, speed-normalised count of the time it spent.  Earlier
    results are dropped (and ``dispose``d) before the next one is built
    so peak memory stays that of one deployment."""
    times = []
    result = None
    for _ in range(SETUP_REPEATS):
        if result is not None:
            if dispose is not None:
                dispose(result[0])
            result = None
            gc.collect()
        result = make()
        times.append(result[1])
    outcome.notes.append("set-ups took " + ", ".join(f"{t:.3f}" for t in times) + " s; setup_s is their median")
    return result[0], statistics.median(times)


def note_speed(meter: Speedometer, spans: list[tuple[float, float]], outcome: Outcome) -> None:
    """Say what the normalisation did to the ``(start, end)`` units given."""
    slowdowns = [meter.slowdown(start, end) for start, end in spans]
    raw = statistics.median(end - start for start, end in spans) * 1000.0
    outcome.layers["bench.slowdown"] = statistics.median(slowdowns)
    outcome.notes.append(
        f"speed: machine slowdown over the units, median {statistics.median(slowdowns):.4f} "
        f"(min {min(slowdowns):.4f}, max {max(slowdowns):.4f}); every end-to-end time is measured / slowdown; "
        f"median unit as measured {raw:.4f} ms"
    )


def traced_unit(index: int) -> bool:
    """Units are traced in alternating pairs (0,1 on; 2,3 off; ...), so
    both halves see the same drift and the same share of the work that
    only happens every other unit; their ratio is the tracing overhead."""
    return index % 4 < 2


def fold_trace(tracer: Tracer, unit_walls: list[float], outcome: Outcome) -> dict[str, float]:
    """Per-layer self times (mean ms per traced unit), the residual,
    and the two trace checks.

    ``unit_walls`` are the measured walls of the traced units; the
    top-level spans must account for them to within 10%.
    """
    units = len(unit_walls)
    self_s, counts = tracer.self_times()
    layers = {metric: 0.0 for metric in SPAN_METRICS.values()}
    for name, seconds in self_s.items():
        metric = SPAN_METRICS.get(name)
        if metric is not None:
            layers[metric] += seconds * 1000.0 / units
    layers["tsdb.promql.queries"] = counts.get("tsdb.promql", 0) / units
    wall = sum(unit_walls)
    residual = (wall - tracer.top_level_seconds()) / wall
    layers["bench.residual_ratio"] = residual
    layers["bench.rss_end_mb"] = rss_mb()
    outcome.check("residual_within_10pct", abs(residual) <= 0.10, f"{residual:.4f}")
    problems = tracer.check_tree()
    outcome.check("span_tree_well_formed", not problems, "; ".join(problems[:3]))
    return layers
