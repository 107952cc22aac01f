"""Smoke and unit tests of the pipeline benchmark.

Not part of tier-1 (``testpaths = ["tests"]``); run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The ``--quick`` passes drive the real command the way the driver does
(one tenth length, no bounds) and check the result schema against
``BENCHMARK.json``; the unit tests pin the rules the numbers rest on.
"""

from __future__ import annotations

import json
import os
import subprocess
import time

import pytest

from benchmarks.e2e import dash, deploy, harness, stats
from benchmarks.e2e.trace import Tracer, callback_layer, tracing_clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# -- the command, as the driver runs it ----------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_pass(workload, trace):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace), "--quick",
    ]  # fmt: skip
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # "correct" folds in every check the run printed: byte-equality
    # with the direct LB, durability, span-tree well-formedness and the
    # <= 10% residual of a traced run.
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        assert abs(result["metrics"]["bench.residual_ratio"]["value"]) <= 0.10


def test_benchmark_json_matches_the_ledger():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(harness.PER_LAYER)
    assert set(harness.SPAN_METRICS.values()) <= {name for name, _u, _b in harness.PER_LAYER}
    setup = SPEC["end_to_end"][0]
    assert setup["name"] == "setup_s" and setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# -- the percentile rule -------------------------------------------------


def test_tail_quantile_keeps_ten_samples_beyond():
    assert stats.tail_quantile(20) == 0.5  # nothing above the median is supported
    assert stats.tail_quantile(42) == 0.76
    assert stats.tail_quantile(66) == 0.84
    assert stats.tail_quantile(200) == 0.95
    assert stats.tail_quantile(10**6) == 0.99  # capped
    assert stats.tail_quantile(200, cap=0.90) == 0.90
    for n in (25, 90, 480):
        q = stats.tail_quantile(n)
        assert n * (1 - q) >= stats.TAIL_SAMPLES > n * (1 - q - 0.01) - 1e-9


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 1.0) == 4.0
    assert stats.percentile(values, 0.5) == 2.5
    assert stats.tail([float(i) for i in range(101)]) == (0.9, 90.0)


def test_iqr_spread_is_the_drivers_formula():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_spread(values) == (q3 - q1) / statistics.median(values)


# -- open loop: latency from the due time --------------------------------


class _StallingApp:
    """Answers instantly, except one request that stalls."""

    def __init__(self, stall_on: int, stall: float) -> None:
        self.calls = 0
        self.stall_on = stall_on
        self.stall = stall

    def handle(self, request):
        self.calls += 1
        if self.calls == self.stall_on:
            time.sleep(self.stall)
        return None


def test_stall_surfaces_in_latency_from_due_time():
    app = _StallingApp(stall_on=3, stall=0.2)
    visits = [dash.Visit([dash.Call("lb", app, "/x", "u")], offset=i * 0.02) for i in range(12)]
    lateness = dash.open_loop(visits, None, 0)
    latency = dash.latencies_ms(visits)
    service = [v.service * 1000.0 for v in visits]
    # The stalled visit, and the ones due while it ran, all waited ...
    assert latency[2] >= 200.0
    assert latency[3] >= 200.0 - 20.0 and latency[6] >= 200.0 - 4 * 20.0
    # ... though only one of them was slow to serve: timing from the
    # send instead of the due time would have hidden the rest.
    assert sum(s >= 100.0 for s in service) == 1
    assert latency[-1] < 50.0  # the queue drained
    # Queueing behind the stall is the system's lateness, not the generator's.
    assert max(lateness) < 0.01


# -- spans ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.002)
        with tracer.span("inner"):
            with tracer.span("leaf"):
                time.sleep(0.002)
        with tracer.span("inner"):
            time.sleep(0.001)
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span[4] - span[3])
    self_s, counts = tracer.self_times()
    assert counts == {"outer": 1, "inner": 2, "leaf": 1}
    assert self_s["leaf"] == pytest.approx(by_name["leaf"][0])
    assert self_s["inner"] == pytest.approx(sum(by_name["inner"]) - by_name["leaf"][0])
    assert self_s["outer"] == pytest.approx(by_name["outer"][0] - sum(by_name["inner"]))
    assert sum(self_s.values()) == pytest.approx(tracer.top_level_seconds())
    assert tracer.check_tree() == []


class _Layer:
    def work(self, x):
        return x + 1


def test_wrap_records_children_and_unwrap_restores():
    tracer = Tracer()
    obj = _Layer()
    seen = []
    # Class first: the instance wrapper then binds the patched method,
    # so a call through the instance crosses both boundaries.
    tracer.wrap(_Layer, "work", "layer.class")
    tracer.wrap(obj, "work", "layer", after=lambda args, result: seen.append((args, result)))
    with tracer.span("top"):
        assert obj.work(1) == 2
    tracer.enabled = False
    assert obj.work(2) == 3  # passes through, still counted by the hook
    assert [s[2] for s in tracer.spans] == ["top", "layer", "layer.class"]
    assert [s[1] for s in tracer.spans] == [-1, 0, 1]
    assert seen == [((1,), 2), ((2,), 3)]
    tracer.unwrap_all()
    assert "work" not in vars(obj) and _Layer.work.__qualname__ == "_Layer.work"


class Sidecar:
    """Named like the real one: callbacks are named by owning class."""

    def upload(self, now):
        pass

    def register(self, clock):
        clock.every(10.0, lambda now: self.upload(now))


def test_clock_names_callbacks_by_owner():
    tracer = Tracer()
    clock = tracing_clock(tracer)(start=0.0)
    Sidecar().register(clock)
    clock.every(10.0, Sidecar().upload)
    tracer.unit = 5
    clock.advance(10.0)
    assert [(s[1], s[2], s[5]) for s in tracer.spans] == [(-1, "thanos.sidecar", 5)] * 2
    assert callback_layer(print) == "other.print"


# -- inputs --------------------------------------------------------------


def _stream(seed):
    shape = deploy.Shape(0.01, 15.0, 30.0, 600.0, 30.0, backlog=20)
    return deploy.JobFeed(seed, 1000.0, 1800.0, shape).jobs


def test_job_stream_is_seeded_and_stratified():
    a, b, c = _stream(1), _stream(1), _stream(2)
    assert [(t, j.name, j.user, j.duration) for t, j in a] == [(t, j.name, j.user, j.duration) for t, j in b]
    assert [j.name for _t, j in a] != [j.name for _t, j in c]
    # Same count, same multiset of sizes and durations, whatever the seed.
    assert len(a) == len(c) == 80
    assert sorted(j.ncores for _t, j in a) == sorted(j.ncores for _t, j in c)
    assert sorted(round(j.duration, 6) for _t, j in a) == sorted(round(j.duration, 6) for _t, j in c)
    assert sum(t == 1000.0 for t, _j in a) == 20  # the backlog
