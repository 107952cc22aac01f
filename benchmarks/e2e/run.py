"""The one command: ``python3 benchmarks/e2e/run.py`` (or, with
``PYTHONPATH=src``, ``python -m benchmarks.e2e``).

With ``--workload`` it runs that workload once in this process, prints
every metric by name with its unit, the correctness checks and a
digest, and ends with the one-line JSON result ``BENCHMARK.json``'s
contract asks for (``--trace 0``: the end-to-end metrics, ``--trace
1``: the per-layer ones).  Without ``--workload`` it runs all four
workloads, untraced then traced, each in a child process so that
``peak_rss_mb`` is that workload's alone, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# The program is built from source in whatever checkout this file sits
# in: put its ``src`` and the checkout root (for ``benchmarks.e2e``) on
# the path.  In a directory holding only the benchmark, the imports
# below fail and the command exits non-zero without a result line.
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

WORKLOADS = ("ingest_mem", "ingest_durable", "dash_cold", "dash_live")
DEFAULT_SEED = 2024


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return int(json.load(fh)["run_seconds"])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import numpy

    from benchmarks.e2e import dash, harness, ingest
    from benchmarks.e2e.trace import Tracer

    runners = {
        "ingest_mem": ingest.run_mem,
        "ingest_durable": ingest.run_durable,
        "dash_cold": dash.run_cold,
        "dash_live": dash.run_live,
    }
    tracer = Tracer() if trace else None
    started = time.perf_counter()
    try:
        outcome = runners[name](seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    wall = time.perf_counter() - started

    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print(
        f"machine nproc {os.cpu_count()} python {platform.python_version()} "
        f"numpy {numpy.__version__} wall {wall:.2f} s"
    )
    for note in outcome.notes:
        print(note)
    if trace:
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        path = os.path.join(harness.OUT_DIR, f"trace-{name}.json")
        tracer.dump(path, {"workload": name, "seed": seed, "seconds": seconds})
        print(f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
        metrics = {
            m: {"value": float(outcome.layers.get(m, 0.0)), "unit": unit} for m, unit, _better in harness.PER_LAYER
        }
    else:
        metrics = {
            m: {"value": float(outcome.end_to_end[m]), "unit": unit} for m, unit, *_rest in harness.END_TO_END
        }
    for metric, entry in metrics.items():
        print(f"  {metric:42s} {entry['value']:16.4f} {entry['unit']}")
    ratio = outcome.failed / outcome.attempted
    print(f"  {'failed_ops_ratio':42s} {ratio:16.6f} ratio ({outcome.failed} of {outcome.attempted})")
    correct = not outcome.problems and outcome.failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}
        )
    )
    return 0


def spawn(name: str, seed: int, seconds: float, trace: int) -> tuple[subprocess.CompletedProcess, float]:
    """One workload run in a child process, the way the driver runs it."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]  # fmt: skip
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    return done, time.perf_counter() - started


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, one child process each."""
    results = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done, wall = spawn(name, seed, seconds, trace)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                status = 1
                print(f"== {name} trace {trace}: exit {done.returncode}\n{done.stdout}{done.stderr}")
                continue
            result = json.loads(lines[-1])
            results[(name, trace)] = result
            print(f"== {name} trace {trace}: {wall:.1f} s wall, correct {result['correct']}, "
                  f"failed {result['failed']} of {result['attempted']}")  # fmt: skip
            status |= not result["correct"]
            for line in lines[:-1]:
                if line.startswith(("check", "digest", "op =", "bench.ladder", "generator", "ops_", "recovery", "speed")):
                    print("   " + line)
    for trace, title in ((0, "end to end (untraced runs)"), (1, "per layer (traced runs)")):
        print(f"\n{title}")
        print(f"  {'metric':42s} {'unit':6s} " + " ".join(f"{w:>15s}" for w in WORKLOADS))
        rows = next((r["metrics"] for (_n, t), r in results.items() if t == trace), {})
        for metric, entry in rows.items():
            cells = []
            for name in WORKLOADS:
                value = results.get((name, trace), {}).get("metrics", {}).get(metric, {}).get("value")
                cells.append(f"{value:15.4f}" if value is not None else f"{'-':>15s}")
            print(f"  {metric:42s} {entry['unit']:6s} " + " ".join(cells))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload in this process (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="one tenth length: a smoke run, not a measurement")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else float(run_seconds())
    if args.quick:
        seconds /= 10.0
    if args.workload is None:
        return run_all(args.seed, seconds)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
