"""How steady is the benchmark?  ``python3 benchmarks/e2e/steadiness.py``

Runs every workload ``--runs`` times, each run with another seed, in
``--sets`` independent sets, and reports for each end-to-end metric the
driver's own acceptance measures: the inter-quartile spread of a set as
a share of its median (to stay under the metric's bound, target a
third of it) and how far the second set's median moved from the
first's.  ``--write`` stores the numbers in ``baseline.json`` beside
this file — the first point of the trajectory later changes are
compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, ROOT)

from benchmarks.e2e.run import spawn  # noqa: E402
from benchmarks.e2e.stats import iqr_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float, str]:
    done, wall = spawn(workload, seed, seconds, 0)
    done.check_returncode()
    lines = done.stdout.strip().splitlines()
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), "")
    return json.loads(lines[-1]), wall, digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2024, help="first seed of the first set")
    parser.add_argument("--workload", action="append", help="restrict to these workloads")
    parser.add_argument("--write", action="store_true", help="store the result in baseline.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    report: dict = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__},
        "run_seconds": seconds,
        "runs_per_set": args.runs,
        "first_seed": args.seed,
        "workloads": {},
    }
    worst = 0.0
    for workload in workloads:
        sets: list[dict[str, list[float]]] = []
        walls: list[float] = []
        incorrect = 0
        digests: dict[int, set[str]] = {}
        for set_index in range(args.sets):
            values: dict[str, list[float]] = {name: [] for name in bounds}
            for run in range(args.runs):
                # Every set uses the same seeds, so digests of a seed
                # can be compared across sets.
                seed = args.seed + run
                result, wall, digest = run_once(workload, seed, seconds)
                walls.append(wall)
                incorrect += not result["correct"]
                digests.setdefault(seed, set()).add(digest)
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        print(f"\n{workload}: {len(walls)} runs, wall median {statistics.median(walls):.1f} s "
              f"max {max(walls):.1f} s, incorrect {incorrect}, "
              f"seeds with one digest {sum(len(d) == 1 for d in digests.values())}/{len(digests)}")  # fmt: skip
        entry = report["workloads"][workload] = {
            "wall_median_s": statistics.median(walls),
            "incorrect_runs": incorrect,
            "digests_repeat": all(len(d) == 1 for d in digests.values()),
            "metrics": {},
        }
        for name, meta in bounds.items():
            medians = [statistics.median(values[name]) for values in sets]
            spreads = [iqr_spread(values[name]) for values in sets]
            shift = 0.0
            if len(medians) > 1:
                shift = (medians[1] - medians[0]) / medians[0]
                if meta["better"] == "higher":
                    shift = -shift
            share = max(spreads) / meta["bound"]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:14s} median {medians[0]:12.4f} {meta['unit']:4s} "
                  f"spread {' '.join(f'{s:6.2%}' for s in spreads)} of bound {meta['bound']:.0%} "
                  f"(worst {share:4.2f} of it), set-to-set worsening {shift:+6.2%}")  # fmt: skip
            entry["metrics"][name] = {
                "unit": meta["unit"],
                "set_medians": medians,
                "set_iqr_spreads": spreads,
                "set_to_set_worsening": shift,
            }
    print(f"\nlargest spread / bound over gated metrics: {worst:.2f} (accepted below 1, target below 0.33)")
    if args.write:
        path = os.path.join(HERE, "baseline.json")
        if args.workload and os.path.exists(path):
            # A partial run replaces only the workloads it measured.
            with open(path) as fh:
                report["workloads"] = {**json.load(fh)["workloads"], **report["workloads"]}
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
