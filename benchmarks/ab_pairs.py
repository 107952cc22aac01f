"""Interleaved parent/change runs of the pipeline benchmark, and the verdict.

``python3 benchmarks/ab_pairs.py PARENT CHANGE --workload ingest_mem --pairs 10``

``PARENT`` and ``CHANGE`` are two checkouts of this repository.  Each
pair runs the command ``BENCHMARK.json`` declares (``benchmarks/e2e/
run.py --workload W --seed S --seconds T --trace 0``) once in either
checkout, the order alternating from pair to pair so that a machine
that drifts slower or faster charges both sides alike.  Per end-to-end
metric it prints both sides' medians and quartiles, how many pairs the
change won, and the verdict of the rule the repository lands
performance changes by (choosing-metrics §8, ``benchmarks/e2e/
README.md`` "Naming a claim"):

* **gain** — the change wins at least nine tenths of all pairs run
  (ties count for neither side), its median is better by more than the
  distance between the parent's own quartiles, and no larger share of
  its operations failed;
* **no worse** — otherwise, the change's median is within the bound
  ``BENCHMARK.json`` fixes for the metric;
* **unresolved** — but where either side's inter-quartile spread is
  wider than that bound the metric is unresolved, not unchanged,
  unless every run of the change reads better than every run of the
  parent;
* **worse** — the median is beyond the bound.

``--layers a,b,c`` asks where a difference sits instead: the same
interleaved pairs run with ``--trace 1`` and, per named per-layer
metric, both sides' medians are printed after dividing every run's
value, if it is a time, by its own ``bench.slowdown ** 0.7`` (traced
layer times are as measured, not speed-normalised like the end-to-end
ones; the exponent is the one PR 20's hand arithmetic settled on).  Beside them, the
counts a performance change must leave alone — samples scraped, series
held, rule samples out, PromQL queries, exporter bodies rendered, LB
requests, frontend sub-queries — and the printed digest, each
``identical`` or ``differs`` over every run of both sides; and, where
every run of both sides reports it, the share of exporter bodies served
by refilling the previous one.  A bare ``--layers`` on a ``dash_*``
workload names the serving layers (``SERVING_LAYERS``) itself.

This file reads the benchmark's result line and ``BENCHMARK.json``; it
imports nothing from ``benchmarks/e2e`` or from the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass

#: Share of all pairs run the change must win before a gain is claimed.
WIN_SHARE = 0.9

#: Traced layer times are divided by ``bench.slowdown`` to this power.
SPEED_EXPONENT = 0.7

#: Per-unit counts of a traced run that must not move between parent
#: and change: they feed ``work_per_s`` and the digest.
IDENTITY_COUNTS = (
    "tsdb.scrape.samples",
    "tsdb.storage.series",
    "tsdb.rules.samples_out",
    "tsdb.promql.queries",
    # a cheaper exporter must not mean fewer bodies
    "exporter.renders",
    # nor a cheaper serving path fewer requests or evaluations
    "lb.requests",
    "frontend.subqueries",
)

#: What a bare ``--layers`` prints on a ``dash_*`` workload: the layers
#: a read request crosses.
SERVING_LAYERS = (
    "tsdb.promql.eval_ms",
    "tsdb.storage.select_ms",
    "tsdb.http.self_ms",
    "lb.self_ms",
    "frontend.self_ms",
    "apiserver.api_ms",
)

#: Share of exporter bodies a ``Body`` refilled rather than rebuilt.  No
#: benchmark line carries it yet (``benchmarks/e2e`` is not this file's
#: to change); shown once both sides do.
REFILL_RATIO = "exporter.refill_ratio"


@dataclass
class Verdict:
    """One metric on one workload, parent against change."""

    verdict: str  # "gain" | "no worse" | "unresolved" | "worse"
    parent_median: float
    change_median: float
    parent_quartiles: tuple[float, float]
    change_quartiles: tuple[float, float]
    wins: int
    #: Change median over parent median, minus one, signed so that
    #: positive is better whichever way the metric points.
    gain: float


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float,
    *,
    more_failures: bool = False,
) -> Verdict:
    """The decision rule, on the paired values of one metric.

    ``parent[i]`` and ``change[i]`` come from the same pair; ``better``
    is ``"lower"`` or ``"higher"``; ``bound`` is the share of the
    parent's median the metric may worsen by.  ``more_failures`` says a
    larger share of the change's operations failed, which voids a gain.
    """
    if not parent or len(parent) != len(change):
        raise ValueError("need the same, non-zero number of runs on both sides")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = _quartiles(parent), _quartiles(change)
    ahead = sign * (c_med - p_med)  # > 0: the change's median is better
    base = abs(p_med)
    if wins >= WIN_SHARE * len(parent) and ahead > p_q[1] - p_q[0] and not more_failures:
        verdict = "gain"
    else:
        spread = max((p_q[1] - p_q[0]) / base, (c_q[1] - c_q[0]) / abs(c_med)) if base and c_med else 0.0
        separated = min(sign * c for c in change) > max(sign * p for p in parent)
        if -ahead > bound * base:
            verdict = "worse"
        elif spread > bound and not separated:
            verdict = "unresolved"
        else:
            verdict = "no worse"
    return Verdict(verdict, p_med, c_med, p_q, c_q, wins, ahead / base if base else 0.0)


def normalised_layer(result: dict, name: str) -> float:
    """One run's per-layer value; a time, at calibration speed (counts
    and ratios do not depend on the machine's speed and stay as read)."""
    metrics = result["metrics"]
    if metrics[name].get("unit") not in ("ms", "s"):
        return metrics[name]["value"]
    return metrics[name]["value"] / metrics["bench.slowdown"]["value"] ** SPEED_EXPONENT


def layer_medians(runs: dict[str, list[dict]], names: list[str]) -> dict[str, tuple[float, float]]:
    """Per named layer metric: (parent median, change median) of the
    speed-normalised values."""
    return {
        name: tuple(statistics.median(normalised_layer(r, name) for r in runs[side]) for side in ("parent", "change"))
        for name in names
    }


def identity_check(runs: dict[str, list[dict]], names=IDENTITY_COUNTS) -> dict[str, tuple[str, list]]:
    """Per count (and the digest, where runs carry one): ``identical``
    when every run of both sides printed the same value, else
    ``differs``; with the distinct values seen."""
    everything = runs["parent"] + runs["change"]
    seen = {name: sorted({r["metrics"][name]["value"] for r in everything}) for name in names}
    if all("digest" in r for r in everything):
        seen["digest"] = sorted({r["digest"] for r in everything})
    return {name: ("identical" if len(values) == 1 else "differs", values) for name, values in seen.items()}


def refill_shares(runs: dict[str, list[dict]]) -> tuple[float, float] | None:
    """(parent median, change median) of the per-body refill share, or
    ``None`` unless every run of both sides reports one."""
    if not all(REFILL_RATIO in r["metrics"] for side in ("parent", "change") for r in runs[side]):
        return None
    return tuple(statistics.median(r["metrics"][REFILL_RATIO]["value"] for r in runs[side]) for side in ("parent", "change"))


def layer_names(given: str | None, workload: str) -> list[str]:
    """The per-layer metrics ``--layers`` asks for: none without the
    option, those listed, or — given bare — the serving default."""
    if given is None:
        if not workload.startswith("dash_"):
            raise SystemExit(f"--layers needs a list of metrics on {workload}: only dash_* has a default")
        return list(SERVING_LAYERS)
    return [name for name in given.split(",") if name]


def run_once(checkout: str, command: list[str], workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One benchmark process in ``checkout``; its result line, parsed,
    with the digest it printed on the way."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("digest "):
            result["digest"] = line.split()[1]
    return result


def print_layers(runs: dict[str, list[dict]], names: list[str]) -> None:
    print(f"{'layer metric':38s} {'parent':>12s} {'change':>12s} {'change':>8s}   (medians; times / slowdown^{SPEED_EXPONENT})")
    total = [0.0, 0.0]
    for name, (p_med, c_med) in layer_medians(runs, names).items():
        if name.endswith("_ms"):
            total[0] += p_med
            total[1] += c_med
        print(f"{name:38s} {p_med:12.4f} {c_med:12.4f} {(c_med - p_med) / p_med if p_med else 0.0:+8.1%}")
    print(f"{'sum of the _ms rows':38s} {total[0]:12.4f} {total[1]:12.4f} {total[1] - total[0]:+8.2f}")
    for name, (verdict, values) in identity_check(runs).items():
        print(f"{name:38s} {verdict:10s} {', '.join(str(v) for v in values)}")
    shares = refill_shares(runs)
    if shares is not None:
        print(f"{REFILL_RATIO:38s} {shares[0]:12.4f} {shares[1]:12.4f}   (medians; share of bodies refilled)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--json", default="", help="also write every run's result line to this file")
    parser.add_argument(
        "--layers",
        nargs="?",
        default="",
        help="comma-separated per-layer metrics: run traced and print these instead (bare on dash_*: the serving layers)",
    )
    args = parser.parse_args(argv)
    layers = layer_names(args.layers, args.workload)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    command, seconds = declared["command"], int(declared["run_seconds"])
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], command, args.workload, args.seed, seconds, trace=int(bool(layers)))
            runs[side].append(result)
            shown = layers + ["bench.slowdown"] if layers else [m["name"] for m in declared["end_to_end"]]
            cells = " ".join(f"{name}={result['metrics'][name]['value']:.4g}" for name in shown)
            print(f"pair {pair + 1:2d} {side:6s} correct={result['correct']} failed={result['failed']} {cells}", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": seconds, **runs}, fh, indent=1)

    def failed_share(side: str) -> float:
        return sum(r["failed"] for r in runs[side]) / max(1, sum(r["attempted"] for r in runs[side]))

    more_failures = failed_share("change") > failed_share("parent")
    print(
        f"\n{args.workload} seed {args.seed}, {args.pairs} pairs at --seconds {seconds}; "
        f"failed share parent {failed_share('parent'):.6f} change {failed_share('change'):.6f}; "
        f"incorrect runs parent {sum(not r['correct'] for r in runs['parent'])} "
        f"change {sum(not r['correct'] for r in runs['change'])}"
    )
    if layers:
        print_layers(runs, layers)
        return 0
    print(f"{'metric':12s} {'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s} {'change':>8s} {'wins':>6s} {'bound':>6s}  verdict")
    for metric in declared["end_to_end"]:
        name = metric["name"]
        v = judge(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
            metric["better"],
            metric["bound"],
            more_failures=more_failures,
        )
        moved = v.gain if metric["better"] == "higher" else -v.gain  # as the metric reads
        print(
            f"{name:12s} {v.parent_median:12.4f} [{v.parent_quartiles[0]:10.4f},{v.parent_quartiles[1]:10.4f}]"
            f" {v.change_median:12.4f} [{v.change_quartiles[0]:10.4f},{v.change_quartiles[1]:10.4f}]"
            f" {moved:+8.1%} {v.wins:3d}/{args.pairs:<2d} {metric['bound']:6.0%}  {v.verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
