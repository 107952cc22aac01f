"""Frontend against a frontend-less LB, over window lengths inside one split bucket.

``python3 benchmarks/frontend_sweep.py [CHECKOUT]``   (~5 min, one table)

Builds one ``dash_live``-shaped deployment of ``CHECKOUT`` (default:
the checkout this file sits in) with 13 h of history, then, per window
length, slides the window 30 s a round and asks every range panel of
the four longest-running jobs (``ceems-fig2c``) and every fleet-wide
range panel (``ceems-ops-alerting``, ``ceems-fig2a``) once through
``sim.lb.app`` (LB → frontend → backend) and once through a
``LoadBalancer`` with no frontend over the same backends, the order
alternating from round to round.  Every pair of answers must be
byte-equal.  Prints, per length and panel kind, the ms one refresh of
the kind's panels takes on either path (summed over the panels) and the
per-panel frontend / direct ratio (median, least and greatest over the
panels): the sum is what a dashboard pays and is led by its heaviest
panel, the ratios say which way most panels, and the extreme ones, go.
Whichever path asks second finds the backend's select memo warm, and a
heavy panel then costs a half to a third; each path goes first in half
the timed rounds, and a panel's cost on a path is the median of its
first asks and the median of its second asks, averaged — a plain median
would be the midpoint of two modes, a mean is carried off by one
stalled request in eight, and a median over pooled requests would sit
in the gap between cheap and expensive panels.  This is the evidence
ROADMAP item 2's keep-or-delete decision on the step cache starts from
(DESIGN.md "Which requests reach the step cache", EXPERIMENTS.md E19).

Nothing here runs in tier-1 or in ``benchmarks/e2e``; it borrows that
benchmark's deployment and panel helpers so the shape is the same.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STEP, SLIDE = 15.0, 30.0  # a slide of two steps keeps the grid phase, so the step cache's key
LENGTHS = (41, 121, 361, 721, 1441, 2881)  # steps; 2881 x 15 s = 12 h, inside the first day bucket
HOURS, ROUNDS, WARM = 13, 10, 2  # rounds per length, the first WARM untimed; each path goes first in half the rest


def main(root: str) -> None:
    # The program and the benchmark helpers are those of ``root``.
    sys.path[:0] = [root, os.path.join(root, "src")]
    from benchmarks.e2e import dash, deploy
    from repro.common.httpx import Request

    def timed(app, url: str, user: str):
        request = Request.from_url("GET", url, headers={dash.USER_HEADER: user})
        started = time.perf_counter()
        response = app.handle(request)
        return (time.perf_counter() - started) * 1000.0, response

    sim = deploy.build(2024, dash.DASH_SHAPE, (HOURS + 2) * 3600.0)
    for _hour in range(HOURS):
        sim.run(3600.0)
    reference = dash.direct_lb(sim)
    running = [u for u in dash.units_of(sim) if u["user"] != deploy.ADMIN and u["state"] == "running"]
    oldest = sorted(running, key=lambda u: u["started_at"])[:4]
    panels = {
        "job": [
            (u["user"], expr.replace("$job", u["uuid"]))
            for u in oldest
            for is_range, expr in dash.panel_queries("ceems-fig2c")
            if is_range
        ],
        "fleet": [
            (deploy.ADMIN, expr)
            for uid in ("ceems-ops-alerting", "ceems-fig2a")
            for is_range, expr in dash.panel_queries(uid)
            if is_range
        ],
    }
    print(
        f"{root}: {len(panels['job'])} job panels of {len(oldest)} jobs, {len(panels['fleet'])} fleet panels, "
        f"step {STEP:g} s, {ROUNDS - WARM} timed rounds a length"
    )
    head = "  ".join(f"{kind + ' fe':>9s} {kind + ' lb':>9s} {'fe/lb [min, max]':>18s}" for kind in panels)
    print(f"{'steps':>6s} {head}   (ms a refresh; per-panel ratio)")
    for steps in LENGTHS:
        sim.frontend.cache.clear()
        sim.frontend.memo.clear()
        ms: dict[tuple[str, str, str, bool], list[float]] = {}  # (kind, path, panel, asked first)
        for round_ in range(ROUNDS):
            sim.run(SLIDE)
            end = sim.now
            start = end - (steps - 1) * STEP
            sides = [("fe", sim.lb.app), ("lb", reference.app)]
            for kind, asked in panels.items():
                for user, expr in asked:
                    url = dash.panel_url(True, expr, start, end, STEP)
                    got = {}
                    for side, app in sides if round_ % 2 == 0 else reversed(sides):
                        took, got[side] = timed(app, url, user)
                        if round_ >= WARM:
                            ms.setdefault((kind, side, expr, len(got) == 1), []).append(took)
                    if got["fe"].status != 200 or got["fe"].body != got["lb"].body:
                        raise SystemExit(f"frontend and direct answers differ: {url}")
        cells = []
        for kind, asked in panels.items():
            fe, lb = (
                [statistics.fmean(statistics.median(ms[kind, side, expr, first]) for first in (True, False)) for _user, expr in asked]
                for side in ("fe", "lb")
            )
            ratios = sorted(f / d for f, d in zip(fe, lb))
            cells.append(f"{sum(fe):9.2f} {sum(lb):9.2f} {statistics.median(ratios):5.2f} [{ratios[0]:4.2f}, {ratios[-1]:4.2f}]")
        print(f"{steps:6d} {'  '.join(cells)}", flush=True)


if __name__ == "__main__":
    main(os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else HERE)
