"""Command-line interface: ``python -m repro <command>``.

Commands:

``simulate``
    Build a deployment (small or Jean-Zay topology), run N hours of
    cluster life and print the operator report (stats, top consumers,
    per-class power).
``serve``
    Run a simulation, then expose the three HTTP services (Prometheus
    API via the LB, the CEEMS API server, one exporter) on real local
    ports until interrupted — for poking at the stack with curl.
``dashboards``
    Export the Grafana dashboard provisioning bundle as JSON.
``validate-config``
    Parse and validate a stack YAML configuration file.
``persist-info``
    Inspect a ``--persist-dir`` directory: WAL replay outcome, block
    inventory, chunk compression — proof a killed run lost nothing
    beyond the unflushed tail.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.cluster import StackSimulation, jean_zay_topology, small_topology
from repro.cluster.simulation import SimulationConfig
from repro.common.config import StackConfig
from repro.common.errors import ConfigError
from repro.common.units import format_co2, format_energy


#: ``SimulationConfig`` fields exposed on ``simulate`` / ``serve``, with
#: their help text.  Each becomes ``--kebab-name`` with the field's type
#: and default (``store_true`` for a bool); nothing else is declared here.
SIM_FLAGS = {
    "seed": "seed for node hardware, workload and emission providers",
    "persist_dir": "durable storage root (WAL + blocks); reopening resumes the run",
    "slow_query_ms": "slow-query log threshold in ms (0 logs every query, <0 disables)",
    "query_log": "JSONL file receiving slow-query log entries",
    "active_query_journal": "base path for the crash-surviving active-query journals (one file per backend)",
    "alert_interval": "alerting rule evaluation cadence in seconds (<=0 disables live alert evaluation)",
    "probe_interval": "blackbox prober cadence in seconds (<=0 disables probing)",
    "notify_log": "JSONL file receiving grouped Alertmanager notifications",
    "trace_sample_rate": "tail-sampling keep probability for fast, successful spans (errors and slow ones are kept)",
    "trace_keep_slow_ms": "spans at least this slow (ms) are always retained by the tail sampler",
    "frontend": "put the query frontend (splitting, results cache, coalescing, admission) between LB and backends",
    "max_query_range": "reject range queries spanning more seconds than this with a structured 422 (0 = unlimited)",
    "max_query_steps": "reject range queries (and subquery grids) of more steps than this with a 422 (0 = unlimited)",
    "max_query_length": "reject queries longer than this many characters with a structured 422 (0 = unlimited)",
}


def add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", choices=("small", "jean-zay"), default="small")
    p.add_argument("--scale", type=float, default=0.01, help="Jean-Zay scale factor")
    p.add_argument("--hours", type=float, default=1.0)
    fields = {f.name: f for f in dataclasses.fields(SimulationConfig)}
    for name, text in SIM_FLAGS.items():
        default = fields[name].default
        flag = "--" + name.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, action="store_true", help=text)
        else:
            p.add_argument(flag, type=type(default), default=default, help=text)


def _build_sim(args: argparse.Namespace) -> StackSimulation:
    if args.topology == "jean-zay":
        topology = jean_zay_topology(scale=args.scale)
    else:
        topology = small_topology(cpu_nodes=3, gpu_nodes=1)
    flags = {name: getattr(args, name) for name in SIM_FLAGS}
    return StackSimulation(topology, SimulationConfig(update_interval=600.0, **flags))


def _print_report(sim: StackSimulation, out) -> None:
    stats = sim.stats()
    print("deployment:", file=out)
    for key in ("nodes", "gpus", "tsdb_series", "tsdb_samples"):
        print(f"  {key}: {stats[key]:.0f}", file=out)
    print("jobs:", file=out)
    for key in ("jobs_submitted", "jobs_completed", "jobs_running"):
        print(f"  {key}: {stats[key]:.0f}", file=out)
    admin = sim.ceems_datasource("admin")
    print("top consumers:", file=out)
    for row in admin.global_usage()[:5]:
        print(
            f"  {row['user']:<10} {row['project']:<11} {row['num_units']:>4} units  "
            f"{format_energy(row['total_energy_joules']):>12}  "
            f"{format_co2(row['total_emissions_g']):>12}",
            file=out,
        )
    result = sim.engine.query("sum by (nodegroup) (ceems:node:power_watts)", at=sim.now)
    if result.vector:
        print("node power by class:", file=out)
        for el in sorted(result.vector, key=lambda e: -e.value):
            print(f"  {el.labels.get('nodegroup'):<16} {el.value / 1000:8.2f} kW", file=out)


def cmd_simulate(args: argparse.Namespace, out=sys.stdout) -> int:
    sim = _build_sim(args)
    if args.persist_dir:
        head = sim.hot_tsdb
        if head.replay_result.records:
            print(
                f"recovered {head.replayed_samples} samples from "
                f"{head.replay_result.records} WAL records"
                + (" (stopped at torn frame)" if head.replay_result.torn else "")
                + f"; resuming at t={sim.now:.0f}",
                file=out,
            )
    print(f"simulating {args.hours:.1f} h on topology '{args.topology}'...", file=out)
    sim.run(args.hours * 3600.0)
    _print_report(sim, out)
    if args.persist_dir:
        sim.hot_tsdb.close()
        print(f"state persisted under {args.persist_dir}", file=out)
    return 0


def cmd_serve(args: argparse.Namespace, out=sys.stdout) -> int:
    from repro.common.httpx import serve_threading

    sim = _build_sim(args)
    sim.run(args.hours * 3600.0)
    servers = [
        ("prometheus (via LB)", serve_threading(sim.lb.app, port=args.port or 0)),
        ("ceems api server", serve_threading(sim.api_server.app, port=0)),
        ("exporter (node 0)", serve_threading(sim.exporters[0].app, port=0)),
    ]
    for name, server in servers:
        print(f"{name}: {server.url}", file=out)
    print("press Ctrl-C to stop", file=out)
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        for _name, server in servers:
            server.close()
    return 0


def cmd_dashboards(args: argparse.Namespace, out=sys.stdout) -> int:
    from repro.dashboard.grafana_json import export_provisioning_bundle

    bundle = export_provisioning_bundle()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(bundle)
        print(f"wrote {args.output}", file=out)
    else:
        print(bundle, file=out)
    return 0


#: Default location of the checked-in rules artifact (relative to the
#: repo root; ``export-rules --check`` compares against it).
DEFAULT_RULES_PATH = "etc/prometheus-rules.yml"


def generate_rules_text() -> str:
    """The canonical Prometheus rules file: Eq. (1) recording groups,
    SLO burn-rate series, the CEEMS alert pack and SLO burn alerts."""
    from repro.energy import standard_rule_groups
    from repro.energy.export import alerting_rules_to_dict, rules_file
    from repro.obs.slo import slo_alert_group, slo_recording_group, standard_slos
    from repro.tsdb.alerts import ceems_alert_rules

    slos = standard_slos()
    slo_alerts = slo_alert_group(slos)
    return rules_file(
        standard_rule_groups() + [slo_recording_group(slos)],
        alert_groups=[
            alerting_rules_to_dict("ceems-alerts", ceems_alert_rules()),
            alerting_rules_to_dict(
                slo_alerts.name, slo_alerts.rules, interval=slo_alerts.interval
            ),
        ],
    )


def cmd_export_rules(args: argparse.Namespace, out=sys.stdout) -> int:
    """Write the recording+alerting rules as a Prometheus rules file.

    The artifact the paper points to ("example recording rules … in
    the etc/prometheus folder"), generated from the executable rule
    library so it cannot drift.  ``--check`` compares the generated
    text against the checked-in file and exits 1 on drift (CI guard).
    """
    text = generate_rules_text()
    if getattr(args, "check", False):
        path = args.output or DEFAULT_RULES_PATH
        try:
            with open(path, encoding="utf-8") as fh:
                on_disk = fh.read()
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=out)
            return 1
        if on_disk != text:
            print(
                f"{path} has drifted from the rule library; "
                "regenerate with: repro export-rules --output " + path,
                file=out,
            )
            return 1
        print(f"{path} matches the rule library", file=out)
        return 0
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=out)
    else:
        print(text, file=out)
    return 0


def cmd_persist_info(args: argparse.Namespace, out=sys.stdout) -> int:
    """Inspect a persisted storage directory without running anything.

    Opens the head (replaying its WAL) and the block store, then prints
    what survived — the quickstart's proof that a killed simulation
    lost nothing beyond the unflushed tail.  Opening the store is not
    read-only: it deletes the source blocks left behind by a compaction
    killed after writing its merged block.
    """
    import os

    from repro.thanos.store import ObjectStore
    from repro.tsdb.persist import PersistentTSDB

    hot_dir = os.path.join(args.path, "hot")
    store_dir = os.path.join(args.path, "store")
    if not os.path.isdir(hot_dir) and not os.path.isdir(store_dir):
        print(f"no persisted state under {args.path}", file=out)
        return 1
    head = PersistentTSDB(hot_dir)
    replay = head.replay_result
    print("head:", file=out)
    print(f"  wal records replayed: {replay.records}", file=out)
    print(f"  wal segments: {replay.segments}  torn: {'yes' if replay.torn else 'no'}", file=out)
    print(f"  series recovered: {head.num_series}", file=out)
    print(f"  samples recovered: {head.num_samples}", file=out)
    print(f"  samples dropped at replay: {head.replay_dropped}", file=out)
    if head.replayed_samples:
        print(f"  wal bytes per recovered sample: {replay.bytes_read / head.replayed_samples:.2f}", file=out)
    head.close()
    store = ObjectStore(persist_dir=store_dir)
    print("store:", file=out)
    print(f"  blocks: {len(store.blocks)}", file=out)
    for resolution in ("raw", "5m", "1h"):
        blocks = store.blocks_at(resolution)
        if blocks:
            print(
                f"  {resolution}: {len(blocks)} blocks, "
                f"{sum(b.num_samples for b in blocks)} samples, "
                f"span [{min(b.min_time for b in blocks):.0f}, "
                f"{max(b.max_time for b in blocks):.0f})",
                file=out,
            )
    from repro.tsdb.persist import list_block_ulids, read_meta

    raw_bytes = encoded_bytes = 0
    for ulid in list_block_ulids(store_dir):
        codec = read_meta(store_dir, ulid).get("codec", {})
        raw_bytes += codec.get("rawBytes", 0)
        encoded_bytes += codec.get("encodedBytes", 0)
    if encoded_bytes:
        print(
            f"  chunk bytes: {encoded_bytes} "
            f"({raw_bytes / encoded_bytes:.2f}x compression vs raw float64)",
            file=out,
        )
    return 0


def cmd_validate_config(args: argparse.Namespace, out=sys.stdout) -> int:
    try:
        config = StackConfig.load_file(args.path)
    except (ConfigError, OSError) as exc:
        print(f"invalid: {exc}", file=out)
        return 1
    print(f"ok: {args.path}", file=out)
    print(f"  exporter port {config.exporter.port}, collectors {list(config.exporter.collectors)}", file=out)
    print(f"  scrape interval {config.tsdb.scrape_interval:.0f}s, retention {config.tsdb.retention / 86400:.0f}d", file=out)
    print(f"  lb strategy {config.lb.strategy}, authz {config.lb.authz_mode}", file=out)
    print(f"  emissions zone {config.emissions.country}, providers {list(config.emissions.providers)}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a deployment and print the operator report")
    add_sim_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_serve = sub.add_parser("serve", help="expose the stack over local HTTP")
    add_sim_args(p_serve)
    p_serve.add_argument("--port", type=int, default=0, help="LB port (0 = ephemeral)")
    p_serve.set_defaults(func=cmd_serve)

    p_dash = sub.add_parser("dashboards", help="export Grafana dashboard JSON")
    p_dash.add_argument("--output", default="", help="file path (default: stdout)")
    p_dash.set_defaults(func=cmd_dashboards)

    p_rules = sub.add_parser("export-rules", help="export the Prometheus rules file")
    p_rules.add_argument("--output", default="", help="file path (default: stdout)")
    p_rules.add_argument(
        "--check",
        action="store_true",
        help=f"exit 1 if the file (--output or {DEFAULT_RULES_PATH}) "
        "has drifted from the rule library",
    )
    p_rules.set_defaults(func=cmd_export_rules)

    p_cfg = sub.add_parser("validate-config", help="validate a stack YAML config")
    p_cfg.add_argument("path")
    p_cfg.set_defaults(func=cmd_validate_config)

    p_info = sub.add_parser("persist-info", help="inspect a durable storage directory")
    p_info.add_argument("path")
    p_info.set_defaults(func=cmd_persist_info)

    return parser


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args, out=out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
