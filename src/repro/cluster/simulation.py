"""Full-stack simulation assembly (the paper's Fig. 1, end to end).

One :class:`StackSimulation` wires, in dependency order:

  nodes → exporters (CEEMS + DCGM + emissions) → hot TSDB (scrape
  manager) → recording rules (Eq. 1 per node group) → Thanos
  (sidecar, compactor) → API server (SQLite, updater, HTTP API) →
  load balancer → data sources / dashboards

plus the SLURM resource manager and a workload generator feeding it.
Every periodic activity registers on one :class:`SimClock`, so
``sim.run(hours=…)`` advances the whole deployment deterministically.

Timer cadence defaults follow the deployment the paper describes:
15 s scrapes, 30 s rule evaluation, 15 min API-server updates, 1 h
sidecar uploads, 6 h compaction.  Node physics integrate on the
scrape cadence (``node_step``) — finer steps change nothing the
sensors can see.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.apiserver.api import APIServer
from repro.apiserver.backup import BackupManager, LitestreamReplicator
from repro.apiserver.cleanup import CardinalityCleaner
from repro.apiserver.db import Database
from repro.apiserver.updater import Updater
from repro.cluster.topology import NodeGroupSpec
from repro.common.clock import SimClock
from repro.common.config import ExporterConfig
from repro.dashboard.datasource import CEEMSDataSource, PrometheusDataSource
from repro.emissions import (
    ElectricityMapsProvider,
    OWIDProvider,
    ProviderRegistry,
    RTEProvider,
)
from repro.emissions.pipeline import EmissionsExporter
from repro.energy.estimator import UnitEnergyEstimator
from repro.energy.rules_library import emissions_rules, rules_for_group
from repro.exporter import CEEMSExporter, DCGMExporter
from repro.hwsim.node import SimulatedNode
from repro.lb.authz import DBAuthorizer
from repro.lb.server import LoadBalancer
from repro.lb.strategies import Backend
from repro.obs import TailSampler, Telemetry
from repro.obs.alertmanager import Alertmanager, InhibitRule, JSONLReceiver
from repro.obs.slo import slo_alert_group, slo_recording_group, standard_slos
from repro.resourcemgr.slurm import SlurmCluster
from repro.resourcemgr.workload import WorkloadGenerator, WorkloadMix
from repro.thanos import Compactor, FanoutStorage, ObjectStore, Sidecar
from repro.tsdb.alerts import AlertingRuleGroup, ceems_alert_rules
from repro.tsdb.http import PromAPI
from repro.tsdb.plan import QueryLimits
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.rules import RuleEvaluator
from repro.tsdb.scrape import ScrapeConfig, ScrapeManager, ScrapeTarget
from repro.tsdb.storage import TSDB

@dataclass
class SimulationConfig:
    """Cadences and sizes of the simulated deployment."""

    seed: int = 42
    start_time: float = SimClock.DEFAULT_START
    scrape_interval: float = 15.0
    rule_interval: float = 30.0
    node_step: float = 15.0
    slurm_step: float = 30.0
    update_interval: float = 900.0
    sidecar_interval: float = 3600.0
    compactor_interval: float = 6 * 3600.0
    hot_retention: float = 30 * 86400.0
    cleanup_cutoff: float = 0.0
    n_prom_backends: int = 2
    zone: str = "FR"
    cluster_name: str = "sim-cluster"
    lb_strategy: str = "round-robin"
    admin_users: tuple[str, ...] = ("admin",)
    with_workload: bool = True
    with_emissions_providers: tuple[str, ...] = ("rte", "electricity_maps", "owid")
    collectors: tuple[str, ...] = ("cgroup", "rapl", "ipmi", "node", "gpu_map", "self")
    #: Root directory for the durable storage engine ("" = in-memory).
    #: ``<dir>/hot`` holds the head WAL, ``<dir>/store`` the Thanos
    #: block directories.  Reopening a simulation on a populated
    #: directory replays the WAL, reloads the blocks and resumes
    #: logical time just after the last recovered sample.
    persist_dir: str = ""
    #: Slow-query threshold (ms) for every PromAPI backend; ``<0``
    #: disables the slow-query log, ``0`` records every query.
    slow_query_ms: float = 100.0
    #: JSONL sink for slow-query entries ("" = in-memory ring only).
    query_log: str = ""
    #: Base path for the crash-surviving active-query journals; each
    #: backend gets ``<base>.<name>`` (two backends cannot share one
    #: journal file).
    active_query_journal: str = ""
    #: Alerting rule evaluation cadence (``--alert-interval``); <=0
    #: adds no alerting groups.
    alert_interval: float = 60.0
    #: Blackbox prober cadence (``--probe-interval``); <=0 disables.
    probe_interval: float = 60.0
    #: JSONL sink for grouped Alertmanager notifications
    #: (``--notify-log``; "" keeps the in-memory log only).
    notify_log: str = ""
    #: Tail-sampling keep probability for fast, successful spans
    #: (``--trace-sample-rate``); 1.0 keeps everything.  Error and
    #: slow spans are always kept regardless.
    trace_sample_rate: float = 1.0
    #: Spans at least this slow (ms) are always retained by the tail
    #: sampler (``--trace-keep-slow-ms``).
    trace_keep_slow_ms: float = 250.0
    #: Put the query frontend — range splitting, step-aligned results
    #: cache, request coalescing, worker-pool admission — between the
    #: LB and the PromQL backends (``--frontend``).
    frontend: bool = False
    #: Query guardrails (``--max-query-range`` seconds /
    #: ``--max-query-steps`` / ``--max-query-length`` chars; 0
    #: disables a bound).  Enforced at the frontend *and* the direct
    #: PromAPI paths, answering structured 422s.
    max_query_range: float = 0.0
    max_query_steps: int = 0
    max_query_length: int = 8192

    @classmethod
    def from_stack_config(cls, stack, **overrides) -> "SimulationConfig":
        """Derive simulation cadences from a single-file StackConfig.

        This is the deployment story the paper describes: one YAML
        file configures every component; here it configures the whole
        simulated deployment.
        """
        providers = tuple(stack.emissions.providers)
        base = dict(
            scrape_interval=stack.tsdb.scrape_interval,
            node_step=stack.tsdb.scrape_interval,
            hot_retention=stack.tsdb.retention,
            persist_dir=stack.tsdb.persist_dir,
            update_interval=stack.api_server.update_interval,
            cleanup_cutoff=stack.api_server.cleanup_cutoff,
            lb_strategy=stack.lb.strategy,
            zone=stack.emissions.country,
            with_emissions_providers=providers,
            collectors=tuple(stack.exporter.collectors) + (
                ("self",) if "self" not in stack.exporter.collectors else ()
            ),
        )
        base.update(overrides)
        return cls(**base)


class StackSimulation:
    """The assembled stack.  Public attributes are the components."""

    def __init__(
        self,
        topology: list[NodeGroupSpec],
        config: SimulationConfig | None = None,
        workload: WorkloadMix | None = None,
    ) -> None:
        self.config = cfg = config or SimulationConfig()
        self.topology = topology

        # -- hot TSDB (durable head when persist_dir is set) ------------
        # Built before the clock: a reopened head replays its WAL, and
        # logical time resumes on the next scrape tick after the last
        # recovered sample so re-ingest never appends out of order.
        start_time = cfg.start_time
        if cfg.persist_dir:
            from repro.tsdb.persist import PersistentTSDB

            self.hot_tsdb: TSDB = PersistentTSDB(
                os.path.join(cfg.persist_dir, "hot"),
                retention=cfg.hot_retention,
                name="hot",
            )
            if self.hot_tsdb.max_time is not None:
                resumed = (
                    math.floor(self.hot_tsdb.max_time / cfg.scrape_interval) + 1
                ) * cfg.scrape_interval
                start_time = max(start_time, resumed)
        else:
            self.hot_tsdb = TSDB(retention=cfg.hot_retention, name="hot")
        self.hot_tsdb.telemetry = Telemetry("tsdb-hot")
        self.clock = SimClock(start=start_time)

        # -- nodes + exporters ------------------------------------------
        self.nodes: list[SimulatedNode] = []
        self.exporters: list[CEEMSExporter] = []
        self.gpu_exporters: list[DCGMExporter] = []
        partitions: dict[str, list[SimulatedNode]] = {}
        exporter_targets: list[ScrapeTarget] = []
        seed = cfg.seed
        for group in topology:
            for i in range(group.count):
                seed += 1
                node = SimulatedNode(group.node_spec(i), seed=seed)
                self.nodes.append(node)
                partitions.setdefault(group.partition, []).append(node)
                exporter = CEEMSExporter(
                    node, self.clock, ExporterConfig(collectors=cfg.collectors)
                )
                self.exporters.append(exporter)
                labels = {"hostname": node.spec.name, "nodegroup": group.nodegroup}
                exporter_targets.append(
                    ScrapeTarget(
                        app=exporter.app,
                        instance=f"{node.spec.name}:9010",
                        job="ceems",
                        group_labels=dict(labels),
                    )
                )
                if group.gpus:
                    dcgm = DCGMExporter(node, self.clock)
                    self.gpu_exporters.append(dcgm)
                    exporter_targets.append(
                        ScrapeTarget(
                            app=dcgm.app,
                            instance=f"{node.spec.name}:9400",
                            job="dcgm",
                            group_labels=dict(labels),
                        )
                    )

        # -- emissions ------------------------------------------------------
        self.emission_registry = ProviderRegistry()
        for provider_name in cfg.with_emissions_providers:
            if provider_name == "rte":
                self.emission_registry.register(RTEProvider(seed=cfg.seed))
            elif provider_name == "electricity_maps":
                self.emission_registry.register(ElectricityMapsProvider(seed=cfg.seed))
            elif provider_name == "owid":
                self.emission_registry.register(OWIDProvider(world_fallback=True))
        self.emissions_exporter = EmissionsExporter(
            self.emission_registry, cfg.zone, self.clock
        )
        exporter_targets.append(
            ScrapeTarget(
                app=self.emissions_exporter.app,
                instance="emissions:9020",
                job="emissions",
            )
        )

        # -- hot TSDB + scraping + rules -----------------------------------
        # Cadence-derived query parameters (real Prometheus deployment
        # rules): the instant lookback delta must exceed the scrape
        # interval, and rate() windows must hold >= ~4 samples.
        self.lookback = max(300.0, 2.5 * cfg.scrape_interval)
        from repro.common.units import format_duration

        self.rate_window = format_duration(max(120.0, 4.0 * cfg.scrape_interval))
        self.scrape_manager = ScrapeManager(
            self.hot_tsdb,
            ScrapeConfig(interval=cfg.scrape_interval),
            telemetry=Telemetry("scrape-manager"),
        )
        self.scrape_manager.add_targets(exporter_targets)
        # The rule evaluator runs recording AND alerting groups on the
        # sim clock.
        self.rule_evaluator = RuleEvaluator(self.hot_tsdb, lookback=self.lookback)
        seen_rule_groups = set()
        for group in topology:
            if group.nodegroup in seen_rule_groups:
                continue
            seen_rule_groups.add(group.nodegroup)
            self.rule_evaluator.add_group(
                rules_for_group(group.rule_group(), cfg.rule_interval, self.rate_window)
            )
        self.rule_evaluator.add_group(emissions_rules(cfg.rule_interval))

        # -- alerting control plane -------------------------------------------
        # SLOs read the self-telemetry request histograms of the
        # stack's own apps, which meta-monitoring scrapes below.
        slos = standard_slos()
        self.rule_evaluator.add_group(slo_recording_group(slos, interval=cfg.rule_interval))
        self.alertmanager = Alertmanager(
            self.clock,
            inhibit_rules=[
                # a dead target inhibits per-collector noise from
                # the same instance
                InhibitRule(
                    source_match={"alertname": "CEEMSTargetDown"},
                    target_match={"alertname": "CEEMSCollectorFailed"},
                    equal=("instance",),
                )
            ],
        )
        if cfg.notify_log:
            self.alertmanager.receivers["default"] = JSONLReceiver(cfg.notify_log)
        self.rule_evaluator.notifier = self.alertmanager.receive
        # alert_interval <= 0 adds no alerting groups, as
        # probe_interval <= 0 adds no prober.
        if cfg.alert_interval > 0:
            self.rule_evaluator.add_alert_group(
                AlertingRuleGroup(
                    name="ceems-alerts",
                    interval=cfg.alert_interval,
                    rules=ceems_alert_rules(),
                )
            )
            self.rule_evaluator.add_alert_group(
                slo_alert_group(slos, interval=cfg.alert_interval)
            )

        # -- Thanos ------------------------------------------------------------
        self.object_store = ObjectStore(
            persist_dir=os.path.join(cfg.persist_dir, "store") if cfg.persist_dir else "",
        )
        self.sidecar = Sidecar(self.hot_tsdb, self.object_store)
        self.compactor = Compactor(self.object_store)
        self.fanout = FanoutStorage(self.hot_tsdb, self.object_store)
        self.fanout.telemetry = Telemetry("thanos-query")
        self.engine = PromQLEngine(self.fanout, lookback=self.lookback)

        # -- resource manager + workload -------------------------------------
        self.slurm = SlurmCluster(cfg.cluster_name, partitions)
        self.workload_generator = (
            WorkloadGenerator(workload or WorkloadMix(), seed=cfg.seed)
            if cfg.with_workload
            else None
        )


        # -- API server ----------------------------------------------------------
        self.db = Database(":memory:")
        self.estimator = UnitEnergyEstimator(self.engine, step=cfg.rule_interval)
        self.cleaner = (
            CardinalityCleaner(self.db, [self.hot_tsdb], cfg.cleanup_cutoff)
            if cfg.cleanup_cutoff > 0
            else None
        )
        self.backup_manager = BackupManager(self.db)
        self.litestream = LitestreamReplicator(self.db, segment_interval=cfg.update_interval)
        # API server before the updater: updater passes record spans
        # and stats into the API server's telemetry.
        self.api_server = APIServer(self.db, admin_users=cfg.admin_users)
        self.updater = Updater(
            self.db,
            self.estimator,
            [self.slurm],
            interval=cfg.update_interval,
            cleaner=self.cleaner,
            backup_manager=self.backup_manager,
            telemetry=self.api_server.app.telemetry,
        )

        # -- load balancer -----------------------------------------------------------
        query_limits = QueryLimits(
            max_query_length=cfg.max_query_length,
            max_range_seconds=cfg.max_query_range,
            max_resolved_steps=cfg.max_query_steps,
        )
        self.prom_apis = [
            PromAPI(
                self.fanout,
                name=f"prom-{i}",
                lookback=self.lookback,
                slow_query_ms=cfg.slow_query_ms,
                query_log_path=cfg.query_log,
                active_query_journal=(
                    f"{cfg.active_query_journal}.prom-{i}"
                    if cfg.active_query_journal
                    else ""
                ),
                limits=query_limits,
                rules=self.rule_evaluator,
                alertmanager=self.alertmanager,
                # Exemplars live in the hot TSDB's ring, not the
                # fan-out this endpoint queries samples through.
                exemplars=self.hot_tsdb.exemplars,
            )
            for i in range(cfg.n_prom_backends)
        ]
        for api in self.prom_apis:
            # Scrape-loop totals ride on each Prometheus endpoint's
            # /metrics (each PromAPI has its own registry).
            self.scrape_manager.register_metrics(api.app.telemetry.registry)
            # Alert state (pending/firing gauges) is itself scraped.
            self.rule_evaluator.register_metrics(api.app.telemetry.registry)
            if cfg.persist_dir:
                # WAL fsync/replay counters and block bytes/compression
                # gauges surface wherever Prometheus self-scrapes.
                self.hot_tsdb.register_metrics(api.app.telemetry.registry)
                self.object_store.register_metrics(api.app.telemetry.registry)
        backends = [Backend(name=api.app.name, app=api.app) for api in self.prom_apis]
        self.frontend = None
        if cfg.frontend:
            # The LB dispatches authorized query-path requests into
            # the frontend, which fans sub-queries out over the real
            # PromQL backends; every other path keeps the plain
            # LB-to-backend proxy.
            from repro.frontend import QueryFrontend

            self.frontend = QueryFrontend(
                backends,
                strategy=cfg.lb_strategy,
                clock=self.clock,
                limits=query_limits,
            )
        self.lb = LoadBalancer(
            backends,
            DBAuthorizer(self.db, admin_users=cfg.admin_users),
            strategy=cfg.lb_strategy,
            frontend=self.frontend,
        )

        # -- the stack's own served apps -------------------------------------
        # One row per app: (app, instance, job, probe path or None).
        # Meta-monitoring scrapes every row, the prober checks every row
        # with a path, and every row's span store joins the tail sampler.
        self.services = [
            (self.lb.app, "lb:9030", "ceems-lb", "/-/ready"),
            (self.api_server.app, "api:9040", "ceems-api", "/-/healthy"),
        ]
        self.services += [
            (api.app, f"prom-{i}:9090", "prometheus", "/-/healthy")
            for i, api in enumerate(self.prom_apis)
        ]
        if self.frontend is not None:
            # /-/healthy proxies through the frontend to a backend,
            # so the probe proves the whole serving path answers.
            self.services.append((self.frontend.app, "frontend:9031", "ceems-frontend", "/-/healthy"))
        self.services.append((self.alertmanager.app, "alertmanager:9093", "alertmanager", None))

        # -- meta-monitoring ---------------------------------------------------
        # The stack scrapes itself, so one PromQL query answers "what
        # is the p99 LB latency".
        self.scrape_manager.add_targets(
            [ScrapeTarget(app=app, instance=instance, job=job) for app, instance, job, _ in self.services]
        )

        # -- blackbox probing --------------------------------------------------
        # Synthetic outside-in checks: meta-monitoring proves a
        # component renders telemetry, the prober proves it answers.
        self.prober = None
        if cfg.probe_interval > 0:
            from repro.obs.probe import BlackboxProber, ProbeTarget

            self.prober = BlackboxProber(self.hot_tsdb, interval=cfg.probe_interval)
            probes = [(app, instance, path) for app, instance, _, path in self.services if path]
            # CEEMS exporters ship a cheap /health; DCGM and the
            # emissions exporter only expose /metrics.
            probes += [
                (t.app, t.instance, "/health" if t.job == "ceems" else "/metrics")
                for t in exporter_targets
            ]
            for app, instance, path in probes:
                self.prober.add_target(ProbeTarget(app=app, instance=instance, path=path))
            for api in self.prom_apis:
                self.prober.register_metrics(api.app.telemetry.registry)

        # -- tail-based span sampling -------------------------------------
        # One sampler shared by every component's span store: the keep
        # decision hashes the trace id, so a kept trace is retained
        # coherently across the LB, the backend and the storage spans
        # it fanned out to — the property exemplar drill-downs rely on.
        self.tail_sampler = TailSampler(
            rate=cfg.trace_sample_rate, keep_slow_ms=cfg.trace_keep_slow_ms
        )
        for telemetry in self._all_telemetry():
            telemetry.spans.sampler = self.tail_sampler

        self._register_timers()

    def _all_telemetry(self):
        """Every component telemetry whose span store exists today."""
        exporters = [*self.exporters, *self.gpu_exporters, self.emissions_exporter]
        return [
            self.hot_tsdb.telemetry,
            self.scrape_manager.telemetry,
            self.fanout.telemetry,
            *(app.telemetry for app, *_ in self.services),
            *(e.app.telemetry for e in exporters),
        ]

    # -- wiring --------------------------------------------------------------
    def _register_timers(self) -> None:
        cfg = self.config
        # Ordering within a tick follows registration order: physics
        # first, then collection, then derivation, then aggregation.
        self.clock.every(cfg.node_step, self._advance_nodes)
        if self.workload_generator is not None:
            self.workload_generator.register_timer(self.clock, self.slurm)
        self.clock.every(cfg.slurm_step, self.slurm.step)
        self.scrape_manager.register_timer(self.clock)
        self.rule_evaluator.register_timers(self.clock)
        if self.prober is not None:
            self.prober.register_timer(self.clock)
        self.alertmanager.register_timer(self.clock)
        self.sidecar.register_timer(self.clock, cfg.sidecar_interval)
        self.compactor.register_timer(self.clock, cfg.compactor_interval)
        self.updater.register_timer(self.clock)
        self.litestream.register_timer(self.clock)

    def _advance_nodes(self, now: float) -> None:
        dt = self.config.node_step
        for node in self.nodes:
            node.advance(now, dt)

    # -- driving ----------------------------------------------------------------
    def run(self, seconds: float) -> None:
        """Advance the whole deployment by ``seconds`` of logical time."""
        self.clock.advance(seconds)

    @property
    def now(self) -> float:
        return self.clock.now()

    # -- access -------------------------------------------------------------------
    def prometheus_datasource(self, user: str) -> PrometheusDataSource:
        """A Grafana-style Prometheus data source going through the LB."""
        return PrometheusDataSource(self.lb.app, user)

    def ceems_datasource(self, user: str) -> CEEMSDataSource:
        return CEEMSDataSource(self.api_server.app, user)

    def stats(self) -> dict[str, float]:
        """Headline deployment statistics (for examples and benches)."""
        return {
            "nodes": len(self.nodes),
            "gpus": sum(len(n.gpus) for n in self.nodes),
            "tsdb_series": self.hot_tsdb.num_series,
            "tsdb_samples": self.hot_tsdb.num_samples,
            "jobs_submitted": self.slurm.jobs_submitted,
            "jobs_completed": self.slurm.jobs_completed,
            "jobs_running": self.slurm.running_count,
            "units_in_db": self.db.count_units(),
            "thanos_blocks": len(self.object_store.blocks),
        }
