"""E9 — the CEEMS load balancer: access-control overhead and balancing.

The LB's value is access control; its cost is the per-request query
introspection + ownership check.  We measure: a direct backend query,
the same query through the LB (both authz modes), and the balancing
fairness of both strategies under concurrent-ish load.

Both authorizers remember ownership until the API server's database is
written, so the timed ownership checks each follow a write made in the
round's setup, outside the timed call; the replayed check (no write
since) is printed on its own line.
"""

from __future__ import annotations

import urllib.parse

import pytest

from benchmarks.conftest import replayed_s
from repro.apiserver.api import APIServer
from repro.lb import APIAuthorizer, Backend, DBAuthorizer, LoadBalancer

QUERY_PATH = "/api/v1/query"
ROUNDS = 200


def touch(db):
    """A write that changes no row: the next ownership check reads the DB."""
    cluster = db.clusters()[0]
    return lambda: db.set_last_sync(cluster, db.last_sync(cluster))


@pytest.fixture(scope="module")
def env(bench_sim):
    row = bench_sim.db.list_units(limit=1)[0]
    promql = urllib.parse.quote(f'ceems:compute_unit:power_watts{{uuid="{row["uuid"]}"}}')
    url = f"{QUERY_PATH}?query={promql}&time={bench_sim.now}"
    headers = {"x-grafana-user": row["user"]}
    return {"sim": bench_sim, "url": url, "headers": headers, "user": row["user"]}


def test_direct_backend_query(benchmark, env):
    backend_app = env["sim"].prom_apis[0].app
    response = benchmark(backend_app.get, env["url"], headers=env["headers"])
    assert response.ok


def test_via_lb_db_authz(benchmark, env):
    lb_app = env["sim"].lb.app

    def query():
        return lb_app.get(env["url"], headers=env["headers"])

    response = benchmark.pedantic(query, setup=touch(env["sim"].db), rounds=ROUNDS)
    assert response.ok
    print(f"\n[E9] LB (direct-DB authz) adds introspection+ownership check per query")
    print(f"[E9] ... replayed, DB unchanged: {replayed_s(query) * 1000:.3f} ms")


def test_via_lb_api_authz(benchmark, env):
    """The fallback mode: ownership via an API-server HTTP round trip."""
    sim = env["sim"]
    api = APIServer(sim.db)
    backends = [Backend(a.app.name, a.app) for a in sim.prom_apis]
    lb = LoadBalancer(backends, APIAuthorizer(api.app))

    def query():
        return lb.app.get(env["url"], headers=env["headers"])

    response = benchmark.pedantic(query, setup=touch(sim.db), rounds=ROUNDS)
    assert response.ok
    print(f"\n[E9] LB (API authz) ... replayed, DB unchanged: {replayed_s(query) * 1000:.3f} ms")


def test_denied_query_cost(benchmark, env):
    """Denials are cheap: no backend round trip happens."""
    lb_app = env["sim"].lb.app

    def query():
        return lb_app.get(env["url"], headers={"x-grafana-user": "intruder"})

    response = benchmark.pedantic(query, setup=touch(env["sim"].db), rounds=ROUNDS)
    assert response.status == 403


def test_round_robin_fairness(benchmark, env):
    """Round-robin spreads sequential traffic exactly evenly."""
    sim = env["sim"]
    backends = [Backend(f"prom-{i}", sim.prom_apis[i % len(sim.prom_apis)].app) for i in range(4)]
    lb = LoadBalancer(backends, DBAuthorizer(sim.db), strategy="round-robin")

    def burst():
        for _ in range(40):
            lb.app.get(env["url"], headers=env["headers"])

    benchmark.pedantic(burst, rounds=3, iterations=1)
    counts = [b.total_requests for b in backends]
    print(f"\n[E9] round-robin: requests per backend = {counts}")
    benchmark.extra_info["per_backend"] = counts
    assert max(counts) == min(counts)


def test_least_connection_adapts_to_slow_backend(benchmark, env):
    """Least-connection steers traffic away from busy backends.

    Concurrency is modelled by pinning long-lived in-flight requests
    on some backends (a slow dashboard query occupying a replica);
    sequential traffic must then prefer the idle replicas — the exact
    behaviour round-robin lacks.
    """
    sim = env["sim"]
    backends = [Backend(f"prom-{i}", sim.prom_apis[i % len(sim.prom_apis)].app) for i in range(4)]
    lb = LoadBalancer(backends, DBAuthorizer(sim.db), strategy="least-connection")
    # Two stuck long queries on prom-0, one on prom-1.
    backends[0].acquire()
    backends[0].acquire()
    backends[1].acquire()

    def burst():
        for _ in range(30):
            lb.app.get(env["url"], headers=env["headers"])

    benchmark.pedantic(burst, rounds=3, iterations=1)
    counts = [b.total_requests - c for b, c in zip(backends, (2, 1, 0, 0))]
    print(f"\n[E9] least-connection with busy prom-0/prom-1: "
          f"requests per backend = {counts}")
    benchmark.extra_info["per_backend"] = counts
    # idle replicas take the bulk of the traffic
    assert counts[2] + counts[3] > counts[0] + counts[1]
