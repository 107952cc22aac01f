"""The API server's answer memo and the LB's owner memo.

An answer is remembered until the database's write count moves: every
write method must bump it, the next answer must equal one computed
without a memo, the key must separate everything a handler reads, the
byte cap must hold, and — under threads — once a write has returned no
reader may get an answer from before it.
"""

from __future__ import annotations

import sys
import threading
import time
import urllib.parse

import pytest

from repro.apiserver import api as api_module
from repro.apiserver.api import USER_HEADER, APIServer
from repro.apiserver.db import Database
from repro.lb import APIAuthorizer, Backend, DBAuthorizer, LoadBalancer
from repro.resourcemgr.base import UnitState
from repro.tsdb.http import PromAPI
from repro.tsdb.storage import TSDB
from tests.test_apiserver_db import FakeUsage, unit

#: Requests whose answers every write below can change.
REQUESTS = [
    ("/api/v1/units", "alice"),
    ("/api/v1/units?all=true", "admin"),
    ("/api/v1/units?state=running", "alice"),
    ("/api/v1/units/1", "alice"),
    ("/api/v1/units/4", "alice"),
    ("/api/v1/units/1", "bob"),
    ("/api/v1/usage/current", "alice"),
    ("/api/v1/usage/global", "admin"),
    ("/api/v1/users/bob/usage", "bob"),
    ("/api/v1/projects/p1/usage", "alice"),
    ("/api/v1/verify?uuid=1&uuid=4", "alice"),
    ("/api/v1/clusters", "alice"),
    ("/api/v1/projects", "alice"),
    ("/api/v1/units?from=nan", "alice"),
]


def make_db() -> Database:
    db = Database()
    db.upsert_units(
        [
            unit("1", user="alice", project="p1", state=UnitState.COMPLETED, ended_at=110.0),
            unit("2", user="alice", project="p1"),
            unit("3", user="bob", project="p2", state=UnitState.COMPLETED, ended_at=300.0),
        ],
        now=500.0,
    )
    db.add_unit_usage("test", {"1": FakeUsage(100.0, 1.0), "3": FakeUsage(900.0, 9.0)}, now=500.0)
    db.rebuild_usage_rollups("test", now=500.0)
    return db


def get(server: APIServer, path: str, user: str | None):
    return server.app.get(path, headers={USER_HEADER: user} if user else {})


def answers(server: APIServer) -> list[tuple[int, bytes, str]]:
    out = []
    for path, user in REQUESTS:
        response = get(server, path, user)
        out.append((response.status, response.body, response.headers["content-type"]))
    return out


WRITES = {
    "upsert_units": lambda db: db.upsert_units([unit("4", user="alice", project="p1", created_at=5.0)], now=600.0),
    "add_unit_usage": lambda db: db.add_unit_usage("test", {"1": FakeUsage(7.0, 0.5)}, now=600.0),
    "rebuild_usage_rollups": lambda db: db.rebuild_usage_rollups("test", now=600.0),
    "set_last_sync": lambda db: db.set_last_sync("test", 600.0),
}


class TestInvalidation:
    @pytest.mark.parametrize("write", list(WRITES))
    def test_every_write_method_moves_the_answers(self, write):
        db = make_db()
        server = APIServer(db)
        before = answers(server)
        assert answers(server) == before  # served from the memo
        assert server.memo_hits == len(REQUESTS)
        writes = db.writes
        WRITES[write](db)
        assert db.writes == writes + 1
        assert answers(server) == answers(APIServer(db))

    def test_a_sequence_of_writes_changes_what_is_served(self):
        db = make_db()
        server = APIServer(db)
        seen = [answers(server)]
        for write in WRITES.values():
            write(db)
            now = answers(server)
            assert now == answers(APIServer(db))
            seen.append(now)
        # upsert, usage and rollups each change some answer.
        assert seen[0] != seen[1] != seen[2] != seen[3]

    def test_a_hit_is_a_fresh_response(self):
        server = APIServer(make_db())
        first = get(server, "/api/v1/usage/current", "alice")
        second = get(server, "/api/v1/usage/current", "alice")
        assert server.memo_hits == 1
        assert second is not first
        assert second.body == first.body and second.status == first.status
        # The middleware stamps each response it hands out.
        assert second.headers["x-trace-id"] != first.headers["x-trace-id"]
        second.headers["content-type"] = "mutated"
        assert get(server, "/api/v1/usage/current", "alice").headers["content-type"] == "application/json"

    def test_a_request_with_a_body_is_not_remembered(self):
        server = APIServer(make_db())
        for _ in range(2):
            server.app.get(
                "/api/v1/units",
                headers={USER_HEADER: "alice", "content-type": "application/x-www-form-urlencoded"},
                body=b"state=running",
            )
        assert server.memo_hits == 0


class TestKeys:
    @pytest.mark.parametrize(
        "first, second",
        [
            (("/api/v1/usage/current", "alice"), ("/api/v1/usage/current", "bob")),
            (("/api/v1/units", "alice"), ("/api/v1/units", "bob")),
            (("/api/v1/units/1", "alice"), ("/api/v1/units/1", "bob")),
            (("/api/v1/units/1", "admin"), ("/api/v1/units/3", "admin")),
            (("/api/v1/users/alice/usage", "admin"), ("/api/v1/users/bob/usage", "admin")),
            (("/api/v1/units?state=running", "alice"), ("/api/v1/units?state=completed", "alice")),
            (("/api/v1/units?limit=1", "alice"), ("/api/v1/units?limit=2", "alice")),
            (("/api/v1/verify?uuid=1", "alice"), ("/api/v1/verify?uuid=3", "alice")),
            (("/api/v1/verify?uuid=1&uuid=3", "alice"), ("/api/v1/verify?uuid=1", "alice")),
            (("/api/v1/units", "alice"), ("/api/v1/units", None)),
        ],
    )
    def test_requests_that_differ_get_their_own_answers(self, first, second):
        db = make_db()
        server, fresh = APIServer(db), APIServer(db)
        a = get(server, *first)
        b = get(server, *second)
        expected = get(fresh, *second)
        assert (a.status, a.body) != (b.status, b.body)
        assert (b.status, b.body) == (expected.status, expected.body)
        assert server.memo_hits == 0


class TestByteCap:
    def test_the_cap_holds_and_an_oversized_body_is_never_kept(self, monkeypatch):
        db = make_db()
        db.upsert_units([unit(str(100 + i), user="alice", created_at=float(i)) for i in range(30)], now=600.0)
        server = APIServer(db)
        big = get(server, "/api/v1/units", "alice")
        cap = len(big.body) - 1
        monkeypatch.setattr(api_module, "ANSWER_MEMO_BYTES", cap)
        server = APIServer(db)
        get(server, "/api/v1/units", "alice")
        assert server._answers == {} and server._answer_bytes == 0
        for limit in range(1, 31):
            get(server, f"/api/v1/units?limit={limit}", "alice")
            kept = sum(len(entry[3]) for entry in server._answers.values())
            assert kept == server._answer_bytes <= cap
        # The cap emptied the memo at least once on the way.
        assert len(server._answers) < 30
        assert answers(server) == answers(APIServer(db))


class TestOwnerMemo:
    def test_owners_are_read_once_per_write(self, monkeypatch):
        db = make_db()
        authz = DBAuthorizer(db)
        lookups = []
        original = db.find_unit_owner
        monkeypatch.setattr(db, "find_unit_owner", lambda uuid: lookups.append(uuid) or original(uuid))
        assert authz.allowed("alice", {"1", "2"}, unbounded=False)
        assert authz.allowed("alice", {"1", "2"}, unbounded=False)
        assert not authz.allowed("bob", {"1"}, unbounded=False)
        assert sorted(lookups) == ["1", "2"]
        # An unknown uuid is asked every time ...
        assert not authz.allowed("alice", {"4"}, unbounded=False)
        assert not authz.allowed("alice", {"4"}, unbounded=False)
        assert lookups.count("4") == 2
        # ... and is owned once a write has added it.
        WRITES["upsert_units"](db)
        assert authz.allowed("alice", {"4", "1"}, unbounded=False)
        assert lookups.count("1") == 2

    def test_decisions_equal_a_fresh_authorizer(self):
        db = make_db()
        authz = DBAuthorizer(db)
        cases = [(user, uuids) for user in ("alice", "bob", "carol") for uuids in ({"1"}, {"3"}, {"1", "2"}, {"4"}, {"1", "4"})]
        for write in [None, *WRITES.values()]:
            if write is not None:
                write(db)
            for user, uuids in cases:
                expected = DBAuthorizer(db).allowed(user, uuids, unbounded=False)
                assert authz.allowed(user, uuids, unbounded=False) == expected, (user, uuids)


# -- threads ---------------------------------------------------------------


#: Units the LB readers ask about (one PromQL text each).
LB_UNITS = 24


def panel_url(uuid: str) -> str:
    query = urllib.parse.quote(f'ceems:compute_unit:power_watts{{uuid="{uuid}"}}')
    return f"/api/v1/query?query={query}&time=100"


def test_no_reader_sees_an_answer_from_before_a_returned_write():
    """Readers on the API app and on two LBs (direct-DB and API authz)
    race one writer running updater-shaped writes.  Each reader notes
    what the writer has finished *before* it asks, and the answer must
    show at least that much."""
    db = make_db()
    server = APIServer(db)
    backend = PromAPI(TSDB()).app
    lbs = [
        LoadBalancer([Backend("prom", backend)], DBAuthorizer(db), slow_request_ms=-1.0),
        LoadBalancer([Backend("prom", backend)], APIAuthorizer(server.app), slow_request_ms=-1.0),
    ]
    base_units = len(get(server, "/api/v1/units?limit=100000", "alice").decode_json()["data"])
    base_energy = get(server, "/api/v1/units/1", "alice").decode_json()["data"]["energy_joules"]
    base_usage = get(server, "/api/v1/usage/current", "alice").decode_json()["data"][0]
    #: (units upserted, usage folds, rollup rebuilds) whose write has returned
    progress = [(0, 0, 0)]
    stop = threading.Event()
    failures: list[str] = []

    def writer() -> None:
        upserted = folded = rebuilt = 0
        now = 1000.0
        deadline = time.monotonic() + 2.0
        while not stop.is_set() and time.monotonic() < deadline:
            now += 60.0
            db.upsert_units([unit(f"w{upserted}", user="alice", created_at=now)], now=now)
            upserted += 1
            progress[0] = (upserted, folded, rebuilt)
            db.add_unit_usage("test", {"1": FakeUsage(1.0, 0.0)}, now=now)
            folded += 1
            progress[0] = (upserted, folded, rebuilt)
            db.rebuild_usage_rollups("test", now=now)
            rebuilt += 1
            progress[0] = (upserted, folded, rebuilt)
            db.set_last_sync("test", now)

    def reading(read):
        def loop(*args) -> None:
            try:
                read(*args)
            except Exception as exc:  # a dead reader checks nothing
                failures.append(repr(exc))

        return loop

    @reading
    def api_reader() -> None:
        kind = 0
        while not stop.is_set():
            upserted, folded, rebuilt = progress[0]
            kind = (kind + 1) % 4
            if kind == 0:
                data = get(server, "/api/v1/units?limit=100000", "alice").decode_json()["data"]
                if len(data) < base_units + upserted:
                    failures.append(f"units: {len(data)} after {upserted} upserts")
            elif kind == 1:
                energy = get(server, "/api/v1/units/1", "alice").decode_json()["data"]["energy_joules"]
                if energy < base_energy + folded:
                    failures.append(f"unit energy {energy} after {folded} folds")
            elif kind == 2:
                rows = get(server, "/api/v1/usage/current", "alice").decode_json()["data"]
                # The readers share the writer's connection, so a read
                # between a rebuild's DELETE and INSERT sees no rows: a
                # rebuild in flight, not one that has returned.
                if rows and rows[0]["num_units"] < base_usage["num_units"] + rebuilt:
                    failures.append(f"usage rows {rows[0]['num_units']} after {rebuilt} rebuilds")
            else:
                # The unit about to be written is asked for first, so a
                # denial sits in the memo when the write lands.
                get(server, f"/api/v1/verify?uuid=w{upserted}", "alice")
                if upserted and not get(server, f"/api/v1/verify?uuid=w{upserted - 1}", "alice").ok:
                    failures.append(f"verify w{upserted - 1} denied after its upsert")

    @reading
    def lb_reader(lb: LoadBalancer) -> None:
        # Each uuid is a new PromQL text, and the parser's memos are
        # process-wide and bounded: the LB asks about the first
        # LB_UNITS units only, so this test cannot empty them.
        while not stop.is_set():
            upserted = min(progress[0][0], LB_UNITS)
            lb.app.get(panel_url(f"w{min(upserted, LB_UNITS - 1)}"), headers={USER_HEADER: "alice"})
            if upserted:
                status = lb.app.get(panel_url(f"w{upserted - 1}"), headers={USER_HEADER: "alice"}).status
                if status != 200:
                    failures.append(f"LB answered {status} for w{upserted - 1} after its upsert")

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=api_reader) for _ in range(3)]
    threads += [threading.Thread(target=lb_reader, args=(lb,)) for lb in lbs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        threads[0].join(timeout=5.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert progress[0][0] >= 10, "the writer barely ran"
    assert server.memo_hits > 0
    assert not failures, failures[:5]
