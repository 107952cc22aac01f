"""Tests for the CEEMS API server HTTP API and the updater."""

import pytest

from repro.apiserver.api import USER_HEADER, APIServer
from repro.apiserver.db import Database
from repro.apiserver.updater import Updater
from repro.common.clock import SimClock
from repro.resourcemgr.base import UnitState
from tests.test_apiserver_db import FakeUsage, unit


@pytest.fixture
def db() -> Database:
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


@pytest.fixture
def api(db) -> APIServer:
    return APIServer(db, admin_users=("admin",))


def get(api, path, user=None):
    headers = {USER_HEADER: user} if user else {}
    return api.app.get(path, headers=headers)


class TestIdentity:
    def test_header_required(self, api):
        assert get(api, "/api/v1/units").status == 401

    def test_healthy_is_public(self, api):
        assert get(api, "/-/healthy").ok


class TestUnits:
    def test_user_sees_own_units(self, api):
        data = get(api, "/api/v1/units", user="alice").decode_json()["data"]
        assert {u["uuid"] for u in data} == {"1", "2"}

    def test_user_cannot_query_others(self, api):
        assert get(api, "/api/v1/units?user=bob", user="alice").status == 403

    def test_admin_can_query_anyone(self, api):
        data = get(api, "/api/v1/units?user=bob", user="admin").decode_json()["data"]
        assert [u["uuid"] for u in data] == ["3"]

    def test_admin_all_units(self, api):
        data = get(api, "/api/v1/units?all=true", user="admin").decode_json()["data"]
        assert len(data) == 3

    def test_state_filter(self, api):
        data = get(api, "/api/v1/units?state=running", user="alice").decode_json()["data"]
        assert [u["uuid"] for u in data] == ["2"]

    def test_single_unit_owner_only(self, api):
        assert get(api, "/api/v1/units/1", user="alice").ok
        assert get(api, "/api/v1/units/1", user="bob").status == 403
        assert get(api, "/api/v1/units/1", user="admin").ok

    def test_unknown_unit_404(self, api):
        assert get(api, "/api/v1/units/404", user="alice").status == 404

    def test_nodelist_decoded(self, api, db):
        db.upsert_units([unit("4", nodelist=("n1", "n2"))], now=500.0)
        data = get(api, "/api/v1/units/4", user="alice").decode_json()["data"]
        assert data["nodelist"] == ["n1", "n2"]

    def test_bad_numeric_params(self, api):
        assert get(api, "/api/v1/units?from=abc", user="alice").status == 400


class TestUsage:
    def test_current_usage(self, api):
        data = get(api, "/api/v1/usage/current", user="alice").decode_json()["data"]
        assert len(data) == 1
        assert data[0]["total_energy_joules"] == 100.0

    def test_global_usage_admin_only(self, api):
        assert get(api, "/api/v1/usage/global", user="alice").status == 403
        data = get(api, "/api/v1/usage/global", user="admin").decode_json()["data"]
        assert len(data) == 2

    def test_user_usage_endpoint(self, api):
        assert get(api, "/api/v1/users/bob/usage", user="alice").status == 403
        data = get(api, "/api/v1/users/bob/usage", user="bob").decode_json()["data"]
        assert data[0]["total_energy_joules"] == 900.0

    def test_project_usage_requires_membership(self, api):
        assert get(api, "/api/v1/projects/p1/usage", user="alice").ok
        assert get(api, "/api/v1/projects/p1/usage", user="bob").status == 403
        assert get(api, "/api/v1/projects/p1/usage", user="admin").ok


class TestVerify:
    def test_owner_allowed(self, api):
        assert get(api, "/api/v1/verify?uuid=1", user="alice").ok

    def test_non_owner_denied(self, api):
        assert get(api, "/api/v1/verify?uuid=1", user="bob").status == 403

    def test_multiple_uuids_all_must_match(self, api):
        assert get(api, "/api/v1/verify?uuid=1&uuid=2", user="alice").ok
        assert get(api, "/api/v1/verify?uuid=1&uuid=3", user="alice").status == 403

    def test_unknown_uuid_denied(self, api):
        assert get(api, "/api/v1/verify?uuid=404", user="alice").status == 403

    def test_admin_always_allowed(self, api):
        assert get(api, "/api/v1/verify?uuid=3", user="admin").ok

    def test_uuid_param_required(self, api):
        assert get(api, "/api/v1/verify", user="alice").status == 400

    def test_clusters_endpoint(self, api):
        data = get(api, "/api/v1/clusters", user="alice").decode_json()["data"]
        assert data == ["test"]


class FakeManager:
    """Minimal resource manager stub for updater tests."""

    manager = "slurm"
    cluster_name = "test"

    def __init__(self, units):
        self._units = units

    def list_units(self, start, end):
        return self._units


class FakeEstimator:
    def __init__(self, usage):
        self.usage = usage
        self.windows = []

    def usage_window(self, start, end):
        self.windows.append((start, end))
        return self.usage


class TestUpdater:
    def test_sync_and_usage(self):
        db = Database()
        units = [unit("1"), unit("2", user="bob")]
        updater = Updater(
            db,
            FakeEstimator({"1": FakeUsage(100.0)}),
            [FakeManager(units)],
            interval=900.0,
        )
        updater.run_once(now=1000.0)
        assert db.count_units() == 2
        assert db.get_unit("test", "1")["energy_joules"] == 100.0
        assert db.last_sync("test") == 1000.0
        rows = db.usage_rows(user="alice")
        assert rows[0].total_energy_joules == 100.0

    def test_usage_windows_tile_without_overlap(self):
        db = Database()
        estimator = FakeEstimator({})
        updater = Updater(db, estimator, [FakeManager([])], interval=900.0)
        updater.run_once(now=1000.0)
        updater.run_once(now=1900.0)
        updater.run_once(now=2800.0)
        # energy windows: first bootstrap, then [1000,1900], [1900,2800]
        assert estimator.windows[1] == (1000.0, 1900.0)
        assert estimator.windows[2] == (1900.0, 2800.0)

    def test_timer_registration(self):
        clock = SimClock(start=0.0)
        db = Database()
        updater = Updater(db, FakeEstimator({}), [FakeManager([])], interval=900.0)
        updater.register_timer(clock)
        clock.advance(3600.0)
        assert updater.stats.passes == 4

    def test_energy_accumulates_across_passes(self):
        db = Database()
        estimator = FakeEstimator({"1": FakeUsage(100.0)})
        updater = Updater(db, estimator, [FakeManager([unit("1")])], interval=900.0)
        updater.run_once(now=1000.0)
        updater.run_once(now=1900.0)
        assert db.get_unit("test", "1")["energy_joules"] == 200.0


class TestPaginationAndProjects:
    def test_offset_pagination(self, api, db):
        from tests.test_apiserver_db import unit as mkunit
        db.upsert_units([mkunit(str(100 + i), user="alice", created_at=float(i)) for i in range(10)], now=500.0)
        page1 = get(api, "/api/v1/units?limit=4", user="alice").decode_json()["data"]
        page2 = get(api, "/api/v1/units?limit=4&offset=4", user="alice").decode_json()["data"]
        assert len(page1) == 4 and len(page2) == 4
        assert {u["uuid"] for u in page1}.isdisjoint({u["uuid"] for u in page2})

    def test_bad_offset_rejected(self, api):
        assert get(api, "/api/v1/units?offset=x", user="alice").status == 400

    def test_projects_scoped_for_users(self, api):
        data = get(api, "/api/v1/projects", user="alice").decode_json()["data"]
        assert data == ["p1"]

    def test_projects_admin_sees_all(self, api):
        data = get(api, "/api/v1/projects", user="admin").decode_json()["data"]
        assert data == ["p1", "p2"]

    def test_projects_requires_identity(self, api):
        assert get(api, "/api/v1/projects").status == 401


NUMBERS_ERROR = {"status": "error", "error": "from/to/limit/offset must be numbers"}


class TestNumericParameters:
    """``from``/``to`` are finite numbers and ``limit``/``offset``
    non-negative integers, none written with digit separators; anything
    else is the one 400 (PromAPI's parity for its own numbers)."""

    @pytest.mark.parametrize(
        "query",
        [
            "from=nan",
            "from=NaN",
            "from=inf",
            "from=-inf",
            "from=Infinity",
            "to=nan",
            "to=+inf",
            "from=1_0",
            "to=5_00.0",
            "limit=-1",
            "limit=1_0",
            "offset=-1",
            "offset=0_0",
            "limit=abc",
            "from=abc",
        ],
    )
    def test_rejected(self, api, query):
        response = get(api, f"/api/v1/units?{query}", user="alice")
        assert response.status == 400
        assert response.decode_json() == NUMBERS_ERROR

    @pytest.mark.parametrize(
        "query, count",
        [
            ("from=10", 2),
            ("from=1e1&to=10.0", 2),
            ("from=11", 0),
            ("to=-1e300", 0),
            ("limit=0", 0),
            ("limit=1&offset=1", 1),
            ("limit=1&offset=2", 0),
            ("from=&to=", 2),
        ],
    )
    def test_accepted(self, api, query, count):
        response = get(api, f"/api/v1/units?{query}", user="alice")
        assert response.status == 200
        assert len(response.decode_json()["data"]) == count
