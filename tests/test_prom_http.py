"""Tests for the Prometheus HTTP API facade."""

import pytest

from repro.common.httpx import Request
from repro.tsdb.http import PromAPI
from repro.tsdb.model import Labels
from repro.tsdb.storage import TSDB


@pytest.fixture
def api() -> PromAPI:
    db = TSDB()
    for i in range(11):
        t = i * 15.0
        db.append(Labels({"__name__": "power", "uuid": "1"}), t, 100.0)
        db.append(Labels({"__name__": "power", "uuid": "2"}), t, 200.0)
    return PromAPI(db)


class TestInstantQuery:
    def test_vector_result(self, api):
        response = api.app.get("/api/v1/query?query=power&time=150")
        data = response.decode_json()["data"]
        assert data["resultType"] == "vector"
        assert len(data["result"]) == 2
        assert data["result"][0]["metric"]["__name__"] == "power"
        assert data["result"][0]["value"][1] in ("100.0", "100")

    def test_scalar_result(self, api):
        response = api.app.get("/api/v1/query?query=1%2B1&time=0")
        data = response.decode_json()["data"]
        assert data["resultType"] == "scalar"
        assert float(data["result"][1]) == 2.0

    def test_missing_query_param(self, api):
        assert api.app.get("/api/v1/query?time=0").status == 400

    def test_missing_time_param(self, api):
        assert api.app.get("/api/v1/query?query=power").status == 400

    def test_bad_query_is_400(self, api):
        response = api.app.get("/api/v1/query?query=power{&time=0")
        assert response.status == 400

    def test_post_form_body(self, api):
        response = api.app.handle(
            Request.from_url(
                "POST",
                "/api/v1/query",
                headers={"content-type": "application/x-www-form-urlencoded"},
                body=b"query=sum(power)&time=150",
            )
        )
        assert response.ok
        data = response.decode_json()["data"]
        assert float(data["result"][0]["value"][1]) == 300.0


class TestRangeQuery:
    def test_matrix_result(self, api):
        response = api.app.get("/api/v1/query_range?query=power&start=0&end=150&step=15")
        data = response.decode_json()["data"]
        assert data["resultType"] == "matrix"
        assert len(data["result"]) == 2
        assert len(data["result"][0]["values"]) == 11

    def test_bad_params(self, api):
        assert api.app.get("/api/v1/query_range?query=power&start=x&end=1&step=1").status == 400
        assert api.app.get("/api/v1/query_range?query=power&start=0&end=1").status == 400


class TestMetadata:
    def test_series_endpoint(self, api):
        response = api.app.get("/api/v1/series?match[]=power")
        data = response.decode_json()["data"]
        assert len(data) == 2
        assert {d["uuid"] for d in data} == {"1", "2"}

    def test_series_requires_selector(self, api):
        assert api.app.get("/api/v1/series").status == 400

    def test_series_rejects_expressions(self, api):
        assert api.app.get("/api/v1/series?match[]=sum(power)").status == 400

    def test_label_values(self, api):
        response = api.app.get("/api/v1/label/uuid/values")
        assert response.decode_json()["data"] == ["1", "2"]

    def test_healthy(self, api):
        assert api.app.get("/-/healthy").ok

    def test_queries_counted(self, api):
        api.app.get("/api/v1/query?query=power&time=0")
        api.app.get("/api/v1/query_range?query=power&start=0&end=10&step=5")
        assert api.queries_served == 2


def test_delete_series_matchers():
    """The cardinality cleanup selects a unit's series by one
    ``uuid="..."`` matcher, built where it is used (the helper that
    lived in this module tied ``tsdb.http`` and ``apiserver`` into an
    import cycle)."""
    from repro.apiserver.cleanup import CardinalityCleaner
    from repro.apiserver.db import Database
    from repro.resourcemgr.base import UnitState
    from tests.test_apiserver_db import unit

    class RecordingTSDB:
        def __init__(self):
            self.deletes = []

        def delete_series(self, matchers):
            self.deletes.append(matchers)
            return 0

    db = Database()
    db.upsert_units(
        [unit("1234", state=UnitState.COMPLETED, started_at=0.0, ended_at=10.0)],
        now=10.0,
    )
    tsdb = RecordingTSDB()
    CardinalityCleaner(db, [tsdb], cutoff=300.0).run(now=20.0)
    (matchers,) = tsdb.deletes
    assert [str(m) for m in matchers] == ['uuid="1234"']


class TestCacheMetricsExposition:
    def test_snapshot_and_decode_cache_counters_exported(self, api):
        # prime the snapshot cache so hits > 0 is observable
        api.app.get("/api/v1/query?query=power&time=150")
        api.app.get("/api/v1/query?query=power&time=150")
        body = api.app.get("/metrics").body
        text = body.decode() if isinstance(body, bytes) else body
        for name in (
            "ceems_tsdb_snapshot_cache_hits_total",
            "ceems_tsdb_snapshot_cache_misses_total",
            "ceems_tsdb_chunk_decode_cache_hits_total",
            "ceems_tsdb_chunk_decode_cache_misses_total",
            "ceems_tsdb_chunk_decode_cache_evictions_total",
        ):
            matching = [
                line for line in text.splitlines()
                if line.startswith(name + " ") or line.startswith(name + "{")
            ]
            assert matching, name
            assert float(matching[0].rsplit(" ", 1)[1]) >= 0.0


class TestRulesEndpoint:
    """``/api/v1/rules`` tells a failed recording rule from a healthy
    one, and reports each group's timing and plan-memo counters."""

    @pytest.fixture
    def ruled(self, api):
        from repro.tsdb.rules import RecordingRule, RuleGroup, RuleManager

        manager = RuleManager(api.storage)
        manager.add_group(
            RuleGroup(
                name="g",
                interval=30.0,
                rules=[
                    RecordingRule(record="total", expr="sum(power)"),
                    RecordingRule(record="bad1", expr="power * on(nothing) power"),
                    RecordingRule(record="bad2", expr="power and 1"),
                ],
            )
        )
        return manager, PromAPI(api.storage, rules=manager)

    def _group(self, api):
        (group,) = api.app.get("/api/v1/rules").decode_json()["data"]["groups"]
        return group, {rule["name"]: rule for rule in group["rules"]}

    def test_failed_recording_rules_are_not_ok(self, ruled):
        manager, api = ruled
        manager.evaluate_all(150.0)
        group, rules = self._group(api)
        assert rules["total"]["health"] == "ok" and rules["total"]["lastError"] == ""
        assert rules["bad1"]["health"] == "err" and "many-to-many" in rules["bad1"]["lastError"]
        assert rules["bad2"]["health"] == "err" and "set operator" in rules["bad2"]["lastError"]
        assert group["lastError"] == "bad1: " + rules["bad1"]["lastError"]

    def test_group_timing_and_plan_counters(self, ruled):
        manager, api = ruled
        group, _rules = self._group(api)
        assert group["evaluations"] == 0 and group["planHits"] == 0 and group["planRebuilds"] == 0
        manager.evaluate_all(135.0)
        first, _rules = self._group(api)
        assert first["lastEvaluation"] == 135.0 and first["evaluationTime"] > 0.0
        assert first["planRebuilds"] > 0 and first["planHits"] == 0
        manager.evaluate_all(150.0)
        second, _rules = self._group(api)
        # same series as 15 s ago: every plan is reused, and the label
        # halves that raised again stored nothing to count
        assert second["lastEvaluation"] == 150.0
        assert second["planHits"] > 0
        assert second["planRebuilds"] == first["planRebuilds"]
