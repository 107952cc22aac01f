"""The CEEMS API server's HTTP API.

Endpoints mirror the documented CEEMS API (ref. [18] of the paper):

* ``GET /api/v1/units`` — compute units, filterable by cluster /
  project / state / time range.  Regular users only see their own
  units (identity from the ``X-Grafana-User`` header, the same
  mechanism §II.B.c describes); admin users may pass ``user=`` to see
  anyone's.
* ``GET /api/v1/units/{uuid}`` — one unit.
* ``GET /api/v1/usage/current`` — the caller's rollups.
* ``GET /api/v1/usage/global`` — all rollups (admin only).
* ``GET /api/v1/users/{user}/usage`` / ``/api/v1/projects/{project}/usage``.
* ``GET /api/v1/verify`` — ownership check (``uuid`` + user header):
  the endpoint the CEEMS LB calls in ``api`` authz mode.
* ``GET /api/v1/clusters`` — known clusters.

The database changes only when the updater writes, so every GET answer
is remembered until the next write (:meth:`APIServer._remembered`).
"""

from __future__ import annotations

import math
import sqlite3
import threading
from typing import Any

from repro.apiserver.db import Database
from repro.common.auth import BasicAuth, TLSConfig
from repro.common.errors import NotFoundError
from repro.common.httpx import App, Request, Response

USER_HEADER = "x-grafana-user"

#: Body bytes the answer memo holds at most.  An answer that would pass
#: the cap empties the memo first; a body larger than the cap is never
#: kept.
ANSWER_MEMO_BYTES = 4 * 1024 * 1024


def _bound(raw: str | None) -> float | None:
    """A ``from``/``to`` parameter: absent, or a finite number written
    without digit separators."""
    if not raw:
        return None
    value = float(raw) if "_" not in raw else math.nan
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _count(raw: str) -> int:
    """A ``limit``/``offset`` parameter: a non-negative integer written
    without digit separators."""
    value = int(raw) if "_" not in raw else -1
    if value < 0:
        raise ValueError(raw)
    return value


def _unit_to_json(row: sqlite3.Row) -> dict[str, Any]:
    d = dict(row)
    d["nodelist"] = d["nodelist"].split(",") if d["nodelist"] else []
    return d


class APIServer:
    """HTTP facade over the API server's database."""

    def __init__(
        self,
        db: Database,
        *,
        admin_users: tuple[str, ...] = ("admin",),
        auth: BasicAuth | None = None,
        tls: TLSConfig | None = None,
    ) -> None:
        self.db = db
        self.admin_users = set(admin_users)
        self.app = App(name="ceems-api-server", auth=auth, tls=tls)
        self.app.expose_telemetry()
        #: key -> (``db.writes`` it was computed at, status, headers, body)
        self._answers: dict[tuple, tuple[int, int, dict[str, str], bytes]] = {}
        self._answers_writes = 0
        self._answer_bytes = 0
        #: Guards the byte count, the stores and ``memo_hits``.
        self._answers_lock = threading.Lock()
        self.memo_hits = 0
        r = self.app.router
        for pattern, handler in (
            ("/api/v1/units", self._units),
            ("/api/v1/units/{uuid}", self._unit),
            ("/api/v1/usage/current", self._usage_current),
            ("/api/v1/usage/global", self._usage_global),
            ("/api/v1/users/{user}/usage", self._user_usage),
            ("/api/v1/projects/{project}/usage", self._project_usage),
            ("/api/v1/verify", self._verify),
            ("/api/v1/clusters", self._clusters),
            ("/api/v1/projects", self._projects),
        ):
            r.get(pattern, self._remembered(handler))
        r.get("/-/healthy", lambda _req: Response.text("ok"))

    # -- answer memo ---------------------------------------------------------
    def _remembered(self, handler):
        """``handler`` answering from memory while the database is
        unchanged.

        The key is everything a handler reads of a request: the
        handler, the path, the query parameters and the caller.  The
        write count is read *before* the handler runs, so an answer
        computed across a write is kept under the older count and is
        never served once that write has returned.  A request with a
        body (a form a handler might read) is not remembered.
        """

        def remembered(request: Request) -> Response:
            writes = self.db.writes
            if request.body:
                return handler(request)
            key = (
                handler,
                request.path,
                tuple((name, tuple(values)) for name, values in request.query.items()),
                request.headers.get(USER_HEADER),
            )
            kept = self._answers.get(key)
            if kept is not None and kept[0] == writes:
                with self._answers_lock:
                    self.memo_hits += 1
                return Response(kept[1], dict(kept[2]), kept[3])
            response = handler(request)
            self._keep(key, writes, response)
            return response

        return remembered

    def _keep(self, key: tuple, writes: int, response: Response) -> None:
        size = len(response.body)
        with self._answers_lock:
            if writes != self._answers_writes:
                if writes < self._answers_writes:
                    return  # computed before a write another answer has seen
                self._answers.clear()
                self._answer_bytes = 0
                self._answers_writes = writes
            if size > ANSWER_MEMO_BYTES:
                return
            old = self._answers.pop(key, None)
            if old is not None:
                self._answer_bytes -= len(old[3])
            if self._answer_bytes + size > ANSWER_MEMO_BYTES:
                self._answers.clear()
                self._answer_bytes = 0
            # The middleware adds headers to the response it is handed:
            # keep a copy of the handler's own.
            self._answers[key] = (writes, response.status, dict(response.headers), response.body)
            self._answer_bytes += size

    # -- identity ------------------------------------------------------------
    def _identity(self, request: Request) -> str:
        return request.header(USER_HEADER, "") or ""

    def _is_admin(self, user: str) -> bool:
        return user in self.admin_users

    # -- handlers ---------------------------------------------------------------
    def _units(self, request: Request) -> Response:
        caller = self._identity(request)
        if not caller:
            return Response.error(401, f"missing {USER_HEADER} header")
        requested_user = request.param("user")
        if requested_user and requested_user != caller and not self._is_admin(caller):
            return Response.error(403, "only admins may query other users' units")
        if requested_user:
            user_filter: str | None = requested_user
        elif self._is_admin(caller) and request.param("all") == "true":
            user_filter = None
        else:
            user_filter = caller
        try:
            started_after = _bound(request.param("from"))
            started_before = _bound(request.param("to"))
            limit = _count(request.param("limit", "1000"))
            offset = _count(request.param("offset", "0"))
        except ValueError:
            return Response.error(400, "from/to/limit/offset must be numbers")
        rows = self.db.list_units(
            cluster=request.param("cluster"),
            user=user_filter,
            project=request.param("project"),
            state=request.param("state"),
            started_after=started_after,
            started_before=started_before,
            limit=limit,
            offset=offset,
        )
        return Response.json({"status": "success", "data": [_unit_to_json(r) for r in rows]})

    def _unit(self, request: Request) -> Response:
        caller = self._identity(request)
        if not caller:
            return Response.error(401, f"missing {USER_HEADER} header")
        uuid = request.path_params["uuid"]
        cluster = request.param("cluster")
        clusters = [cluster] if cluster else self.db.clusters()
        for c in clusters:
            try:
                row = self.db.get_unit(c, uuid)
            except NotFoundError:
                continue
            if row["user"] != caller and not self._is_admin(caller):
                return Response.error(403, "not the owner of this unit")
            return Response.json({"status": "success", "data": _unit_to_json(row)})
        return Response.error(404, f"unit {uuid} not found")

    def _usage_current(self, request: Request) -> Response:
        caller = self._identity(request)
        if not caller:
            return Response.error(401, f"missing {USER_HEADER} header")
        rows = self.db.usage_rows(cluster=request.param("cluster"), user=caller)
        return Response.json({"status": "success", "data": [vars(r) for r in rows]})

    def _usage_global(self, request: Request) -> Response:
        caller = self._identity(request)
        if not self._is_admin(caller):
            return Response.error(403, "admin only")
        rows = self.db.usage_rows(cluster=request.param("cluster"))
        return Response.json({"status": "success", "data": [vars(r) for r in rows]})

    def _user_usage(self, request: Request) -> Response:
        caller = self._identity(request)
        user = request.path_params["user"]
        if caller != user and not self._is_admin(caller):
            return Response.error(403, "cannot read another user's usage")
        rows = self.db.usage_rows(cluster=request.param("cluster"), user=user)
        return Response.json({"status": "success", "data": [vars(r) for r in rows]})

    def _project_usage(self, request: Request) -> Response:
        caller = self._identity(request)
        if not caller:
            return Response.error(401, f"missing {USER_HEADER} header")
        project = request.path_params["project"]
        rows = self.db.usage_rows(cluster=request.param("cluster"), project=project)
        if not self._is_admin(caller):
            # Project members can see project rollups: membership =
            # the caller has at least one unit in the project.
            member_rows = self.db.list_units(user=caller, project=project, limit=1)
            if not member_rows:
                return Response.error(403, "not a member of this project")
        return Response.json({"status": "success", "data": [vars(r) for r in rows]})

    def _verify(self, request: Request) -> Response:
        """Ownership verification for the LB (api authz mode)."""
        caller = self._identity(request)
        if not caller:
            return Response.error(401, f"missing {USER_HEADER} header")
        uuids = request.params("uuid")
        if not uuids:
            return Response.error(400, "missing uuid parameter")
        if self._is_admin(caller):
            return Response.json({"status": "success", "data": {"allowed": True}})
        for uuid in uuids:
            owner = self.db.find_unit_owner(uuid)
            if owner is None or owner[0] != caller:
                return Response.error(403, f"unit {uuid} not owned by {caller}")
        return Response.json({"status": "success", "data": {"allowed": True}})

    def _clusters(self, request: Request) -> Response:
        return Response.json({"status": "success", "data": self.db.clusters()})

    def _projects(self, request: Request) -> Response:
        caller = self._identity(request)
        if not caller:
            return Response.error(401, f"missing {USER_HEADER} header")
        projects = self.db.projects(cluster=request.param("cluster"))
        if not self._is_admin(caller):
            member_rows = self.db.list_units(user=caller, limit=1000)
            mine = {row["project"] for row in member_rows}
            projects = [p for p in projects if p in mine]
        return Response.json({"status": "success", "data": projects})
