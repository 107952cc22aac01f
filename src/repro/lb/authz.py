"""Ownership authorization for the LB.

Two modes, matching the paper's architecture paragraph: the LB checks
ownership *"by directly querying the CEEMS API server's DB, when
available.  If the DB file is not accessible, CEEMS LB makes an API
request to the CEEMS API server."*
"""

from __future__ import annotations

import abc

from repro.apiserver.api import USER_HEADER
from repro.apiserver.db import Database
from repro.common.httpx import App, Request


class Authorizer(abc.ABC):
    """Decides whether ``user`` may read units ``uuids``."""

    def __init__(self, admin_users: tuple[str, ...] = ("admin",)) -> None:
        self.admin_users = set(admin_users)
        self.checks = 0
        self.denials = 0

    def allowed(self, user: str, uuids: set[str], *, unbounded: bool) -> bool:
        self.checks += 1
        if user in self.admin_users:
            return True
        if unbounded:
            self.denials += 1
            return False
        verdict = self._check(user, uuids)
        if not verdict:
            self.denials += 1
        return verdict

    @abc.abstractmethod
    def _check(self, user: str, uuids: set[str]) -> bool:
        """Non-admin ownership check for an enumerated uuid set."""


class DBAuthorizer(Authorizer):
    """Direct SQLite lookups (the fast path).

    Owners are remembered per uuid until the database's write count
    moves; the count is read before the lookups, so an owner read
    across a write is never used after it.  Unknown uuids are looked up
    every time, which bounds the memo by the units the database holds.
    """

    def __init__(self, db: Database, admin_users: tuple[str, ...] = ("admin",)) -> None:
        super().__init__(admin_users)
        self.db = db
        #: (``db.writes`` the owners were read at, uuid -> (user, project))
        self._owners: tuple[int, dict[str, tuple[str, str]]] = (-1, {})

    def _check(self, user: str, uuids: set[str]) -> bool:
        writes = self.db.writes
        read_at, owners = self._owners
        if read_at != writes:
            owners = {}
            self._owners = (writes, owners)
        for uuid in uuids:
            owner = owners.get(uuid)
            if owner is None:
                owner = self.db.find_unit_owner(uuid)
                if owner is None:
                    return False
                owners[uuid] = owner
            if owner[0] != user:
                return False
        return True


class APIAuthorizer(Authorizer):
    """HTTP calls to the API server's ``/api/v1/verify`` endpoint."""

    def __init__(self, api_app: App, admin_users: tuple[str, ...] = ("admin",)) -> None:
        super().__init__(admin_users)
        self.api_app = api_app

    def _check(self, user: str, uuids: set[str]) -> bool:
        query = "&".join(f"uuid={uuid}" for uuid in sorted(uuids))
        response = self.api_app.handle(
            Request.from_url("GET", f"/api/v1/verify?{query}", headers={USER_HEADER: user})
        )
        return response.ok
