"""SQLite access layer for the API server.

The paper's design argument (§II.D): SQLite suffices because *"there
is only one go routine that writes to DB at a configured interval"* —
a single writer (the updater) with many readers (API handlers, the
LB's direct-DB authorizer).  This layer enforces that shape: all
writes funnel through explicit transaction methods; reads are plain
queries.  Writer and readers share one connection, so one lock
spans every write transaction and every read on it: a reader on
another thread never sees a transaction's uncommitted statements (a
usage table between a rebuild's ``DELETE`` and its ``INSERT``).
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.common.errors import NotFoundError, StorageError
from repro.resourcemgr.base import ComputeUnit, UnitState
from repro.apiserver.schema import MIGRATIONS, SCHEMA_VERSION


@dataclass
class UsageRow:
    """One user/project rollup row."""

    cluster: str
    user: str
    project: str
    num_units: int
    total_walltime: float
    total_cpu_hours: float
    total_gpu_hours: float
    total_energy_joules: float
    total_emissions_g: float


class Database:
    """The API server's SQLite database."""

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._lock = threading.RLock()
        self.conn = sqlite3.connect(path, check_same_thread=False)
        self.conn.row_factory = sqlite3.Row
        self.conn.execute("PRAGMA journal_mode=WAL") if path != ":memory:" else None
        self.migrate()
        self.writes = 0

    # -- the shared connection ------------------------------------------------
    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """One write transaction, no read in between; counts the write
        once it has committed."""
        with self._lock, self.conn:
            yield self.conn
        self.writes += 1

    def query(self, sql: str, params: Iterable[Any] = ()) -> list[sqlite3.Row]:
        """Every row of one read, taken between write transactions."""
        with self._lock:
            return self.conn.execute(sql, tuple(params)).fetchall()

    def query_one(self, sql: str, params: Iterable[Any] = ()) -> sqlite3.Row | None:
        with self._lock:
            return self.conn.execute(sql, tuple(params)).fetchone()

    # -- migrations -------------------------------------------------------
    def schema_version(self) -> int:
        try:
            row = self.query_one("SELECT value FROM meta WHERE key='schema_version'")
        except sqlite3.OperationalError:
            return 0
        return int(row["value"]) if row else 0

    def migrate(self) -> None:
        current = self.schema_version()
        with self._lock, self.conn:
            for version in range(current + 1, SCHEMA_VERSION + 1):
                for statement in MIGRATIONS[version]:
                    self.conn.execute(statement)
                self.conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?) "
                    "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                    (str(version),),
                )

    # -- unit writes (updater only) ------------------------------------------
    def upsert_units(self, units: Iterable[ComputeUnit], now: float) -> int:
        """Insert or refresh unit records from the resource manager.

        ``elapsed`` for still-running units is measured up to ``now``
        so usage rollups stay meaningful between syncs.
        """

        def elapsed(u: ComputeUnit) -> float:
            if u.started_at is None:
                return 0.0
            end = u.ended_at if u.ended_at is not None else now
            return max(end - u.started_at, 0.0)

        rows = [
            (
                u.cluster,
                u.uuid,
                u.manager,
                u.name,
                u.user,
                u.project,
                u.created_at,
                u.started_at,
                u.ended_at,
                u.state.value,
                u.cpus,
                u.memory_bytes,
                u.gpus,
                ",".join(u.nodelist),
                u.exit_code,
                elapsed(u),
                now,
            )
            for u in units
        ]
        with self._transaction():
            self.conn.executemany(
                """
                INSERT INTO units (cluster, uuid, manager, name, user, project,
                                   created_at, started_at, ended_at, state, cpus,
                                   memory_bytes, gpus, nodelist, exit_code, elapsed,
                                   last_updated)
                VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)
                ON CONFLICT (cluster, uuid) DO UPDATE SET
                    started_at=excluded.started_at,
                    ended_at=excluded.ended_at,
                    state=excluded.state,
                    nodelist=excluded.nodelist,
                    exit_code=excluded.exit_code,
                    elapsed=excluded.elapsed,
                    last_updated=excluded.last_updated
                """,
                rows,
            )
        return len(rows)

    def add_unit_usage(
        self,
        cluster: str,
        usage_by_uuid: dict[str, Any],
        now: float,
    ) -> int:
        """Accumulate window aggregates into unit totals.

        ``usage_by_uuid`` maps uuid → ``UnitUsage``; energy/emissions
        add up across windows, averages fold in weighted by samples,
        peaks take the max.
        """
        updated = 0
        with self._transaction():
            for uuid, usage in usage_by_uuid.items():
                cursor = self.conn.execute(
                    """
                    UPDATE units SET
                        energy_joules = energy_joules + ?,
                        emissions_g = emissions_g + ?,
                        avg_power_watts = ?,
                        avg_cpu_usage = ?,
                        avg_memory_bytes = ?,
                        peak_memory_bytes = MAX(peak_memory_bytes, ?),
                        avg_gpu_power_watts = ?,
                        last_updated = ?
                    WHERE cluster = ? AND uuid = ?
                    """,
                    (
                        usage.energy_joules,
                        usage.emissions_g,
                        usage.avg_power_watts,
                        usage.avg_cpu_usage,
                        usage.avg_memory_bytes,
                        usage.peak_memory_bytes,
                        usage.avg_gpu_power_watts,
                        now,
                        cluster,
                        uuid,
                    ),
                )
                updated += cursor.rowcount
        return updated

    def rebuild_usage_rollups(self, cluster: str, now: float) -> int:
        """Recompute the usage table for one cluster from units."""
        with self._transaction():
            self.conn.execute("DELETE FROM usage WHERE cluster = ?", (cluster,))
            cursor = self.conn.execute(
                """
                INSERT INTO usage (cluster, user, project, num_units, total_walltime,
                                   total_cpu_hours, total_gpu_hours,
                                   total_energy_joules, total_emissions_g, last_updated)
                SELECT cluster, user, project,
                       COUNT(*),
                       COALESCE(SUM(elapsed), 0),
                       COALESCE(SUM(elapsed * cpus / 3600.0), 0),
                       COALESCE(SUM(elapsed * gpus / 3600.0), 0),
                       COALESCE(SUM(energy_joules), 0),
                       COALESCE(SUM(emissions_g), 0),
                       ?
                FROM units WHERE cluster = ?
                GROUP BY cluster, user, project
                """,
                (now, cluster),
            )
        return cursor.rowcount

    def set_last_sync(self, cluster: str, at: float) -> None:
        with self._transaction():
            self.conn.execute(
                "INSERT INTO sync_state (cluster, last_sync) VALUES (?, ?) "
                "ON CONFLICT(cluster) DO UPDATE SET last_sync=excluded.last_sync",
                (cluster, at),
            )

    def last_sync(self, cluster: str) -> float:
        row = self.query_one(
            "SELECT last_sync FROM sync_state WHERE cluster = ?", (cluster,)
        )
        return float(row["last_sync"]) if row else 0.0

    # -- reads ------------------------------------------------------------------
    def get_unit(self, cluster: str, uuid: str) -> sqlite3.Row:
        row = self.query_one(
            "SELECT * FROM units WHERE cluster = ? AND uuid = ?", (cluster, uuid)
        )
        if row is None:
            raise NotFoundError(f"unit {uuid} not found in cluster {cluster}")
        return row

    def find_unit_owner(self, uuid: str) -> tuple[str, str] | None:
        """(user, project) of a unit, any cluster — the LB's hot path."""
        row = self.query_one(
            "SELECT user, project FROM units WHERE uuid = ? LIMIT 1", (uuid,)
        )
        return (row["user"], row["project"]) if row else None

    def list_units(
        self,
        cluster: str | None = None,
        user: str | None = None,
        project: str | None = None,
        state: str | None = None,
        started_after: float | None = None,
        started_before: float | None = None,
        limit: int = 1000,
        offset: int = 0,
    ) -> list[sqlite3.Row]:
        clauses, params = [], []
        for column, value in (
            ("cluster", cluster),
            ("user", user),
            ("project", project),
            ("state", state),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if started_after is not None:
            clauses.append("started_at >= ?")
            params.append(started_after)
        if started_before is not None:
            clauses.append("started_at <= ?")
            params.append(started_before)
        where = ("WHERE " + " AND ".join(clauses)) if clauses else ""
        params.extend([limit, offset])
        return self.query(
            f"SELECT * FROM units {where} ORDER BY created_at DESC LIMIT ? OFFSET ?",
            params,
        )

    def projects(self, cluster: str | None = None) -> list[str]:
        if cluster is None:
            rows = self.query("SELECT DISTINCT project FROM units ORDER BY project")
        else:
            rows = self.query(
                "SELECT DISTINCT project FROM units WHERE cluster = ? ORDER BY project",
                (cluster,),
            )
        return [r["project"] for r in rows]

    def usage_rows(
        self, cluster: str | None = None, user: str | None = None, project: str | None = None
    ) -> list[UsageRow]:
        clauses, params = [], []
        for column, value in (("cluster", cluster), ("user", user), ("project", project)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = ("WHERE " + " AND ".join(clauses)) if clauses else ""
        rows = self.query(
            f"SELECT * FROM usage {where} ORDER BY total_energy_joules DESC", params
        )
        return [
            UsageRow(
                cluster=r["cluster"],
                user=r["user"],
                project=r["project"],
                num_units=r["num_units"],
                total_walltime=r["total_walltime"],
                total_cpu_hours=r["total_cpu_hours"],
                total_gpu_hours=r["total_gpu_hours"],
                total_energy_joules=r["total_energy_joules"],
                total_emissions_g=r["total_emissions_g"],
            )
            for r in rows
        ]

    def short_lived_finished_units(self, cutoff: float) -> list[sqlite3.Row]:
        """Finished units shorter than ``cutoff`` (cleanup candidates)."""
        terminal = tuple(s.value for s in UnitState if s.terminal)
        placeholders = ",".join("?" for _ in terminal)
        return self.query(
            f"SELECT cluster, uuid, elapsed FROM units "
            f"WHERE state IN ({placeholders}) AND elapsed < ? AND elapsed >= 0",
            (*terminal, cutoff),
        )

    def clusters(self) -> list[str]:
        rows = self.query("SELECT DISTINCT cluster FROM units ORDER BY cluster")
        return [r["cluster"] for r in rows]

    def count_units(self, cluster: str | None = None) -> int:
        if cluster is None:
            return int(self.query_one("SELECT COUNT(*) AS n FROM units")["n"])
        return int(
            self.query_one(
                "SELECT COUNT(*) AS n FROM units WHERE cluster = ?", (cluster,)
            )["n"]
        )

    # -- serialization (backups) -----------------------------------------------
    def serialize(self) -> bytes:
        """Full DB image (SQLite serialize API)."""
        with self._lock:
            return self.conn.serialize()

    @classmethod
    def restore(cls, image: bytes) -> "Database":
        """Rebuild a Database from a serialized image."""
        db = cls.__new__(cls)
        db.path = ":memory:"
        db._lock = threading.RLock()
        db.conn = sqlite3.connect(":memory:", check_same_thread=False)
        db.conn.row_factory = sqlite3.Row
        db.conn.deserialize(image)
        db.writes = 0
        db.migrate()
        return db

    def close(self) -> None:
        with self._lock:
            self.conn.close()

    def integrity_check(self) -> bool:
        row = self.query_one("PRAGMA integrity_check")
        if row[0] != "ok":
            raise StorageError(f"integrity check failed: {row[0]}")
        return True
