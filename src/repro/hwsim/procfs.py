"""``/proc`` pseudo-filesystem rendering for node-level metrics.

Besides per-workload cgroup metrics, the exporter collects node-level
totals — total CPU usage and total memory usage — from ``/proc`` and
``/sys`` (paper §II.A.a).  Those totals are the denominators of the
paper's Eq. (1): ``T_node,t`` and ``M_node,t``.

The renderers produce the exact kernel text formats, so the exporter's
node collector parses ``/proc/stat`` and ``/proc/meminfo`` the way the
Go original does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

#: Kernel USER_HZ: jiffies per second in /proc/stat.
USER_HZ = 100


@dataclass
class ProcFS:
    """Node-level accounting backing ``/proc/stat`` and ``/proc/meminfo``.

    The node simulation charges CPU time and sets memory occupancy;
    idle time is derived from wall time so that
    ``user + system + idle == ncpus * elapsed`` exactly — an invariant
    the property tests check and Eq. (1) silently relies on.
    """

    ncpus: int
    memory_total_bytes: int
    boot_time: float = 0.0

    user_usec: int = 0
    system_usec: int = 0
    iowait_usec: int = 0
    memory_used_bytes: int = 0
    #: Page cache; counts as available memory, as MemAvailable does.
    cached_bytes: int = 0
    _elapsed: float = field(default=0.0, repr=False)

    # -- charging -------------------------------------------------------
    def advance(self, dt: float) -> None:
        self._elapsed += dt

    def charge_cpu(self, user_usec: int, system_usec: int) -> None:
        self.user_usec += user_usec
        self.system_usec += system_usec

    def set_memory(self, used_bytes: int, cached_bytes: int | None = None) -> None:
        self.memory_used_bytes = min(max(used_bytes, 0), self.memory_total_bytes)
        if cached_bytes is not None:
            self.cached_bytes = min(max(cached_bytes, 0), self.memory_total_bytes - self.memory_used_bytes)

    # -- derived totals ---------------------------------------------------
    @property
    def busy_usec(self) -> int:
        return self.user_usec + self.system_usec

    @property
    def idle_usec(self) -> int:
        total_capacity = int(self._elapsed * 1e6) * self.ncpus
        return max(total_capacity - self.busy_usec - self.iowait_usec, 0)

    @property
    def cpu_util(self) -> float:
        """Instantaneous-ish utilisation over the whole history."""
        capacity = self._elapsed * 1e6 * self.ncpus
        return self.busy_usec / capacity if capacity > 0 else 0.0

    # -- kernel-format rendering ------------------------------------------
    def render_stat(self) -> str:
        """``/proc/stat`` — aggregate ``cpu`` line (jiffies, USER_HZ)."""

        def jiffies(usec: int) -> int:
            return usec * USER_HZ // 1_000_000

        user = jiffies(self.user_usec)
        system = jiffies(self.system_usec)
        idle = jiffies(self.idle_usec)
        iowait = jiffies(self.iowait_usec)
        n = self.ncpus
        # Per-cpu lines: distribute evenly; collectors only use the sum.
        # Every one ends alike, so the ending joins the (fixed) names.
        share = f" {user // n} 0 {system // n} {idle // n} {iowait // n} 0 0 0 0 0\n"
        per_cpu = share.join(_cpu_names(n))
        return f"cpu  {user} 0 {system} {idle} {iowait} 0 0 0 0 0\n{per_cpu}btime {int(self.boot_time)}\n"

    def render_meminfo(self) -> str:
        """``/proc/meminfo`` — the fields node collectors parse (kB)."""
        total_kb = self.memory_total_bytes // 1024
        used_kb = self.memory_used_bytes // 1024
        cached_kb = self.cached_bytes // 1024
        free_kb = max(total_kb - used_kb - cached_kb, 0)
        available_kb = free_kb + cached_kb
        return (
            f"MemTotal:       {total_kb} kB\n"
            f"MemFree:        {free_kb} kB\n"
            f"MemAvailable:   {available_kb} kB\n"
            f"Buffers:        0 kB\n"
            f"Cached:         {cached_kb} kB\n"
        )


@lru_cache(maxsize=None)
def _cpu_names(ncpus: int) -> tuple[str, ...]:
    """``cpu0`` … ``cpu<n-1>`` and a trailing ``""`` (so that joining
    with a line ending also ends the last line)."""
    return (*(f"cpu{cpu}" for cpu in range(ncpus)), "")


def parse_proc_stat(text: str) -> dict[str, int]:
    """Parse the aggregate ``cpu`` line of ``/proc/stat`` into usec.

    Returns ``{"user_usec": …, "system_usec": …, "idle_usec": …,
    "iowait_usec": …}``, converting jiffies back to microseconds.
    """
    for line in text.splitlines():
        if line.startswith("cpu "):
            fields = line.split()
            to_usec = 1_000_000 // USER_HZ
            return {
                "user_usec": int(fields[1]) * to_usec,
                "system_usec": int(fields[3]) * to_usec,
                "idle_usec": int(fields[4]) * to_usec,
                "iowait_usec": int(fields[5]) * to_usec,
            }
    raise ValueError("no aggregate cpu line in /proc/stat text")


def parse_meminfo(text: str) -> dict[str, int]:
    """Parse ``/proc/meminfo`` into a name → bytes mapping."""
    out: dict[str, int] = {}
    for line in text.splitlines():
        name, _, rest = line.partition(":")
        value = rest.strip().split()
        if value:
            out[name] = int(value[0]) * 1024
    return out
