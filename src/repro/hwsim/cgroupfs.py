"""In-memory cgroup pseudo-filesystem (v2 layout, v1-compat views).

Resource managers create one cgroup per compute workload (paper
§II.A.a: a batch job for SLURM, a VM for OpenStack/libvirt, a pod for
Kubernetes) and the kernel maintains per-controller accounting files
under ``/sys/fs/cgroup``.  The CEEMS exporter's cgroup collector walks
this tree and parses those files.

This module reproduces the part of cgroup v2 the stack observes:

* a hierarchy with create/delete and path lookup,
* accounting files rendered **byte-compatibly** with the kernel
  formats: ``cpu.stat``, ``memory.current``, ``memory.peak``,
  ``memory.max``, ``memory.stat``, ``io.stat``, ``pids.current``,
  ``cpuset.cpus``, ``cpu.max``,
* charge APIs the node simulation uses to account CPU time, memory
  and IO to a workload's cgroup,
* a cgroup v1 compatibility view (``cpuacct.usage`` et al.) since the
  real CEEMS supports clusters still on v1.

The file *contents* are strings exactly as the kernel writes them, so
the exporter parses text rather than peeking at Python attributes —
keeping the collector honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.common.errors import SimulationError


def _format_cpuset(cpus: tuple[int, ...]) -> str:
    """Render a CPU list the way ``cpuset.cpus`` does (``0-3,8,10-11``)."""
    if not cpus:
        return ""
    sorted_cpus = sorted(set(cpus))
    ranges: list[tuple[int, int]] = []
    start = prev = sorted_cpus[0]
    for cpu in sorted_cpus[1:]:
        if cpu == prev + 1:
            prev = cpu
            continue
        ranges.append((start, prev))
        start = prev = cpu
    ranges.append((start, prev))
    return ",".join(f"{a}-{b}" if a != b else f"{a}" for a, b in ranges)


def parse_cpuset(text: str) -> tuple[int, ...]:
    """Inverse of :func:`_format_cpuset`."""
    text = text.strip()
    if not text:
        return ()
    cpus: list[int] = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            cpus.extend(range(int(a), int(b) + 1))
        else:
            cpus.append(int(part))
    return tuple(cpus)


@dataclass
class IOStat:
    """Per-device IO accounting (``io.stat`` line)."""

    rbytes: int = 0
    wbytes: int = 0
    rios: int = 0
    wios: int = 0

    def render(self, device: str) -> str:
        return (
            f"{device} rbytes={self.rbytes} wbytes={self.wbytes} "
            f"rios={self.rios} wios={self.wios} dbytes=0 dios=0"
        )


@dataclass
class Cgroup:
    """One cgroup directory with its controller accounting state."""

    path: str
    controllers: tuple[str, ...] = ("cpu", "memory", "io", "pids", "cpuset")

    # cpu controller
    usage_usec: int = 0
    user_usec: int = 0
    system_usec: int = 0
    nr_periods: int = 0
    nr_throttled: int = 0
    throttled_usec: int = 0
    #: cpu.max quota: (max_usec_per_period or None, period_usec)
    cpu_quota_usec: int | None = None
    cpu_period_usec: int = 100000

    # memory controller
    memory_current: int = 0
    memory_peak: int = 0
    memory_limit: int | None = None
    memory_anon: int = 0
    memory_file: int = 0
    memory_kernel: int = 0
    memory_oom_events: int = 0

    # io controller: device ("major:minor") -> IOStat
    io: dict[str, IOStat] = field(default_factory=dict)

    # pids controller
    pids_current: int = 0
    pids_max: int | None = None

    # cpuset controller
    cpuset_cpus: tuple[int, ...] = ()

    children: dict[str, "Cgroup"] = field(default_factory=dict)

    # -- charging API (used by the node simulation) --------------------
    def charge_cpu(self, user_usec: int, system_usec: int) -> None:
        if user_usec < 0 or system_usec < 0:
            raise SimulationError(f"negative CPU charge on {self.path}")
        self.user_usec += user_usec
        self.system_usec += system_usec
        self.usage_usec += user_usec + system_usec

    def set_memory(self, current: int, anon: int | None = None, file: int | None = None) -> None:
        if current < 0:
            raise SimulationError(f"negative memory on {self.path}")
        if self.memory_limit is not None and current > self.memory_limit:
            # Model the OOM-killer boundary: usage is clamped at the
            # limit and an oom event is recorded.
            current = self.memory_limit
            self.memory_oom_events += 1
        self.memory_current = current
        self.memory_peak = max(self.memory_peak, current)
        self.memory_anon = anon if anon is not None else int(current * 0.9)
        self.memory_file = file if file is not None else current - self.memory_anon
        self.memory_kernel = max(int(current * 0.01), 0)

    def charge_io(self, device: str, rbytes: int = 0, wbytes: int = 0, rios: int = 0, wios: int = 0) -> None:
        stat = self.io.setdefault(device, IOStat())
        stat.rbytes += rbytes
        stat.wbytes += wbytes
        stat.rios += rios
        stat.wios += wios

    # -- kernel-format file rendering ----------------------------------
    def read(self, name: str) -> str:
        """One readable file, kernel-formatted: a v2 name (``cpu.stat``)
        or a v1 per-controller one (``cpuacct/cpuacct.stat``).  Only
        the file asked for is rendered."""
        entry = _V2_FILES.get(name)
        if entry is not None:
            controller, render = entry
            if controller is None or controller in self.controllers:
                return render(self)
        else:
            render = _V1_FILES.get(name)
            if render is not None:
                return render(self)
        raise SimulationError(f"no file {name!r} in cgroup {self.path}")

    def files(self) -> dict[str, str]:
        """All readable v2 files of this cgroup, kernel-formatted."""
        return {
            name: self.read(name)
            for name, (controller, _render) in _V2_FILES.items()
            if controller is None or controller in self.controllers
        }

    def v1_files(self) -> dict[str, str]:
        """cgroup v1 compatibility view (per-controller hierarchies)."""
        return {name: self.read(name) for name in _V1_FILES}


def _cpu_stat(cg: Cgroup) -> str:
    return (
        f"usage_usec {cg.usage_usec}\n"
        f"user_usec {cg.user_usec}\n"
        f"system_usec {cg.system_usec}\n"
        f"nr_periods {cg.nr_periods}\n"
        f"nr_throttled {cg.nr_throttled}\n"
        f"throttled_usec {cg.throttled_usec}\n"
    )


def _cpu_max(cg: Cgroup) -> str:
    quota = "max" if cg.cpu_quota_usec is None else str(cg.cpu_quota_usec)
    return f"{quota} {cg.cpu_period_usec}\n"


def _memory_stat(cg: Cgroup) -> str:
    return (
        f"anon {cg.memory_anon}\n"
        f"file {cg.memory_file}\n"
        f"kernel {cg.memory_kernel}\n"
        f"kernel_stack 0\nslab {cg.memory_kernel}\n"
    )


def _memory_events(cg: Cgroup) -> str:
    return f"low 0\nhigh 0\nmax 0\noom {cg.memory_oom_events}\noom_kill {cg.memory_oom_events}\n"


def _io_stat(cg: Cgroup) -> str:
    return "".join(stat.render(dev) + "\n" for dev, stat in sorted(cg.io.items()))


def _limit(value: int | None) -> str:
    return ("max" if value is None else str(value)) + "\n"


def _cpuset(cg: Cgroup) -> str:
    return _format_cpuset(cg.cpuset_cpus) + "\n"


def _v1_cpuacct_stat(cg: Cgroup) -> str:
    # v1 cpuacct.stat counts in USER_HZ (100 Hz) ticks.
    return f"user {cg.user_usec // 10000}\nsystem {cg.system_usec // 10000}\n"


def _v1_limit(cg: Cgroup) -> str:
    return (str(cg.memory_limit) if cg.memory_limit is not None else str(2**63 - 4096)) + "\n"


#: Every v2 file, in ``files()`` order: name -> (the controller that
#: provides it, ``None`` for the core files; its one renderer).
_V2_FILES: dict[str, tuple[str | None, Callable[[Cgroup], str]]] = {
    "cgroup.controllers": (None, lambda cg: " ".join(cg.controllers)),
    "cpu.stat": ("cpu", _cpu_stat),
    "cpu.max": ("cpu", _cpu_max),
    "memory.current": ("memory", lambda cg: f"{cg.memory_current}\n"),
    "memory.peak": ("memory", lambda cg: f"{cg.memory_peak}\n"),
    "memory.max": ("memory", lambda cg: _limit(cg.memory_limit)),
    "memory.stat": ("memory", _memory_stat),
    "memory.events": ("memory", _memory_events),
    "io.stat": ("io", _io_stat),
    "pids.current": ("pids", lambda cg: f"{cg.pids_current}\n"),
    "pids.max": ("pids", lambda cg: _limit(cg.pids_max)),
    "cpuset.cpus": ("cpuset", _cpuset),
    "cpuset.cpus.effective": ("cpuset", _cpuset),
}

#: The v1 compatibility files, in ``v1_files()`` order.
_V1_FILES: dict[str, Callable[[Cgroup], str]] = {
    "cpuacct/cpuacct.usage": lambda cg: f"{cg.usage_usec * 1000}\n",
    "cpuacct/cpuacct.stat": _v1_cpuacct_stat,
    "memory/memory.usage_in_bytes": lambda cg: f"{cg.memory_current}\n",
    "memory/memory.max_usage_in_bytes": lambda cg: f"{cg.memory_peak}\n",
    "memory/memory.limit_in_bytes": _v1_limit,
    "pids/pids.current": lambda cg: f"{cg.pids_current}\n",
}


class CgroupFS:
    """The cgroup hierarchy of one node.

    Paths are slash-separated and rooted at ``/`` (standing for
    ``/sys/fs/cgroup``).  The root cgroup exists implicitly and
    aggregates nothing by itself — node-level totals come from procfs,
    mirroring how the real exporter works.
    """

    def __init__(self) -> None:
        self.root = Cgroup(path="/")

    # -- hierarchy management ------------------------------------------
    @staticmethod
    def _parts(path: str) -> list[str]:
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise SimulationError("cannot address the root cgroup here")
        return parts

    def create(self, path: str, **attrs: object) -> Cgroup:
        """Create a cgroup (and missing ancestors), returning it.

        ``attrs`` set initial attributes on the leaf (e.g.
        ``memory_limit=…``, ``cpuset_cpus=…``).
        """
        node = self.root
        for part in self._parts(path):
            if part not in node.children:
                child_path = (node.path.rstrip("/") + "/" + part) if node.path != "/" else "/" + part
                node.children[part] = Cgroup(path=child_path)
            node = node.children[part]
        for key, value in attrs.items():
            if not hasattr(node, key):
                raise SimulationError(f"unknown cgroup attribute {key!r}")
            setattr(node, key, value)
        return node

    def get(self, path: str) -> Cgroup:
        node = self.root
        for part in self._parts(path):
            try:
                node = node.children[part]
            except KeyError:
                raise SimulationError(f"no such cgroup: {path}") from None
        return node

    def exists(self, path: str) -> bool:
        try:
            self.get(path)
            return True
        except SimulationError:
            return False

    def delete(self, path: str) -> None:
        """Remove a cgroup; it must have no children (kernel rule)."""
        parts = self._parts(path)
        parent = self.root
        for part in parts[:-1]:
            try:
                parent = parent.children[part]
            except KeyError:
                raise SimulationError(f"no such cgroup: {path}") from None
        leaf = parent.children.get(parts[-1])
        if leaf is None:
            raise SimulationError(f"no such cgroup: {path}")
        if leaf.children:
            raise SimulationError(f"cgroup {path} has children; cannot delete")
        del parent.children[parts[-1]]

    # -- traversal -------------------------------------------------------
    def walk(self) -> Iterator[Cgroup]:
        """Depth-first traversal of all cgroups below the root."""
        stack = sorted(self.root.children.values(), key=lambda c: c.path, reverse=True)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(sorted(node.children.values(), key=lambda c: c.path, reverse=True))

    def leaves(self) -> Iterator[Cgroup]:
        """Only cgroups with no children (where processes actually live)."""
        for node in self.walk():
            if not node.children:
                yield node

    def read(self, cgroup_path: str, filename: str) -> str:
        """Read one accounting file, as the collector would."""
        return self.get(cgroup_path).read(filename)
