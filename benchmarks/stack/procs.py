"""Server lifecycle and /proc accounting for the stack benchmark.

The server under test is the product's own ``python -m repro serve``,
one child process per launch.  It may spawn exec workers, so CPU and
memory are summed over the whole process *tree*, and teardown kills the
whole tree on every exit path.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_SHM_DIR = Path("/dev/shm")
_SHM_PREFIX = "repro-exec"


# -- /proc parsers -----------------------------------------------------------

def parse_stat(text: str) -> tuple[int, int, str]:
    """``(ppid, pgrp, state)`` from one /proc/<pid>/stat.

    The command name (field 2) may hold spaces and parentheses, so the
    fixed fields are counted from the *last* ``)``.
    """
    fields = text[text.rindex(")") + 2:].split()
    return int(fields[1]), int(fields[2]), fields[0]


def process_table() -> dict[int, tuple[int, int, str]]:
    """``pid -> parse_stat(...)`` for every process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            table[int(entry)] = parse_stat(
                Path("/proc", entry, "stat").read_text())
        except (OSError, ValueError):
            continue  # exited while we were reading
    return table


def descendants(table: dict[int, tuple], root: int) -> list[int]:
    """Every process below ``root``, root excluded."""
    children: dict[int, list[int]] = {}
    for pid, row in table.items():
        children.setdefault(row[0], []).append(pid)
    found, frontier = [], [root]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found += kids
        frontier += kids
    return found


def cpu_clock_s(pid: int) -> float:
    """CPU seconds used so far by every thread of ``pid``, read from
    its POSIX CPU-time clock: nanosecond resolution in one system call
    (/proc/<pid>/stat counts 10 ms ticks, too coarse for one request).
    0.0 once the process is gone."""
    try:
        # clock_getcpuclockid(3): the clock id of another process.
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        return 0.0


class TreeClock:
    """CPU clock of a server and the processes below it (its exec
    workers), which are looked up once: they live as long as it does."""

    def __init__(self, root: int) -> None:
        self.root = root
        self.below = descendants(process_table(), root)

    def read(self) -> tuple[float, float]:
        """CPU seconds used so far by ``(root, its descendants)``."""
        return (cpu_clock_s(self.root),
                sum(cpu_clock_s(pid) for pid in self.below))


def tree_peak_rss_mb(root: int) -> float:
    """Sum of ``VmHWM`` over the tree, in MB."""
    total_kb = 0
    for pid in [root] + descendants(process_table(), root):
        try:
            status = Path("/proc", str(pid), "status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


def shm_slabs() -> set[str]:
    """Names of the exec layer's shared-memory slabs now in /dev/shm."""
    if not _SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(_SHM_DIR)
            if name.startswith(_SHM_PREFIX)}


# -- the served child --------------------------------------------------------

def parse_port(line: str) -> int:
    """The ephemeral port from ``serving on host:port (...)``."""
    match = re.search(r"serving on \S+:(\d+)", line)
    if not match:
        raise RuntimeError(f"no port in server banner {line!r}")
    return int(match.group(1))


def parse_drain(text: str) -> dict[str, int]:
    """Counters the server prints while draining (``drained:``/``cache:``)."""
    out: dict[str, int] = {}
    match = re.search(r"drained: (\d+) served, (\d+) shed, (\d+) failed",
                      text)
    if match:
        out.update(zip(("served", "shed", "failed"),
                       map(int, match.groups())))
    match = re.search(r"cache: (\d+) hits / (\d+) requests", text)
    if match:
        out["cache_hits"], out["cache_requests"] = map(int, match.groups())
    return out


def child_env(src_dir: Path) -> dict[str, str]:
    """The environment of a child that imports the program under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + ([env["PYTHONPATH"]]
                          if env.get("PYTHONPATH") else []))
    return env


def sweep_group(proc: subprocess.Popen, timeout_s: float = 5.0) -> None:
    """SIGKILL the child's process group (the child was started in its
    own session, so that is everything it spawned) and wait until no
    member is left; safe to repeat."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    deadline = time.monotonic() + timeout_s
    while True:
        # A zombie is dead; whoever inherited it will reap it.
        left = [pid for pid, row in process_table().items()
                if row[1] == proc.pid and row[2] != "Z"]
        if not left:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"child left processes behind: {left}")
        time.sleep(0.02)


class Server:
    """One ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, src_dir: Path, serve_args: list[str],
                 cpus: set[int]) -> None:
        self.started_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             *serve_args],
            stdout=subprocess.PIPE, text=True, env=child_env(src_dir),
            start_new_session=True)
        # Before it has started a thread or a worker: all inherit it.
        os.sched_setaffinity(self.proc.pid, cpus)
        try:
            banner = self.proc.stdout.readline()
            self.port = parse_port(banner)
        except BaseException:
            sweep_group(self.proc)
            raise
        self.pid = self.proc.pid

    def stop(self) -> dict[str, int]:
        """Drain (SIGTERM), then sweep the tree; returns drain counters."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            output, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            sweep_group(self.proc)
            raise RuntimeError("server did not drain within 30 s")
        sweep_group(self.proc)
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"server exited with code {self.proc.returncode}")
        return parse_drain(output)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        sweep_group(self.proc)
