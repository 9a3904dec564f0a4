"""Closed-loop load generation against one served workload.

Closed loop because the paper's callers are synchronous library/RPC
callers: each connection sends its next request only after the reply to
the previous one.  A round is a ``solo`` segment (one connection) and a
``loaded`` segment (``nproc`` connections); each is a fixed number of
*bursts* (payloads.py), so every count and the compression ratio repeat
exactly under one seed.  Every reply is verified with the stdlib, never
with the repo's codec.

**Speed correction.**  The reference host is a small VM on a shared
machine whose speed drifts by tens of percent for seconds to minutes,
CPU seconds included, so no statistic of raw times repeats from run to
run.  A fixed *probe* is therefore timed before and after every burst,
and every time the burst measured is divided by the host's *slowdown*,
the probe's time over the time it is defined to take: a corrected time
reads milliseconds on a host that runs the probe in exactly its
reference time.  A metric is the median of the corrected samples that
did the same work, averaged over the kinds of work.
"""

from __future__ import annotations

import gzip
import math
import os
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.service import ServiceClient

from payloads import Item, Plan, Workload, stamp
from procs import TreeClock

#: A reply slower than this counts as failed (timed out).
REQUEST_TIMEOUT_S = 30.0

#: The times the two parts of the probe are *defined* to take: one
#: scan, and one round trip of the ping-pong.  (The reference host
#: takes 0.85-1.3 ms and 4-7 us.)
SCAN_REF_S = 1e-3
TRIP_REF_S = 5e-6


def _probe_text(size: int = 3600) -> bytes:
    """Fixed pseudo-random text over ten symbols: short matches."""
    state, out = 12345, bytearray()
    for _ in range(size):
        state = (state * 1103515245 + 12345) & 0x7fffffff
        out.append(b"abcdefgh \n"[(state >> 16) % 10])
    return bytes(out)


_PROBE_TEXT = _probe_text()


def scan_pass(data: bytes = _PROBE_TEXT) -> float:
    """Seconds one scan takes right now.

    The scan is a frozen miniature of what the program spends its time
    on: a pure-Python LZ77 hash-chain scan (byte indexing, a dict keyed
    by ints, tuples appended to a list).  A tight arithmetic loop was
    tried first and follows the program less well: corrected by it the
    four workloads' latencies spread 4-20 % over six runs, corrected by
    this probe 2-13 %.
    """
    t0 = time.perf_counter()
    head: dict[int, int] = {}
    tokens: list = []
    i, end = 0, len(data) - 3
    while i < end:
        key = data[i] | data[i + 1] << 8 | data[i + 2] << 16
        candidate = head.get(key)
        head[key] = i
        length = 0
        if candidate is not None:
            while (i + length < end and length < 258
                   and data[candidate + length] == data[i + length]):
                length += 1
        if length >= 3:
            tokens.append((length, i - candidate))
            i += length
        else:
            tokens.append(data[i])
            i += 1
    return time.perf_counter() - t0


class Probe:
    """The host's slowdown right now: probe time over reference time.

    The probe is one scan and, for a workload bound by messages rather
    than by the codec, ``trips`` round trips of one byte to an echo
    thread over a socket pair: what such a request is made of besides
    bytecode is system calls and thread wake-ups, and a loaded host
    slows those by another factor than it slows the scan.  It runs on
    every CPU the workload may run on, averaged.
    """

    def __init__(self, cpus: set[int], trips: int = 0) -> None:
        self.cpus = sorted(cpus)
        self.trips = trips
        self.ref_s = SCAN_REF_S + trips * TRIP_REF_S
        if trips:
            # Started by a caller already pinned to ``cpus``: the echo
            # thread inherits that.
            self.near, self.far = socket.socketpair()
            threading.Thread(target=self._echo, daemon=True).start()

    def _echo(self) -> None:
        while data := self.far.recv(1):
            self.far.send(data)
        self.far.close()

    def close(self) -> None:
        if self.trips:
            self.near.close()   # ends the echo thread

    def _once(self) -> float:
        seconds = scan_pass()
        if self.trips:
            near = self.near
            t0 = time.perf_counter()
            for _ in range(self.trips):
                near.send(b"x")
                near.recv(1)
            seconds += time.perf_counter() - t0
        return seconds

    def __call__(self) -> float:
        if len(self.cpus) == 1:     # the caller is pinned there already
            return self._once() / self.ref_s
        total = 0.0
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})  # the calling thread only
                total += self._once()
        finally:
            os.sched_setaffinity(0, self.cpus)
        return total / len(self.cpus) / self.ref_s


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def group_median(groups: dict[int, list[float]]) -> float:
    """Mean over the groups of each group's median: every group did
    other work, so a statistic is only ever taken inside one."""
    return statistics.fmean(statistics.median(values)
                            for values in groups.values())


class Verifier:
    """Checks replies against the stdlib and counts the failures.

    A reply byte-identical to one already verified for the same payload
    is accepted by comparison (the cache workload repeats 16 payloads
    tens of thousands of times).
    """

    def __init__(self, workload: Workload) -> None:
        self.compressing = workload.op == "compress"
        self.repeating = not workload.stamped
        self.attempted = 0
        self.failed = 0
        self._good: dict[bytes, bytes] = {}

    def check(self, item: Item, output: bytes | None) -> bool:
        """Count one request; ``output`` is None when it raised."""
        self.attempted += 1
        ok = output is not None and self._verify(item, output)
        if not ok:
            self.failed += 1
        return ok

    def _verify(self, item: Item, output: bytes) -> bool:
        if self._good.get(item.wire) == output:
            return True
        try:
            ok = (gzip.decompress(output) if self.compressing
                  else output) == item.plain
        except (OSError, EOFError, ValueError):
            ok = False
        if ok and self.repeating:
            self._good[item.wire] = output
        return ok


@dataclass
class Sample:
    """What one burst measured; times as read, not yet corrected."""

    group: int
    wall_s: float
    slowdown: float          # mean of the probes before and after
    cpu_root_s: float        # server process, over the burst
    cpu_workers_s: float     # its descendants, over the burst
    client_cpu_s: float
    latencies_s: list[float] = field(default_factory=list)
    bytes_plain: int = 0     # verified uncompressed-side bytes
    bytes_packed: int = 0    # the compressed side of the same requests

    def corrected(self, seconds: float) -> float:
        return seconds / self.slowdown


@dataclass
class Round:
    solo: list[Sample]
    loaded: list[Sample]


def _drive(client: ServiceClient, workload: Workload, items: list[Item],
           replies: list) -> float:
    """One connection's closed loop; returns its thread CPU seconds."""
    cpu0 = time.thread_time()
    for item in items:
        t0 = time.perf_counter()
        try:
            output = client.request(workload.op, item.wire, qos=workload.qos,
                                    fmt="gzip").output
        except (ReproError, OSError, TimeoutError):
            # Shed, expired, timed out or a broken connection: the
            # request failed; the next one redials.
            output = None
            client.close()
        replies.append((item, output, time.perf_counter() - t0))
    return time.thread_time() - cpu0


class LoadGen:
    """Drives one server: bursts, the probes between them, the server
    tree's CPU clock around them, and the verification after them."""

    def __init__(self, workload: Workload, items: list[Item],
                 clients: list[ServiceClient], server_pid: int,
                 probe: Probe, verifier: Verifier) -> None:
        self.workload = workload
        self.items = items
        self.clients = clients
        self.verifier = verifier
        self.clock = TreeClock(server_pid)
        self.probe = probe
        self.serial = 0
        self._last_probe: float | None = None

    def _requests(self, segment: str, burst: int) -> list[Item]:
        items = [self.items[p]
                 for p in self.workload.positions(segment, burst)]
        if self.workload.stamped:
            self.serial += len(items)
            items = [stamp(item, self.serial - j)
                     for j, item in enumerate(items)]
        return items

    def burst(self, segment: str, burst: int) -> Sample:
        """One burst (request j on connection ``j % connections``),
        verified after the clock stops."""
        clients = self.clients[:1] if segment == "solo" else self.clients
        requests = self._requests(segment, burst)
        shares = [requests[k::len(clients)] for k in range(len(clients))]
        replies: list[list] = [[] for _ in clients]
        cpus = [0.0] * len(clients)

        def worker(k: int) -> None:
            cpus[k] = _drive(clients[k], self.workload, shares[k],
                             replies[k])

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(1, len(clients))]
        before = self._last_probe or self.probe()
        root0, below0 = self.clock.read()
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        worker(0)
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        self._last_probe = after = self.probe()
        sample = Sample(self.workload.positions(segment, burst)[0], wall,
                        (before + after) / 2, 0.0, 0.0, sum(cpus))
        for item, output, latency in (r for per in replies for r in per):
            sample.latencies_s.append(latency)
            if self.verifier.check(item, output):
                packed = output if self.verifier.compressing else item.wire
                sample.bytes_plain += len(item.plain)
                sample.bytes_packed += len(packed)
        # Read last, so that what the server does after it has replied
        # is counted too.
        root1, below1 = self.clock.read()
        sample.cpu_root_s = root1 - root0
        sample.cpu_workers_s = below1 - below0
        return sample

    def round(self, plan: Plan) -> Round:
        self.clock = TreeClock(self.clock.root)     # workers start lazily
        return Round([self.burst("solo", b)
                      for b in range(plan.solo_bursts)],
                     [self.burst("loaded", b)
                      for b in range(plan.loaded_bursts)])


def _grouped(samples: list[Sample], value) -> dict[int, list[float]]:
    groups: dict[int, list[float]] = {}
    for sample in samples:
        groups.setdefault(sample.group, []).append(value(sample))
    return groups


def timing_metrics(rounds: list[Round]) -> dict[str, float]:
    """The three speed-corrected end-to-end timings over ``rounds``."""
    solo = [s for r in rounds for s in r.solo]
    loaded = [s for r in rounds for s in r.loaded]
    return {
        "latency_ms": 1e3 * group_median(_grouped(
            solo, lambda s: s.corrected(s.wall_s) / len(s.latencies_s))),
        "server_cpu_ms_per_req": 1e3 * group_median(_grouped(
            solo, lambda s: s.corrected(s.cpu_root_s + s.cpu_workers_s)
            / len(s.latencies_s))),
        "throughput_mbps": group_median(_grouped(
            loaded,
            lambda s: s.bytes_plain / 1e6 / s.corrected(s.wall_s))),
    }


def summarise(launches: list[list[Round]]) -> tuple[dict[str, float],
                                                    dict[str, list[float]],
                                                    dict[str, float]]:
    """``(timing metrics, the same per launch, the observed-from-outside
    layer metrics)`` of the rounds measured on each launch.  A timing
    metric is the median over the launches; the layer metrics are raw
    times, not speed-corrected, over all of them."""
    per_launch: dict[str, list[float]] = {}
    for rounds in launches:
        for name, value in timing_metrics(rounds).items():
            per_launch.setdefault(name, []).append(value)
    timings = {name: statistics.median(values)
               for name, values in per_launch.items()}
    rounds = [r for rounds in launches for r in rounds]
    samples = [s for r in rounds for s in r.solo + r.loaded]
    solo = [x for r in rounds for s in r.solo for x in s.latencies_s]
    loaded = [x for r in rounds for s in r.loaded for x in s.latencies_s]
    loaded_wall = sum(s.wall_s for r in rounds for s in r.loaded)
    tree_cpu = sum(s.cpu_root_s + s.cpu_workers_s for s in samples)
    layer = {
        "loadgen.host_slowdown": statistics.median(s.slowdown
                                                   for s in samples),
        "loadgen.solo_p50_ms": statistics.median(solo) * 1e3,
        "loadgen.solo_p90_ms": percentile(solo, 0.90) * 1e3,
        "loadgen.loaded_p50_ms": statistics.median(loaded) * 1e3,
        "loadgen.loaded_p90_ms": percentile(loaded, 0.90) * 1e3,
        "loadgen.samples": len(solo) + len(loaded),
        "loadgen.client_cpu_us_per_req":
            sum(s.client_cpu_s for s in samples) * 1e6
            / (len(solo) + len(loaded)),
        "exec.worker_cpu_share":
            sum(s.cpu_workers_s for s in samples) / tree_cpu
            if tree_cpu else 0.0,
        "exec.parallelism":
            sum(s.cpu_workers_s for r in rounds for s in r.loaded)
            / loaded_wall,
    }
    return timings, per_launch, layer
