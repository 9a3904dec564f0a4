"""Workload definitions and seeded payload sets for the stack benchmark.

A workload is one server configuration plus one request stream.  The
stream is made from ``--seed`` alone: the same seed gives the same
bytes, and the server only ever sees the generated payloads.

Requests come in *bursts*: a fixed number of consecutive payloads sent
back to back, timed as one sample.  Burst ``b`` of a segment starts at
payload ``b * size % payloads`` in every round, so bursts with the same
start do exactly the same work; that start is the sample's *group*, and
statistics are only ever taken inside a group (a 64 KB compress costs
150-280 ms depending on the family; mixing them would look like noise).
"""

from __future__ import annotations

import gzip
import zlib
from dataclasses import dataclass

from repro.workloads.generators import generate

#: Compressibility spans ~1x (random, stored-block path) to >8x.
FAMILIES = ("json_records", "log_lines", "csv_table", "xml_documents",
            "source_code", "database_pages", "binary_executable",
            "random_bytes")

#: Burst counts below are sized for this many measured seconds a run
#: (all launches together) on the 2-core reference host; ``--seconds``
#: scales them linearly.
REFERENCE_SECONDS = 20

#: Every launch of the server is measured, for ROUNDS rounds: a server
#: process is now and then 2-8 % slower than its twins for its whole
#: life, so a metric is the median over the launches.
LAUNCHES = 5
ROUNDS = 2

#: Bytes at the head of a stamped payload that carry the request serial.
STAMP_BYTES = 16


@dataclass(frozen=True)
class Workload:
    """One served configuration and the request stream driven at it."""

    name: str
    machine: str
    backend: str
    exec_workers: bool      # --exec-workers <nproc>
    cache_mb: int | None    # --cache-mb
    op: str
    size: int
    qos: str
    payloads: int           # distinct payloads cycled, family i % 8
    stamped: bool           # unique serial in every request: cache miss
    solo_burst: int         # requests per solo sample (1 connection)
    solo_bursts: int        # solo samples per round
    loaded_burst: int       # requests per loaded sample (nproc conns)
    loaded_bursts: int      # loaded samples per round
    ladder_k: int           # payloads walked by the traced ladder
    probe_trips: int = 0    # ping-pong round trips in the speed probe

    def serve_args(self, nproc: int) -> list[str]:
        args = ["--chips", "2", "--machine", self.machine,
                "--backend", self.backend]
        if self.exec_workers:
            args += ["--exec-workers", str(nproc)]
        if self.cache_mb is not None:
            args += ["--cache-mb", str(self.cache_mb)]
        return args

    def positions(self, segment: str, burst: int) -> list[int]:
        """Payload positions of one burst; the first is its group."""
        size = self.solo_burst if segment == "solo" else self.loaded_burst
        start = burst * size % self.payloads
        return [(start + j) % self.payloads for j in range(size)]


WORKLOADS = {w.name: w for w in (
    # Three payloads a family: at 4 KB the cost of a compress depends
    # on the content enough to move the mean over eight by +-6 %.
    Workload("rpc_small", "POWER9", "nx", False, 16, "compress", 4096,
             "interactive", 24, True, solo_burst=1, solo_bursts=48,
             loaded_burst=24, loaded_bursts=2, ladder_k=24),
    # 32 KB, not the 64 KB of the other bulk workload: at ~0.2 s a
    # request a run would hold too few samples.  A loaded burst is half
    # a cycle of the families (two groups) for the same reason.
    Workload("bulk_exec", "z15", "dfltcc", True, None, "compress", 32768,
             "bulk", 8, False, solo_burst=1, solo_bursts=8,
             loaded_burst=4, loaded_bursts=2, ladder_k=8),
    Workload("scan_inflate", "POWER9", "nx", False, None, "decompress",
             65536, "batch", 8, False, solo_burst=1, solo_bursts=32,
             loaded_burst=16, loaded_bursts=2, ladder_k=8),
    Workload("hot_cache", "POWER9", "nx", False, 16, "compress", 4096,
             "interactive", 16, False, solo_burst=64, solo_bursts=60,
             loaded_burst=512, loaded_bursts=12, ladder_k=24,
             probe_trips=150),
)}


@dataclass(frozen=True)
class Item:
    """One payload: the bytes sent and the uncompressed side of it."""

    wire: bytes
    plain: bytes
    crc: int


@dataclass(frozen=True)
class Plan:
    """Counts of one run; fixed, so every count repeats."""

    launches: int       # server processes, each timed and measured
    rounds: int         # measured rounds on each
    solo_bursts: int    # per round
    loaded_bursts: int  # per round


def _scaled(base: int, factor: float, unit: int) -> int:
    """Scale a count to a multiple of ``unit``, at least one unit."""
    return max(unit, round(base * factor / unit) * unit)


def make_plan(workload: Workload, seconds: float, quick: bool = False,
              launches: int = LAUNCHES, rounds: int = ROUNDS) -> Plan:
    """``quick``: a smoke run, 2 launches of 1 round of quarter counts."""
    factor = seconds / REFERENCE_SECONDS * (0.25 if quick else 1.0)
    if quick:
        launches, rounds = 2, 1
    # Whole cycles of groups, so every group has as many samples.
    solo_groups = max(1, workload.payloads // workload.solo_burst)
    loaded_groups = max(1, workload.payloads // workload.loaded_burst)
    return Plan(launches, rounds,
                _scaled(workload.solo_bursts, factor, solo_groups),
                _scaled(workload.loaded_bursts, factor, loaded_groups))


#: The discarded round of every launch: one burst of each kind (fills
#: the result cache, lazy backends and exec workers).
WARMUP = Plan(1, 1, 1, 1)


def payload_seed(seed: int, name: str, index: int) -> int:
    """Generator seed of payload ``index``; distinct per run seed,
    workload and position."""
    return (seed * 1_000_003 + zlib.crc32(name.encode())) * 65_537 + index


def make_items(workload: Workload, seed: int,
               count: int | None = None) -> list[Item]:
    """The workload's payloads, position ``i`` from family ``i % 8``.

    Decompress workloads send gzip members made by the stdlib (a
    foreign producer, so compress-side changes cannot move them).
    """
    items = []
    for i in range(workload.payloads if count is None else count):
        plain = generate(FAMILIES[i % len(FAMILIES)], workload.size,
                         seed=payload_seed(seed, workload.name, i))
        wire = plain
        if workload.op == "decompress":
            wire = gzip.compress(plain, compresslevel=6, mtime=0)
        items.append(Item(wire, plain, zlib.crc32(plain)))
    return items


def stamp(item: Item, serial: int) -> Item:
    """``item`` with the request serial written over its first bytes:
    the same work for the codec, another key for the result cache."""
    plain = b"%0*x" % (STAMP_BYTES, serial) + item.plain[STAMP_BYTES:]
    return Item(plain, plain, zlib.crc32(plain))


def check_items(workload: Workload, items: list[Item]) -> None:
    """Inputs must re-inflate with the stdlib to the recorded CRC."""
    for i, item in enumerate(items):
        plain = (gzip.decompress(item.wire)
                 if workload.op == "decompress" else item.wire)
        if len(plain) != workload.size or zlib.crc32(plain) != item.crc:
            raise ValueError(f"{workload.name}: payload {i} does not "
                             "round-trip through the stdlib")
