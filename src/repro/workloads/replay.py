"""Trace-driven replay: timestamped request logs through the engine.

Production questions ("will the engine survive the nightly backup
window?") need *traces*: diurnal load with a bulk-window burst, replayed
through :meth:`repro.perf.queueing.AcceleratorQueue.run_trace` and
reported as latency per time bucket.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from ..nx.params import MachineParams
from ..perf.queueing import AcceleratorQueue, Job, QueueResult


class TracePoint(NamedTuple):
    """One request in a trace."""

    time_s: float
    size_bytes: int


#: The day's shape: base load swings +- this share around its mean.
AMPLITUDE = 0.6
#: Base requests, and the bulk window's requests and its slice of the day.
REQUEST_BYTES = 32768
BULK_BYTES = 4 << 20
BULK_START_FRAC = 0.70
BULK_END_FRAC = 0.85


@dataclass(frozen=True)
class DiurnalSpec:
    """A day-like load profile, compressed into ``duration_s`` seconds.

    Base Poisson load follows ``1 + AMPLITUDE x sin`` over one period;
    a bulk window (backup / batch ETL) adds large requests for a slice
    of the period.
    """

    duration_s: float = 2.0
    base_rate_per_s: float = 20000.0
    bulk_rate_per_s: float = 400.0
    seed: int = 0


def diurnal_trace(spec: DiurnalSpec = DiurnalSpec()) -> list[TracePoint]:
    """Materialize the request trace (sorted by time)."""
    rng = random.Random(spec.seed)
    points: list[TracePoint] = []
    t = 0.0
    while t < spec.duration_s:
        phase = 2 * math.pi * t / spec.duration_s
        rate = spec.base_rate_per_s * (1 + AMPLITUDE * math.sin(phase))
        t += rng.expovariate(max(rate, 1e-6))
        if t < spec.duration_s:
            points.append(TracePoint(t, REQUEST_BYTES))
    t = BULK_START_FRAC * spec.duration_s
    end = BULK_END_FRAC * spec.duration_s
    while t < end:
        t += rng.expovariate(spec.bulk_rate_per_s)
        if t < end:
            points.append(TracePoint(t, BULK_BYTES))
    points.sort(key=lambda p: p.time_s)
    return points


@dataclass
class BucketStats:
    """Latency statistics for one time bucket of the replay."""

    bucket: int
    count: int
    mean_latency_s: float
    p99_latency_s: float
    bytes_total: int


@dataclass
class ReplayResult:
    """Outcome of replaying one trace: its buckets, and every job."""

    buckets: list[BucketStats]
    total_requests: int
    max_queue_depth: int
    jobs: list[Job]

    @property
    def worst_bucket(self) -> BucketStats:
        return max(self.buckets, key=lambda b: b.p99_latency_s)


def replay(trace: list[TracePoint], machine: MachineParams,
           engines: int = 1, buckets: int = 10,
           duration_s: float | None = None) -> ReplayResult:
    """Feed the trace through ``engines`` FIFO engines; bucket latency."""
    result = AcceleratorQueue(machine, engines=engines).run_trace(trace)
    horizon = duration_s or (trace[-1].time_s if trace else 1.0)
    width = horizon / buckets
    by_bucket: list[list[Job]] = [[] for _ in range(buckets)]
    for job in result.jobs:
        by_bucket[min(buckets - 1, int(job.submit_time / width))].append(job)

    stats = []
    for idx, jobs in enumerate(by_bucket):
        part = QueueResult(jobs, result.sim_seconds)
        stats.append(BucketStats(bucket=idx, count=len(jobs),
                                 mean_latency_s=part.mean_latency,
                                 p99_latency_s=part.percentile(99),
                                 bytes_total=sum(job.size_bytes
                                                 for job in jobs)))
    return ReplayResult(buckets=stats, total_requests=result.completed,
                        max_queue_depth=result.max_queue_depth,
                        jobs=result.jobs)
