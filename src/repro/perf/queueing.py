"""One accelerator-queue model: cores sharing the on-chip engines.

One accelerator serves every core on the chip through VAS windows, whose
two receive FIFOs and routing to another chip's engine decide who waits.
Every queueing experiment (E5, E14, E15, E16, E19) is a configuration of
:class:`AcceleratorQueue`, built from three choices:

* **arrivals** — Poisson :class:`Source` streams (``run_open``), closed
  clients with exponential think time (``run_closed``) or a trace
  (``run_trace``);
* **discipline** — one FIFO (``starvation_bound=None``) or the two VAS
  FIFOs under :func:`~repro.backend.routing.arbitrate`, the served grant;
* **placement** — one queue over ``engines`` engines (``policy=None``),
  or a queue and engine per chip picked by the live pool's
  :func:`~repro.backend.routing.choose_chip`, a remote pick paying
  :data:`CROSS_CHIP_PENALTY_US`.

Draw and event order are the contract (``golden_experiments.json``): a
size is drawn before the next gap, sources start in list order, the
lowest free engine goes first, and a closed client thinks before the
freed engine is dispatched again.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from ..backend.routing import POLICIES, arbitrate, choose_chip
from ..errors import ConfigError
from ..nx.params import MachineParams, Topology
from .des import Simulator
from .timing import OffloadTimingModel

#: Fabric cost of serving a job on another chip's engine.
CROSS_CHIP_PENALTY_US = 0.5

#: A request size: fixed, or drawn from the run's random stream.
Size = int | Callable[[random.Random], int]


def bimodal_size(small_bytes: int, large_bytes: int,
                 small_fraction: float) -> Size:
    """RPC-vs-bulk mix: mostly small requests, occasional huge ones."""
    def sample(rng: random.Random) -> int:
        if rng.random() < small_fraction:
            return small_bytes
        return large_bytes
    return sample


@dataclass
class Job:
    """One request's life; ``client`` is its source (per chip: home)."""

    client: int
    size_bytes: int
    submit_time: float
    high_priority: bool = False
    served_chip: int | None = None  # set under per-chip placement only
    start_time: float = 0.0
    finish_time: float = 0.0

    @property
    def sojourn(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def wait(self) -> float:
        return self.start_time - self.submit_time

    @property
    def remote(self) -> bool:
        """Served by a chip other than its home chip."""
        return self.served_chip not in (None, self.client)


@dataclass
class QueueResult:
    """Finished jobs in completion order, and what they add up to."""

    jobs: list[Job]
    sim_seconds: float
    max_queue_depth: int = 0

    @property
    def completed(self) -> int:
        return len(self.jobs)

    @property
    def throughput_gbps(self) -> float:
        total = sum(job.size_bytes for job in self.jobs)
        return (total / 1e9) / self.sim_seconds if self.sim_seconds else 0.0

    @property
    def mean_latency(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(job.sojourn for job in self.jobs) / len(self.jobs)

    def percentile(self, pct: float) -> float:
        if not self.jobs:
            return 0.0
        ordered = sorted(job.sojourn for job in self.jobs)
        return ordered[min(len(ordered) - 1,
                           int(pct / 100.0 * len(ordered)))]

    @property
    def remote_fraction(self) -> float:
        """Share of jobs served by a chip other than their home chip."""
        if not self.jobs:
            return 0.0
        return sum(job.remote for job in self.jobs) / len(self.jobs)

    def by_class(self) -> dict[str, QueueResult]:
        """The same run split into the ``high`` and ``bulk`` classes."""
        return {name: replace(self, jobs=[job for job in self.jobs
                                          if job.high_priority == high])
                for name, high in (("high", True), ("bulk", False))}


@dataclass(frozen=True)
class Source:
    """A Poisson stream of requests of one size and class."""

    rate_per_s: float
    size: Size = 65536
    high_priority: bool = False


@dataclass
class AcceleratorQueue:
    """Engines behind VAS receive FIFOs, fed by one of three arrivals."""

    machine: MachineParams
    engines: int = 1
    starvation_bound: int | None = None
    policy: str | None = None
    seed: int = 42

    def __post_init__(self) -> None:
        if self.policy is not None and self.policy not in POLICIES:
            raise ConfigError(f"unknown routing policy {self.policy!r}; "
                              f"have {POLICIES}")
        self._timing = OffloadTimingModel(self.machine)

    def service_seconds(self, size_bytes: int) -> float:
        return (self._timing.service_seconds(size_bytes)
                + self.machine.dispatch_overhead_us * 1e-6)

    def run_open(self, sources: list[Source],
                 duration_s: float) -> QueueResult:
        """Each source emits jobs until ``duration_s``; under per-chip
        placement source ``i`` sits on chip ``i``."""
        if self.policy is not None and len(sources) != self.engines:
            raise ConfigError(f"need {self.engines} sources, one per chip, "
                              f"got {len(sources)}")
        loop = _Loop(self)

        def arrival(client: int, source: Source) -> None:
            if loop.sim.now < duration_s:
                loop.admit(client, source.size, source.high_priority)
                loop.sim.schedule(loop.rng.expovariate(source.rate_per_s),
                                  lambda: arrival(client, source))

        for client, source in enumerate(sources):
            if source.rate_per_s > 0:
                loop.sim.schedule(
                    loop.rng.expovariate(source.rate_per_s),
                    lambda client=client, source=source:
                        arrival(client, source))
        loop.sim.run()
        return loop.result(max(loop.sim.now, duration_s))

    def run_loads(self, per_chip_load: list[float], duration_s: float,
                  size_bytes: int) -> QueueResult:
        """One source per chip, offering ``load`` of one engine's capacity."""
        service = self.service_seconds(size_bytes)
        return self.run_open([Source(load / service, size_bytes)
                              for load in per_chip_load], duration_s)

    def run_closed(self, clients: int, think_seconds: float,
                   duration_s: float, size: Size = 65536) -> QueueResult:
        """Each client keeps one job in flight and resubmits after an
        exponential think time, until ``duration_s``."""
        loop = _Loop(self)

        def think(job: Job) -> None:
            pause = (loop.rng.expovariate(1.0 / think_seconds)
                     if think_seconds > 0 else 0.0)
            if loop.sim.now + pause < duration_s:
                loop.sim.schedule(pause, lambda c=job.client:
                                  loop.admit(c, size))

        loop.on_finish = think
        for client in range(clients):
            loop.sim.schedule(loop.rng.random() * 1e-6,
                              lambda client=client: loop.admit(client, size))
        loop.sim.run(until=duration_s * 1.5)
        # Account over the active window, not the idle drain tail.
        last_finish = loop.done[-1].finish_time if loop.done else duration_s
        return loop.result(max(last_finish, duration_s * 0.5))

    def run_trace(self, trace: Iterable[tuple[float, int]]) -> QueueResult:
        """Replay ``(time_s, size_bytes)`` requests at their instants."""
        loop = _Loop(self)
        for time_s, size in trace:
            loop.sim.schedule(time_s, lambda size=size: loop.admit(0, size))
        loop.sim.run()
        return loop.result(loop.sim.now)


class _Loop:
    """One run: arrival -> queue -> free engine -> finish -> dispatch."""

    def __init__(self, model: AcceleratorQueue) -> None:
        self.model = model
        self.sim = Simulator()
        self.rng = random.Random(model.seed)
        self.per_chip = model.policy is not None
        chips = model.engines if self.per_chip else 1
        #: Per chip: the high FIFO, the normal FIFO, the high-grant run.
        self.fifos = [(deque(), deque()) for _ in range(chips)]
        self.high_run = [0] * chips
        self.backlog = [0] * chips  # queued + in-service bytes
        self.rr = [0]
        self.serving: list[Job | None] = [None] * model.engines
        self.done: list[Job] = []
        self.peak = 0
        self.on_finish: Callable[[Job], None] | None = None

    def admit(self, client: int, size: Size, high: bool = False) -> None:
        size = size(self.rng) if callable(size) else size
        job = Job(client, size, self.sim.now, high_priority=high)
        chip = 0
        if self.per_chip:
            chip = job.served_chip = choose_chip(self.model.policy, client,
                                                 self.backlog, self.rr)
        high_fifo, normal = self.fifos[chip]
        one_fifo = self.model.starvation_bound is None
        (normal if one_fifo or not high else high_fifo).append(job)
        self.backlog[chip] += size
        self.peak = max(self.peak, len(high_fifo) + len(normal))
        self.dispatch()

    def dispatch(self) -> None:
        for engine, busy in enumerate(self.serving):
            chip = engine if self.per_chip else 0
            high_fifo, normal = self.fifos[chip]
            if busy is not None or not (high_fifo or normal):
                continue
            # Under one FIFO the high side is always empty: no bound used.
            take_high, self.high_run[chip] = arbitrate(
                bool(high_fifo), bool(normal), self.high_run[chip],
                self.model.starvation_bound or 0)
            job = (high_fifo if take_high else normal).popleft()
            job.start_time = self.sim.now
            self.serving[engine] = job
            delay = self.model.service_seconds(job.size_bytes)
            if job.remote:
                delay += CROSS_CHIP_PENALTY_US * 1e-6
            self.sim.schedule(delay, lambda job=job, engine=engine:
                              self.finish(job, engine))

    def finish(self, job: Job, engine: int) -> None:
        self.serving[engine] = None
        self.backlog[job.served_chip or 0] -= job.size_bytes
        job.finish_time = self.sim.now
        self.done.append(job)
        if self.on_finish is not None:
            self.on_finish(job)
        self.dispatch()

    def result(self, sim_seconds: float) -> QueueResult:
        return QueueResult(jobs=self.done, sim_seconds=sim_seconds,
                           max_queue_depth=self.peak)


def load_sweep(machine: MachineParams, loads: list[float],
               size_bytes: int = 65536, clients: int = 16,
               duration_s: float = 0.2) -> list[tuple[float, QueueResult]]:
    """E5: sweep offered load as a fraction of one engine's capacity.

    ``loads`` are utilization targets (0..1+); arrival rates are derived
    from the per-job service time so the sweep brackets the knee.
    """
    results = []
    for load in loads:
        model = AcceleratorQueue(machine, seed=42)
        rate = load / model.service_seconds(size_bytes) / clients
        results.append((load, model.run_open(
            [Source(rate, size_bytes)] * clients, duration_s)))
    return results


def policy_comparison(topology: Topology, per_chip_load: list[float],
                      duration_s: float = 0.3) -> dict[str, QueueResult]:
    """E15: every routing policy on the same per-chip offered load of
    256 KB jobs."""
    return {policy: AcceleratorQueue(
                topology.machine, engines=topology.total_chips,
                policy=policy, seed=42,
            ).run_loads(per_chip_load, duration_s, 262144)
            for policy in POLICIES}
