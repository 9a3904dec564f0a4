"""Multi-chip job routing: which chip's accelerator serves a request?

In a multi-chip system every chip has its own NX/zEDC, and software must
decide where to paste.  The trade: a remote accelerator costs the
cross-chip fabric hop, but the local one may be backed up.  Three
policies are modelled:

* ``local``        — always the submitting chip's engine;
* ``round_robin``  — rotate across chips (ignores load and locality);
* ``least_loaded`` — the engine with the least queued work, paying the
  remote penalty when that engine is not local.

The interesting regime is imbalanced offered load, where ``local``
saturates one engine while others idle — the system-level sharing story
behind the paper's aggregate-rate claims.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..backend.routing import POLICIES, choose_chip
from ..errors import ConfigError
from ..nx.params import Topology
from .des import Simulator
from .queueing import JobRecord
from .timing import OffloadTimingModel


@dataclass
class RoutedJob(JobRecord):
    """A job plus where it came from and where it ran."""

    home_chip: int = 0
    served_chip: int = 0

    @property
    def remote(self) -> bool:
        return self.home_chip != self.served_chip


@dataclass
class RoutingResult:
    """Outcome of one routing simulation."""

    jobs: list[RoutedJob]
    sim_seconds: float
    chips: int

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
        if not self.jobs:
            return 0.0
        return sum(job.remote for job in self.jobs) / len(self.jobs)


@dataclass
class MultiChipRouter:
    """DES of per-chip engines under a routing policy."""

    topology: Topology
    policy: str = "local"
    size_bytes: int = 262144
    seed: int = 42
    _timing: OffloadTimingModel = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown routing policy {self.policy!r}; "
                              f"have {POLICIES}")
        self._timing = OffloadTimingModel(self.topology.machine)

    def _service(self, size: int) -> float:
        return (self._timing.service_seconds(size)
                + self.topology.machine.dispatch_overhead_us * 1e-6)

    def run(self, per_chip_load: list[float],
            duration_s: float) -> RoutingResult:
        """``per_chip_load`` is each chip's offered load (fraction of one
        engine's capacity); chips can be loaded asymmetrically."""
        chips = self.topology.total_chips
        if len(per_chip_load) != chips:
            raise ConfigError(
                f"need {chips} load entries, got {len(per_chip_load)}")

        sim = Simulator()
        rng = random.Random(self.seed)
        queues: list[list[RoutedJob]] = [[] for _ in range(chips)]
        queued_bytes = [0] * chips
        busy = [False] * chips
        done: list[RoutedJob] = []
        rr_next = [0]
        service = self._service(self.size_bytes)
        penalty = self.topology.cross_chip_penalty_us * 1e-6

        def choose(home: int) -> int:
            loads = [queued_bytes[c] + (self.size_bytes if busy[c] else 0)
                     for c in range(chips)]
            return choose_chip(self.policy, home, loads, rr_next)

        def dispatch(chip: int) -> None:
            if busy[chip] or not queues[chip]:
                return
            job = queues[chip].pop(0)
            queued_bytes[chip] -= job.size_bytes
            busy[chip] = True
            job.start_time = sim.now
            extra = penalty if job.remote else 0.0

            def finish(job: RoutedJob = job, chip: int = chip) -> None:
                busy[chip] = False
                job.finish_time = sim.now
                done.append(job)
                dispatch(chip)

            sim.schedule(service + extra, finish)

        def arrival(home: int) -> None:
            if sim.now >= duration_s:
                return
            job = RoutedJob(client=home, size_bytes=self.size_bytes,
                            submit_time=sim.now, home_chip=home)
            target = choose(home)
            job.served_chip = target
            queues[target].append(job)
            queued_bytes[target] += job.size_bytes
            dispatch(target)
            rate = per_chip_load[home] / service
            if rate > 0:
                sim.schedule(rng.expovariate(rate), lambda: arrival(home))

        for chip, load in enumerate(per_chip_load):
            if load > 0:
                rate = load / service
                sim.schedule(rng.expovariate(rate),
                             lambda chip=chip: arrival(chip))
        sim.run()
        return RoutingResult(jobs=done, sim_seconds=max(sim.now, duration_s),
                             chips=chips)


def policy_comparison(topology: Topology, per_chip_load: list[float],
                      duration_s: float = 0.3,
                      size_bytes: int = 262144,
                      seed: int = 42) -> dict[str, RoutingResult]:
    """Run every policy on the same offered load.

    Each policy is evaluated through an :class:`AcceleratorPool` (built
    lazily here to avoid a module cycle), so benchmarks exercise the
    same routing object production code uses.
    """
    from ..backend.pool import AcceleratorPool

    results: dict[str, RoutingResult] = {}
    for policy in POLICIES:
        pool = AcceleratorPool(
            machine=topology.machine, chips=topology.total_chips,
            policy=policy,
            cross_chip_penalty_us=topology.cross_chip_penalty_us)
        results[policy] = pool.simulate_load(list(per_chip_load),
                                             duration_s,
                                             size_bytes=size_bytes,
                                             seed=seed)
    return results
