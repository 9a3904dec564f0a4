"""Completion notification: polling vs interrupts vs the wait facility.

The asynchronous interface leaves a policy question: how does the
submitting thread learn that the CSB went valid?

* **poll** — spin on the CSB cache line: detection within one poll
  iteration (~0.2 µs), but the core burns cycles for the whole service
  time — cycles the offload was supposed to give back.
* **interrupt** — sleep and take a completion interrupt: no burned
  cycles, but interrupt delivery + scheduler wakeup adds microseconds
  to the observed latency.
* **wait** — the POWER 'wait' (or z 'SIGP-less' pause) facility parks
  the thread on the cache line: near-poll detection latency, near-zero
  burn, but the hardware thread is held (SMT siblings keep the core
  productive).

The interesting output is the crossover: small jobs want poll, large
jobs want interrupt, and wait dominates when SMT can absorb the held
thread — the trade the production library's 'poll budget' knob tunes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..nx.params import MachineParams
from .timing import OffloadTimingModel

POLL_DETECT_SECONDS = 0.2e-6
INTERRUPT_DELIVERY_SECONDS = 4.0e-6
SCHEDULER_WAKEUP_SECONDS = 2.0e-6
WAIT_WAKEUP_SECONDS = 0.5e-6
WAIT_THREAD_HOLD_FACTOR = 0.25  # SMT sibling recovers most of the thread


class CompletionMode(enum.Enum):
    POLL = "poll"
    INTERRUPT = "interrupt"
    WAIT = "wait"


@dataclass(frozen=True)
class CompletionCost:
    """What one offloaded request costs under a notification mode."""

    mode: CompletionMode
    latency_seconds: float      # submit -> caller resumes with the result
    cpu_burn_seconds: float     # core time unavailable to other work

    def weighted_cost(self) -> float:
        """Scalar objective: latency + CPU burn, a core-second priced
        like a second of latency."""
        return self.latency_seconds + self.cpu_burn_seconds


@dataclass
class CompletionModel:
    """Evaluates the three notification modes for one machine."""

    machine: MachineParams

    def __post_init__(self) -> None:
        self._timing = OffloadTimingModel(self.machine)

    def costs(self, nbytes: int) -> dict[CompletionMode, CompletionCost]:
        base = self._timing.offload_latency(nbytes)
        service_window = base.dispatch + base.service
        submit = base.submit

        poll = CompletionCost(
            mode=CompletionMode.POLL,
            latency_seconds=submit + service_window + POLL_DETECT_SECONDS,
            cpu_burn_seconds=submit + service_window
            + POLL_DETECT_SECONDS,
        )
        interrupt = CompletionCost(
            mode=CompletionMode.INTERRUPT,
            latency_seconds=submit + service_window
            + INTERRUPT_DELIVERY_SECONDS + SCHEDULER_WAKEUP_SECONDS,
            cpu_burn_seconds=submit + INTERRUPT_DELIVERY_SECONDS
            + SCHEDULER_WAKEUP_SECONDS,
        )
        wait = CompletionCost(
            mode=CompletionMode.WAIT,
            latency_seconds=submit + service_window + WAIT_WAKEUP_SECONDS,
            cpu_burn_seconds=submit + WAIT_WAKEUP_SECONDS
            + WAIT_THREAD_HOLD_FACTOR * service_window,
        )
        return {c.mode: c for c in (poll, interrupt, wait)}

    def best_mode(self, nbytes: int) -> CompletionMode:
        """Mode minimizing latency + CPU burn."""
        return min(self.costs(nbytes).values(),
                   key=CompletionCost.weighted_cost).mode

    def crossover_bytes(self) -> int:
        """Smallest power-of-two size, from 256 B up to 64 MB, at which
        WAIT stops being the best mode."""
        size, hi = 256, 64 << 20
        while size < hi:
            if self.best_mode(size) is not CompletionMode.WAIT:
                return size
            size *= 2
        return hi
