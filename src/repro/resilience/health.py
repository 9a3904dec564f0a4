"""Per-chip circuit breakers and health scores for the accelerator pool.

The breaker state machine is the classic three-state one, but its clock
is *routing decisions*, not wall time — the model must behave
identically under a fixed seed regardless of host speed:

::

    CLOSED --[failure_threshold consecutive failures]--> OPEN
    OPEN   --[cooldown_routes routing ticks]-----------> HALF_OPEN
    HALF_OPEN --[probe_successes KAT probes pass]------> CLOSED
    HALF_OPEN --[any probe or job failure]-------------> OPEN

While OPEN the chip is quarantined: :meth:`HealthTracker.available_chips`
excludes it, so the pool's ``route()`` can never pick a dead chip.
HALF_OPEN admits the chip again, but the pool runs a known-answer probe
(:func:`repro.nx.selftest.probe_backend`) before trusting it with user
jobs.  Every transition is published as a gauge + counter
(``repro_resilience_breaker_state`` / ``_transitions_total``) and a
``breaker.open`` span event, so a chaos campaign can assert the full
state history from exported metrics alone.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE


class BreakerState(enum.IntEnum):
    """Breaker position; the int value is the exported gauge level."""

    CLOSED = 0
    HALF_OPEN = 1
    OPEN = 2


#: EWMA weight on a breaker's score history.
SCORE_DECAY = 0.8


@dataclass(frozen=True)
class HealthConfig:
    """Tunables for one pool's breakers."""

    failure_threshold: int = 4     # consecutive failures to open
    cooldown_routes: int = 16      # routing ticks OPEN before HALF_OPEN
    probe_successes: int = 2       # passing probes to close again


@dataclass
class CircuitBreaker:
    """One chip's breaker; transitions are driven by the pool."""

    chip: int
    config: HealthConfig = field(default_factory=HealthConfig)
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    opened_at_tick: int = 0
    probe_passes: int = 0
    opens: int = 0
    #: EWMA success score in [0, 1]; 1.0 is perfectly healthy.
    score: float = 1.0
    transitions: list[tuple[str, int]] = field(default_factory=list,
                                               init=False)

    def record_success(self, tick: int) -> None:
        self.consecutive_failures = 0
        self.score = SCORE_DECAY * self.score + (1.0 - SCORE_DECAY)
        if self.state is BreakerState.HALF_OPEN:
            self.probe_passes += 1
            if self.probe_passes >= self.config.probe_successes:
                self._transition(BreakerState.CLOSED, tick)

    def record_failure(self, tick: int) -> None:
        self.consecutive_failures += 1
        self.score *= SCORE_DECAY
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN, tick)
        elif (self.state is BreakerState.CLOSED
                and self.consecutive_failures
                >= self.config.failure_threshold):
            self._transition(BreakerState.OPEN, tick)

    def tick(self, tick: int) -> None:
        """Advance the route-count clock; OPEN cools down to HALF_OPEN."""
        if (self.state is BreakerState.OPEN
                and tick - self.opened_at_tick
                >= self.config.cooldown_routes):
            self._transition(BreakerState.HALF_OPEN, tick)

    @property
    def available(self) -> bool:
        """May ``route()`` pick this chip?  OPEN means quarantined."""
        return self.state is not BreakerState.OPEN

    @property
    def needs_probe(self) -> bool:
        return self.state is BreakerState.HALF_OPEN

    def _transition(self, to: BreakerState, tick: int) -> None:
        if to is BreakerState.OPEN:
            self.opens += 1
            self.opened_at_tick = tick
            _TRACE.event("breaker.open", chip=self.chip,
                         failures=self.consecutive_failures)
            _FLIGHT.auto_dump("breaker_open", chip=self.chip,
                              failures=self.consecutive_failures,
                              tick=tick)
        else:
            _FLIGHT.record("breaker.transition", chip=self.chip,
                           to=to.name, tick=tick)
        if to is not BreakerState.HALF_OPEN:
            self.probe_passes = 0
        self.state = to
        self.transitions.append((to.name, tick))
        _REGISTRY.gauge(
            "repro_resilience_breaker_state",
            "per-chip breaker (0 closed, 1 half-open, 2 open)").set(
            int(to), chip=str(self.chip))
        _REGISTRY.counter(
            "repro_resilience_breaker_transitions_total",
            "breaker state transitions").inc(
            1, chip=str(self.chip), to=to.name)


class HealthTracker:
    """All chips' breakers plus the shared routing-tick clock."""

    def __init__(self, chips: int,
                 config: HealthConfig | None = None) -> None:
        self.config = config or HealthConfig()
        self.breakers = [CircuitBreaker(chip=c, config=self.config)
                         for c in range(chips)]
        self._tick = 0
        self._lock = threading.Lock()

    def tick(self) -> int:
        """One routing decision happened; cool down OPEN breakers."""
        with self._lock:
            self._tick += 1
            for breaker in self.breakers:
                breaker.tick(self._tick)
            return self._tick

    def available_chips(self) -> list[int]:
        with self._lock:
            return [b.chip for b in self.breakers if b.available]

    def needs_probe(self, chip: int) -> bool:
        with self._lock:
            return self.breakers[chip].needs_probe

    def record_success(self, chip: int) -> None:
        with self._lock:
            self.breakers[chip].record_success(self._tick)

    def record_failure(self, chip: int) -> None:
        with self._lock:
            self.breakers[chip].record_failure(self._tick)

    def state(self, chip: int) -> BreakerState:
        with self._lock:
            return self.breakers[chip].state

    def transition_log(self) -> dict[int, list[tuple[str, int]]]:
        """Per-chip ``(state, tick)`` history (for survival reports)."""
        with self._lock:
            return {b.chip: list(b.transitions) for b in self.breakers}

    def total_opens(self) -> int:
        with self._lock:
            return sum(b.opens for b in self.breakers)
