"""Offload policy: when hardware beats software for a given request.

The paper's system integration point: the user-space library decides per
call whether the accelerator's invocation overhead is worth paying.  The
advisor exposes the break-even curve and a recommend() that names the
concrete registry backend to execute on — ``nx`` or ``dfltcc`` when the
accelerator wins, ``software`` when it does not — so callers can hand
the choice straight to :func:`repro.backend.create_backend`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..backend.registry import default_backend
from ..nx.params import MachineParams
from ..perf.timing import OffloadTimingModel


class Route(enum.Enum):
    HARDWARE = "hardware"
    SOFTWARE = "software"


@dataclass(frozen=True)
class Recommendation:
    """Advice for one request: the route and the backend to run it on."""

    route: Route
    backend: str
    hw_latency_s: float
    sw_latency_s: float
    break_even_bytes: float

    @property
    def gain(self) -> float:
        """Latency ratio of the rejected path over the chosen one."""
        if self.route is Route.HARDWARE:
            return self.sw_latency_s / self.hw_latency_s
        return self.hw_latency_s / self.sw_latency_s


@dataclass
class OffloadAdvisor:
    """Per-machine compress offload decisions: hardware when it wins."""

    machine: MachineParams
    level: int = 6

    def __post_init__(self) -> None:
        self._timing = OffloadTimingModel(self.machine)

    def break_even_bytes(self) -> float:
        return self._timing.break_even_bytes(self.level)

    def recommend(self, nbytes: int,
                  queue_wait_s: float = 0.0) -> Recommendation:
        hw = self._timing.offload_latency(nbytes, queue_wait_s).total
        sw = self._timing.software_latency(nbytes, self.level)
        route = Route.HARDWARE if sw > hw else Route.SOFTWARE
        backend = (default_backend(self.machine) if route is Route.HARDWARE
                   else "software")
        return Recommendation(route=route, backend=backend,
                              hw_latency_s=hw, sw_latency_s=sw,
                              break_even_bytes=self.break_even_bytes())

