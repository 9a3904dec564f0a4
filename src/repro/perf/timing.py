"""End-to-end offload timing and break-even analysis.

Composes the invocation path the paper describes: CRB build + paste
(submit), switchboard routing (dispatch), engine occupancy (compute
overlapped with DMA), and completion notification.  The same model with
synchronous parameters covers the z15 DFLTCC instruction, whose overhead
is a fraction of a microsecond instead of several.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nx.params import MachineParams
from .cost import SoftwareCostModel, accelerator_effective_gbps


@dataclass(frozen=True)
class LatencyBreakdown:
    """Components of one offloaded request's latency (seconds)."""

    submit: float
    dispatch: float
    queue_wait: float
    service: float
    completion: float

    @property
    def total(self) -> float:
        return (self.submit + self.dispatch + self.queue_wait
                + self.service + self.completion)


@dataclass
class OffloadTimingModel:
    """Latency/throughput of compression offload for one machine."""

    machine: MachineParams

    def __post_init__(self) -> None:
        self.rate_gbps = accelerator_effective_gbps(self.machine)
        self._cost = SoftwareCostModel(self.machine)

    def fixed_overhead_seconds(self) -> float:
        machine = self.machine
        return (machine.submit_overhead_us + machine.dispatch_overhead_us
                + machine.completion_overhead_us) * 1e-6

    def service_seconds(self, nbytes: int) -> float:
        compute = nbytes / (self.rate_gbps * 1e9)
        dma = nbytes / (self.machine.dma_read_gbps * 1e9)
        return max(compute, dma)

    def offload_latency(self, nbytes: int,
                        queue_wait: float = 0.0) -> LatencyBreakdown:
        machine = self.machine
        return LatencyBreakdown(
            submit=machine.submit_overhead_us * 1e-6,
            dispatch=machine.dispatch_overhead_us * 1e-6,
            queue_wait=queue_wait,
            service=self.service_seconds(nbytes),
            completion=machine.completion_overhead_us * 1e-6,
        )

    def software_latency(self, nbytes: int, level: int = 6) -> float:
        return self._cost.compress_seconds(nbytes, level)

    def effective_throughput_gbps(self, nbytes: int) -> float:
        """Including invocation overheads: the 'ramp' the paper shows."""
        latency = self.offload_latency(nbytes).total
        return (nbytes / 1e9) / latency if latency else 0.0

    def speedup(self, nbytes: int, level: int = 6) -> float:
        """Offload speedup over one software thread at ``level``."""
        return (self.software_latency(nbytes, level)
                / self.offload_latency(nbytes).total)

    def break_even_bytes(self, level: int = 6) -> float:
        """Buffer size where offload latency equals software latency.

        Solves ``overhead + n/hw = n/sw``; returns ``inf`` if software
        is never slower (it always is for real levels).
        """
        sw_rate = self._cost.compress_rate_mbps(level) * 1e6
        hw_rate = self.rate_gbps * 1e9
        if hw_rate <= sw_rate:
            return float("inf")
        gap = 1.0 / sw_rate - 1.0 / hw_rate
        return self.fixed_overhead_seconds() / gap
