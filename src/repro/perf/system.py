"""System-level aggregation: chips, drawers, and the 280 GB/s claim.

Aggregates per-chip accelerator rates across a topology and compares
against the all-core software alternative — the scaling walk behind the
abstract's "13x over the entire chip" and "280 GB/s on a maximally
configured z15" numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nx.params import MachineParams, Topology
from .cost import SoftwareCostModel, accelerator_effective_gbps


@dataclass(frozen=True)
class SystemRates:
    """Aggregate compression rates for one topology (GB/s)."""

    chips: int
    accelerator_gbps: float
    software_gbps: float

    @property
    def speedup(self) -> float:
        if self.software_gbps == 0:
            return float("inf")
        return self.accelerator_gbps / self.software_gbps


@dataclass
class SystemModel:
    """Compression throughput roll-up for a machine topology, every
    engine at its sustained rate, against software zlib -6."""

    topology: Topology

    @property
    def machine(self) -> MachineParams:
        return self.topology.machine

    def per_accelerator_gbps(self) -> float:
        return accelerator_effective_gbps(self.machine)

    def aggregate_accelerator_gbps(self) -> float:
        return self.per_accelerator_gbps() \
            * self.topology.total_accelerators

    def aggregate_software_gbps(self) -> float:
        per_chip = SoftwareCostModel(self.machine).chip_compress_rate_gbps()
        return per_chip * self.topology.total_chips

    def rates(self) -> SystemRates:
        return SystemRates(
            chips=self.topology.total_chips,
            accelerator_gbps=self.aggregate_accelerator_gbps(),
            software_gbps=self.aggregate_software_gbps(),
        )


def scaling_series(machine: MachineParams, max_chips: int,
                   chips_per_drawer: int = 4) -> list[SystemRates]:
    """Aggregate rate as the system grows one chip at a time."""
    series = []
    for chips in range(1, max_chips + 1):
        drawers = -(-chips // chips_per_drawer)
        topo = Topology(machine=machine,
                        chips_per_drawer=min(chips, chips_per_drawer),
                        drawers=drawers)
        # Build an exact-chip topology: distribute evenly when possible,
        # otherwise fall back to a flat single-drawer layout.
        if topo.total_chips != chips:
            topo = Topology(machine=machine, chips_per_drawer=chips,
                            drawers=1)
        series.append(SystemModel(topo).rates())
    return series
