"""PCIe-attached compression adapter baseline (the design the paper beats).

Before on-chip integration, the alternative was an FPGA/ASIC adapter in a
PCIe slot: same class of engine, but every job pays driver + doorbell +
interrupt overheads and two PCIe traversals, and the card consumes a slot
and watts.  The on-chip accelerator's win at small and medium buffer
sizes comes almost entirely from this overhead gap, which is the
comparison E12 regenerates.
"""

from __future__ import annotations

from ..nx.params import MachineParams
from .timing import LatencyBreakdown, OffloadTimingModel


#: The I/O-attached accelerator card.
ENGINE_RATE_GBPS = 8.0     # engine itself is competitive
PCIE_GBPS = 12.0           # PCIe Gen4 x8 effective
DRIVER_OVERHEAD_US = 18.0  # syscall + ring doorbell
INTERRUPT_OVERHEAD_US = 12.0
DMA_SETUP_US = 4.0
SLOT_POWER_W = 25.0
CARD_COST_USD = 2500.0


class PcieAdapterModel:
    """Latency model of the adapter path, comparable to OffloadTimingModel."""

    def offload_latency(self, nbytes: int,
                        ratio: float = 2.5) -> LatencyBreakdown:
        """One compression job: host -> card -> host.

        Input crosses PCIe at full size; output returns at
        ``nbytes / ratio``.  Engine compute overlaps neither transfer
        (store-and-forward DMA), which is the common adapter design.
        """
        transfer_in = nbytes / (PCIE_GBPS * 1e9)
        transfer_out = (nbytes / ratio) / (PCIE_GBPS * 1e9)
        compute = nbytes / (ENGINE_RATE_GBPS * 1e9)
        return LatencyBreakdown(
            submit=(DRIVER_OVERHEAD_US + DMA_SETUP_US) * 1e-6,
            dispatch=transfer_in,
            queue_wait=0.0,
            service=compute + transfer_out,
            completion=INTERRUPT_OVERHEAD_US * 1e-6,
        )

    def effective_throughput_gbps(self, nbytes: int) -> float:
        latency = self.offload_latency(nbytes).total
        return (nbytes / 1e9) / latency if latency else 0.0


def compare_onchip_vs_adapter(machine: MachineParams, sizes: list[int]
                              ) -> list[tuple[int, float, float]]:
    """(size, on-chip GB/s, adapter GB/s) series across buffer sizes."""
    adapter = PcieAdapterModel()
    onchip = OffloadTimingModel(machine)
    return [
        (size,
         onchip.effective_throughput_gbps(size),
         adapter.effective_throughput_gbps(size))
        for size in sizes
    ]
