"""Performance models: cost calibration, timing, queueing, system roll-up."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .completion import CompletionMode, CompletionModel
    from .cost import (COMPRESS_CYCLES_PER_BYTE, EFFECTIVE_COMPRESS_GBPS,
                       SoftwareCostModel, accelerator_effective_gbps,
                       measure_effective_gbps)
    from .des import Simulator
    from .energy import AreaComparison, EnergyComparison, EnergyModel
    from .io_adapter import PcieAdapterModel, compare_onchip_vs_adapter
    from .queueing import (AcceleratorQueue, Job, QueueResult, Source,
                           bimodal_size, load_sweep, policy_comparison)
    from .system import SystemModel, SystemRates, scaling_series
    from .tco import FleetAssumptions, TcoModel, TcoReport
    from .timing import LatencyBreakdown, OffloadTimingModel

__all__ = lazy_exports(__name__, {
    "completion": "CompletionMode CompletionModel",
    "cost": "COMPRESS_CYCLES_PER_BYTE EFFECTIVE_COMPRESS_GBPS "
            "SoftwareCostModel accelerator_effective_gbps "
            "measure_effective_gbps",
    "des": "Simulator",
    "energy": "AreaComparison EnergyComparison EnergyModel",
    "io_adapter": "PcieAdapterModel compare_onchip_vs_adapter",
    "queueing": "AcceleratorQueue Job QueueResult Source bimodal_size "
                "load_sweep policy_comparison",
    "system": "SystemModel SystemRates scaling_series",
    "tco": "FleetAssumptions TcoModel TcoReport",
    "timing": "LatencyBreakdown OffloadTimingModel",
})
