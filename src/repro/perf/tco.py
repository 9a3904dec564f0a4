"""Total-cost-of-ownership model: what on-chip compression is worth.

The abstract's economic claims: compression saves storage/memory/IO
cost, the on-chip engine adds "practically zero hardware cost", and it
"eliminates the cost and I/O slots that would have been necessary with
FPGA/ASIC based compression adapters".  This module turns those claims
into a small, explicit fleet-level model:

* storage saved = data volume x (1 - 1/ratio) x $/TB-month;
* core-hours returned = software codec core-seconds the engine absorbs;
* adapter cost avoided = cards + slots + watts the PCIe alternative
  would need for the same offered load.

Every input is a named constant here or a field of
:class:`FleetAssumptions`, so the output is an auditable estimate, not
an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nx.params import MachineParams
from .cost import SoftwareCostModel
from .io_adapter import (CARD_COST_USD, ENGINE_RATE_GBPS, PCIE_GBPS,
                         SLOT_POWER_W)

#: Prices.
STORAGE_USD_PER_TB_MONTH = 20.0
CORE_HOUR_USD = 0.04            # amortized server core-hour
POWER_USD_PER_KWH = 0.12


@dataclass(frozen=True)
class FleetAssumptions:
    """Fleet-level workload inputs."""

    compressed_tb_per_day: float = 100.0   # data volume through the codec
    compression_ratio: float = 3.0


@dataclass(frozen=True)
class TcoReport:
    """Monthly savings attributable to the on-chip accelerator."""

    storage_usd_per_month: float
    core_hours_per_month: float
    core_usd_per_month: float
    adapters_avoided: int
    adapter_capex_usd: float
    adapter_power_usd_per_month: float

    @property
    def recurring_usd_per_month(self) -> float:
        return (self.storage_usd_per_month + self.core_usd_per_month
                + self.adapter_power_usd_per_month)


@dataclass
class TcoModel:
    """Composes the savings for one machine + fleet assumption set."""

    machine: MachineParams
    assumptions: FleetAssumptions = FleetAssumptions()

    def storage_savings_usd_per_month(self) -> float:
        a = self.assumptions
        stored_tb = a.compressed_tb_per_day * 30.0
        saved_tb = stored_tb * (1.0 - 1.0 / a.compression_ratio)
        return saved_tb * STORAGE_USD_PER_TB_MONTH

    def core_hours_returned_per_month(self) -> float:
        """Core time the software codec (zlib -6) would have burned."""
        a = self.assumptions
        cost = SoftwareCostModel(self.machine)
        seconds_per_byte = cost.compress_seconds(1)
        bytes_per_month = a.compressed_tb_per_day * 1e12 * 30.0
        return bytes_per_month * seconds_per_byte / 3600.0

    def adapters_avoided(self) -> int:
        """PCIe cards needed to carry the same offered load."""
        a = self.assumptions
        offered_gbps = a.compressed_tb_per_day * 1e12 / 86400.0 / 1e9
        per_card = min(ENGINE_RATE_GBPS, PCIE_GBPS / 1.4)  # in + out
        return max(1, -(-int(offered_gbps * 100) // int(per_card * 100)))

    def report(self) -> TcoReport:
        cards = self.adapters_avoided()
        core_hours = self.core_hours_returned_per_month()
        return TcoReport(
            storage_usd_per_month=self.storage_savings_usd_per_month(),
            core_hours_per_month=core_hours,
            core_usd_per_month=core_hours * CORE_HOUR_USD,
            adapters_avoided=cards,
            adapter_capex_usd=cards * CARD_COST_USD,
            adapter_power_usd_per_month=(
                cards * SLOT_POWER_W / 1000.0 * 24 * 30
                * POWER_USD_PER_KWH),
        )
