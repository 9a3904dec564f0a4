"""Area, power, and energy-per-byte model.

The abstract's claim: the accelerator occupies < 0.5 % of the POWER9 chip
yet replaces the compression work of the whole chip of cores — so the
area- and energy-efficiency gaps are even larger than the speedup.  This
module quantifies both sides from the machine parameters plus the
calibrated rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nx.params import MachineParams
from .cost import SoftwareCostModel, accelerator_effective_gbps


@dataclass(frozen=True)
class EnergyComparison:
    """Energy per compressed byte: accelerator vs software cores."""

    accelerator_nj_per_byte: float
    software_nj_per_byte: float

    @property
    def efficiency_gain(self) -> float:
        if self.accelerator_nj_per_byte == 0:
            return float("inf")
        return self.software_nj_per_byte / self.accelerator_nj_per_byte


@dataclass(frozen=True)
class AreaComparison:
    """Area efficiency: throughput per mm^2."""

    accelerator_gbps_per_mm2: float
    cores_gbps_per_mm2: float
    area_fraction: float

    @property
    def efficiency_gain(self) -> float:
        if self.cores_gbps_per_mm2 == 0:
            return float("inf")
        return self.accelerator_gbps_per_mm2 / self.cores_gbps_per_mm2


@dataclass
class EnergyModel:
    """Compression energy/area accounting for one machine, against
    software zlib -6."""

    machine: MachineParams

    def accelerator_energy_nj_per_byte(self) -> float:
        rate = accelerator_effective_gbps(self.machine) * 1e9
        return self.machine.accelerator_power_w / rate * 1e9

    def software_energy_nj_per_byte(self) -> float:
        seconds_per_byte = SoftwareCostModel(self.machine).compress_seconds(1)
        return self.machine.core_power_w * seconds_per_byte * 1e9

    def energy_comparison(self) -> EnergyComparison:
        return EnergyComparison(
            accelerator_nj_per_byte=self.accelerator_energy_nj_per_byte(),
            software_nj_per_byte=self.software_energy_nj_per_byte(),
        )

    def area_comparison(self) -> AreaComparison:
        machine = self.machine
        accel_rate = accelerator_effective_gbps(machine)
        chip_sw_rate = SoftwareCostModel(machine).chip_compress_rate_gbps()
        # Charge the cores the whole chip area minus the accelerator: the
        # compression-software alternative occupies the core complex.
        core_area = machine.chip_area_mm2 - machine.accelerator_area_mm2
        return AreaComparison(
            accelerator_gbps_per_mm2=accel_rate
            / machine.accelerator_area_mm2,
            cores_gbps_per_mm2=chip_sw_rate / core_area,
            area_fraction=machine.area_fraction,
        )
