"""Machine and engine parameter descriptions for the accelerator models.

Calibration is anchored on the abstract's self-consistent claims:

* single-thread zlib -6 on a POWER9 core runs at ~20 MB/s, and one NX
  accelerator gives a **388x** speedup → NX compress ≈ 7.8 GB/s;
* the whole POWER9 chip of cores is **13x** slower than one NX →
  aggregate software ≈ 0.6 GB/s over 24 SMT4 cores;
* the z15 chip **doubles** the POWER9 rate → ≈ 15.6 GB/s per chip;
* a maximally configured z15 (5 CPC drawers x 4 CP chips = 20 chips)
  reaches **280 GB/s** → ≈ 14 GB/s sustained per chip after DHT and
  framing overheads.

Everything else (pipeline widths, overheads) is set to the publicly
documented shape of the NX-GZIP / Integrated-Accelerator-for-zEDC designs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


#: Cycles to fill an engine's pipeline, paid once per job.
PIPELINE_FILL_CYCLES = 64
#: Decode-table build per dynamic block.
DECOMP_DHT_SETUP_CYCLES = 96


@dataclass(frozen=True)
class EngineParams:
    """One compression/decompression engine pair inside the nest."""

    name: str
    clock_ghz: float
    scan_bytes_per_cycle: int      # compressor input scan width
    decomp_bytes_per_cycle: int    # decompressor output width
    hash_banks: int                # banked hash table: parallel lookups
    hash_ways: int                 # candidate positions kept per set
    hash_sets_log2: int            # sets per bank (log2)
    hash_ports: int                # lookup/insert ports per bank per cycle
    compare_window: int            # bytes compared per candidate per probe
    window_bytes: int = 32768
    dht_base_cycles: int = 1500          # DHT generator: fixed cost
    dht_cycles_per_symbol: int = 8       # DHT generator: per used symbol
    huffman_encode_bits_per_cycle: int = 64

    def __post_init__(self) -> None:
        # The scan masks set names out of a hash product, and its stall
        # lanes (16 bits) hold the counts of up to 256 positions.
        banks, width = self.hash_banks, self.scan_bytes_per_cycle
        if (not 1 <= banks <= 256 or banks & (banks - 1)
                or not 1 <= width <= 256
                or min(self.hash_ports, self.hash_ways) < 1):
            raise ConfigError(
                f"hash_banks must be a power of two and scan_bytes_per_cycle"
                f" a width, both in [1, 256], hash_ports and hash_ways >= 1:"
                f" {self}")


@dataclass(frozen=True)
class CoreParams:
    """General-purpose core complex used for the software baseline."""

    cores: int
    clock_ghz: float
    smt: int
    smt_scaling: float  # aggregate speedup factor from filling SMT threads


@dataclass(frozen=True)
class MachineParams:
    """A chip (accelerator + cores) plus its invocation interface."""

    name: str
    engine: EngineParams
    cores: CoreParams
    accelerators_per_chip: int
    chips: int
    synchronous: bool              # z15 DFLTCC vs POWER9 async paste
    submit_overhead_us: float      # user thread: build CRB + paste (or
                                   # instruction issue for DFLTCC)
    dispatch_overhead_us: float    # VAS routing + engine job start
    completion_overhead_us: float  # CSB poll/interrupt + wakeup
    dma_read_gbps: float           # nest fabric read bandwidth per engine
    dma_write_gbps: float
    chip_area_mm2: float
    accelerator_area_mm2: float
    accelerator_power_w: float     # active power at full rate
    core_power_w: float            # one core, busy

    @property
    def area_fraction(self) -> float:
        return self.accelerator_area_mm2 / self.chip_area_mm2


_P9_ENGINE = EngineParams(
    name="nx-gzip-p9",
    clock_ghz=2.0,
    scan_bytes_per_cycle=4,
    decomp_bytes_per_cycle=8,
    hash_banks=64,
    hash_ways=8,
    hash_sets_log2=11,
    hash_ports=2,
    compare_window=16,
)

_Z15_ENGINE = EngineParams(
    name="zedc-z15",
    clock_ghz=2.0,
    scan_bytes_per_cycle=8,
    decomp_bytes_per_cycle=16,
    hash_banks=128,
    hash_ways=8,
    hash_sets_log2=10,
    hash_ports=2,
    compare_window=32,
    dht_base_cycles=600,          # z15 doubled the DHT generator as well
    dht_cycles_per_symbol=3,
    huffman_encode_bits_per_cycle=128,
)

POWER9 = MachineParams(
    name="POWER9",
    engine=_P9_ENGINE,
    cores=CoreParams(cores=24, clock_ghz=3.8, smt=4, smt_scaling=1.24),
    accelerators_per_chip=1,
    chips=1,
    synchronous=False,
    submit_overhead_us=1.2,
    dispatch_overhead_us=0.8,
    completion_overhead_us=1.5,
    dma_read_gbps=50.0,
    dma_write_gbps=50.0,
    chip_area_mm2=728.0,
    accelerator_area_mm2=3.4,     # < 0.5 % of the chip, per the abstract
    accelerator_power_w=1.8,
    core_power_w=9.0,
)

Z15 = MachineParams(
    name="z15",
    engine=_Z15_ENGINE,
    cores=CoreParams(cores=12, clock_ghz=5.2, smt=2, smt_scaling=1.15),
    accelerators_per_chip=1,
    chips=1,
    synchronous=True,
    submit_overhead_us=0.15,      # DFLTCC: instruction issue, no paste
    dispatch_overhead_us=0.25,
    completion_overhead_us=0.1,
    dma_read_gbps=80.0,
    dma_write_gbps=80.0,
    chip_area_mm2=696.0,
    accelerator_area_mm2=3.0,
    accelerator_power_w=2.4,
    core_power_w=12.0,
)


def z15_max_config() -> "Topology":
    """The maximally configured z15: 5 CPC drawers x 4 CP chips."""
    return Topology(machine=Z15, chips_per_drawer=4, drawers=5)


@dataclass(frozen=True)
class Topology:
    """A multi-chip system built from one machine type."""

    machine: MachineParams
    chips_per_drawer: int = 1
    drawers: int = 1

    @property
    def total_chips(self) -> int:
        return self.chips_per_drawer * self.drawers

    @property
    def total_accelerators(self) -> int:
        return self.total_chips * self.machine.accelerators_per_chip

    @property
    def total_cores(self) -> int:
        return self.total_chips * self.machine.cores.cores


MACHINES: dict[str, MachineParams] = {"POWER9": POWER9, "z15": Z15}


def get_machine(name: str) -> MachineParams:
    """Look up a machine description by name (case-insensitive)."""
    for key, machine in MACHINES.items():
        if key.lower() == name.lower():
            return machine
    raise ConfigError(f"unknown machine {name!r}; have {sorted(MACHINES)}")
