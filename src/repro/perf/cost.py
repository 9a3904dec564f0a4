"""Calibrated software-codec cost model (the zlib baseline).

Pure-Python wall-clock time says nothing about a POWER9 core, so software
cost is modelled as cycles-per-byte, calibrated so the abstract's claims
are mutually consistent:

* zlib -6 compression ≈ 208 cycles/byte → ≈ 18 MB/s on a 3.8 GHz core,
  which puts one NX accelerator (≈ 7.1 GB/s effective) at ≈ 388x;
* the full 24-core SMT4 chip then sustains ≈ 0.55 GB/s → ≈ 13x slower
  than the accelerator;
* inflate ≈ 24 cycles/byte (≈ 160 MB/s/core), matching the common
  order-of-magnitude gap between deflate and inflate.

The per-level curve follows zlib's effort growth (chain lengths and lazy
evaluation), so level sweeps have the right shape, not just level 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nx.params import MachineParams

COMPRESS_CYCLES_PER_BYTE: dict[int, float] = {
    0: 1.5,   # stored: memcpy + checksum
    1: 55.0,
    2: 70.0,
    3: 90.0,
    4: 120.0,
    5: 160.0,
    6: 208.0,
    7: 260.0,
    8: 400.0,
    9: 620.0,
}

DECOMPRESS_CYCLES_PER_BYTE = 24.0

# Effective accelerator rates measured from the engine model on the
# reference corpus (tests re-derive these within tolerance).
EFFECTIVE_COMPRESS_GBPS: dict[str, float] = {"POWER9": 7.1, "z15": 13.8}
EFFECTIVE_DECOMPRESS_GBPS: dict[str, float] = {"POWER9": 14.0, "z15": 28.0}


@dataclass
class SoftwareCostModel:
    """Time/energy cost of running the codec on general-purpose cores."""

    machine: MachineParams

    def _core_hz(self) -> float:
        return self.machine.cores.clock_ghz * 1e9

    def compress_cycles(self, nbytes: int, level: int = 6) -> float:
        if level not in COMPRESS_CYCLES_PER_BYTE:
            raise ValueError(f"no calibration for level {level}")
        return nbytes * COMPRESS_CYCLES_PER_BYTE[level]

    def compress_seconds(self, nbytes: int, level: int = 6) -> float:
        return self.compress_cycles(nbytes, level) / self._core_hz()

    def compress_rate_mbps(self, level: int = 6) -> float:
        """Single-thread software compression rate in MB/s."""
        seconds = self.compress_seconds(1_000_000, level)
        return 1.0 / seconds if seconds else 0.0

    def decompress_cycles(self, nbytes_out: int) -> float:
        return nbytes_out * DECOMPRESS_CYCLES_PER_BYTE

    def decompress_seconds(self, nbytes_out: int) -> float:
        return self.decompress_cycles(nbytes_out) / self._core_hz()

    def decompress_rate_mbps(self) -> float:
        return 1.0 / self.decompress_seconds(1_000_000)

    # -- aggregate (whole chip) -----------------------------------------

    def chip_threads_speedup(self) -> float:
        """Aggregate scaling from using every core and SMT thread."""
        cores = self.machine.cores
        return cores.cores * cores.smt_scaling

    def chip_compress_rate_gbps(self, level: int = 6) -> float:
        """All cores of the chip compressing independent streams."""
        return (self.compress_rate_mbps(level)
                * self.chip_threads_speedup()) / 1000.0


def accelerator_effective_gbps(machine: MachineParams,
                               op: str = "compress") -> float:
    """Calibrated sustained accelerator rate for timing/queueing models."""
    table = (EFFECTIVE_COMPRESS_GBPS if op == "compress"
             else EFFECTIVE_DECOMPRESS_GBPS)
    if machine.name not in table:
        raise ValueError(f"no calibration for machine {machine.name!r}")
    return table[machine.name]


def measure_effective_gbps(machine: MachineParams,
                           sample: bytes) -> float:
    """Re-derive the effective rate from the engine model on ``sample``.

    Used by tests to keep :data:`EFFECTIVE_COMPRESS_GBPS` honest.
    """
    from ..nx.compressor import NxCompressor
    from ..nx.dht import DhtStrategy

    compressor = NxCompressor(machine.engine)
    result = compressor.compress(sample, strategy=DhtStrategy.DYNAMIC)
    return result.throughput_gbps
