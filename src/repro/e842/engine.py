"""Timing model for the NX 842 engines.

The 842 design is exactly what makes it hardware-cheap: one template per
8-byte chunk, no Huffman stage, no table generation — so the engine
streams at its full scan width with only ring lookups in the loop.  The
POWER9 NX carries two such engines (a heritage of Active Memory
Expansion); they are faster than the gzip side but compress noticeably
worse, which is the trade the paper's gzip engines were built to win.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import CHUNK, E842Result, E842Stats, compress, decompress


#: One 842 engine: its clock, scan width and pipeline fill.
CLOCK_GHZ = 2.0
BYTES_PER_CYCLE = 8
PIPELINE_FILL_CYCLES = 32


@dataclass(frozen=True)
class E842JobResult:
    """Functional + timing outcome of one 842 job."""

    data: bytes
    input_bytes: int
    output_bytes: int
    cycles: int
    stats: E842Stats | None = None

    @property
    def ratio(self) -> float:
        """Compression ratio (meaningful on the compress direction)."""
        if not self.data:
            return 0.0
        return self.input_bytes / len(self.data)

    @property
    def seconds(self) -> float:
        return self.cycles / (CLOCK_GHZ * 1e9)

    @property
    def throughput_gbps(self) -> float:
        seconds = self.seconds
        return (self.input_bytes / 1e9) / seconds if seconds else 0.0


class Engine842:
    """Compression/decompression through one modelled 842 engine."""

    def compress(self, data: bytes) -> E842JobResult:
        result: E842Result = compress(data)
        cycles = self._cycles(len(data))
        return E842JobResult(data=result.data, input_bytes=len(data),
                             output_bytes=len(result.data), cycles=cycles,
                             stats=result.stats)

    def decompress(self, payload: bytes,
                   max_output: int) -> E842JobResult:
        out = decompress(payload, max_output=max_output)
        cycles = self._cycles(len(out))
        return E842JobResult(data=out, input_bytes=len(payload),
                             output_bytes=len(out), cycles=cycles)

    def _cycles(self, nbytes: int) -> int:
        chunks = -(-max(nbytes, 1) // CHUNK)
        per_cycle_chunks = max(1, BYTES_PER_CYCLE // CHUNK)
        return PIPELINE_FILL_CYCLES + -(-chunks // per_cycle_chunks)
