"""The NX decompression engine: functional inflate + cycle-level timing.

The decompressor's functional core is the from-scratch inflate; the cycle
model reflects the documented structure: a serial Huffman decode front
end (symbol-at-a-time, but multiple bits per cycle), a copy engine that
writes ``decomp_bytes_per_cycle`` output bytes per cycle, and a decode
table build at each dynamic block header.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..deflate.constants import BTYPE_DYNAMIC
from ..deflate.containers import FORMATS, Resolver, SeekPoint
from ..deflate.inflate import InflateStats
from ..errors import NO_BOUND, AcceleratorError
from .params import DECOMP_DHT_SETUP_CYCLES, PIPELINE_FILL_CYCLES, EngineParams

#: Front-end input consumption rate.
DECODE_BITS_PER_CYCLE = 32


@dataclass(frozen=True)
class NxDecompressResult:
    """Output of one accelerator decompression request."""

    data: bytes
    input_bytes: int
    cycles: int
    stats: InflateStats
    clock_ghz: float
    #: Input bytes up to the end of the stream (container trailer
    #: included); anything after them was not part of it.
    consumed_bytes: int
    #: Where a request whose target filled goes on (None: it finished).
    resume: SeekPoint | None = None

    @property
    def seconds(self) -> float:
        return self.cycles / (self.clock_ghz * 1e9)

    @property
    def throughput_gbps(self) -> float:
        """Output-side throughput, the figure of merit for decompression."""
        seconds = self.seconds
        return (len(self.data) / 1e9) / seconds if seconds else 0.0


@dataclass
class NxDecompressor:
    """Decompression half of one NX/zEDC engine."""

    params: EngineParams

    def decompress(self, payload: bytes, fmt: str = "raw",
                   max_output: int = NO_BOUND, history: bytes = b"",
                   resume: SeekPoint | None = None) -> NxDecompressResult:
        """Run one decompression request through the engine model.

        One inflate pass and one checksum pass, whatever the format.
        ``history`` is the carried window of a raw unit or a zlib preset
        dictionary; with ``resume`` the request goes on from that state
        and ``history`` is its window.  A request whose output would pass
        ``max_output`` (the target's size) ends at the last block that
        fits: the result's ``resume`` is where the next one goes on.
        """
        if fmt not in FORMATS:
            raise AcceleratorError(f"unsupported wire format {fmt!r}")
        resolver = Resolver(payload, fmt, history, resume)
        point = resolver.run(max_output, resumable=True)
        data = resolver.output()
        start = resume.bit_offset if resume is not None else 0
        stop = point.bit_offset if point is not None else 8 * len(payload)
        cycles = self._cycle_model(-(-(stop - start) // 8), len(data),
                                   resolver.stats)
        return NxDecompressResult(data=data, input_bytes=len(payload),
                                  cycles=cycles, stats=resolver.stats,
                                  clock_ghz=self.params.clock_ghz,
                                  consumed_bytes=resolver.end,
                                  resume=point)

    def _cycle_model(self, in_bytes: int, out_bytes: int,
                     stats: InflateStats) -> int:
        """Compose front-end, copy-engine and table-build cycle costs."""
        front_end = -(-in_bytes * 8 // DECODE_BITS_PER_CYCLE)
        copy = -(-out_bytes // self.params.decomp_bytes_per_cycle)
        tables = (DECOMP_DHT_SETUP_CYCLES
                  * sum(1 for b in stats.blocks if b == BTYPE_DYNAMIC))
        return PIPELINE_FILL_CYCLES + max(front_end, copy) + tables
