"""The pigz-style multi-core software backend.

Same functional core as :class:`SoftwareZlibBackend`, but compression
runs through :func:`repro.deflate.parallel.parallel_deflate`: the input
is split into fixed-size chunks, each chunk's window is primed with the
last 32 KB of its predecessor, and the resulting continuation units are
concatenated into one stream.  This is the software baseline the paper
compares the accelerators against on multi-core hosts ("pigz -p N").

Container formats are framed here the way pigz frames them: header and
trailer are computed over the whole input while the body comes from the
chunked compressor.  Decompression runs through
:func:`repro.deflate.parallel_inflate.parallel_inflate`, which puts
runs of gzip members on the pool and decodes everything else (zlib,
raw, single-member gzip, anything under its 128 KiB chunk) inline.
Like pigz ``-d`` (and unlike the single-core backend), the gzip path
accepts concatenated multi-member archives.

Modelled time charges the calibrated single-core rate divided by the
worker count actually used — pigz's near-linear scaling, which the
paper's figure 13 uses as the software frontier; for decompression
that is 1 unless member runs were spliced.
"""

from __future__ import annotations

import os

from ..deflate.containers import FORMATS, checksum, frame, require_format
from ..deflate.parallel import DEFAULT_CHUNK_SIZE, parallel_deflate
from ..deflate.parallel_inflate import parallel_inflate
from ..nx.dht import CannedLibrary
from ..nx.params import POWER9, MachineParams, get_machine
from ..obs.trace import TRACE as _TRACE
from ..perf.cost import SoftwareCostModel
from ..resilience.verify import run_in_software
from ..sysstack.driver import DriverResult, SubmissionStats
from .base import BackendCapabilities, CompressionBackend


class SoftwareParallelBackend(CompressionBackend):
    """Chunked-parallel DEFLATE on general-purpose cores (pigz model)."""

    name = "software-parallel"

    def __init__(self, machine: MachineParams | str = POWER9,
                 level: int = 6, workers: int | None = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        super().__init__()
        if isinstance(machine, str):
            machine = get_machine(machine)
        self.machine = machine
        self.level = level
        self.workers = workers if workers is not None else (
            os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self._cost = SoftwareCostModel(machine)
        self._caps = BackendCapabilities(
            name=self.name,
            formats=FORMATS,
            synchronous=True,
            hardware=False,
            compress_gbps=(self._cost.compress_rate_mbps(level)
                           * self.workers / 1000.0),
            decompress_gbps=(self._cost.decompress_rate_mbps()
                             * self.workers / 1000.0),
            per_call_overhead_s=0.0,
        )

    # -- implementation ------------------------------------------------------

    def _compress(self, data: bytes, strategy: str, fmt: str,
                  history: bytes, final: bool,
                  library: CannedLibrary) -> DriverResult:
        require_format(fmt, history, final)
        body = parallel_deflate(data, level=self.level,
                                chunk_size=self.chunk_size,
                                workers=self.workers,
                                history=history, final=final).data
        output = frame(fmt, body, checksum(fmt, data), len(data),
                       self.level)
        nchunks = max(1, -(-len(data) // self.chunk_size))
        used = min(self.workers, nchunks)
        _TRACE.event("parallel.chunks", chunks=nchunks, workers=used)
        seconds = self._cost.compress_seconds(
            len(data), level=self.level) / used
        stats = SubmissionStats(submissions=nchunks, elapsed_seconds=seconds)
        return DriverResult(output=output, csb=None, stats=stats)

    def _decompress(self, payload: bytes, fmt: str,
                    history: bytes) -> DriverResult:
        require_format(fmt)
        if self.workers <= 1 or history:
            # A stream that starts with a window has no member runs to
            # put on the pool: the serial decoder, like one worker.
            output, seconds = run_in_software(
                "decompress", payload, fmt, history=history,
                machine=self.machine)
            submissions = 1
        else:
            result = parallel_inflate(payload, fmt, workers=self.workers,
                                      history=history)
            output = result.data
            seconds = (self._cost.decompress_seconds(len(output))
                       / min(self.workers, result.chunks_used + 1))
            submissions = max(1, result.chunks_speculated
                              + result.serial_segments)
        stats = SubmissionStats(submissions=submissions,
                                elapsed_seconds=seconds)
        return DriverResult(output=output, csb=None, stats=stats)
