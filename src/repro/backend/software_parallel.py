"""The pigz-style multi-core software backend.

Same functional core as :class:`SoftwareZlibBackend`, but compression
runs through :func:`repro.deflate.parallel.parallel_deflate`: the input
is split into fixed-size chunks, each chunk's window is primed with the
last 32 KB of its predecessor, and the resulting continuation units are
concatenated into one stream.  This is the software baseline the paper
compares the accelerators against on multi-core hosts ("pigz -p N").

Container formats are framed here the way pigz frames them: header and
trailer are computed over the whole input while the body comes from the
chunked compressor.  Decompression is serial, as pigz ``-d`` is: the
software backend's decoder on one core, at its modelled cost.

Modelled compress time charges the calibrated single-core rate divided
by the worker count actually used — pigz's near-linear scaling, which
the paper's figure 13 uses as the software frontier.
"""

from __future__ import annotations

import os
from dataclasses import replace

from ..deflate.containers import checksum, frame, require_format
from ..deflate.parallel import DEFAULT_CHUNK_SIZE, parallel_deflate
from ..nx.dht import CannedLibrary
from ..nx.params import POWER9, MachineParams
from ..obs.trace import TRACE as _TRACE
from ..sysstack.driver import DriverResult, SubmissionStats
from .software import SoftwareZlibBackend


class SoftwareParallelBackend(SoftwareZlibBackend):
    """Chunked-parallel DEFLATE on general-purpose cores (pigz model);
    decompression is the software backend's."""

    name = "software-parallel"

    def __init__(self, machine: MachineParams | str = POWER9,
                 level: int = 6, workers: int | None = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        super().__init__(machine, level)
        self.workers = workers if workers is not None else (
            os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self._caps = replace(self._caps, compress_gbps=(
            self._cost.compress_rate_mbps(level) * self.workers / 1000.0))

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
