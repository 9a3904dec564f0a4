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
import struct

from ..deflate import (adler32, crc32, gzip_decompress, inflate_with_stats,
                       zlib_decompress)
from ..deflate.parallel import DEFAULT_CHUNK_SIZE, parallel_deflate
from ..deflate.parallel_inflate import parallel_inflate
from ..errors import ConfigError
from ..nx.params import POWER9, MachineParams, get_machine
from ..obs.trace import TRACE as _TRACE
from ..perf.cost import SoftwareCostModel
from ..sysstack.driver import DriverResult, SubmissionStats
from .base import BackendCapabilities, CompressionBackend

_FORMATS = ("gzip", "zlib", "raw")


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
            formats=_FORMATS,
            strategies=("auto",),
            synchronous=True,
            hardware=False,
            streaming=False,  # whole-buffer chunking, no incremental feed
            compress_gbps=(self._cost.compress_rate_mbps(level)
                           * self.workers / 1000.0),
            decompress_gbps=(self._cost.decompress_rate_mbps()
                             * self.workers / 1000.0),
            per_call_overhead_s=0.0,
            parallel_inflate=True,
        )

    def capabilities(self) -> BackendCapabilities:
        return self._caps

    # -- implementation ------------------------------------------------------

    def _compress(self, data: bytes, strategy: str, fmt: str,
                  history: bytes, final: bool) -> DriverResult:
        if fmt == "raw":
            body = parallel_deflate(data, level=self.level,
                                    chunk_size=self.chunk_size,
                                    workers=self.workers,
                                    history=history, final=final).data
        elif fmt == "zlib":
            self._whole_stream_only(history, final, fmt)
            body = self._zlib_frame(data)
        elif fmt == "gzip":
            self._whole_stream_only(history, final, fmt)
            body = self._gzip_frame(data)
        else:
            raise ConfigError(
                f"software-parallel backend does not produce {fmt!r}")
        nchunks = max(1, -(-len(data) // self.chunk_size))
        used = min(self.workers, nchunks)
        if _TRACE.enabled:
            _TRACE.event("parallel.chunks", chunks=nchunks, workers=used)
        seconds = self._cost.compress_seconds(
            len(data), level=self.level) / used
        stats = SubmissionStats(submissions=nchunks, elapsed_seconds=seconds)
        return DriverResult(output=body, csb=None, stats=stats)

    def _parallel_body(self, data: bytes) -> bytes:
        return parallel_deflate(data, level=self.level,
                                chunk_size=self.chunk_size,
                                workers=self.workers).data

    def _zlib_frame(self, data: bytes) -> bytes:
        from ..deflate.containers import (_LEVEL_TO_FLEVEL, ZLIB_CM_DEFLATE,
                                          ZLIB_WINDOW_32K)
        body = self._parallel_body(data)
        cmf = (ZLIB_WINDOW_32K << 4) | ZLIB_CM_DEFLATE
        header = (cmf << 8) | (_LEVEL_TO_FLEVEL.get(self.level, 2) << 6)
        header += 31 - header % 31
        return struct.pack(">H", header) + body + struct.pack(
            ">I", adler32(data))

    def _gzip_frame(self, data: bytes) -> bytes:
        from ..deflate.containers import (GZIP_MAGIC, GZIP_METHOD_DEFLATE,
                                          GZIP_OS_UNKNOWN)
        body = self._parallel_body(data)
        xfl = 2 if self.level >= 8 else (4 if self.level <= 2 else 0)
        header = GZIP_MAGIC + bytes([GZIP_METHOD_DEFLATE, 0, 0, 0, 0, 0,
                                     xfl, GZIP_OS_UNKNOWN])
        trailer = struct.pack("<II", crc32(data), len(data) & 0xFFFFFFFF)
        return header + body + trailer

    def _decompress(self, payload: bytes, fmt: str,
                    history: bytes) -> DriverResult:
        if fmt not in _FORMATS:
            raise ConfigError(
                f"software-parallel backend does not decode {fmt!r}")
        if self.workers > 1 and not (history and fmt != "raw"):
            result = parallel_inflate(payload, fmt, workers=self.workers,
                                      history=history)
            output = result.data
            used = min(self.workers, result.chunks_used + 1)
            submissions = result.chunks_speculated + result.serial_segments
        elif fmt == "raw":
            output, _stats, _bits = inflate_with_stats(payload,
                                                       history=history)
            used, submissions = 1, 1
        elif fmt == "zlib":
            output = zlib_decompress(payload, zdict=history)
            used, submissions = 1, 1
        else:
            output = gzip_decompress(payload)
            used, submissions = 1, 1
        seconds = self._cost.decompress_seconds(len(output)) / used
        stats = SubmissionStats(submissions=max(1, submissions),
                                elapsed_seconds=seconds)
        return DriverResult(output=output, csb=None, stats=stats)

    @staticmethod
    def _whole_stream_only(history: bytes, final: bool, fmt: str) -> None:
        if history or not final:
            raise ConfigError(
                f"{fmt!r} container requires a whole stream; "
                "use fmt='raw' for continuation units")
