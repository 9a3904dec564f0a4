"""Streaming compression/decompression over the accelerator.

Real applications (Spark shuffles, gzip of a file larger than memory)
feed the accelerator one buffer at a time.  The NX supports this with
*continuation* requests: each request carries the previous 32 KB of
plaintext as a history DDE, emits non-final DEFLATE blocks, and ends
with a sync flush so the per-request outputs concatenate into one valid
stream.  :class:`NxCompressStream` drives that protocol through the
session driver and assembles the container (gzip/zlib/raw) around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..deflate.constants import WINDOW_SIZE
from ..deflate.containers import checksum, header, trailer
from ..deflate.inflate_stream import InflateStream
from ..errors import StreamStateError


@dataclass
class StreamStats:
    """Totals for one streaming session."""

    chunks: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    modelled_seconds: float = 0.0


@dataclass
class NxCompressStream:
    """Chunk-at-a-time compression through an :class:`~repro.NxGzip`.

    Usage::

        stream = session.compress_stream(fmt="gzip")
        out = stream.write(chunk1) + stream.write(chunk2) + stream.finish()
    """

    session: object  # NxGzip (kept loose to avoid an import cycle)
    fmt: str = "gzip"
    stats: StreamStats = field(default_factory=StreamStats, init=False)
    _history: bytes = b""
    _check: int | None = None
    _isize: int = 0
    _started: bool = False
    _finished: bool = False

    def write(self, chunk: bytes, final: bool = False) -> bytes:
        """Compress one chunk; returns the wire bytes it produced."""
        if self._finished:
            raise StreamStateError("stream already finished")
        out = b"" if self._started else header(self.fmt)
        self._started = True

        result = self.session.compress_chunk(
            chunk, history=self._history, final=final)
        out += result.output
        self.stats.chunks += 1
        self.stats.bytes_in += len(chunk)
        self.stats.modelled_seconds += result.stats.elapsed_seconds

        self._check = checksum(self.fmt, chunk, self._check)
        self._isize += len(chunk)
        self._history = (self._history + chunk)[-WINDOW_SIZE:]
        if final:
            self._finished = True
            out += trailer(self.fmt, self._check, self._isize)
        self.stats.bytes_out += len(out)
        return out

    def finish(self, chunk: bytes = b"") -> bytes:
        """Compress the last chunk (may be empty) and close the stream."""
        return self.write(chunk, final=True)


@dataclass
class NxDecompressStream:
    """Chunk-at-a-time raw-DEFLATE decompression with window carry.

    The decompression-side continuation protocol: each call takes the
    next bytes of the stream — the byte-aligned unit one request of an
    :class:`NxCompressStream` produced, or any other cut of it — and
    returns the plaintext they complete.
    """

    session: object
    stats: StreamStats = field(default_factory=StreamStats)
    _inflater: InflateStream = field(default_factory=InflateStream)

    def decode_unit(self, unit: bytes, final: bool = False) -> bytes:
        """Decode one continuation unit and return its plaintext."""
        out = self._inflater.feed(unit)
        if final:
            out += self._inflater.finish()
        self.stats.chunks += 1
        self.stats.bytes_in += len(unit)
        self.stats.bytes_out += len(out)
        return out


def reassemble(units: list[bytes]) -> bytes:
    """Concatenate continuation units into one complete raw stream."""
    return b"".join(units)
