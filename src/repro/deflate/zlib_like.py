"""A zlib-shaped facade over the from-scratch codec.

Mirrors the parts of CPython's ``zlib`` module API that the rest of the
repository (and downstream users porting code) need: one-shot
``compress``/``decompress`` with the container formats selected by
``wbits``, plus streaming ``compressobj``/``decompressobj`` with window
carry across chunks.

``wbits`` semantics follow zlib: positive = zlib container, negative =
raw DEFLATE, ``16 + n`` = gzip.  (Window sizes other than 15 are
accepted but the codec always uses the full 32 KB window.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DeflateError
from .compress import deflate
from .constants import WINDOW_SIZE
from .containers import checksum, decode_with_stats, encode, frame, header
from .inflate import inflate
from .inflate_stream import InflateStream


def _container(wbits: int) -> str:
    if wbits >= 16 + 8:
        return "gzip"
    if wbits > 0:
        return "zlib"
    if wbits < 0:
        return "raw"
    raise DeflateError("wbits must not be 0")


def compress(data: bytes, level: int = 6, wbits: int = 15,
             zdict: bytes = b"") -> bytes:
    """One-shot compression in the container selected by ``wbits``."""
    return encode(data, _container(wbits), level, history=zdict)


def decompress(payload: bytes, wbits: int = 15,
               zdict: bytes = b"") -> bytes:
    """One-shot decompression per ``wbits``."""
    return decode_with_stats(payload, _container(wbits), history=zdict)[0]


@dataclass
class CompressObj:
    """Streaming compressor: ``compress(chunk)*`` then ``flush()``.

    Each ``compress`` call emits one continuable unit (full-flush
    semantics, so output is available immediately); ``flush`` closes the
    stream and appends the container trailer.
    """

    level: int = 6
    wbits: int = -15
    zdict: bytes = b""
    strategy: str = "default"
    _history: bytes = field(default=b"", repr=False)
    _check: int | None = None
    _size: int = 0
    _started: bool = False
    _finished: bool = False
    _raw_parts: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._fmt = _container(self.wbits)
        header(self._fmt, zdict=self.zdict)  # refuses what it cannot name
        self._history = self.zdict[-WINDOW_SIZE:]

    def compress(self, chunk: bytes) -> bytes:
        if self._finished:
            raise DeflateError("compressobj already flushed")
        self._started = True
        unit = deflate(chunk, level=self.level, history=self._history,
                       strategy=self.strategy, final=False).data
        self._account(chunk)
        self._raw_parts.append(unit)
        return b""  # output delivered at flush, like zlib's default mode

    def flush(self) -> bytes:
        if self._finished:
            raise DeflateError("compressobj already flushed")
        self._finished = True
        unit = deflate(b"", level=self.level, history=self._history,
                       strategy=self.strategy, final=True).data
        self._account(b"")  # starts the checksum of an empty stream
        self._raw_parts.append(unit)
        return frame(self._fmt, b"".join(self._raw_parts), self._check,
                     self._size, zdict=self.zdict)

    def _account(self, chunk: bytes) -> None:
        self._check = checksum(self._fmt, chunk, self._check)
        self._size += len(chunk)
        self._history = (self._history + chunk)[-WINDOW_SIZE:]


@dataclass
class DecompressObj:
    """Streaming decompressor of a raw stream, in any chunking.

    ``decompress(chunk)`` returns the plaintext the input so far
    determines — all of a unit :class:`CompressObj` (or any encoder
    that flushes) produced, once its last byte is in — and carries the
    window across calls; ``final`` says the stream must end here.
    """

    zdict: bytes = b""

    def __post_init__(self) -> None:
        self._stream = InflateStream(history=self.zdict)

    def decompress(self, unit: bytes, final: bool = False) -> bytes:
        out = self._stream.feed(unit)
        return out + self._stream.finish() if final else out


def compressobj(level: int = 6, wbits: int = -15,
                zdict: bytes = b"") -> CompressObj:
    """zlib-style constructor."""
    return CompressObj(level=level, wbits=wbits, zdict=zdict)


def decompressobj(zdict: bytes = b"") -> DecompressObj:
    """zlib-style constructor (raw units only)."""
    return DecompressObj(zdict=zdict)


__all__ = [
    "compress",
    "decompress",
    "compressobj",
    "decompressobj",
    "CompressObj",
    "DecompressObj",
    "inflate",
]
