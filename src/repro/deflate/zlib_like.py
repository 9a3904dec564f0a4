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
from .checksums import adler32, crc32
from .compress import deflate
from .constants import WINDOW_SIZE
from .containers import (
    frame_gzip,
    gzip_compress,
    gzip_decompress,
    wrap_zlib,
    zlib_compress,
    zlib_decompress,
)
from .inflate import inflate, inflate_with_stats


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
    fmt = _container(wbits)
    if fmt == "zlib":
        return zlib_compress(data, level=level, zdict=zdict)
    if fmt == "gzip":
        if zdict:
            raise DeflateError("gzip container does not carry a DICTID")
        return gzip_compress(data, level=level)
    return deflate(data, level=level, history=zdict).data


def decompress(payload: bytes, wbits: int = 15,
               zdict: bytes = b"") -> bytes:
    """One-shot decompression per ``wbits``."""
    fmt = _container(wbits)
    if fmt == "zlib":
        return zlib_decompress(payload, zdict=zdict)
    if fmt == "gzip":
        return gzip_decompress(payload)
    out, _stats, _bits = inflate_with_stats(payload, history=zdict)
    return out


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
    _crc: int = 0
    _adler: int = 1
    _size: int = 0
    _started: bool = False
    _finished: bool = False
    _raw_parts: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._fmt = _container(self.wbits)
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

    def flush(self, last_chunk: bytes = b"") -> bytes:
        if self._finished:
            raise DeflateError("compressobj already flushed")
        self._finished = True
        unit = deflate(last_chunk, level=self.level,
                       history=self._history, strategy=self.strategy,
                       final=True).data
        self._account(last_chunk)
        self._raw_parts.append(unit)
        body = b"".join(self._raw_parts)
        if self._fmt == "raw":
            return body
        if self._fmt == "zlib":
            framed = wrap_zlib(body, b"")
            # Rebuild the trailer from the running Adler-32.
            return framed[:-4] + self._adler.to_bytes(4, "big")
        return frame_gzip(body, self._crc, self._size)

    def _account(self, chunk: bytes) -> None:
        self._crc = crc32(chunk, self._crc)
        self._adler = adler32(chunk, self._adler)
        self._size += len(chunk)
        self._history = (self._history + chunk)[-WINDOW_SIZE:]


@dataclass
class DecompressObj:
    """Streaming decompressor over full-flush unit boundaries.

    ``decompress(unit)`` decodes one unit produced by
    :class:`CompressObj` (or any encoder that full-flushes at the same
    boundaries), carrying the window across calls.
    """

    zdict: bytes = b""
    _history: bytes = field(default=b"", repr=False)

    def __post_init__(self) -> None:
        self._history = self.zdict[-WINDOW_SIZE:]

    def decompress(self, unit: bytes, final: bool = False) -> bytes:
        payload = unit if final else unit + b"\x01\x00\x00\xff\xff"
        out, _stats, _bits = inflate_with_stats(payload,
                                                history=self._history)
        self._history = (self._history + out)[-WINDOW_SIZE:]
        return out


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
