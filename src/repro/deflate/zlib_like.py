"""A zlib-shaped facade over the from-scratch codec.

Mirrors the parts of CPython's ``zlib`` module API that the rest of the
repository (and downstream users porting code) need: one-shot
``compress``/``decompress`` with the container formats selected by
``wbits``, plus a streaming ``compressobj`` with window carry across
chunks (read a stream back with :class:`~repro.deflate.stream.
DecompressStream`).

``wbits`` semantics follow zlib: positive = zlib container, negative =
raw DEFLATE, ``16 + n`` = gzip.  (Window sizes other than 15 are
accepted but the codec always uses the full 32 KB window.)
"""

from __future__ import annotations

from ..errors import DeflateError
from .compress import deflate
from .containers import decode_with_stats, encode
from .inflate import inflate
from .stream import CompressStream


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


class CompressObj:
    """Streaming compressor: ``compress(chunk)*`` then ``flush()``.

    Each ``compress`` call compresses one continuable unit of a
    :class:`~repro.deflate.stream.CompressStream`; the output is
    delivered at ``flush``, like zlib's default mode, which closes the
    stream and appends the container trailer.
    """

    def __init__(self, level: int = 6, wbits: int = -15,
                 zdict: bytes = b"") -> None:
        def unit(chunk: bytes, history: bytes, final: bool) -> bytes:
            return deflate(chunk, level=level, history=history,
                           final=final).data

        self._stream = CompressStream(unit, _container(wbits), zdict)
        self._parts: list[bytes] = []

    def compress(self, chunk: bytes) -> bytes:
        self._parts.append(self._stream.write(chunk))
        return b""

    def flush(self) -> bytes:
        self._parts.append(self._stream.finish())
        return b"".join(self._parts)


def compressobj(level: int = 6, wbits: int = -15,
                zdict: bytes = b"") -> CompressObj:
    """zlib-style constructor."""
    return CompressObj(level=level, wbits=wbits, zdict=zdict)


__all__ = ["compress", "decompress", "compressobj", "CompressObj",
           "inflate"]
