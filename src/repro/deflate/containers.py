"""zlib (RFC 1950) and gzip (RFC 1952) container formats.

The NX accelerator supports all three wire formats (raw DEFLATE, zlib,
gzip) selected by the CRB function code; these helpers implement the
container framing and checksum verification for both the software baseline
and the accelerator model.
"""

from __future__ import annotations

import struct

from ..errors import ChecksumError, DeflateError
from .checksums import adler32, crc32
from .compress import CompressResult, deflate
from .inflate import InflateStats, inflate_with_stats

ZLIB_CM_DEFLATE = 8
ZLIB_WINDOW_32K = 7
GZIP_MAGIC = b"\x1f\x8b"
GZIP_METHOD_DEFLATE = 8
GZIP_OS_UNKNOWN = 255
#: RFC 1951's ceiling: a 258-byte match from 2 bits of a long zero run.
DEFLATE_MAX_EXPANSION = 1032

_LEVEL_TO_FLEVEL = {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 3}


def zlib_compress(data: bytes, level: int = 6,
                  zdict: bytes = b"") -> bytes:
    """Compress into an RFC 1950 (zlib) stream.

    ``zdict`` is a preset dictionary; the header then carries FDICT and
    the dictionary's Adler-32 (DICTID), matching zlib's ``compressobj``.
    """
    result = deflate(data, level=level, history=zdict)
    cmf = (ZLIB_WINDOW_32K << 4) | ZLIB_CM_DEFLATE
    flevel = _LEVEL_TO_FLEVEL.get(level, 2)
    flg = (flevel << 6) | (0x20 if zdict else 0)
    header = (cmf << 8) | flg
    header += 31 - header % 31  # FCHECK makes the 16-bit header % 31 == 0
    out = struct.pack(">H", header)
    if zdict:
        out += struct.pack(">I", adler32(zdict))
    return out + result.data + struct.pack(">I", adler32(data))


def zlib_decompress_with_stats(
        data: bytes, zdict: bytes = b"", max_output: int = 1 << 31,
) -> tuple[bytes, InflateStats, int]:
    """Decode one RFC 1950 stream in a single inflate pass.

    Returns ``(output, stats, end)`` with ``end`` the offset just past
    the Adler-32; ``max_output`` aborts the decode with
    :class:`OutputOverflow` at the cap, before any checksum work.
    """
    if len(data) < 6:
        raise DeflateError("zlib stream too short")
    cmf, flg = data[0], data[1]
    if (cmf & 0x0F) != ZLIB_CM_DEFLATE:
        raise DeflateError(f"unsupported zlib method {cmf & 0x0F}")
    if ((cmf << 8) | flg) % 31 != 0:
        raise DeflateError("zlib header check failed")
    start = 2
    if flg & 0x20:
        if not zdict:
            raise DeflateError("stream needs a preset dictionary")
        dictid = struct.unpack(">I", data[2:6])[0]
        if dictid != adler32(zdict):
            raise ChecksumError("DICTID does not match the dictionary")
        start = 6
    out, stats, bits = inflate_with_stats(data, start=start,
                                          max_output=max_output,
                                          history=zdict if flg & 0x20
                                          else b"")
    tail = (bits + 7) // 8  # bits_consumed is absolute in the buffer
    if tail + 4 > len(data):
        raise DeflateError("zlib stream truncated before Adler-32")
    expected = struct.unpack(">I", data[tail:tail + 4])[0]
    if adler32(out) != expected:
        raise ChecksumError("Adler-32 mismatch")
    return out, stats, tail + 4


def zlib_decompress(data: bytes, zdict: bytes = b"") -> bytes:
    """Decompress an RFC 1950 (zlib) stream, verifying Adler-32."""
    return zlib_decompress_with_stats(data, zdict=zdict)[0]


def gzip_compress(data: bytes, level: int = 6,
                  mtime: int = 0) -> bytes:
    """Compress into an RFC 1952 (gzip) member."""
    result = deflate(data, level=level)
    xfl = 2 if level >= 8 else (4 if level <= 2 else 0)
    header = GZIP_MAGIC + bytes([GZIP_METHOD_DEFLATE, 0]) + struct.pack(
        "<I", mtime) + bytes([xfl, GZIP_OS_UNKNOWN])
    trailer = struct.pack("<II", crc32(data), len(data) & 0xFFFFFFFF)
    return header + result.data + trailer


def gzip_header_end(data: bytes, start: int = 0) -> int | None:
    """Offset just past the RFC 1952 member header at ``start``.

    The one walk over FEXTRA/FNAME/FCOMMENT/FHCRC, every field
    bounds-checked.  ``None`` means the buffer ends inside the header
    (a streaming reader waits for more; a one-shot decoder reports
    truncation); a wrong magic or method is a :class:`DeflateError`.
    """
    if len(data) - start < 10:
        return None
    if data[start:start + 2] != GZIP_MAGIC:
        raise DeflateError("bad gzip magic")
    if data[start + 2] != GZIP_METHOD_DEFLATE:
        raise DeflateError(f"unsupported gzip method {data[start + 2]}")
    flg = data[start + 3]
    pos = start + 10
    if flg & 0x04:  # FEXTRA
        if pos + 2 > len(data):
            return None
        pos += 2 + struct.unpack_from("<H", data, pos)[0]
    for bit in (0x08, 0x10):  # FNAME, FCOMMENT
        if flg & bit:
            # An FEXTRA that ran past the buffer ends here too: find()
            # from beyond the end is -1.
            end = data.find(b"\x00", pos)
            if end < 0:
                return None
            pos = end + 1
    if flg & 0x02:  # FHCRC
        pos += 2
    return pos if pos <= len(data) else None


def gzip_header_length(data: bytes, start: int = 0) -> int:
    """Length in bytes of the complete member header at ``start``."""
    end = gzip_header_end(data, start)
    if end is None:
        raise DeflateError("gzip header truncated")
    return end - start


def gzip_decompress_with_stats(
        data: bytes, start: int = 0, max_output: int = 1 << 31,
) -> tuple[bytes, InflateStats, int]:
    """Decode the gzip member at ``start`` in a single inflate pass.

    One header parse, one inflate, one CRC-32.  Returns ``(output,
    stats, end)`` with ``end`` the offset just past the member's ISIZE;
    ``max_output`` aborts the decode with :class:`OutputOverflow` at the
    cap, before any checksum work.
    """
    body = start + gzip_header_length(data, start)
    out, stats, bits = inflate_with_stats(data, start=body,
                                          max_output=max_output)
    tail = (bits + 7) // 8
    if tail + 8 > len(data):
        raise DeflateError("gzip stream truncated before trailer")
    expected_crc, isize = struct.unpack_from("<II", data, tail)
    if crc32(out) != expected_crc:
        raise ChecksumError("gzip CRC-32 mismatch")
    if (len(out) & 0xFFFFFFFF) != isize:
        raise ChecksumError("gzip ISIZE mismatch")
    return out, stats, tail + 8


def gzip_decompress(data: bytes) -> bytes:
    """Decompress one RFC 1952 (gzip) member, verifying CRC-32 and ISIZE."""
    return gzip_decompress_with_stats(data)[0]


def deflate_result(data: bytes, level: int = 6) -> CompressResult:
    """Raw-DEFLATE compression returning full statistics."""
    return deflate(data, level=level)


def gzip_member_length(data: bytes, start: int = 0) -> int:
    """Length in bytes of the gzip member starting at ``start``."""
    body = start + gzip_header_length(data, start)
    _out, _stats, bits = inflate_with_stats(data, start=body)
    return (bits + 7) // 8 + 8 - start


def gzip_decompress_members(data: bytes) -> bytes:
    """Decompress a concatenation of gzip members (RFC 1952 section 2.2).

    ``tar``-less archives and per-request accelerator outputs are often
    shipped this way; stdlib ``gzip.decompress`` accepts the same input.
    """
    out = bytearray()
    pos = 0
    while pos < len(data):
        member, _stats, pos = gzip_decompress_with_stats(data, start=pos)
        out += member
    return bytes(out)


def decompress_target_len(payload: bytes, fmt: str) -> int:
    """First-attempt output buffer size for decompressing ``payload``.

    A gzip member states its size in the ISIZE trailer, so the target is
    sized from it; the value is untrusted (forged, mod 2**32, or another
    member's when members are concatenated) and is therefore clamped to
    what DEFLATE can expand ``payload`` to.  zlib and raw streams state
    nothing: the 4x guess stands.  Callers keep their grow-and-resubmit
    loop, so a hint that lies low costs a resubmission, never bytes.
    """
    guess = 4 * len(payload) + 1024
    if fmt == "gzip" and len(payload) >= 18:
        isize = int.from_bytes(payload[-4:], "little")
        guess = min(isize, DEFLATE_MAX_EXPANSION * len(payload) + 1024)
    return max(4096, guess)


def wrap_zlib(deflate_body: bytes, original: bytes) -> bytes:
    """Frame an existing raw-DEFLATE body as an RFC 1950 stream."""
    cmf = (ZLIB_WINDOW_32K << 4) | ZLIB_CM_DEFLATE
    header = (cmf << 8) | (2 << 6)
    header += 31 - header % 31
    return struct.pack(">H", header) + deflate_body + struct.pack(
        ">I", adler32(original))


def frame_gzip(deflate_body: bytes, crc: int, size: int,
               mtime: int = 0) -> bytes:
    """Frame a raw-DEFLATE body as an RFC 1952 member, given the CRC-32
    and length of the plaintext (an engine or a stream accumulates both
    while it compresses)."""
    header = GZIP_MAGIC + bytes([GZIP_METHOD_DEFLATE, 0]) + struct.pack(
        "<I", mtime) + bytes([0, GZIP_OS_UNKNOWN])
    return header + deflate_body + struct.pack("<II", crc,
                                               size & 0xFFFFFFFF)


def wrap_gzip(deflate_body: bytes, original: bytes, mtime: int = 0) -> bytes:
    """Frame an existing raw-DEFLATE body as an RFC 1952 member."""
    return frame_gzip(deflate_body, crc32(original), len(original), mtime)
