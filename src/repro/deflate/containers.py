"""zlib (RFC 1950) and gzip (RFC 1952) container formats.

The NX accelerator supports all three wire formats (raw DEFLATE, zlib,
gzip) selected by the CRB function code; these helpers implement the
container framing and checksum verification for both the software baseline
and the accelerator model.
"""

from __future__ import annotations

import struct

from ..errors import ChecksumError, ConfigError, DeflateError
from .checksums import adler32, crc32
from .compress import deflate
from .inflate import InflateStats, inflate_with_stats

ZLIB_CM_DEFLATE = 8
ZLIB_WINDOW_32K = 7
GZIP_MAGIC = b"\x1f\x8b"
GZIP_METHOD_DEFLATE = 8
GZIP_OS_UNKNOWN = 255
#: RFC 1951's ceiling: a 258-byte match from 2 bits of a long zero run.
DEFLATE_MAX_EXPANSION = 1032

_LEVEL_TO_FLEVEL = {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 3}

#: The wire formats, the order a backend advertises them in.
FORMATS = ("gzip", "zlib", "raw")
#: File suffix per wire format.
SUFFIXES = {"gzip": ".gz", "zlib": ".zz", "raw": ".deflate"}


# -- the per-format table ------------------------------------------------------
#
# Everything that differs between the formats is in the next seven
# functions; every producer and decoder in the package is built on them.

def require_format(fmt: str, history: bytes = b"",
                   final: bool = True) -> None:
    """The precondition every backend shares: a known wire format, and
    a continuation unit (a carried window, or no final block) only as a
    raw stream — a container frames one whole stream."""
    if fmt not in FORMATS:
        raise ConfigError(f"unsupported wire format {fmt!r}")
    if fmt != "raw" and (history or not final):
        raise ConfigError(
            f"{fmt!r} container requires a whole stream; "
            "use fmt='raw' for continuation units")


def header(fmt: str, level: int | None = None, zdict: bytes = b"",
           mtime: int = 0) -> bytes:
    """The bytes in front of the DEFLATE body.

    ``level`` stamps gzip's XFL / zlib's FLEVEL; a producer that has no
    zlib level (an engine, a stream of engine units) passes ``None`` and
    gets XFL 0 / FLEVEL 2.  ``zdict`` is a zlib preset dictionary: the
    header then carries FDICT and the dictionary's Adler-32 (DICTID),
    matching zlib's ``compressobj``.
    """
    if fmt == "gzip":
        if zdict:
            raise DeflateError("gzip container does not carry a DICTID")
        xfl = 0 if level is None else (
            2 if level >= 8 else (4 if level <= 2 else 0))
        return GZIP_MAGIC + bytes([GZIP_METHOD_DEFLATE, 0]) + struct.pack(
            "<I", mtime) + bytes([xfl, GZIP_OS_UNKNOWN])
    if fmt == "zlib":
        flevel = 2 if level is None else _LEVEL_TO_FLEVEL.get(level, 2)
        word = ((ZLIB_WINDOW_32K << 4 | ZLIB_CM_DEFLATE) << 8
                | flevel << 6 | (0x20 if zdict else 0))
        word += 31 - word % 31  # FCHECK makes the 16-bit header % 31 == 0
        return struct.pack(">H", word) + (
            struct.pack(">I", adler32(zdict)) if zdict else b"")
    return b""


def trailer(fmt: str, check: int, size: int) -> bytes:
    """The bytes behind the body, from the plaintext's check and size."""
    if fmt == "gzip":
        return struct.pack("<II", check, size & 0xFFFFFFFF)
    if fmt == "zlib":
        return struct.pack(">I", check)
    return b""


def checksum(fmt: str, data: bytes, running: int | None = None,
             crc: int | None = None) -> int:
    """The format's check value over ``data``: CRC-32 for gzip, Adler-32
    for zlib, nothing (0) for raw.

    ``running`` continues a value this function returned for the bytes
    before ``data``.  ``crc`` is a CRC-32 of the same bytes somebody
    already accumulated (the DFLTCC parameter block, a resolver's
    seek-point state): where that *is* the format's check it is the
    answer, and no second pass is made.
    """
    if fmt == "gzip":
        return crc32(data, running or 0) if crc is None else crc
    if fmt == "zlib":
        return adler32(data, 1 if running is None else running)
    return 0


def header_end(fmt: str, data: bytes, start: int = 0,
               zdict: bytes = b"") -> tuple[int, bytes] | None:
    """Offset of the DEFLATE body of the stream at ``start``, and the
    window that body starts with; ``None`` while the buffer ends inside
    the header (a streaming reader waits for more).

    The header is validated as far as it goes (gzip: magic, method and
    the optional FEXTRA/FNAME/FCOMMENT/FHCRC fields, each bounds-checked;
    zlib: CM, FCHECK and, under FDICT, that ``zdict`` is the dictionary
    DICTID names).  ``zdict`` is a raw unit's carried window or a zlib
    preset dictionary; a stream that does not ask for one starts empty.
    """
    if fmt == "gzip":
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
                # An FEXTRA that ran past the buffer ends here too:
                # find() from beyond the end is -1.
                end = data.find(b"\x00", pos)
                if end < 0:
                    return None
                pos = end + 1
        if flg & 0x02:  # FHCRC
            pos += 2
        return (pos, b"") if pos <= len(data) else None
    if fmt == "zlib":
        if len(data) - start < 2:
            return None
        cmf, flg = data[start], data[start + 1]
        if (cmf & 0x0F) != ZLIB_CM_DEFLATE:
            raise DeflateError(f"unsupported zlib method {cmf & 0x0F}")
        if ((cmf << 8) | flg) % 31 != 0:
            raise DeflateError("zlib header check failed")
        if not flg & 0x20:
            return start + 2, b""
        if not zdict:
            raise DeflateError("stream needs a preset dictionary")
        if len(data) - start < 6:
            return None
        if struct.unpack_from(">I", data, start + 2)[0] != adler32(zdict):
            raise ChecksumError("DICTID does not match the dictionary")
        return start + 6, zdict
    require_format(fmt)
    return start, zdict


def verify_trailer(fmt: str, data: bytes, tail: int, check: int,
                   size: int) -> int:
    """Compare the trailer at ``tail`` (where the body ended) with the
    decoded plaintext's ``check`` and ``size``; returns the offset just
    past it."""
    if fmt == "gzip":
        if tail + 8 > len(data):
            raise DeflateError("gzip stream truncated before trailer")
        expected_crc, isize = struct.unpack_from("<II", data, tail)
        if check != expected_crc:
            raise ChecksumError("gzip CRC-32 mismatch")
        if (size & 0xFFFFFFFF) != isize:
            raise ChecksumError("gzip ISIZE mismatch")
        return tail + 8
    if fmt == "zlib":
        if tail + 4 > len(data):
            raise DeflateError("zlib stream truncated before Adler-32")
        if check != struct.unpack_from(">I", data, tail)[0]:
            raise ChecksumError("Adler-32 mismatch")
        return tail + 4
    return tail


def member_follows(fmt: str, data: bytes, end: int) -> bool:
    """Does another gzip member start at ``end``, where a stream's
    trailer ended?  Only gzip has members (RFC 1952 section 2.2): what
    follows a zlib or raw stream is its caller's business."""
    return fmt == "gzip" and end < len(data)


# -- built on the table --------------------------------------------------------

def body_start(fmt: str, data: bytes, start: int = 0,
               zdict: bytes = b"") -> tuple[int, bytes]:
    """:func:`header_end` for a decoder that holds the whole payload: a
    header the buffer cuts short is a :class:`DeflateError`."""
    found = header_end(fmt, data, start, zdict)
    if found is None:
        raise DeflateError(f"{fmt} header truncated")
    return found


def frame(fmt: str, body: bytes, check: int, size: int,
          level: int | None = None, zdict: bytes = b"",
          mtime: int = 0) -> bytes:
    """Frame a raw-DEFLATE body, given the check value and length of
    the plaintext (an engine or a stream accumulates both while it
    compresses; :func:`checksum` makes the pass otherwise)."""
    return (header(fmt, level, zdict, mtime) + body
            + trailer(fmt, check, size))


def encode(data: bytes, fmt: str, level: int = 6, history: bytes = b"",
           final: bool = True) -> bytes:
    """Compress ``data`` in software and frame it.

    ``history`` primes the match window: the carried window of a raw
    continuation unit (``final=False`` leaves the stream open), or a
    zlib stream's preset dictionary.
    """
    require_format(fmt, final=final)
    body = deflate(data, level=level, history=history, final=final).data
    return frame(fmt, body, checksum(fmt, data), len(data), level,
                 zdict=history)


def decode_with_stats(
        data: bytes, fmt: str, history: bytes = b"",
        max_output: int = 1 << 31,
) -> tuple[bytes, InflateStats, int]:
    """Decode a payload: its one stream, or every member of a gzip
    archive (RFC 1952 section 2.2).

    One header parse, one inflate, one checksum per member.  Returns
    ``(output, stats, end)`` with ``end`` the offset just past the last
    trailer; bytes after a gzip member that are not another member are
    a :class:`DeflateError`.  ``max_output`` caps the whole output: the
    decode stops with :class:`OutputOverflow` there, before any checksum
    work.  ``history`` is a raw unit's carried window or a zlib preset
    dictionary (see :func:`body_start`).
    """
    out, stats, end = _decode_stream(data, fmt, 0, history, max_output)
    parts, produced = [out], len(out)
    while member_follows(fmt, data, end):
        out, more, end = _decode_stream(data, fmt, end, b"",
                                        max_output - produced)
        parts.append(out)
        produced += len(out)
        stats.literals += more.literals
        stats.matches += more.matches
        stats.match_bytes += more.match_bytes
        stats.blocks += more.blocks
    # One member: join hands back the member's own bytes, no copy.
    return b"".join(parts), stats, end


def _decode_stream(data: bytes, fmt: str, start: int, history: bytes,
                   max_output: int) -> tuple[bytes, InflateStats, int]:
    """The stream (or gzip member) at ``start``, in a single inflate
    pass; ``end`` is the offset just past its trailer."""
    body, window = body_start(fmt, data, start, history)
    out, stats, bits = inflate_with_stats(data, start=body,
                                          max_output=max_output,
                                          history=window)
    tail = (bits + 7) // 8  # bits_consumed is absolute in the buffer
    end = verify_trailer(fmt, data, tail, checksum(fmt, out), len(out))
    return out, stats, end


def zlib_compress(data: bytes, level: int = 6,
                  zdict: bytes = b"") -> bytes:
    """Compress into an RFC 1950 (zlib) stream."""
    return encode(data, "zlib", level, history=zdict)


def zlib_decompress(data: bytes, zdict: bytes = b"") -> bytes:
    """Decompress an RFC 1950 (zlib) stream, verifying Adler-32."""
    return decode_with_stats(data, "zlib", history=zdict)[0]


def gzip_compress(data: bytes, level: int = 6,
                  mtime: int = 0) -> bytes:
    """Compress into an RFC 1952 (gzip) member."""
    return frame("gzip", deflate(data, level=level).data, crc32(data),
                 len(data), level, mtime=mtime)


def gzip_decompress(data: bytes) -> bytes:
    """Decompress an RFC 1952 (gzip) archive, every member of it,
    verifying each member's CRC-32 and ISIZE."""
    return decode_with_stats(data, "gzip")[0]


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
    return frame("zlib", deflate_body, adler32(original), len(original))


def wrap_gzip(deflate_body: bytes, original: bytes, mtime: int = 0) -> bytes:
    """Frame an existing raw-DEFLATE body as an RFC 1952 member."""
    return frame("gzip", deflate_body, crc32(original), len(original),
                 mtime=mtime)
