"""zlib (RFC 1950) and gzip (RFC 1952) container formats.

The NX accelerator supports all three wire formats (raw DEFLATE, zlib,
gzip) selected by the CRB function code; these helpers implement the
container framing and checksum verification for both the software baseline
and the accelerator model.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import NO_BOUND, ChecksumError, ConfigError, DeflateError
from ..obs.trace import TRACE as _TRACE
from .bitio import reader_at
from .checksums import adler32, crc32
from .compress import deflate
from .constants import WINDOW_SIZE
from .inflate import InflateStats, inflate_blocks

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


@dataclass(frozen=True)
class SeekPoint:
    """A block boundary a decode can go on from: its whole state.

    A seek index records these; an engine whose target filled hands one
    back, and the next request continues there with ``window`` as its
    history.
    """

    bit_offset: int          # absolute bit offset into the payload
    out_offset: int          # output bytes before it
    member: int              # gzip member index (0 for raw/zlib)
    member_out_offset: int   # output bytes of that member before it
    check: int               # the member's running check (see checksum)
    window: bytes = b""      # the 32 KB before it (b"" at a member start)


class Resolver:
    """The container walker every decoder runs: a payload's members in
    order from a known state, each trailer verified where it is crossed.

    ``history`` is a raw unit's carried window or a zlib preset
    dictionary; with ``point``, the window the decode resumes with.
    ``spacing`` (when not None) records a :class:`SeekPoint` every that
    many output bytes and at every member body start.  ``pos_bit`` is a
    block boundary while a member is open (``buf``: its window, then
    its output), otherwise the bit of the next gzip member header or
    the end of the payload.
    """

    def __init__(self, payload: bytes, fmt: str, history: bytes = b"",
                 point: SeekPoint | None = None,
                 spacing: int | None = None) -> None:
        self.payload, self.fmt, self.spacing = payload, fmt, spacing
        self.stats = InflateStats()
        self.points: list[SeekPoint] = []
        self.parts: list[bytes] = []   # output of the closed members
        self.produced = 0              # ... and its length
        self.end = 0                   # offset just past the last trailer
        self.buf: bytearray | None = None
        if point is None:
            self.offset = self.members = 0
            self._open(0, history)
        else:
            self.offset, self.members = point.out_offset, point.member
            self._start(point.bit_offset, history, point.member_out_offset,
                        point.check)

    def _open(self, header_byte: int, zdict: bytes = b"") -> None:
        body, window = body_start(self.fmt, self.payload, header_byte, zdict)
        # The check of no bytes: gzip's is the 0 given, with no pass.
        self._start(body * 8, window, 0, checksum(self.fmt, b"", crc=0))

    def _start(self, bit: int, window: bytes, member_out: int,
               check: int) -> None:
        self.pos_bit, self.member_before, self.check = bit, member_out, check
        self.buf = bytearray(window[-WINDOW_SIZE:])
        # The member's output starts at ``base``; ``check`` covers it up
        # to ``checked``.
        self.base = self.checked = len(self.buf)

    def _open_bytes(self) -> int:
        return len(self.buf) - self.base if self.buf is not None else 0

    def run(self, cap: int = NO_BOUND, want: int | None = None,
            resumable: bool = False) -> SeekPoint | None:
        """Decode until the payload ends or ``want`` output bytes exist.

        Output past ``cap`` is an :class:`OutputOverflow` — or, with
        ``resumable``, the block that would pass it is undone and the
        state at its first bit returned (None otherwise).
        """
        while want is None or self.produced + self._open_bytes() < want:
            if self.buf is None:
                if self.pos_bit >= 8 * len(self.payload):
                    break
                self._open(self.pos_bit // 8)
            self._record_point()
            final = self._segment(cap, want, resumable)
            if final is None:
                return self._point()
            if final:
                self._close()
        return None

    def output(self) -> bytes:
        """Everything decoded, the open member's bytes included (once:
        the decode is over)."""
        if self._open_bytes():
            self._take()
        # One member: join hands back the member's own bytes, no copy.
        return b"".join(self.parts)

    def _segment(self, cap: int, want: int | None,
                 resumable: bool) -> bool | None:
        """Decode blocks of the open member; True after its final one."""
        done = self.produced + self._open_bytes()
        if want is not None:
            want -= done
        elif self.spacing is not None:
            # Stop where the next seek point is due.
            want = self.spacing - (self.offset + done
                                   - self.points[-1].out_offset)
        reader = reader_at(self.payload, self.pos_bit)
        with _TRACE.span("inflate.kernel", nbytes=len(self.payload)) as span:
            size = len(self.buf)
            final = inflate_blocks(reader, self.buf, cap - done, self.stats,
                                   want_bytes=want, resumable=resumable)
            span.set(out_bytes=len(self.buf) - size)
        self.pos_bit = reader.bits_consumed
        return final

    def _fold_check(self) -> None:
        if len(self.buf) > self.checked:
            self.check = checksum(
                self.fmt, memoryview(self.buf)[self.checked:], self.check)
            self.checked = len(self.buf)

    def _take(self) -> bytes:
        buf, base = self.buf, self.base
        piece = bytes(buf) if not base else bytes(memoryview(buf)[base:])
        self.parts.append(piece)
        self.produced += len(piece)
        return piece

    def _close(self) -> None:
        """Verify the trailer behind a final block and step past it."""
        checked = self.checked - self.base
        piece = self._take()
        self.buf = None  # the check pass runs with the output held once
        self.check = checksum(self.fmt, memoryview(piece)[checked:]
                              if checked else piece, self.check)
        self.end = verify_trailer(
            self.fmt, self.payload, (self.pos_bit + 7) // 8, self.check,
            self.member_before + len(piece))
        self.members += 1
        follows = member_follows(self.fmt, self.payload, self.end)
        self.pos_bit = 8 * (self.end if follows else len(self.payload))

    def _point(self) -> SeekPoint:
        self._fold_check()
        return SeekPoint(
            bit_offset=self.pos_bit,
            out_offset=self.offset + self.produced + self._open_bytes(),
            member=self.members,
            member_out_offset=self.member_before + self._open_bytes(),
            check=self.check, window=bytes(self.buf[-WINDOW_SIZE:]))

    def _record_point(self) -> None:
        if self.spacing is None:
            return
        if self.points:
            gap = (self.offset + self.produced + self._open_bytes()
                   - self.points[-1].out_offset)
            # Member body starts are always worth a point (the window
            # is empty there); otherwise honour the spacing.
            at_member_start = self.member_before + self._open_bytes() == 0
            if gap == 0 or (gap < self.spacing and not at_member_start):
                return
        self.points.append(self._point())


def decode_with_stats(
        data: bytes, fmt: str, history: bytes = b"",
        resume: SeekPoint | None = None, max_output: int = NO_BOUND,
) -> tuple[bytes, InflateStats, int]:
    """Decode a payload: its one stream, or every member of a gzip
    archive (RFC 1952 section 2.2).

    One header parse, one inflate, one checksum per member.  Returns
    ``(output, stats, end)`` with ``end`` the offset just past the last
    trailer; bytes after a gzip member that are not another member are
    a :class:`DeflateError`.  ``history`` is a raw unit's carried window
    or a zlib preset dictionary; with ``resume`` the decode goes on from
    that state, ``history`` its window; up to ``max_output`` bytes.
    """
    resolver = Resolver(data, fmt, history, resume)
    resolver.run(max_output)
    return resolver.output(), resolver.stats, resolver.end


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
    nothing: the 4x guess stands.  It is the first hint only: a decode
    that fills its target goes on into the next
    (:func:`next_target_len`), so a hint that lies low costs a
    continuation, never bytes.
    """
    guess = 4 * len(payload) + 1024
    if fmt == "gzip" and len(payload) >= 18:
        isize = int.from_bytes(payload[-4:], "little")
        guess = min(isize, DEFLATE_MAX_EXPANSION * len(payload) + 1024)
    return max(4096, guess)


def next_target_len(target_len: int, point: SeekPoint | None,
                    overrun: tuple[int, int] | None, payload_len: int,
                    left: int = NO_BOUND) -> int:
    """The fresh target a request goes on into once ``target_len``
    filled, stopped at ``point`` with the block it rolled back having
    made ``overrun = (bits, bytes)`` (``InflateStats.overrun``).

    Twice the last, so continuations stay logarithmic in the output;
    also room for the rest of the payload at the rate that block
    decoded, so a block of any size takes one more target, not one a
    doubling.  Never more than ``left``, what the decode's bound has
    left.
    """
    grown = 2 * target_len
    if point is not None and overrun and overrun[0]:
        rest = (8 * payload_len - point.bit_offset) * overrun[1] // overrun[0]
        grown = max(grown, rest + rest // 8)
    return min(grown, left)


def wrap_zlib(deflate_body: bytes, original: bytes) -> bytes:
    """Frame an existing raw-DEFLATE body as an RFC 1950 stream."""
    return frame("zlib", deflate_body, adler32(original), len(original))


def wrap_gzip(deflate_body: bytes, original: bytes, mtime: int = 0) -> bytes:
    """Frame an existing raw-DEFLATE body as an RFC 1952 member."""
    return frame("gzip", deflate_body, crc32(original), len(original),
                 mtime=mtime)
