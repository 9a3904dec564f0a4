"""Versioned seek index for DEFLATE/gzip streams (random reads).

DEFLATE's back-reference window makes a compressed stream a chain: byte
N can only be decoded after the 32 KiB before it.  A seek index breaks
the chain the way *rapidgzip* and BGZF-style tools do — it records, at
selected block boundaries, everything a decoder needs to resume there
cold: the boundary's absolute **bit** offset, the 32 KiB window at that
point, and the running CRC-32 of the current gzip member so trailer
verification still works for reads that cross a member end.

Format v1 (all integers little-endian)::

    magic   4s   b"RSIX"
    version u16  format version (this module writes 1)
    fmt     u8   0=raw 1=gzip 2=zlib
    flags   u8   reserved, 0
    npoints u32
    csize   u64  compressed payload size the index was built for
    osize   u64  total uncompressed size
    members u32  gzip member count (1 for raw/zlib)
    npoints x point:
        bit_offset        u64  absolute bit offset of a block boundary
        out_offset        u64  global uncompressed offset there
        member            u32  gzip member index (0-based)
        member_out_offset u64  uncompressed offset within that member
        crc               u32  running CRC-32 of the member so far
        wkind             u8   0 = raw window bytes, 1 = deflated
        wlen              u16  uncompressed window length (<= 32768)
        stored            u32  stored window byte count
        window            `stored` bytes
    crc32   u32  CRC-32 of everything above

Unknown versions, truncation, and checksum mismatches all raise the
typed :class:`~repro.errors.SeekIndexError`: an unreadable index must
never steer a decode toward wrong bytes — callers fall back to a full
serial decode instead.

One container walker, :class:`_Resolver`, records the points as a side
effect of a full serial decode (:func:`decode_indexed`, ``repro cat``)
and resumes at one (:func:`read_range`, ``repro cat --range``).
"""

from __future__ import annotations

import os
import struct
import tempfile
from bisect import bisect_right
from dataclasses import dataclass, field

from ..errors import DeflateError, SeekIndexError
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from .bitio import reader_at
from .checksums import crc32
from .compress import deflate
from .containers import (FORMATS, body_start, checksum, member_follows,
                         verify_trailer)
from .inflate import InflateStats, inflate, inflate_blocks

MAGIC = b"RSIX"
VERSION = 1

#: Default gap between recorded points (uncompressed bytes): one point
#: per MiB keeps the index ~3 % of output size with raw windows, far
#: less once the windows are deflated.
DEFAULT_SPACING = 1 << 20

_WINDOW = 32768
_FMT_CODES = {"raw": 0, "gzip": 1, "zlib": 2}
_FMT_NAMES = {code: name for name, code in _FMT_CODES.items()}

_HEADER = struct.Struct("<4sHBBIQQI")
_POINT = struct.Struct("<QQIQIBHI")


@dataclass(frozen=True)
class SeekPoint:
    """One resumable block boundary."""

    bit_offset: int          # absolute bit offset into the payload
    out_offset: int          # global uncompressed offset at the boundary
    member: int              # gzip member index (0 for raw/zlib)
    member_out_offset: int   # uncompressed offset within that member
    crc: int                 # running CRC-32 of the member's output so far
    window: bytes            # back-reference window (b"" at member start)


@dataclass
class SeekIndex:
    """Seek points for one compressed payload, serialisable to v1."""

    fmt: str
    compressed_size: int
    output_size: int
    members: int
    points: list[SeekPoint] = field(default_factory=list)
    version: int = VERSION

    def locate(self, offset: int) -> SeekPoint:
        """The latest point at or before uncompressed ``offset``."""
        if not self.points:
            raise SeekIndexError("seek index has no points")
        offsets = [p.out_offset for p in self.points]
        idx = bisect_right(offsets, offset) - 1
        return self.points[max(idx, 0)]

    # -- serialisation ----------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray(_HEADER.pack(
            MAGIC, self.version, _FMT_CODES[self.fmt], 0,
            len(self.points), self.compressed_size, self.output_size,
            self.members))
        for point in self.points:
            wkind, stored = _pack_window(point.window)
            out += _POINT.pack(point.bit_offset, point.out_offset,
                               point.member, point.member_out_offset,
                               point.crc, wkind, len(point.window),
                               len(stored))
            out += stored
        out += struct.pack("<I", crc32(bytes(out)))
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SeekIndex":
        if len(blob) < _HEADER.size + 4:
            raise SeekIndexError(
                f"seek index truncated: {len(blob)} bytes")
        magic, version, fmt_code, _flags, npoints, csize, osize, \
            members = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise SeekIndexError(f"bad seek-index magic {magic!r}")
        if version != VERSION:
            raise SeekIndexError(
                f"unsupported seek-index version {version} "
                f"(this build reads {VERSION})")
        if fmt_code not in _FMT_NAMES:
            raise SeekIndexError(f"unknown seek-index fmt code {fmt_code}")
        (expected,) = struct.unpack_from("<I", blob, len(blob) - 4)
        if crc32(blob[:-4]) != expected:
            raise SeekIndexError("seek index CRC-32 mismatch")
        pos = _HEADER.size
        points: list[SeekPoint] = []
        for _ in range(npoints):
            if pos + _POINT.size > len(blob) - 4:
                raise SeekIndexError("seek index truncated inside a point")
            bit_offset, out_offset, member, member_out, crc, wkind, \
                wlen, stored = _POINT.unpack_from(blob, pos)
            pos += _POINT.size
            if wlen > _WINDOW:
                raise SeekIndexError(
                    f"seek-index window {wlen} exceeds 32 KiB")
            if pos + stored > len(blob) - 4:
                raise SeekIndexError("seek index truncated inside a window")
            window = _unpack_window(blob[pos:pos + stored], wkind, wlen)
            pos += stored
            points.append(SeekPoint(bit_offset=bit_offset,
                                    out_offset=out_offset, member=member,
                                    member_out_offset=member_out, crc=crc,
                                    window=window))
        if pos != len(blob) - 4:
            raise SeekIndexError(
                f"seek index has {len(blob) - 4 - pos} stray bytes")
        return cls(fmt=_FMT_NAMES[fmt_code], compressed_size=csize,
                   output_size=osize, members=members, points=points,
                   version=version)

    def save(self, path: os.PathLike | str) -> None:
        """Write the sidecar atomically: full index or no index.

        The blob lands in a temp file in the *same directory* (same
        filesystem, so the final ``os.replace`` is an atomic rename) and
        only replaces ``path`` once fully flushed.  A reader — or a
        crash — can therefore never observe a half-written ``.rsix``;
        they see the old index or the new one, and the loader's CRC
        check stays a guard against corruption, not against us.
        """
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".",
            suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(self.to_bytes())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: os.PathLike | str) -> "SeekIndex":
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise SeekIndexError(f"cannot read seek index: {exc}") from exc
        return cls.from_bytes(blob)


def _pack_window(window: bytes) -> tuple[int, bytes]:
    """Deflate a window snapshot when that actually shrinks it."""
    if not window:
        return 0, b""
    packed = deflate(window, level=1).data
    if len(packed) < len(window):
        return 1, packed
    return 0, window


def _unpack_window(stored: bytes, wkind: int, wlen: int) -> bytes:
    if wkind == 0:
        window = stored
    elif wkind == 1:
        try:
            window = inflate(stored)
        except DeflateError as exc:
            raise SeekIndexError(
                f"seek-index window does not inflate: {exc}") from exc
    else:
        raise SeekIndexError(f"unknown seek-index window kind {wkind}")
    if len(window) != wlen:
        raise SeekIndexError(
            f"seek-index window length {len(window)} != recorded {wlen}")
    return window


# -- the container walker -----------------------------------------------------

@dataclass(frozen=True)
class IndexedDecode:
    """A full decode and the seek index recorded along the way."""

    data: bytes
    index: SeekIndex


@dataclass(frozen=True)
class RangeReadResult:
    """One random read served through a seek index."""

    data: bytes
    offset: int
    length: int
    decoded_bytes: int       # uncompressed bytes actually decoded
    skipped_bytes: int       # prefix bytes the index let us skip
    point_bit_offset: int    # where in the payload the decode resumed


class _Resolver:
    """Walks a payload's members in order from a position whose window
    is known, verifying each container trailer it crosses.

    ``pos_bit`` is a block boundary while ``in_member``, otherwise the
    bit of the next gzip member header (or the end of the payload).
    ``spacing`` (when not None) records a seek point every that many
    output bytes and at every member body start.
    """

    def __init__(self, payload: bytes, fmt: str, spacing: int | None,
                 max_output: int) -> None:
        self.payload = payload
        self.fmt = fmt
        self.spacing = spacing
        self.max_output = max_output
        self.out = bytearray()
        self.points: list[SeekPoint] = []
        self.members = 0          # members completed (trailer verified)
        self.member_start = 0     # offset in ``out`` of the open member
        self.member_crc = 0
        self.window = b""
        self.pos_bit = 0
        self.in_member = False

    def open(self, header_byte: int = 0) -> None:
        """Start at the container header at ``header_byte`` — the top of
        the stream, or a later gzip member — checking it."""
        body, self.window = body_start(self.fmt, self.payload, header_byte)
        self.pos_bit = body * 8
        self.member_crc = 0
        self.member_start = len(self.out)
        self.in_member = True

    def resume(self, point: SeekPoint) -> None:
        """Start at an indexed block boundary instead."""
        self.pos_bit = point.bit_offset
        self.window = point.window
        self.member_crc = point.crc
        self.member_start = -point.member_out_offset
        self.members = point.member
        self.in_member = True

    def run(self, want: int | None = None) -> None:
        """Decode until the payload ends or ``want`` output bytes exist."""
        end_bit = len(self.payload) * 8
        while want is None or len(self.out) < want:
            if self.in_member:
                self._record_point()
                if self._segment(want):
                    self._finish_member()
            elif self.pos_bit >= end_bit:
                return
            else:
                self.open(self.pos_bit // 8)

    def _segment(self, want: int | None) -> bool:
        """Decode blocks of the open member; True after its final one."""
        if want is not None:
            want -= len(self.out)
        elif self.spacing is not None:
            # Stop where the next seek point is due.
            want = self.spacing - (len(self.out)
                                   - self.points[-1].out_offset)
        reader = reader_at(self.payload, self.pos_bit)
        buf = bytearray(self.window)
        final = inflate_blocks(reader, buf,
                               self.max_output - len(self.out),
                               InflateStats(), want_bytes=want)
        nwindow = len(self.window)
        self.window = bytes(buf[-_WINDOW:])
        del buf[:nwindow]
        self.out += buf
        self.member_crc = crc32(buf, self.member_crc)
        self.pos_bit = reader.bits_consumed
        return final

    def _finish_member(self) -> None:
        """Verify the trailer behind a final block and step past it."""
        # gzip's CRC-32 was kept running for the seek points; zlib's
        # Adler-32 covers the whole output (its one member).
        end = verify_trailer(
            self.fmt, self.payload, (self.pos_bit + 7) // 8,
            checksum(self.fmt, self.out, crc=self.member_crc),
            len(self.out) - self.member_start)
        if not member_follows(self.fmt, self.payload, end):
            end = len(self.payload)
        self.members += 1
        self.pos_bit = end * 8
        self.in_member = False

    def _record_point(self) -> None:
        if self.spacing is None:
            return
        if self.points:
            gap = len(self.out) - self.points[-1].out_offset
            # Member body starts are always worth a point (the window
            # is empty there); otherwise honour the spacing.
            at_member_start = len(self.out) == self.member_start
            if gap == 0 or (gap < self.spacing and not at_member_start):
                return
        self.points.append(SeekPoint(
            bit_offset=self.pos_bit, out_offset=len(self.out),
            member=self.members,
            member_out_offset=len(self.out) - self.member_start,
            crc=self.member_crc, window=self.window))


def decode_indexed(payload: bytes, fmt: str, *,
                   index_spacing: int = DEFAULT_SPACING,
                   max_output: int = 1 << 62) -> IndexedDecode:
    """Decompress ``payload`` serially, recording a :class:`SeekIndex`
    (one point per ``index_spacing`` output bytes, and one at every gzip
    member body start) for later :func:`read_range` calls.

    Output and container checks are those of
    :func:`~repro.deflate.containers.decode_with_stats`, every member of
    a gzip archive included; decoding stops with :class:`OutputOverflow`
    at ``max_output``.
    """
    if fmt not in FORMATS:
        raise DeflateError(f"cannot index a {fmt!r} stream")
    resolver = _Resolver(payload, fmt, index_spacing, max_output)
    with _TRACE.span("inflate.indexed", nbytes=len(payload),
                     fmt=fmt) as span:
        resolver.open()
        resolver.run()
        span.set(out_bytes=len(resolver.out), members=resolver.members)
    index = SeekIndex(fmt=fmt, compressed_size=len(payload),
                      output_size=len(resolver.out),
                      members=resolver.members, points=resolver.points)
    return IndexedDecode(data=bytes(resolver.out), index=index)


def read_range(payload: bytes, offset: int, length: int, *,
               index: SeekIndex) -> RangeReadResult:
    """Serve ``payload[uncompressed offset:offset+length]`` via ``index``.

    Decoding resumes at the latest indexed block boundary at/before
    ``offset`` — the prefix is *never* decompressed.  Clipping follows
    Python slice semantics (reads past the end return what exists).
    gzip member trailers crossed by the read are still verified using
    the index's running CRC state; the zlib Adler-32 spans the whole
    stream and therefore cannot be checked from a midpoint.
    """
    if offset < 0 or length < 0:
        raise DeflateError("offset and length must be non-negative")
    fmt = index.fmt
    if index.compressed_size != len(payload):
        raise SeekIndexError(
            f"index was built for a {index.compressed_size}-byte "
            f"payload, got {len(payload)} bytes")
    point = index.locate(offset)
    # A zlib body is walked as raw: no Adler-32 check from a midpoint.
    resolver = _Resolver(payload, "gzip" if fmt == "gzip" else "raw",
                         None, 1 << 62)
    resolver.resume(point)
    with _TRACE.span("inflate.range", offset=offset, length=length,
                     resume_bit=point.bit_offset):
        resolver.run(want=offset + length - point.out_offset)
    out = resolver.out
    start = offset - point.out_offset
    data = bytes(out[start:start + length])
    _REGISTRY.counter("repro_inflate_random_reads_total",
                      "range reads served through a seek index").inc()
    _REGISTRY.counter("repro_inflate_range_decoded_bytes_total",
                      "bytes decoded while serving range reads").inc(
                          len(out))
    _REGISTRY.counter("repro_inflate_range_skipped_bytes_total",
                      "prefix bytes skipped thanks to the index").inc(
                          point.out_offset)
    return RangeReadResult(data=data, offset=offset, length=length,
                           decoded_bytes=len(out),
                           skipped_bytes=point.out_offset,
                           point_bit_offset=point.bit_offset)
