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

The container walker in :mod:`.parallel_inflate` records the points as
a side effect of any full decode (``build_index=True``; ``workers=1``
builds one serially).
"""

from __future__ import annotations

import os
import struct
import tempfile
from bisect import bisect_right
from dataclasses import dataclass, field

from ..errors import DeflateError, SeekIndexError
from .checksums import crc32

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
    from .compress import deflate
    packed = deflate(window, level=1).data
    if len(packed) < len(window):
        return 1, packed
    return 0, window


def _unpack_window(stored: bytes, wkind: int, wlen: int) -> bytes:
    if wkind == 0:
        window = stored
    elif wkind == 1:
        from .inflate import inflate
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
