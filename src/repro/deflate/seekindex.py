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
        check             u32  running check of the member so far
                               (CRC-32 gzip, Adler-32 zlib, 0 raw)
        wkind             u8   0 = raw window bytes, 1 = deflated
        wlen              u16  uncompressed window length (<= 32768)
        stored            u32  stored window byte count
        window            `stored` bytes
    crc32   u32  CRC-32 of everything above

Unknown versions, truncation, and checksum mismatches all raise the
typed :class:`~repro.errors.SeekIndexError`: an unreadable index must
never steer a decode toward wrong bytes — callers fall back to a full
serial decode instead.

The points are :class:`~repro.deflate.containers.SeekPoint`, the state
the container walker every decoder runs
(:class:`~repro.deflate.containers.Resolver`) resumes from: it records
them as a side effect of a full serial decode (:func:`decode_indexed`,
``repro cat``) and goes on from one (:func:`read_range`, ``repro cat
--range``) as an engine goes on from a full target.
"""

from __future__ import annotations

import os
import struct
import tempfile
from bisect import bisect_right
from dataclasses import dataclass, field

from ..errors import NO_BOUND, DeflateError, SeekIndexError
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from .checksums import crc32
from .compress import deflate
from .containers import FORMATS, Resolver, SeekPoint
from .inflate import inflate

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
                               point.check, wkind, len(point.window),
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
            bit_offset, out_offset, member, member_out, check, wkind, \
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
                                    member_out_offset=member_out,
                                    check=check, window=window))
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


# -- decoding through the index ----------------------------------------------

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


def decode_indexed(payload: bytes, fmt: str, *,
                   index_spacing: int = DEFAULT_SPACING,
                   max_output: int = NO_BOUND) -> IndexedDecode:
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
    with _TRACE.span("inflate.indexed", nbytes=len(payload),
                     fmt=fmt) as span:
        resolver = Resolver(payload, fmt, spacing=index_spacing)
        resolver.run(max_output)
        data = resolver.output()
        span.set(out_bytes=len(data), members=resolver.members)
    index = SeekIndex(fmt=fmt, compressed_size=len(payload),
                      output_size=len(data), members=resolver.members,
                      points=resolver.points)
    return IndexedDecode(data=data, index=index)


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
    with _TRACE.span("inflate.range", offset=offset, length=length,
                     resume_bit=point.bit_offset):
        resolver = Resolver(payload, "gzip" if fmt == "gzip" else "raw",
                            point.window, point)
        resolver.run(want=offset + length - point.out_offset)
        out = resolver.output()
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
