"""Parallel gzip decompression from restart points whose window is known.

Serial inflate is a chain: every block needs the 32 KiB window its
predecessors left behind, which is why :mod:`.parallel` could only
parallelise the *compress* side.  A decoder can still start cold at
the two kinds of position where that window is known without decoding
the prefix — the design of *Massively-Parallel Lossless Data
Decompression*, where the compressor (or an index) supplies the
restart points:

1. **gzip member boundaries.**  A member starts with an empty window
   by definition, so a multi-member archive is split at member magics:
   each pool worker decodes a run of whole members from one magic,
   verifying every CRC/ISIZE trailer itself.  The parent walks the
   stream in order and splices a run only when it arrives at that
   run's header *by way of a verified trailer*; a magic that turns out
   to sit inside compressed data is never reached that way, so a wrong
   guess costs time, never bytes.
2. **Seek points.**  Any full decode can record a
   :class:`~repro.deflate.seekindex.SeekIndex` (block bit-offset →
   window snapshot + running CRC), and :func:`read_range` resumes at a
   point without decompressing the prefix — ``repro cat --range``.

zlib, raw and single-member gzip streams have no such point: they plan
zero jobs and decode inline.  (Decoding ahead with the window unknown —
rapidgzip's marker scheme — was measured here at 2 CPUs and lost to the
inline decoder by 3-12x, so it was cut; DESIGN.md keeps the table.)

One :class:`_Resolver` is the only container walker: the parent's
decode, a worker's member run over its slice of the payload, the index
builder and ``read_range`` are the same loop with different stops.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from ..errors import DeflateError, ExecError, OutputOverflow, \
    SeekIndexError
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from .bitio import reader_at
from .checksums import crc32
from .constants import WINDOW_SIZE
from .containers import FORMATS, body_start, checksum, verify_trailer
from .inflate import InflateStats, inflate_blocks
from .seekindex import DEFAULT_SPACING, SeekIndex, SeekPoint

_W = WINDOW_SIZE  # 32768

#: Compressed bytes per planning chunk: at most one member-run job
#: starts in each.  Matches the deflate side's pigz default, and keeps
#: payloads under 128 KiB off the pool altogether.
DEFAULT_INFLATE_CHUNK_SIZE = 1 << 17

_GZIP_MEMBER_MAGIC = b"\x1f\x8b\x08"


@dataclass(frozen=True)
class ParallelInflateResult:
    """Output plus the engine's accounting for one decode."""

    data: bytes
    fmt: str
    members: int
    workers: int
    chunks_speculated: int   # member-run jobs dispatched to the pool
    chunks_used: int         # runs spliced into the output
    chunks_failed: int       # runs wasted (false magic, decode error)
    serial_segments: int     # segments the resolver decoded inline
    index: SeekIndex | None = None


@dataclass(frozen=True)
class RangeReadResult:
    """One random read served through a seek index."""

    data: bytes
    offset: int
    length: int
    decoded_bytes: int       # uncompressed bytes actually decoded
    skipped_bytes: int       # prefix bytes the index let us skip
    point_bit_offset: int    # where in the payload the decode resumed


# -- the container walker -----------------------------------------------------

class _Resolver:
    """Walks a payload's members in order from a position whose window
    is known, verifying each container trailer it crosses.

    ``pos_bit`` is a block boundary while ``in_member``, otherwise the
    bit of the next gzip member header (or the end of the payload).
    ``specs`` maps a header bit to the record of a worker's member run
    that starts there; ``spacing`` (when not None) records a seek point
    every that many output bytes and at every member body start.
    """

    def __init__(self, payload: bytes, fmt: str, specs: dict[int, dict],
                 spacing: int | None, max_output: int) -> None:
        self.payload = payload
        self.fmt = fmt
        self.specs = specs
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
        self.used = 0             # member runs spliced
        self.serial = 0           # segments decoded here

    def open(self, history: bytes = b"", header_byte: int = 0) -> None:
        """Start at the container header at ``header_byte`` — the top of
        the stream, or a later gzip member — checking it."""
        body, window = body_start(self.fmt, self.payload, header_byte,
                                  history)
        self.pos_bit = body * 8
        self.window = window[-_W:]
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

    def run(self, want: int | None = None,
            stop_bit: int | None = None) -> None:
        """Decode until the payload ends, ``want`` output bytes exist,
        or the walk stands at/after ``stop_bit`` — on a block boundary
        inside a member, or between two members."""
        end_bit = len(self.payload) * 8
        if stop_bit is not None:
            end_bit = min(end_bit, stop_bit)
        while want is None or len(self.out) < want:
            if self.in_member:
                if stop_bit is not None and self.pos_bit >= stop_bit:
                    return
                self._record_point()
                if self._serial_segment(want, stop_bit):
                    self._finish_member()
            elif self.pos_bit >= end_bit:
                return
            else:
                self._enter_member()

    def _serial_segment(self, want: int | None,
                        stop_bit: int | None) -> bool:
        """Decode blocks of the open member; True after its final one."""
        if want is not None:
            want -= len(self.out)
        elif self.spacing is not None:
            # Stop where the next seek point is due, so the points do
            # not depend on where a worker's run handed over.
            want = self.spacing - (len(self.out)
                                   - self.points[-1].out_offset)
        reader = reader_at(self.payload, self.pos_bit)
        buf = bytearray(self.window)
        final = inflate_blocks(reader, buf,
                               self.max_output - len(self.out),
                               InflateStats(), stop_bit, want)
        self.serial += 1
        nwindow = len(self.window)
        self.window = bytes(buf[-_W:])
        del buf[:nwindow]
        self.out += buf
        self.member_crc = crc32(buf, self.member_crc)
        self.pos_bit = reader.bits_consumed
        return final

    # -- member boundaries -------------------------------------------------

    def _finish_member(self) -> None:
        """Verify the trailer behind a final block and step past it."""
        # gzip's CRC-32 was kept running for the seek points; zlib's
        # Adler-32 covers the whole output (its one member).
        end = verify_trailer(
            self.fmt, self.payload, (self.pos_bit + 7) // 8,
            checksum(self.fmt, self.out, crc=self.member_crc),
            len(self.out) - self.member_start)
        if self.fmt != "gzip":
            # Only gzip has members: whatever follows another format's
            # stream is the caller's business.
            end = len(self.payload)
        self.members += 1
        self.pos_bit = end * 8
        self.in_member = False

    def _enter_member(self) -> None:
        """At a gzip member header: splice the run a worker decoded
        from here, or parse the header and open the member."""
        rec = self.specs.pop(self.pos_bit, None)
        if rec is None:
            self.open(header_byte=self.pos_bit // 8)
            return
        self.used += 1
        base = len(self.out)
        for point in rec["points"]:
            if not self.points \
                    or self.points[-1].out_offset < base + point.out_offset:
                self.points.append(replace(
                    point, out_offset=base + point.out_offset,
                    member=self.members + point.member))
        self.out += rec["out"]
        if len(self.out) > self.max_output:
            raise OutputOverflow("output exceeds allowed size")
        self.members += rec["members"]
        self.pos_bit = rec["end_bit"]
        self.in_member = rec["open"]
        if self.in_member:  # the run stopped on a block boundary
            self.member_start = base + rec["member_start"]
            self.member_crc = rec["crc"]
            lo = max(self.member_start, len(self.out) - _W)
            self.window = bytes(self.out[lo:])

    # -- seek-index capture ------------------------------------------------

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


# -- member-run jobs ----------------------------------------------------------

def _find_member_starts(payload: bytes) -> list[int]:
    """Byte offsets of plausible gzip member headers (magic + sane FLG)."""
    starts: list[int] = []
    off = payload.find(_GZIP_MEMBER_MAGIC, 1)
    while off != -1:
        if off + 3 < len(payload) and payload[off + 3] & 0xE0 == 0:
            starts.append(off)
        off = payload.find(_GZIP_MEMBER_MAGIC, off + 1)
    return starts


def _plan_jobs(payload: bytes, fmt: str, chunk_size: int) -> list[dict]:
    """One member-run job per chunk, past the first, that holds a gzip
    member magic: the run starts at the chunk's first magic and stops at
    the first member or block boundary past the chunk's end.  Each job
    carries only its own byte range of the payload."""
    if fmt != "gzip":
        return []
    member_starts = _find_member_starts(payload)
    jobs: list[dict] = []
    mi = 0
    for target in range(chunk_size, len(payload), chunk_size):
        stop_byte = min(target + chunk_size, len(payload))
        while mi < len(member_starts) and member_starts[mi] < target:
            mi += 1
        if mi < len(member_starts) and member_starts[mi] < stop_byte:
            # A single block may overrun the stop target; give the
            # slice one extra chunk of slack (overruns beyond it fail
            # the job and the resolver decodes the run).
            slice_hi = min(len(payload), stop_byte + chunk_size + 65536)
            jobs.append({
                "header_byte": member_starts[mi],
                "stop_bit": stop_byte * 8,
                "data": payload[member_starts[mi]:slice_hi],
            })
            mi += 1
    return jobs


def inflate_chunk_job(*, header_byte: int, stop_bit: int, data: bytes,
                      max_output: int = 1 << 62,
                      spacing: int | None = None) -> dict:
    """Pool-worker entry: decode the member run starting at
    ``header_byte``.

    ``data`` is the run's own slice of the payload, from
    ``header_byte`` on; the worker walks it with its own
    :class:`_Resolver`, so every member it completes is
    trailer-verified.  Bit offsets in the returned
    record are absolute within the payload; output offsets and member
    numbers are relative to the run.  A run that cannot be decoded —
    a false magic, a slice that ends inside a block, output past
    ``max_output`` — returns ``{"ok": False}``: a scheduling outcome,
    not an error (the resolver decodes the span itself and surfaces any
    *genuine* stream error, in stream order).
    """
    rebase = header_byte * 8
    run = _Resolver(data, "gzip", {}, spacing, max_output)
    try:
        with _TRACE.span("inflate.chunk", nbytes=len(data)):
            run.open()
            run.run(stop_bit=stop_bit - rebase)
    except DeflateError:
        return {"ok": False}
    return {"ok": True, "start_bit": rebase,
            "end_bit": run.pos_bit + rebase, "out": bytes(run.out),
            "members": run.members, "open": run.in_member,
            "member_start": run.member_start, "crc": run.member_crc,
            "points": [replace(point, bit_offset=point.bit_offset + rebase)
                       for point in run.points]}


def _pool_speculate(jobs: list[dict], nworkers: int, obs_span,
                    **shared) -> list[dict] | None:
    """Run the member-run jobs (each with the ``shared`` arguments) on
    the warm pool; ``None`` degrades to the inline decode."""
    from ..exec.pool import get_default_pool

    try:
        pool = get_default_pool(min_workers=nworkers)
        return pool.run_batch([("inflate_chunk", {**job, **shared})
                               for job in jobs], span_parent=obs_span)
    except ExecError:
        return None


# -- public API ---------------------------------------------------------------

def parallel_inflate(payload: bytes, fmt: str = "gzip", *,
                     workers: int | None = None,
                     chunk_size: int = DEFAULT_INFLATE_CHUNK_SIZE,
                     history: bytes = b"",
                     build_index: bool = False,
                     index_spacing: int = DEFAULT_SPACING,
                     max_output: int = 1 << 62
                     ) -> ParallelInflateResult:
    """Decompress ``payload``, decoding gzip member runs on the pool.

    ``workers`` caps pool usage (default ``os.cpu_count()``; 1 decodes
    inline with no pool, as does any payload without a member magic
    past its first ``chunk_size`` bytes).  Output is byte-identical to
    the serial decoders for every worker count; container checksums are
    verified exactly as :func:`~repro.deflate.containers.gzip_decompress`
    / ``zlib_decompress`` do, including multi-member gzip archives, and
    decoding stops with :class:`OutputOverflow` at ``max_output``.
    ``history`` is only meaningful for ``fmt="raw"`` continuation
    streams.  With ``build_index=True`` the pass also records a
    :class:`SeekIndex` (one point per ``index_spacing`` output bytes)
    for later :func:`read_range` calls.
    """
    if fmt not in FORMATS:
        raise DeflateError(f"parallel inflate does not support {fmt!r}")
    if history and fmt != "raw":
        raise DeflateError("history only applies to raw streams")
    if chunk_size < 4096:
        raise DeflateError(f"chunk_size must be >= 4096, got {chunk_size}")
    from ..exec.worker import in_worker

    njobs_possible = max(0, (len(payload) - 1) // chunk_size)
    nworkers = min(workers or os.cpu_count() or 1,
                   max(1, njobs_possible))
    spacing = index_spacing if build_index else None
    speculated = 0
    specs: dict[int, dict] = {}
    with _TRACE.span("inflate.parallel", nbytes=len(payload), fmt=fmt,
                     workers=nworkers) as obs_span:
        jobs = (_plan_jobs(payload, fmt, chunk_size)
                if nworkers > 1 and not in_worker() else [])
        if jobs:
            records = _pool_speculate(jobs, nworkers, obs_span,
                                      max_output=max_output,
                                      spacing=spacing)
            if records is None:
                obs_span.event("exec.pool_fallback")
            else:
                speculated = len(jobs)
                specs = {record["start_bit"]: record
                         for record in records if record.get("ok")}
        resolver = _Resolver(payload, fmt, specs, spacing, max_output)
        resolver.open(history)
        resolver.run()
        # A run the walk never arrived at (false magic) is wasted too.
        counters = {"used": resolver.used,
                    "failed": speculated - resolver.used,
                    "serial": resolver.serial}
        obs_span.set(out_bytes=len(resolver.out), members=resolver.members,
                     chunks_used=counters["used"],
                     chunks_failed=counters["failed"],
                     serial_segments=counters["serial"])

    index = None
    if build_index:
        index = SeekIndex(fmt=fmt, compressed_size=len(payload),
                          output_size=len(resolver.out),
                          members=resolver.members,
                          points=resolver.points)
    chunks = _REGISTRY.counter(
        "repro_inflate_chunks_total",
        "parallel-inflate chunk outcomes by disposition")
    for outcome, count in counters.items():
        if count:
            chunks.inc(count, outcome=outcome)
    _REGISTRY.counter(
        "repro_inflate_parallel_bytes_total",
        "bytes decoded through parallel_inflate").inc(
            len(resolver.out))
    return ParallelInflateResult(
        data=bytes(resolver.out), fmt=fmt, members=resolver.members,
        workers=nworkers, chunks_speculated=speculated,
        chunks_used=counters["used"], chunks_failed=counters["failed"],
        serial_segments=counters["serial"], index=index)


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
    resolver = _Resolver(payload, "gzip" if fmt == "gzip" else "raw", {},
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
