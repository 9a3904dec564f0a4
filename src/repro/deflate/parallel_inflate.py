"""Speculative chunk-parallel DEFLATE/gzip decompression (rapidgzip-style).

Serial inflate is a chain: every block needs the 32 KiB window its
predecessors left behind, which is why :mod:`.parallel` could only
parallelise the *compress* side.  This module breaks the chain with the
two-stage scheme of *rapidgzip* and *Massively-Parallel Lossless Data
Decompression*:

1. **Speculate.**  The payload is split at fixed compressed-byte
   targets.  For each target a pool worker bit-scans forward for a
   plausible block header (only dynamic-Huffman headers are dense
   enough to validate — the code-length pre-table rejects almost every
   false position) or, for multi-member gzip archives, takes a member
   magic as a known-clean restart point.  The worker then decodes
   ahead **without knowing the window**: back-references that reach
   before its chunk are emitted as window-relative *markers* (cell
   values ``256 + index`` into a virtual 32 KiB window) that propagate
   through intra-chunk copies; once a chunk's trailing 32 KiB is
   marker-free it flips to the ordinary fast byte kernel.

2. **Resolve.**  The parent walks the stream in order.  When the next
   speculative chunk starts at *exactly* the current bit position, its
   markers are patched from the now-known window and its output is
   spliced in; otherwise (false candidate, fixed/stored boundary, scan
   miss) the gap is decoded serially with the one-shot kernels.  Wrong
   speculation can therefore cost time, never bytes: output is
   byte-identical to serial inflate on every input, for every worker
   count, including every container checksum verification.

Any full decode can also record a :class:`~repro.deflate.seekindex.SeekIndex`
(block bit-offset → window snapshot + running CRC), and
:func:`read_range` serves random reads from an indexed archive without
decompressing the prefix — the seekable half of the story, used by
``repro cat --range``.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

from ..errors import ChecksumError, DeflateError, ExecError, \
    OutputOverflow, SeekIndexError
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from .bitio import BitReader
from .checksums import adler32, crc32
from .constants import (
    BTYPE_DYNAMIC,
    BTYPE_FIXED,
    BTYPE_STORED,
    DIST_BASE,
    DIST_EXTRA_BITS,
    END_OF_BLOCK,
    LENGTH_BASE,
    LENGTH_EXTRA_BITS,
    WINDOW_SIZE,
)
from .containers import gzip_header_length
from .huffman import _ROOT_MASK, fixed_decoders
from .inflate import _BIT_MASKS, InflateStats, _inflate_huffman_block, \
    _read_dynamic_header
from .seekindex import DEFAULT_SPACING, SeekIndex, SeekPoint

_W = WINDOW_SIZE  # 32768

#: Compressed bytes per speculative chunk.  Matches the deflate side's
#: pigz default: big enough to amortise scan + patch, small enough that
#: a handful of chunks keeps every worker busy.
DEFAULT_INFLATE_CHUNK_SIZE = 1 << 17

#: Cap on one speculative chunk's marker-phase cells.  A garbage
#: candidate that happens to decode must not eat the worker's memory;
#: a *legitimate* chunk that overflows this (pathologically
#: compressible data) simply falls back to the serial path — slower,
#: never wrong.
DEFAULT_MAX_CELLS = 1 << 24

#: How many failed scan candidates one worker retries before giving
#: its whole span back to the serial resolver.
_SCAN_RETRIES = 8

_GZIP_MEMBER_MAGIC = b"\x1f\x8b\x08"


@dataclass(frozen=True)
class ParallelInflateResult:
    """Output plus the engine's accounting for one decode."""

    data: bytes
    fmt: str
    members: int
    workers: int
    chunks_speculated: int   # jobs dispatched to the pool
    chunks_used: int         # speculative results spliced into the output
    chunks_failed: int       # speculation wasted (scan miss / mismatch)
    serial_segments: int     # gaps the resolver decoded inline
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


# -- low-level decoders -------------------------------------------------------

def _reader_at(data: bytes, bit: int) -> BitReader:
    """A :class:`BitReader` positioned at an arbitrary *bit* offset."""
    reader = BitReader(data, start=bit >> 3)
    pre = bit & 7
    if pre:
        reader._fill(pre)
        reader.skip_bits(pre)
    return reader


def _decode_blocks(data: bytes, start_bit: int, window: bytes,
                   stop_bit: int | None = None,
                   want_bytes: int | None = None) -> tuple[bytes, int,
                                                           bool, int]:
    """Decode whole blocks from ``start_bit`` against a known window.

    Stops after the first block that ends at/after ``stop_bit``, after
    ``want_bytes`` of output, or at the final block — whichever comes
    first.  Returns ``(output, end_bit, saw_final, nblocks)``.
    """
    reader = _reader_at(data, start_bit)
    out = bytearray(window)
    base = len(out)
    stats = InflateStats()
    nblocks = 0
    final = False
    while True:
        final_bit = reader.read_bits(1)
        btype = reader.read_bits(2)
        nblocks += 1
        if btype == BTYPE_STORED:
            reader.align_to_byte()
            header = reader.read_bytes(4)
            size = header[0] | (header[1] << 8)
            nsize = header[2] | (header[3] << 8)
            if size != (~nsize & 0xFFFF):
                raise DeflateError("stored block LEN/NLEN mismatch")
            out.extend(reader.read_bytes(size))
        elif btype == BTYPE_FIXED:
            lit_dec, dist_dec = fixed_decoders()
            _inflate_huffman_block(reader, out, lit_dec, dist_dec,
                                   stats, 1 << 62)
        elif btype == BTYPE_DYNAMIC:
            lit_dec, dist_dec = _read_dynamic_header(reader)
            _inflate_huffman_block(reader, out, lit_dec, dist_dec,
                                   stats, 1 << 62)
        else:
            raise DeflateError("reserved block type 3")
        if final_bit:
            final = True
            break
        if stop_bit is not None and reader.bits_consumed >= stop_bit:
            break
        if want_bytes is not None and len(out) - base >= want_bytes:
            break
    return bytes(out[base:]), reader.bits_consumed, final, nblocks


def _marked_huffman_block(reader: BitReader, cells: list[int],
                          lit_dec, dist_dec, state: list[int]) -> None:
    """Decode one Huffman block into marker cells (window unknown).

    ``cells`` holds ints: ``< 256`` is a literal byte, ``256 + i`` is a
    marker naming index ``i`` of the virtual 32 KiB window that ends
    where this chunk starts.  Markers propagate through copies, so the
    patch phase is a single table lookup per cell.  ``state`` is
    ``[last_marker_pos, min_window_index]`` carried across blocks.
    Same local-variable bit-loop shape as the byte kernel.
    """
    data = reader._data
    pos = reader._pos
    bitbuf = reader._bitbuf
    bitcount = reader._bitcount
    lit_fast = lit_dec._fast
    dist_fast = dist_dec._fast
    root_mask = _ROOT_MASK
    masks = _BIT_MASKS
    length_base = LENGTH_BASE
    length_extra = LENGTH_EXTRA_BITS
    dist_base = DIST_BASE
    dist_extra = DIST_EXTRA_BITS
    append = cells.append
    last_marker, min_idx = state
    while True:
        if bitcount < 48:
            chunk = data[pos:pos + 8]
            bitbuf |= int.from_bytes(chunk, "little") << bitcount
            pos += len(chunk)
            bitcount += len(chunk) << 3
        entry = lit_fast[bitbuf & root_mask]
        if entry:
            nb = entry & 31
            if nb > bitcount:
                raise DeflateError("unexpected end of DEFLATE stream")
            sym = entry >> 5
            bitbuf >>= nb
            bitcount -= nb
        else:
            reader._pos = pos
            reader._bitbuf = bitbuf
            reader._bitcount = bitcount
            sym = lit_dec._decode_slow(reader)
            pos = reader._pos
            bitbuf = reader._bitbuf
            bitcount = reader._bitcount
        if sym < 256:
            append(sym)
            continue
        if sym == END_OF_BLOCK:
            reader._pos = pos
            reader._bitbuf = bitbuf
            reader._bitcount = bitcount
            state[0] = last_marker
            state[1] = min_idx
            return
        if sym > 285:
            raise DeflateError(f"invalid length symbol {sym}")
        if bitcount < 48:
            chunk = data[pos:pos + 8]
            bitbuf |= int.from_bytes(chunk, "little") << bitcount
            pos += len(chunk)
            bitcount += len(chunk) << 3
        idx = sym - 257
        eb = length_extra[idx]
        if eb > bitcount:
            raise DeflateError("unexpected end of DEFLATE stream")
        length = length_base[idx] + (bitbuf & masks[eb])
        bitbuf >>= eb
        bitcount -= eb
        entry = dist_fast[bitbuf & root_mask]
        if entry:
            nb = entry & 31
            if nb > bitcount:
                raise DeflateError("unexpected end of DEFLATE stream")
            dsym = entry >> 5
            bitbuf >>= nb
            bitcount -= nb
        else:
            reader._pos = pos
            reader._bitbuf = bitbuf
            reader._bitcount = bitcount
            dsym = dist_dec._decode_slow(reader)
            pos = reader._pos
            bitbuf = reader._bitbuf
            bitcount = reader._bitcount
        if dsym > 29:
            raise DeflateError(f"invalid distance symbol {dsym}")
        eb = dist_extra[dsym]
        if eb > bitcount:
            raise DeflateError("unexpected end of DEFLATE stream")
        dist = dist_base[dsym] + (bitbuf & masks[eb])
        bitbuf >>= eb
        bitcount -= eb
        p = len(cells)
        src = p - dist
        if src >= 0 and last_marker < src and dist >= length:
            # marker-free, non-overlapping source: one slice copy
            cells.extend(cells[src:src + length])
        else:
            for k in range(length):
                s = src + k
                if s >= 0:
                    v = cells[s]
                    append(v)
                    if v > 255:
                        last_marker = p + k
                else:
                    widx = _W + s  # s in [-32768, -1]
                    append(widx + 256)
                    last_marker = p + k
                    if widx < min_idx:
                        min_idx = widx


def _decode_marked(data: bytes, start_bit: int, stop_bit: int,
                   max_cells: int = DEFAULT_MAX_CELLS) -> dict:
    """Speculatively decode whole blocks from ``start_bit`` against an
    unknown window.  Runs the marker kernel until the trailing 32 KiB
    of output is marker-free, then flips to the fast byte kernel (the
    common case: all later back-references land inside the chunk).
    """
    reader = _reader_at(data, start_bit)
    cells: list[int] = []
    state = [-1, _W]  # last marker position, minimum window index
    out: bytearray | None = None
    base = 0
    stats = InflateStats()
    nblocks = 0
    final = False
    while True:
        if out is None and len(cells) - 1 - state[0] >= _W:
            # Seed the byte kernel with the (marker-free) last window;
            # the seed cells stay in ``cells`` so patching still covers
            # them — only *new* output lands in ``out``.
            out = bytearray(cells[-_W:])
            base = _W
        final_bit = reader.read_bits(1)
        btype = reader.read_bits(2)
        nblocks += 1
        if btype == BTYPE_STORED:
            reader.align_to_byte()
            header = reader.read_bytes(4)
            size = header[0] | (header[1] << 8)
            nsize = header[2] | (header[3] << 8)
            if size != (~nsize & 0xFFFF):
                raise DeflateError("stored block LEN/NLEN mismatch")
            chunk = reader.read_bytes(size)
            if out is None:
                cells.extend(chunk)
            else:
                out.extend(chunk)
        elif btype in (BTYPE_FIXED, BTYPE_DYNAMIC):
            if btype == BTYPE_FIXED:
                lit_dec, dist_dec = fixed_decoders()
            else:
                lit_dec, dist_dec = _read_dynamic_header(reader)
            if out is None:
                _marked_huffman_block(reader, cells, lit_dec, dist_dec,
                                      state)
                if len(cells) > max_cells:
                    raise DeflateError(
                        "speculative chunk exceeds marker cell budget")
            else:
                _inflate_huffman_block(reader, out, lit_dec, dist_dec,
                                       stats, 1 << 62)
        else:
            raise DeflateError("reserved block type 3")
        if final_bit:
            final = True
            break
        if reader.bits_consumed >= stop_bit:
            break
    tail = bytes(out[base:]) if out is not None else b""
    return {"kind": "scan", "ok": True, "start_bit": start_bit,
            "end_bit": reader.bits_consumed, "final": final,
            "cells": cells, "min_idx": state[1], "tail": tail,
            "nbytes": len(cells) + len(tail), "blocks": nblocks}


def _patch_cells(cells: list[int], min_idx: int, window: bytes) -> bytes:
    """Replace window markers with real bytes now the window is known."""
    shift = _W - len(window)
    if min_idx < shift:
        # The chunk reaches further back than the member has produced —
        # exactly what the serial kernel calls out, so keep its words.
        raise DeflateError("back-reference before start of output")
    if shift:
        return bytes(window[c - 256 - shift] if c > 255 else c
                     for c in cells)
    return bytes(window[c - 256] if c > 255 else c for c in cells)


# -- speculative split points -------------------------------------------------

def _scan_block_start(data: bytes, from_bit: int,
                      limit_bit: int) -> int | None:
    """First plausible dynamic-block header at/after ``from_bit``.

    A 3-bit peek filters 7/8 of positions before the expensive trial
    parse; the dynamic header's code-length table is self-checking
    (over-/under-subscribed codes raise), which kills nearly every
    false positive without touching payload bits.
    """
    nbytes = len(data)
    end = min(limit_bit, nbytes * 8 - 16)
    bit = from_bit
    while bit < end:
        byte_idx = bit >> 3
        word = data[byte_idx]
        if byte_idx + 1 < nbytes:
            word |= data[byte_idx + 1] << 8
        if ((word >> (bit & 7)) >> 1) & 3 == BTYPE_DYNAMIC:
            reader = _reader_at(data, bit)
            try:
                reader.read_bits(3)
                _read_dynamic_header(reader)
            except DeflateError:
                pass
            else:
                return bit
        bit += 1
    return None


def _find_member_starts(payload: bytes) -> list[int]:
    """Byte offsets of plausible gzip member headers (magic + sane FLG)."""
    starts: list[int] = []
    off = payload.find(_GZIP_MEMBER_MAGIC, 1)
    while off != -1:
        if off + 3 < len(payload) and payload[off + 3] & 0xE0 == 0:
            starts.append(off)
        off = payload.find(_GZIP_MEMBER_MAGIC, off + 1)
    return starts


def _decode_member_run(view: bytes, header_byte: int,
                       stop_bit: int) -> dict:
    """Decode gzip members from a *known* header at ``header_byte``.

    Member starts need no marker machinery — the window is empty by
    definition — so this runs the fast kernel, verifies each completed
    member's trailer itself (it holds the whole member), and stops at
    the first member boundary past ``stop_bit`` or mid-member at a
    block boundary, reporting the open member's running CRC.
    """
    out = bytearray()
    completed: list[dict] = []
    open_rec: dict | None = None
    pos = header_byte
    end_bit = header_byte * 8
    final = False
    first = True
    while True:
        try:
            header_len = gzip_header_length(view, pos)
        except DeflateError:
            if first:
                raise
            break  # junk after a member boundary: the resolver's problem
        seg, seg_end, is_final, _nblocks = _decode_blocks(
            view, (pos + header_len) * 8, b"", stop_bit=stop_bit)
        if not is_final:
            # Stopped mid-member at a block boundary: hand back the
            # running CRC so the resolver can still verify the trailer.
            out += seg
            open_rec = {"out_len": len(seg), "crc": crc32(seg)}
            end_bit = seg_end
            break
        tail = (seg_end + 7) // 8
        if tail + 8 > len(view):
            if first:
                raise DeflateError("gzip stream truncated before trailer")
            break
        expected_crc, isize = struct.unpack_from("<II", view, tail)
        if crc32(seg) != expected_crc or \
                (len(seg) & 0xFFFFFFFF) != isize:
            if first:
                raise ChecksumError("gzip member checksum mismatch")
            break
        out += seg
        completed.append({"out_len": len(seg),
                          "body_bit": (pos + header_len) * 8})
        first = False
        pos = tail + 8
        end_bit = pos * 8
        if pos >= len(view):
            final = True
            break
        if end_bit >= stop_bit:
            break
    if not completed and open_rec is None:
        raise DeflateError("member chunk produced nothing")
    return {"kind": "member", "ok": True, "start_bit": header_byte * 8,
            "end_bit": end_bit, "final": final, "tail": bytes(out),
            "completed": completed, "open": open_rec,
            "nbytes": len(out)}


# -- worker entry -------------------------------------------------------------

def inflate_chunk_job(*, kind: str, scan_from_bit: int, stop_bit: int,
                      base_byte: int = 0, slice_hi: int | None = None,
                      src: tuple[str, int, int] | None = None,
                      data: bytes | None = None,
                      max_cells: int = DEFAULT_MAX_CELLS) -> dict:
    """Pool-worker entry: speculatively decode one chunk.

    The payload rides in a shared-memory slab (``src = (slab, offset,
    length)``); the worker slices only ``[base_byte:slice_hi)`` out of
    it.  All bit offsets in the returned record are absolute within the
    payload.  Speculation failures return ``{"ok": False}`` — they are
    a scheduling outcome, not an error (the resolver decodes the span
    serially and surfaces any *genuine* stream error itself).
    """
    if data is None:
        from ..exec import shm
        name, offset, length = src
        hi = length if slice_hi is None else min(slice_hi, length)
        view = bytes(shm.attach(name).buf[offset + base_byte:offset + hi])
    else:
        hi = len(data) if slice_hi is None else min(slice_hi, len(data))
        view = data[base_byte:hi]
    rel_from = scan_from_bit - base_byte * 8
    rel_stop = stop_bit - base_byte * 8
    span = (_TRACE.span("inflate.chunk", kind=kind, nbytes=len(view))
            if _TRACE.enabled else None)
    try:
        record = _chunk_decode(view, kind, rel_from, rel_stop, max_cells)
    finally:
        if span is not None:
            span.__exit__(None, None, None)
    if record.get("ok"):
        rebase = base_byte * 8
        record["start_bit"] += rebase
        record["end_bit"] += rebase
        for member in record.get("completed", ()):
            member["body_bit"] += rebase
    return record


def _chunk_decode(view: bytes, kind: str, rel_from: int, rel_stop: int,
                  max_cells: int) -> dict:
    if kind == "member":
        try:
            return _decode_member_run(view, rel_from // 8, rel_stop)
        except DeflateError:
            return {"kind": kind, "ok": False, "reason": "member-decode"}
    from_bit = rel_from
    for _ in range(_SCAN_RETRIES):
        start = _scan_block_start(view, from_bit, rel_stop)
        if start is None:
            return {"kind": kind, "ok": False, "reason": "no-candidate"}
        try:
            return _decode_marked(view, start, rel_stop,
                                  max_cells=max_cells)
        except DeflateError:
            from_bit = start + 1
    return {"kind": kind, "ok": False, "reason": "retries-exhausted"}


# -- parent-side planning and dispatch ---------------------------------------

def _plan_jobs(payload: bytes, fmt: str, chunk_size: int) -> list[dict]:
    """One speculative job per chunk target past the first chunk.

    A gzip member magic inside a chunk's span beats a bit scan: it is a
    known-clean restart point (empty window, worker-verifiable CRC), so
    multi-member archives parallelise even when the scan would miss.
    """
    member_starts = _find_member_starts(payload) if fmt == "gzip" else []
    jobs: list[dict] = []
    mi = 0
    for target in range(chunk_size, len(payload), chunk_size):
        stop_byte = min(target + chunk_size, len(payload))
        while mi < len(member_starts) and member_starts[mi] < target:
            mi += 1
        if mi < len(member_starts) and member_starts[mi] < stop_byte:
            start_byte = member_starts[mi]
            mi += 1
            kind = "member"
        else:
            start_byte = target
            kind = "scan"
        jobs.append({
            "kind": kind,
            "scan_from_bit": start_byte * 8,
            "stop_bit": stop_byte * 8,
            "base_byte": start_byte,
            # A single block may overrun the stop target; give the
            # slice one extra chunk of slack (overruns beyond it fail
            # speculation and fall back to serial).
            "slice_hi": min(len(payload), stop_byte + chunk_size + 65536),
        })
    return jobs


def _pool_speculate(payload: bytes, jobs: list[dict], nworkers: int,
                    max_cells: int, obs_span) -> list[dict] | None:
    """Run the chunk jobs on the warm pool; ``None`` degrades to serial."""
    from ..exec.pool import get_default_pool

    try:
        pool = get_default_pool(min_workers=nworkers)
    except ExecError:
        return None
    allocator = pool.allocator
    slab = allocator.acquire(max(1, len(payload)))
    try:
        slab.write(0, payload)
        calls = [("inflate_chunk",
                  {**job, "max_cells": max_cells,
                   "src": (slab.name, 0, len(payload))})
                 for job in jobs]
        try:
            return pool.run_batch(calls, span_parent=obs_span)
        except ExecError:
            return None
    finally:
        allocator.release(slab)


# -- the sequential resolve/patch loop ---------------------------------------

class _Resolver:
    """Walks the stream in order, splicing speculative chunks when their
    start bit matches reality and serially decoding every gap."""

    def __init__(self, payload: bytes, fmt: str, specs: dict[int, dict],
                 history: bytes, build_index: bool, spacing: int,
                 max_output: int, counters: dict) -> None:
        self.payload = payload
        self.fmt = fmt
        self.specs = specs
        self.build_index = build_index
        self.spacing = spacing
        self.max_output = max_output
        self.counters = counters
        self.out = bytearray()
        self.points: list[SeekPoint] = []
        self.members = 0
        self.member_start = 0
        self.member_crc = 0
        self.window = history[-_W:] if fmt == "raw" else b""

    def run(self) -> None:
        payload = self.payload
        if self.fmt == "gzip":
            if len(payload) < 18:
                raise DeflateError("gzip stream too short")
            header_len = gzip_header_length(payload)
            self.pos_bit = header_len * 8
        elif self.fmt == "zlib":
            if len(payload) < 6:
                raise DeflateError("zlib stream too short")
            cmf, flg = payload[0], payload[1]
            if (cmf & 0x0F) != 8:
                raise DeflateError(f"unsupported zlib method {cmf & 0x0F}")
            if ((cmf << 8) | flg) % 31 != 0:
                raise DeflateError("zlib header check failed")
            if flg & 0x20:
                raise DeflateError("stream needs a preset dictionary")
            self.pos_bit = 16
        else:
            self.pos_bit = 0
        while self._body_step():
            pass

    # -- body state --------------------------------------------------------

    def _body_step(self) -> bool:
        """One resolver step; returns False when the stream is done."""
        self._record_point()
        specs = self.specs
        for key in [k for k in specs if k < self.pos_bit]:
            del specs[key]
        rec = specs.pop(self.pos_bit, None)
        if rec is not None and rec.get("ok") and rec["kind"] == "scan":
            final = self._splice_chunk(rec)
        else:
            if rec is not None:
                self.counters["failed"] += 1
            final = self._serial_segment()
        if not final:
            return True
        return self._finish_member()

    def _splice_chunk(self, rec: dict) -> bool:
        span = (_TRACE.span("inflate.patch", nbytes=rec["nbytes"],
                            markers=len(rec["cells"]))
                if _TRACE.enabled else None)
        try:
            seg = _patch_cells(rec["cells"], rec["min_idx"],
                               self.window) + rec["tail"]
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        self.counters["used"] += 1
        self._advance(seg, rec["end_bit"])
        return rec["final"]

    def _serial_segment(self) -> bool:
        nxt = min((k for k in self.specs if k > self.pos_bit),
                  default=None)
        # While indexing, cap the segment near the point spacing so
        # boundaries (and their windows) actually get recorded.
        want = self.spacing if self.build_index else None
        seg, end_bit, final, _nblocks = _decode_blocks(
            self.payload, self.pos_bit, self.window, stop_bit=nxt,
            want_bytes=want)
        self.counters["serial"] += 1
        self._advance(seg, end_bit)
        return final

    def _advance(self, seg: bytes, end_bit: int) -> None:
        self.out += seg
        if len(self.out) > self.max_output:
            raise OutputOverflow("output exceeds allowed size")
        self.member_crc = crc32(seg, self.member_crc)
        if len(seg) >= _W:
            self.window = seg[-_W:]
        else:
            self.window = (self.window + seg)[-_W:]
        self.pos_bit = end_bit

    # -- member boundaries -------------------------------------------------

    def _finish_member(self) -> bool:
        payload = self.payload
        if self.fmt == "raw":
            return False  # trailing bytes are the container's business
        if self.fmt == "zlib":
            tail = (self.pos_bit + 7) // 8
            if tail + 4 > len(payload):
                raise DeflateError("zlib stream truncated before Adler-32")
            (expected,) = struct.unpack_from(">I", payload, tail)
            if adler32(bytes(self.out)) != expected:
                raise ChecksumError("Adler-32 mismatch")
            self.members = 1
            return False
        tail = (self.pos_bit + 7) // 8
        if tail + 8 > len(payload):
            raise DeflateError("gzip stream truncated before trailer")
        expected_crc, isize = struct.unpack_from("<II", payload, tail)
        if self.member_crc != expected_crc:
            raise ChecksumError("gzip CRC-32 mismatch")
        member_size = len(self.out) - self.member_start
        if (member_size & 0xFFFFFFFF) != isize:
            raise ChecksumError("gzip ISIZE mismatch")
        self.members += 1
        return self._next_member(tail + 8)

    def _next_member(self, header_byte: int) -> bool:
        """Advance over gzip member boundaries, chaining pre-verified
        member-run chunks; returns True to continue decoding."""
        payload = self.payload
        while True:
            if header_byte >= len(payload):
                return False
            rec = self.specs.pop(header_byte * 8, None)
            if rec is not None and rec.get("ok") \
                    and rec["kind"] == "member":
                self.counters["used"] += 1
                if self.build_index:
                    # Spliced member runs bypass _body_step, so emit
                    # the always-indexed member-body-start points here
                    # (empty window, zero running CRC by definition).
                    base = len(self.out)
                    for i, member in enumerate(rec["completed"]):
                        if not self.points or \
                                self.points[-1].out_offset < base:
                            self.points.append(SeekPoint(
                                bit_offset=member["body_bit"],
                                out_offset=base,
                                member=self.members + i,
                                member_out_offset=0, crc=0,
                                window=b""))
                        base += member["out_len"]
                self.out += rec["tail"]
                if len(self.out) > self.max_output:
                    raise OutputOverflow("output exceeds allowed size")
                self.members += len(rec["completed"])
                open_rec = rec["open"]
                if open_rec is not None:
                    self.member_start = len(self.out) - open_rec["out_len"]
                    self.member_crc = open_rec["crc"]
                    lo = max(self.member_start, len(self.out) - _W)
                    self.window = bytes(self.out[lo:])
                    self.pos_bit = rec["end_bit"]
                    return True  # resume mid-member
                # The chunk's "final" flag only says its *slice* ran
                # out; whether the payload did is decided here.
                header_byte = rec["end_bit"] // 8
                continue
            if rec is not None:
                self.counters["failed"] += 1
            header_len = gzip_header_length(payload, header_byte)
            self.pos_bit = (header_byte + header_len) * 8
            self.window = b""
            self.member_crc = 0
            self.member_start = len(self.out)
            return True

    # -- seek-index capture ------------------------------------------------

    def _record_point(self) -> None:
        if not self.build_index:
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


# -- public API ---------------------------------------------------------------

def parallel_inflate(payload: bytes, fmt: str = "gzip", *,
                     workers: int | None = None,
                     chunk_size: int = DEFAULT_INFLATE_CHUNK_SIZE,
                     history: bytes = b"",
                     build_index: bool = False,
                     index_spacing: int = DEFAULT_SPACING,
                     max_output: int = 1 << 62,
                     max_cells: int = DEFAULT_MAX_CELLS
                     ) -> ParallelInflateResult:
    """Decompress ``payload`` with speculative chunk parallelism.

    ``workers`` caps pool usage (default ``os.cpu_count()``; 1 decodes
    inline with no pool).  Output is byte-identical to the serial
    decoders for every worker count; container checksums are verified
    exactly as :func:`~repro.deflate.containers.gzip_decompress` /
    ``zlib_decompress`` do, including multi-member gzip archives.
    ``history`` is only meaningful for ``fmt="raw"`` continuation
    streams.  With ``build_index=True`` the resolve pass also records a
    :class:`SeekIndex` (one point per ``index_spacing`` output bytes)
    for later :func:`read_range` calls.
    """
    if fmt not in ("gzip", "zlib", "raw"):
        raise DeflateError(f"parallel inflate does not support {fmt!r}")
    if history and fmt != "raw":
        raise DeflateError("history only applies to raw streams")
    if chunk_size < 4096:
        raise DeflateError(f"chunk_size must be >= 4096, got {chunk_size}")
    from ..exec.worker import in_worker

    njobs_possible = max(0, (len(payload) - 1) // chunk_size)
    nworkers = min(workers or os.cpu_count() or 1,
                   max(1, njobs_possible))
    counters = {"used": 0, "failed": 0, "serial": 0, "speculated": 0}
    obs_span = (_TRACE.span("inflate.parallel", nbytes=len(payload),
                            fmt=fmt, workers=nworkers)
                if _TRACE.enabled else None)
    specs: dict[int, dict] = {}
    try:
        if nworkers > 1 and njobs_possible >= 1 and not in_worker():
            jobs = _plan_jobs(payload, fmt, chunk_size)
            counters["speculated"] = len(jobs)
            records = _pool_speculate(payload, jobs, nworkers,
                                      max_cells, obs_span)
            if records is None:
                counters["speculated"] = 0
                if obs_span is not None:
                    obs_span.event("exec.pool_fallback")
            else:
                for record in records:
                    if record and record.get("ok"):
                        specs[record["start_bit"]] = record
                    else:
                        counters["failed"] += 1
        resolver = _Resolver(payload, fmt, specs, history, build_index,
                             index_spacing, max_output, counters)
        resolver.run()
        if obs_span is not None:
            obs_span.set(out_bytes=len(resolver.out),
                         members=max(resolver.members, 1),
                         chunks_used=counters["used"],
                         chunks_failed=counters["failed"],
                         serial_segments=counters["serial"])
    finally:
        if obs_span is not None:
            obs_span.__exit__(None, None, None)

    index = None
    if build_index:
        index = SeekIndex(fmt=fmt, compressed_size=len(payload),
                          output_size=len(resolver.out),
                          members=max(resolver.members, 1),
                          points=resolver.points)
    if _REGISTRY.enabled:
        chunks = _REGISTRY.counter(
            "repro_inflate_chunks_total",
            "parallel-inflate chunk outcomes by disposition")
        for outcome in ("used", "failed", "serial"):
            if counters[outcome]:
                chunks.inc(counters[outcome], outcome=outcome)
        _REGISTRY.counter(
            "repro_inflate_parallel_bytes_total",
            "bytes decoded through parallel_inflate").inc(
                len(resolver.out))
    return ParallelInflateResult(
        data=bytes(resolver.out), fmt=fmt,
        members=max(resolver.members, 1), workers=nworkers,
        chunks_speculated=counters["speculated"],
        chunks_used=counters["used"],
        chunks_failed=counters["failed"],
        serial_segments=counters["serial"], index=index)


def read_range(payload: bytes, offset: int, length: int, *,
               index: SeekIndex, fmt: str | None = None
               ) -> RangeReadResult:
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
    fmt = fmt or index.fmt
    if fmt != index.fmt:
        raise SeekIndexError(
            f"index is for {index.fmt!r} payloads, not {fmt!r}")
    if index.compressed_size != len(payload):
        raise SeekIndexError(
            f"index was built for a {index.compressed_size}-byte "
            f"payload, got {len(payload)} bytes")
    point = index.locate(offset)
    span = (_TRACE.span("inflate.range", offset=offset, length=length,
                        resume_bit=point.bit_offset)
            if _TRACE.enabled else None)
    try:
        out, decoded = _decode_from_point(payload, fmt, point,
                                          offset + length)
    finally:
        if span is not None:
            span.__exit__(None, None, None)
    start = offset - point.out_offset
    data = bytes(out[start:start + length]) if start < len(out) else b""
    if _REGISTRY.enabled:
        _REGISTRY.counter("repro_inflate_random_reads_total",
                          "range reads served through a seek index").inc()
        _REGISTRY.counter("repro_inflate_range_decoded_bytes_total",
                          "bytes decoded while serving range reads").inc(
                              decoded)
        _REGISTRY.counter("repro_inflate_range_skipped_bytes_total",
                          "prefix bytes skipped thanks to the index").inc(
                              point.out_offset)
    return RangeReadResult(data=data, offset=offset, length=length,
                           decoded_bytes=decoded,
                           skipped_bytes=point.out_offset,
                           point_bit_offset=point.bit_offset)


def _decode_from_point(payload: bytes, fmt: str, point: SeekPoint,
                       want_end: int) -> tuple[bytearray, int]:
    """Decode forward from a seek point until ``want_end`` global bytes."""
    out = bytearray()
    base = point.out_offset
    pos_bit = point.bit_offset
    window = point.window
    member_crc = point.crc
    member_out = point.member_out_offset
    while base + len(out) < want_end:
        want = want_end - base - len(out)
        seg, end_bit, final, _nblocks = _decode_blocks(
            payload, pos_bit, window, want_bytes=want)
        out += seg
        member_crc = crc32(seg, member_crc)
        member_out += len(seg)
        window = seg[-_W:] if len(seg) >= _W else (window + seg)[-_W:]
        pos_bit = end_bit
        if not final:
            continue
        if fmt != "gzip":
            break
        tail = (pos_bit + 7) // 8
        if tail + 8 > len(payload):
            raise DeflateError("gzip stream truncated before trailer")
        expected_crc, isize = struct.unpack_from("<II", payload, tail)
        if member_crc != expected_crc:
            raise ChecksumError("gzip CRC-32 mismatch")
        if (member_out & 0xFFFFFFFF) != isize:
            raise ChecksumError("gzip ISIZE mismatch")
        next_header = tail + 8
        if next_header >= len(payload):
            break
        header_len = gzip_header_length(payload, next_header)
        pos_bit = (next_header + header_len) * 8
        window = b""
        member_crc = 0
        member_out = 0
    return out, len(out)
