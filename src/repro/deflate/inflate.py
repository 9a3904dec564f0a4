"""Raw DEFLATE decompression (RFC 1951), from scratch.

``inflate`` handles all three block types and validates stream structure
strictly; it is used both as the software baseline decompressor and as the
functional core of the NX decompress engine model.

The Huffman-block loop (:func:`_inflate_huffman_block`) is
batch-oriented: literal runs spin in an inner loop over the decoder's
flat table (bit buffer in locals, one append per literal),
non-overlapping back-references are copied with one slice
``extend``, and overlapping runs are materialised by periodic repetition
of the ``dist``-byte seed instead of a per-byte append loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DeflateError, OutputOverflow
from ..obs.trace import TRACE as _TRACE
from .bitio import BitReader
from .constants import (
    BTYPE_DYNAMIC,
    BTYPE_FIXED,
    BTYPE_STORED,
    CODELEN_ORDER,
    DIST_BASE,
    DIST_EXTRA_BITS,
    END_OF_BLOCK,
    LENGTH_BASE,
    LENGTH_EXTRA_BITS,
    NUM_CODELEN_SYMBOLS,
    WINDOW_SIZE,
)
from .huffman import _ROOT_MASK, HuffmanDecoder, fixed_decoders

_BIT_MASKS = tuple((1 << n) - 1 for n in range(32))


@dataclass
class InflateStats:
    """Decode-side statistics fed to the NX decompressor timing model."""

    literals: int = 0
    matches: int = 0
    match_bytes: int = 0
    blocks: list[int] = field(default_factory=list)

    @property
    def output_bytes(self) -> int:
        return self.literals + self.match_bytes


def _read_dynamic_header(
        reader: BitReader) -> tuple[HuffmanDecoder, HuffmanDecoder]:
    hlit = reader.read_bits(5) + 257
    hdist = reader.read_bits(5) + 1
    hclen = reader.read_bits(4) + 4
    cl_lengths = [0] * NUM_CODELEN_SYMBOLS
    for idx in range(hclen):
        cl_lengths[CODELEN_ORDER[idx]] = reader.read_bits(3)
    cl_decoder = HuffmanDecoder(cl_lengths)

    lengths: list[int] = []
    while len(lengths) < hlit + hdist:
        sym = cl_decoder.decode(reader)
        if sym < 16:
            lengths.append(sym)
        elif sym == 16:
            if not lengths:
                raise DeflateError("repeat code with no previous length")
            lengths.extend([lengths[-1]] * (3 + reader.read_bits(2)))
        elif sym == 17:
            lengths.extend([0] * (3 + reader.read_bits(3)))
        else:
            lengths.extend([0] * (11 + reader.read_bits(7)))
    if len(lengths) != hlit + hdist:
        raise DeflateError("code length repeat overflows header")

    lit_lengths = lengths[:hlit]
    dist_lengths = lengths[hlit:]
    if lit_lengths[END_OF_BLOCK] == 0:
        raise DeflateError("dynamic block has no end-of-block code")
    return HuffmanDecoder(lit_lengths), HuffmanDecoder(dist_lengths)


def _inflate_huffman_block(reader: BitReader, out: bytearray,
                           lit_dec: HuffmanDecoder, dist_dec: HuffmanDecoder,
                           stats: InflateStats, max_output: int) -> None:
    """Decode one Huffman block — the decompressor's hot loop.

    Everything lives in locals: the reader's bit buffer (refilled eight
    bytes per ``int.from_bytes``, at most once per token since a full
    token needs <= 48 bits), both flat fast tables, and the stats
    counters (folded into ``stats`` at end-of-block).  Literal runs spin
    in an inner loop — a single range test on the packed table entry
    (``0 < entry < 8192``) classifies "in-table literal".  Only codes
    longer than the root table fall back to the decoders' counting walk.
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
    append = out.append
    budget = max_output - len(out)
    literals = 0
    matches = 0
    match_bytes = 0
    while True:
        if bitcount < 48:
            chunk = data[pos:pos + 8]
            bitbuf |= int.from_bytes(chunk, "little") << bitcount
            pos += len(chunk)
            bitcount += len(chunk) << 3
        entry = lit_fast[bitbuf & root_mask]
        while 0 < entry < 8192:  # sym < 256: in-table literal
            nb = entry & 31
            if nb > bitcount:
                raise DeflateError("unexpected end of DEFLATE stream")
            bitbuf >>= nb
            bitcount -= nb
            append(entry >> 5)
            literals += 1
            budget -= 1
            if budget < 0:
                stats.literals += literals
                raise OutputOverflow("output exceeds allowed size")
            if bitcount < 15:
                chunk = data[pos:pos + 8]
                bitbuf |= int.from_bytes(chunk, "little") << bitcount
                pos += len(chunk)
                bitcount += len(chunk) << 3
            entry = lit_fast[bitbuf & root_mask]
        # The inner loop only guarantees 15 buffered bits, a full match
        # needs up to 40: top up (low bits are untouched, so ``entry``
        # computed before the refill stays valid).
        if bitcount < 48:
            chunk = data[pos:pos + 8]
            bitbuf |= int.from_bytes(chunk, "little") << bitcount
            pos += len(chunk)
            bitcount += len(chunk) << 3
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
                literals += 1
                budget -= 1
                if budget < 0:
                    stats.literals += literals
                    raise OutputOverflow("output exceeds allowed size")
                continue
        if sym == END_OF_BLOCK:
            reader._pos = pos
            reader._bitbuf = bitbuf
            reader._bitcount = bitcount
            stats.literals += literals
            stats.matches += matches
            stats.match_bytes += match_bytes
            return
        if sym > 285:
            raise DeflateError(f"invalid length symbol {sym}")
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
        start = len(out) - dist
        if start < 0:
            raise DeflateError("back-reference before start of output")
        if dist >= length:
            out += out[start:start + length]
        else:
            # Overlapping run: the copy is periodic with period ``dist``,
            # so repeat the seed instead of appending byte by byte.
            seed = bytes(out[start:])
            out += seed * (length // dist) + seed[:length % dist]
        matches += 1
        match_bytes += length
        budget -= length
        if budget < 0:
            stats.literals += literals
            raise OutputOverflow("output exceeds allowed size")


def inflate_with_stats(data: bytes, start: int = 0,
                       max_output: int = 1 << 31,
                       history: bytes = b"") -> tuple[
                           bytes, InflateStats, int]:
    """Decode a raw DEFLATE stream.

    ``history`` is the preset dictionary the stream was compressed
    against; it seeds the back-reference window but is not returned.
    Returns ``(output, stats, bits_consumed)`` so container layers can
    find the trailing checksum.
    """
    if _TRACE.enabled:
        with _TRACE.span("inflate.kernel", nbytes=len(data)) as span:
            result = inflate_core(data, start, max_output, history)
            span.set(out_bytes=len(result[0]))
            return result
    return inflate_core(data, start, max_output, history)


def inflate_blocks(reader: BitReader, out: bytearray, budget: int,
                   stats: InflateStats, stop_bit: int | None = None,
                   want_bytes: int | None = None) -> bool:
    """Decode whole blocks from ``reader`` onto the end of ``out``.

    The one stored/fixed/dynamic block loop for every one-shot decode:
    ``out`` arrives holding the back-reference window (history, or
    nothing at a member start) and may grow by at most ``budget`` bytes
    before :class:`OutputOverflow`.  Stops after the final block
    (returns True) or, returning False, after the first block that ends
    at/after ``stop_bit`` or brings this call's output to
    ``want_bytes``.  ``reader.bits_consumed`` is the next block's bit.
    """
    base = len(out)
    limit = base + budget
    while True:
        final = reader.read_bits(1)
        btype = reader.read_bits(2)
        stats.blocks.append(btype)
        if btype == BTYPE_STORED:
            reader.align_to_byte()
            header = reader.read_bytes(4)
            size = header[0] | (header[1] << 8)
            nsize = header[2] | (header[3] << 8)
            if size != (~nsize & 0xFFFF):
                raise DeflateError("stored block LEN/NLEN mismatch")
            out.extend(reader.read_bytes(size))
            stats.literals += size
            if len(out) > limit:
                raise OutputOverflow("output exceeds allowed size")
        elif btype == BTYPE_FIXED:
            lit_dec, dist_dec = fixed_decoders()
            _inflate_huffman_block(reader, out, lit_dec, dist_dec,
                                   stats, limit)
        elif btype == BTYPE_DYNAMIC:
            lit_dec, dist_dec = _read_dynamic_header(reader)
            _inflate_huffman_block(reader, out, lit_dec, dist_dec,
                                   stats, limit)
        else:
            raise DeflateError("reserved block type 3")
        if final:
            return True
        if stop_bit is not None and reader.bits_consumed >= stop_bit:
            return False
        if want_bytes is not None and len(out) - base >= want_bytes:
            return False


def inflate_core(data: bytes, start: int = 0,
                 max_output: int = 1 << 31,
                 history: bytes = b"") -> tuple[bytes, InflateStats, int]:
    """:func:`inflate_with_stats` without the telemetry guard."""
    reader = BitReader(data, start=start)
    out = bytearray(history[-WINDOW_SIZE:])
    base = len(out)
    stats = InflateStats()
    inflate_blocks(reader, out, max_output, stats)
    return bytes(out[base:]), stats, reader.bits_consumed


def inflate(data: bytes) -> bytes:
    """Decode a raw DEFLATE stream and return the output bytes."""
    out, _stats, _bits = inflate_with_stats(data)
    return out
