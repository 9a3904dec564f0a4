"""Raw DEFLATE decompression (RFC 1951), from scratch.

``inflate`` handles all three block types and validates stream structure
strictly; it is used both as the software baseline decompressor and as the
functional core of the NX decompress engine model.

The Huffman-block loop (:func:`_inflate_huffman_block`) is
batch-oriented: literal runs spin in an inner loop over the decoder's
root table (bit buffer in locals, one append per literal, one ``entry <
4096`` test to classify), a length or a distance with its extra bits
comes out of one probe of a list of packed rows (``huffman.py`` has the
layouts), non-overlapping back-references are copied with one slice
``extend``, and overlapping runs are materialised by periodic repetition
of the ``dist``-byte seed instead of a per-byte append loop.

The loop refills past the end of the input (missing bytes read as zero
bits) and tests for the end of the input and for the output cap once
per token rather than once per field: where the literal loop refills,
after every match, at end-of-block.  The end of the input is always
tested *first*, and on a match before the back-reference is looked at:
zero padding can decode as a far distance or push ``out`` over the cap,
and a cut stream must say ``"unexpected end of DEFLATE stream"`` at
every byte (``tests/test_truncation.py``), not whatever the padding
happened to mean.

It is the only Huffman decode loop in the package.  Told that the input
may still grow (``more``), it stops at a token boundary short of the end
of what it holds instead of decoding padding, and is called again when
there is more: ``inflate_stream.InflateStream`` is a loop around
:func:`read_block_header` and that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import NO_BOUND, DeflateError, InputTruncated, OutputOverflow
from ..obs.trace import TRACE as _TRACE
from .bitio import BitReader
from .constants import (
    BTYPE_DYNAMIC,
    BTYPE_FIXED,
    BTYPE_STORED,
    CODELEN_ORDER,
    END_OF_BLOCK,
    LENGTH_BASE,
    NUM_CODELEN_SYMBOLS,
    NUM_DIST_SYMBOLS,
    WINDOW_SIZE,
)
from .huffman import (
    _ROOT_MASK,
    MISS,
    HuffmanDecoder,
    block_decoders,
    codelen_decoder,
    fixed_decoders,
)

_MAX_HLIT = END_OF_BLOCK + 1 + len(LENGTH_BASE)  # 286: symbols 0..285


@dataclass
class InflateStats:
    """Decode-side statistics fed to the NX decompressor timing model."""

    literals: int = 0
    matches: int = 0
    match_bytes: int = 0
    blocks: list[int] = field(default_factory=list, init=False)
    #: The block a resumable decode rolled back: (body bits, bytes made).
    overrun: tuple[int, int] | None = field(default=None, init=False)


def _overflow(reader: BitReader, pos: int, bitbuf: int, bitcount: int):
    """The cap, passed at ``pos``: the reader says how far it got."""
    reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
    return OutputOverflow("output exceeds allowed size")


def _read_dynamic_header(
        reader: BitReader) -> tuple[HuffmanDecoder, HuffmanDecoder]:
    """Read a dynamic block's header and build its decoders.

    The code-length run is decoded on locals — one probe of the 7-bit
    root table, one shift, per length — with every field tested against
    the bits the input really holds: at most ~320 fields a block, so
    exactness costs nothing here.
    """
    hlit = reader.read_bits(5) + 257
    hdist = reader.read_bits(5) + 1
    hclen = reader.read_bits(4) + 4
    if hlit > _MAX_HLIT or hdist > NUM_DIST_SYMBOLS:
        raise DeflateError("too many length or distance symbols")
    cl_lengths = [0] * NUM_CODELEN_SYMBOLS
    for idx in range(hclen):
        cl_lengths[CODELEN_ORDER[idx]] = reader.read_bits(3)
    cl_decoder = codelen_decoder(cl_lengths)

    data = reader._data
    pos = reader._pos
    bitbuf = reader._bitbuf
    bitcount = reader._bitcount
    table = cl_decoder.table
    root_mask = len(table) - 1
    total = hlit + hdist
    lengths: list[int] = []
    while len(lengths) < total:
        if bitcount < 14:  # longest code + longest repeat count
            chunk = data[pos:pos + 8]
            bitbuf |= int.from_bytes(chunk, "little") << bitcount
            pos += len(chunk)
            bitcount += len(chunk) << 3
        entry = table[bitbuf & root_mask]
        if entry == MISS:  # a one-code code and not its bit: an error
            sym, nb = cl_decoder.walk(bitbuf, bitcount)
        else:
            sym, nb = entry >> 4, entry & 15
            if nb > bitcount:
                raise InputTruncated("unexpected end of DEFLATE stream")
        bitbuf >>= nb
        bitcount -= nb
        if sym < 16:
            lengths.append(sym)
            continue
        if sym == 16:
            if not lengths:
                raise DeflateError("repeat code with no previous length")
            nb, least, value = 2, 3, lengths[-1]
        elif sym == 17:
            nb, least, value = 3, 3, 0
        else:
            nb, least, value = 7, 11, 0
        if nb > bitcount:
            raise InputTruncated("unexpected end of DEFLATE stream")
        lengths.extend([value] * (least + (bitbuf & ((1 << nb) - 1))))
        bitbuf >>= nb
        bitcount -= nb
    reader._pos = pos
    reader._bitbuf = bitbuf
    reader._bitcount = bitcount
    if len(lengths) != total:
        raise DeflateError("code length repeat overflows header")
    if lengths[END_OF_BLOCK] == 0:
        raise DeflateError("dynamic block has no end-of-block code")
    return block_decoders(lengths[:hlit], lengths[hlit:])


def _hand_back(reader: BitReader, pos: int, bitbuf: int, bitcount: int,
               stats: InflateStats, literals: int, matches: int,
               match_bytes: int) -> None:
    """Leave the hot loop: its locals go back into ``reader`` — refill
    padding dropped, so the position is exact — and into ``stats``."""
    nbytes = len(reader._data)
    if pos > nbytes:
        bitcount -= (pos - nbytes) << 3
        pos = nbytes
    reader._pos = pos
    reader._bitbuf = bitbuf
    reader._bitcount = bitcount
    stats.literals += literals
    stats.matches += matches
    stats.match_bytes += match_bytes


def _inflate_huffman_block(reader: BitReader, out: bytearray,
                           lit_dec: HuffmanDecoder, dist_dec: HuffmanDecoder,
                           stats: InflateStats, max_output: int,
                           more: bool = False) -> bool:
    """Decode one Huffman block — the decompressor's hot loop.

    Everything lives in locals: the reader's bit buffer, the lit/len
    root table (an entry below 4096 is an in-table literal, ``byte << 4
    | code bits``: one test classifies it) and the two lists of rows,
    where one subscript yields ``(code bits, extra-bit mask, base,
    code + extra bits)`` of a length or a distance.  A ``None`` row is
    everything else — end-of-block, a code longer than the root table,
    a reserved symbol — and goes to the decoder's bit-by-bit walk.

    A refill always takes ``pos += 8; bitcount += 64``: a slice past
    the end of the input reads as zero bits, so nothing here tests a
    single field against the end of the input.  "Consumed more bits
    than the input holds" is tested once per refill of the literal
    loop, once per match *before* the back-reference is looked at (a
    distance made of zero padding must report the truncation, not a bad
    distance) and, through the real bit count handed to the walk, on
    every ``None`` row.  The cap is tested at the same places, end of
    input first, so ``out`` can stand up to 64 literals over
    ``max_output`` before :class:`OutputOverflow`.  Literals are not
    counted: they are the output growth that matches do not explain.

    Returns True behind the block's end-of-block code.  With ``more``
    the input is a prefix that may grow, and the same tests ask "within
    16 bytes of its end?" instead: a token then sits behind at most two
    refills, both inside the input, so every token decoded is made of
    real bits — and the loop returns False behind the first one that
    ends there (at once, when it starts there) for the caller to resume
    from ``reader`` and ``out`` once it holds more.  Either way
    ``reader`` is handed back exact.
    """
    data = reader._data
    nbytes = len(data)
    pos = reader._pos
    limit = nbytes - 16 if more else nbytes
    if pos > limit:
        return False
    bitbuf = reader._bitbuf
    bitcount = reader._bitcount
    lit_table = lit_dec.table
    len_rows = lit_dec.rows
    dist_rows = dist_dec.rows
    root_mask = _ROOT_MASK
    append = out.append
    size_before = len(out)
    matches = 0
    match_bytes = 0
    # What ``out`` may hold behind a match: the cap — or nothing, once a
    # match ends past ``limit`` with more to come, so that the loop
    # stops behind its copy without one more test a match.
    room = max_output
    while True:
        if bitcount < 48:  # the longest token: 15 + 5 + 15 + 13 bits
            bitbuf |= int.from_bytes(data[pos:pos + 8], "little") << bitcount
            pos += 8
            bitcount += 64
        entry = lit_table[bitbuf & root_mask]
        while entry < 4096:
            nb = entry & 15
            bitbuf >>= nb
            bitcount -= nb
            append(entry >> 4)
            if bitcount < 48:
                bitbuf |= (int.from_bytes(data[pos:pos + 8], "little")
                           << bitcount)
                pos += 8
                bitcount += 64
                if pos > limit:
                    if more:
                        _hand_back(reader, pos, bitbuf, bitcount, stats,
                                   len(out) - size_before - match_bytes,
                                   matches, match_bytes)
                        return False
                    if bitcount < (pos - nbytes) << 3:
                        raise InputTruncated("unexpected end of DEFLATE stream")
                if len(out) > max_output:
                    raise _overflow(reader, pos, bitbuf, bitcount)
            entry = lit_table[bitbuf & root_mask]
        row = len_rows[bitbuf & root_mask]
        if row is None:
            real = bitcount - ((pos - nbytes) << 3 if pos > nbytes else 0)
            sym, nb = lit_dec.walk(bitbuf, real)
            if sym <= END_OF_BLOCK:
                bitbuf >>= nb
                bitcount -= nb
                if sym < END_OF_BLOCK:
                    append(sym)
                if len(out) > max_output:
                    raise _overflow(reader, pos, bitbuf, bitcount)
                if sym < END_OF_BLOCK and not (more and pos > limit):
                    continue
                _hand_back(reader, pos, bitbuf, bitcount, stats,
                           len(out) - size_before - match_bytes,
                           matches, match_bytes)
                return sym == END_OF_BLOCK
            row = lit_dec.row(sym, nb)
            if row is None:
                raise DeflateError(f"invalid length symbol {sym}")
        nb, mask, base, total = row
        length = base + (bitbuf >> nb & mask)
        bitbuf >>= total
        bitcount -= total
        row = dist_rows[bitbuf & root_mask]
        if row is None:
            real = bitcount - ((pos - nbytes) << 3 if pos > nbytes else 0)
            sym, nb = dist_dec.walk(bitbuf, real)
            row = dist_dec.row(sym, nb)
            if row is None:
                raise DeflateError(f"invalid distance symbol {sym}")
        nb, mask, base, total = row
        dist = base + (bitbuf >> nb & mask)
        bitbuf >>= total
        bitcount -= total
        if pos > limit:
            if more:
                room = -1
            elif bitcount < (pos - nbytes) << 3:
                raise InputTruncated("unexpected end of DEFLATE stream")
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
        if len(out) > room:
            if len(out) > max_output:
                raise _overflow(reader, pos, bitbuf, bitcount)
            _hand_back(reader, pos, bitbuf, bitcount, stats,
                       len(out) - size_before - match_bytes,
                       matches, match_bytes)
            return False


def inflate_with_stats(data: bytes, history: bytes = b"") -> tuple[
        bytes, InflateStats, int]:
    """Decode a raw DEFLATE stream.

    ``history`` is the preset dictionary the stream was compressed
    against; it seeds the back-reference window but is not returned.
    Returns ``(output, stats, bits_consumed)`` so container layers can
    find the trailing checksum.
    """
    with _TRACE.span("inflate.kernel", nbytes=len(data)) as span:
        result = inflate_core(data, history=history)
        span.set(out_bytes=len(result[0]))
        return result


def read_block_header(reader: BitReader) -> tuple[
        int, int, int | tuple[HuffmanDecoder, HuffmanDecoder]]:
    """``(BFINAL, BTYPE, body)`` of the block that starts at ``reader``.

    ``body`` is what decoding the rest of the block takes: the byte
    count of a stored block (its LEN/NLEN read and checked), the pair
    of decoders of a Huffman one.  Every field is tested against the
    bits the input really holds, so a header that runs out raises
    :class:`~repro.errors.InputTruncated` and can be read again from
    its first bit when there is more.
    """
    final = reader.read_bits(1)
    btype = reader.read_bits(2)
    if btype == BTYPE_STORED:
        reader.align_to_byte()
        header = reader.read_bytes(4)
        size = header[0] | (header[1] << 8)
        nsize = header[2] | (header[3] << 8)
        if size != (~nsize & 0xFFFF):
            raise DeflateError("stored block LEN/NLEN mismatch")
        return final, btype, size
    if btype == BTYPE_FIXED:
        return final, btype, fixed_decoders()
    if btype == BTYPE_DYNAMIC:
        return final, btype, _read_dynamic_header(reader)
    raise DeflateError("reserved block type 3")


def inflate_blocks(reader: BitReader, out: bytearray, budget: int,
                   stats: InflateStats, want_bytes: int | None = None,
                   resumable: bool = False) -> bool | None:
    """Decode whole blocks from ``reader`` onto the end of ``out``.

    The one stored/fixed/dynamic block loop for every one-shot decode:
    ``out`` arrives holding the back-reference window (history, or
    nothing at a member start) and may grow by at most ``budget`` bytes
    before :class:`OutputOverflow`.  Stops after the final block
    (returns True) or, returning False, after the first block that
    brings this call's output to ``want_bytes``.  With ``resumable`` the
    block that would pass the budget is undone instead: ``out``,
    ``stats`` and ``reader`` go back to its first bit (``stats.overrun``
    says how far it got) and the call returns None, for a decode to go
    on from there into more room.
    ``reader.bits_consumed`` is the next block's bit.
    """
    base = len(out)
    limit = base + budget
    while True:
        mark = (reader._pos, reader._bitbuf, reader._bitcount, len(out),
                stats.literals)
        final, btype, body = read_block_header(reader)
        stats.blocks.append(btype)
        start = reader.bits_consumed
        try:
            if btype == BTYPE_STORED:
                out.extend(reader.read_bytes(body))
                stats.literals += body
                if len(out) > limit:
                    raise OutputOverflow("output exceeds allowed size")
            else:
                _inflate_huffman_block(reader, out, *body, stats, limit)
        except OutputOverflow:
            if not resumable:
                raise
            stats.overrun = (reader.bits_consumed - start, len(out) - mark[3])
            (reader._pos, reader._bitbuf, reader._bitcount, size,
             stats.literals) = mark
            del out[size:]
            stats.blocks.pop()
            return None
        if final:
            return True
        if want_bytes is not None and len(out) - base >= want_bytes:
            return False


def inflate_core(data: bytes, start: int = 0,
                 max_output: int = NO_BOUND,
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
