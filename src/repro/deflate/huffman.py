"""Canonical Huffman coding for DEFLATE.

Three pieces live here:

* :func:`limited_code_lengths` — optimal length-limited code construction
  via the package-merge algorithm (the hardware DHT generator and the
  software baseline both build on it);
* :func:`canonical_codes` — RFC 1951 canonical code assignment from a list
  of code lengths;
* :class:`HuffmanEncoder` / :class:`HuffmanDecoder` — bit-level symbol
  encode/decode against a canonical code.

The decoder's fast path is a root table: a plain ``list`` of
``1 << root_bits`` ints, one per pattern of the next ``root_bits``
stream bits, each ``sym << 4 | code_length`` — so a literal of the
lit/len alphabet is the only kind of entry below 4096 — or ``MISS`` for
a pattern whose code is longer than the root (or that no code owns).
It is built in a single canonical walk over the ``(length,
symbol)``-sorted symbols, and a symbol's entries are written by one
extended-slice assignment (``table[prefix::1 << length] = [entry] *
copies``): a few hundred C-speed stores per block instead of one
interpreter iteration per table slot.  The length and distance
alphabets of a block (:func:`block_decoders`) get a parallel list of
*rows* from the same walk: at the index of every in-table symbol that
carries a value, ``(code bits, extra-bit mask, base value, code + extra
bits)``, so the inflate hot loop (``inflate._inflate_huffman_block``)
turns one probe into a finished length or distance and only calls
:meth:`HuffmanDecoder.walk`, the bit-by-bit counting walk of Mark
Adler's *puff*, where a row is ``None``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from operator import add

from ..errors import HuffmanError, InputTruncated
from .bitio import BitReader, BitWriter
from .constants import (
    DIST_BASE,
    DIST_EXTRA_BITS,
    END_OF_BLOCK,
    LENGTH_BASE,
    LENGTH_EXTRA_BITS,
    MAX_CODELEN_CODE_LENGTH,
    fixed_dist_lengths,
    fixed_litlen_lengths,
)

_ROOT_BITS = 11  # root table covers codes up to this many bits
_ROOT_MASK = (1 << _ROOT_BITS) - 1

#: Root-table entry of a bit pattern the table does not resolve; above
#: every ``sym << 4 | length`` entry.
MISS = 1 << 20

# (extra bits, base value) of each symbol that carries a value: lengths
# are symbols 257..285 of the lit/len alphabet, 286/287 and distance
# symbols 30/31 can be coded (the fixed codes do) but are never valid.
_LITLEN_EXTRA = ((None,) * (END_OF_BLOCK + 1)
                 + tuple(zip(LENGTH_EXTRA_BITS, LENGTH_BASE)) + (None, None))
_DIST_EXTRA = tuple(zip(DIST_EXTRA_BITS, DIST_BASE)) + (None, None)

# 8-bit reversal table; wider reversals compose two byte lookups.
_REV8 = tuple(
    sum(((value >> bit) & 1) << (7 - bit) for bit in range(8))
    for value in range(256)
)


def _reverse_bits(value: int, nbits: int) -> int:
    """Reverse the low ``nbits`` bits of ``value`` (nbits <= 16)."""
    rev16 = (_REV8[value & 0xFF] << 8) | _REV8[(value >> 8) & 0xFF]
    return rev16 >> (16 - nbits)


def limited_code_lengths(freqs: Sequence[int], max_length: int) -> list[int]:
    """Return optimal code lengths bounded by ``max_length``.

    Package-merge by counting: a level is a sorted list of weights,
    leaves (ranked by weight, then symbol) first on a tie; its first
    ``m`` items are its first ``m - p`` leaves and the first ``2p``
    items of the level below, packaged, and a symbol's length is how
    many levels take its leaf.  Symbols with zero frequency get length
    0; a single-symbol alphabet gets length 1 (DEFLATE cannot express a
    zero-bit code).
    """
    used = [i for i, f in enumerate(freqs) if f > 0]
    lengths = [0] * len(freqs)
    if not used:
        return lengths
    if len(used) == 1:
        lengths[used[0]] = 1
        return lengths
    if len(used) > (1 << max_length):
        raise HuffmanError(
            f"{len(used)} symbols cannot fit in {max_length}-bit codes")

    ranked = sorted(used, key=freqs.__getitem__)  # stable: ties by symbol
    leaves = [freqs[sym] for sym in ranked]
    levels = [leaves]
    for _ in range(max_length - 1):
        below = levels[-1]
        levels.append(sorted(leaves + list(map(add, below[::2], below[1::2]))))

    taken = []  # leaves taken at each level, top level first
    take = 2 * len(used) - 2
    for level in reversed(levels):
        # Every item lighter than the last one taken is taken, and of
        # those as heavy as it the leaves come first (weights are > 0).
        weight = level[take - 1] if take else 0
        lighter = bisect_left(leaves, weight)
        leaf_count = lighter + min(bisect_right(leaves, weight) - lighter,
                                   take - bisect_left(level, weight))
        taken.append(leaf_count)
        take = 2 * (take - leaf_count)
    taken.sort()  # rank r is taken by every level taking more than r
    for rank, sym in enumerate(ranked):
        lengths[sym] = len(taken) - bisect_right(taken, rank)
    return lengths


def canonical_codes(lengths: Sequence[int]) -> list[int]:
    """Assign canonical code values per RFC 1951 section 3.2.2.

    Returned codes are in natural (MSB-first) order; callers that write
    them LSB-first must bit-reverse (see :class:`HuffmanEncoder`).
    """
    max_length = max(lengths, default=0)
    bl_count = [0] * (max_length + 1)
    for length in lengths:
        if length:
            bl_count[length] += 1

    code = 0
    next_code = [0] * (max_length + 1)
    for bits in range(1, max_length + 1):
        code = (code + bl_count[bits - 1]) << 1
        next_code[bits] = code
        if next_code[bits] + bl_count[bits] > (1 << bits):
            raise HuffmanError(f"over-subscribed code at length {bits}")

    codes = [0] * len(lengths)
    for sym, length in enumerate(lengths):
        if length:
            codes[sym] = next_code[length]
            next_code[length] += 1
    return codes


def kraft_sum(lengths: Sequence[int]) -> float:
    """Kraft inequality sum; exactly 1.0 for a complete prefix code."""
    return sum(2.0 ** -length for length in lengths if length)


class HuffmanEncoder:
    """Encodes symbols of one canonical code into a :class:`BitWriter`."""

    def __init__(self, lengths: Sequence[int]) -> None:
        self.lengths = list(lengths)
        natural = canonical_codes(lengths)
        self.codes = [
            _reverse_bits(code, length) if length else 0
            for code, length in zip(natural, lengths)
        ]

    def encode(self, writer: BitWriter, symbol: int) -> None:
        length = self.lengths[symbol]
        if not length:
            raise HuffmanError(f"symbol {symbol} has no code")
        writer.write_bits(self.codes[symbol], length)


class HuffmanDecoder:
    """Decodes one canonical code from a :class:`BitReader`.

    ``table`` is the root table: ``1 << root_bits`` ints indexed by the
    next ``root_bits`` stream bits, each ``sym << 4 | code_length`` or
    ``MISS`` (a code longer than the root, or a pattern no code of an
    incomplete code owns — resolved by :meth:`walk`, the counting method
    of Mark Adler's *puff*).  A decoder built with ``extra`` — per symbol
    ``(extra bits, base value)`` or ``None`` — also carries ``rows``, a
    parallel list holding :meth:`row` at the indexes of the symbols
    that have one and ``None`` everywhere else.

    An *incomplete* code is accepted only in the single-code case, which
    RFC 1951 tolerates for distance codes; a code with no symbol at all
    only with ``allow_empty`` (a block of literals alone may send that
    as its distance code): every probe of it is a ``MISS``.
    """

    def __init__(self, lengths: Sequence[int], root_bits: int = _ROOT_BITS,
                 extra: Sequence[tuple[int, int] | None] | None = None,
                 allow_empty: bool = False) -> None:
        self.max_length = max(lengths, default=0)
        if self.max_length == 0 and not allow_empty:
            raise HuffmanError("decoder built from an empty code")
        self.count = [0] * (self.max_length + 1)
        ncodes = 0
        for length in lengths:
            if length:
                self.count[length] += 1
                ncodes += 1

        left = 1  # spare code space while walking lengths
        for bits in range(1, self.max_length + 1):
            left = (left << 1) - self.count[bits]
            if left < 0:
                raise HuffmanError("over-subscribed Huffman code")
        if left > 0 and ncodes > 1:
            raise HuffmanError("incomplete Huffman code")

        # Symbols sorted by (length, symbol), as canonical order demands.
        offsets = [0] * (self.max_length + 2)
        for bits in range(1, self.max_length + 1):
            offsets[bits + 1] = offsets[bits] + self.count[bits]
        self.symbols = [0] * ncodes
        for sym, length in enumerate(lengths):
            if length:
                self.symbols[offsets[length]] = sym
                offsets[length] += 1

        self.root_bits = root_bits
        self._extra = extra
        self._build_root_table()

    def row(self, sym: int, nbits: int) -> tuple[int, int, int, int] | None:
        """What a probe that lands on ``sym`` (an ``nbits``-bit code)
        needs to finish the field: ``(code bits, extra-bit mask, base
        value, code + extra bits)``; ``None`` for a symbol that carries
        no value (a literal, end-of-block, a reserved symbol)."""
        extra = self._extra[sym]
        if extra is None:
            return None
        extra_bits, base = extra
        return nbits, (1 << extra_bits) - 1, base, nbits + extra_bits

    def _build_root_table(self) -> None:
        """Root table (and rows), built in one canonical walk.

        ``self.symbols`` is already in (length, symbol) canonical order,
        so walking it while advancing the canonical code counter yields
        every code without a second :func:`canonical_codes` pass.  A
        code of ``length`` bits owns every index whose low ``length``
        bits are the reversed code: one extended-slice assignment.
        """
        size = 1 << self.root_bits
        table = [MISS] * size
        extra = self._extra
        rows = None if extra is None else [None] * size
        rev8 = _REV8
        code = 0
        index = 0
        for length in range(1, min(self.max_length, self.root_bits) + 1):
            step = 1 << length
            copies = size >> length
            stop = index + self.count[length]
            for sym in self.symbols[index:stop]:
                rev16 = (rev8[code & 0xFF] << 8) | rev8[(code >> 8) & 0xFF]
                prefix = rev16 >> (16 - length)
                table[prefix::step] = [(sym << 4) | length] * copies
                if extra is not None and extra[sym] is not None:
                    rows[prefix::step] = [self.row(sym, length)] * copies
                code += 1
            index = stop
            code <<= 1
        self.table = table
        self.rows = rows

    def decode(self, reader: BitReader) -> int:
        entry = self.table[reader.peek_bits(self.root_bits)]
        if entry != MISS:
            reader.skip_bits(entry & 15)
            return entry >> 4
        reader.peek_bits(self.max_length)  # buffer all a code can take
        sym, nbits = self.walk(reader._bitbuf, reader._bitcount)
        reader.skip_bits(nbits)
        return sym

    def walk(self, bitbuf: int, bitcount: int) -> tuple[int, int]:
        """``(symbol, code length)`` of the code at the low end of
        ``bitbuf``, found bit by bit; ``bitcount`` is how many of those
        bits the stream really holds (the rest read as zero)."""
        code = 0
        first = 0
        index = 0
        for length in range(1, self.max_length + 1):
            if length > bitcount:
                raise InputTruncated("unexpected end of DEFLATE stream")
            code |= bitbuf & 1
            bitbuf >>= 1
            count = self.count[length]
            if code - first < count:
                return self.symbols[index + (code - first)], length
            index += count
            first = (first + count) << 1
            code <<= 1
        raise HuffmanError("ran out of codes while decoding")


def codelen_decoder(lengths: Sequence[int]) -> HuffmanDecoder:
    """Decoder of a dynamic header's code-length alphabet: its codes
    are at most 7 bits, so a 128-slot root table holds all of them."""
    return HuffmanDecoder(lengths, root_bits=MAX_CODELEN_CODE_LENGTH)


def block_decoders(lit_lengths: Sequence[int], dist_lengths: Sequence[int]
                   ) -> tuple[HuffmanDecoder, HuffmanDecoder]:
    """The lit/len and distance decoders of one block, with rows.

    RFC 1951 section 3.2.7: a block of literals alone may send a
    distance code with no symbol in it; a lit/len code may not be empty.
    """
    return (HuffmanDecoder(lit_lengths, extra=_LITLEN_EXTRA),
            HuffmanDecoder(dist_lengths, extra=_DIST_EXTRA,
                           allow_empty=True))


_FIXED_DECODERS: tuple[HuffmanDecoder, HuffmanDecoder] | None = None
_FIXED_ENCODERS: tuple[HuffmanEncoder, HuffmanEncoder] | None = None


def fixed_decoders() -> tuple[HuffmanDecoder, HuffmanDecoder]:
    """Module-level cache of the RFC 1951 fixed-code decoders.

    Fixed blocks are common in small streams; rebuilding the 288-symbol
    decoder (and its root table) per block was pure waste.
    """
    global _FIXED_DECODERS
    if _FIXED_DECODERS is None:
        _FIXED_DECODERS = block_decoders(fixed_litlen_lengths(),
                                         fixed_dist_lengths())
    return _FIXED_DECODERS


def fixed_encoders() -> tuple[HuffmanEncoder, HuffmanEncoder]:
    """Module-level cache of the RFC 1951 fixed-code encoders."""
    global _FIXED_ENCODERS
    if _FIXED_ENCODERS is None:
        _FIXED_ENCODERS = (HuffmanEncoder(fixed_litlen_lengths()),
                           HuffmanEncoder(fixed_dist_lengths()))
    return _FIXED_ENCODERS
