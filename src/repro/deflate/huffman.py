"""Canonical Huffman coding for DEFLATE.

Three pieces live here:

* :func:`limited_code_lengths` — optimal length-limited code construction
  via the package-merge algorithm (the hardware DHT generator and the
  software baseline both build on it);
* :func:`canonical_codes` — RFC 1951 canonical code assignment from a list
  of code lengths;
* :class:`HuffmanEncoder` / :class:`HuffmanDecoder` — bit-level symbol
  encode/decode against a canonical code.

The decoder's fast path is a flat ``array('H')`` lookup table covering
codes up to ``_ROOT_BITS`` bits, each entry packing ``sym << 5 | length``
(0 means "not in the table": fall back to the bit-by-bit counting walk of
Mark Adler's *puff*).  Bit reversal is table-driven, and the table is
built in a single canonical walk over the ``(length, symbol)``-sorted
symbols — no second :func:`canonical_codes` pass.  The inflate hot loop
(``inflate._inflate_huffman_block``) reads ``_fast`` directly and only
calls back into ``_decode_slow`` for codes longer than the root table.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

from ..errors import HuffmanError
from .bitio import BitReader, BitWriter

_ROOT_BITS = 11  # fast decode table covers codes up to this many bits
_ROOT_MASK = (1 << _ROOT_BITS) - 1

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

    Implements package-merge.  Symbols with zero frequency get length 0.
    A single-symbol alphabet gets length 1 (DEFLATE cannot express a
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

    # Items are (weight, serial, leaf_symbols).  The serial breaks weight
    # ties deterministically so output is stable across runs.
    serial = 0
    leaves = []
    for sym in used:
        leaves.append((freqs[sym], serial, (sym,)))
        serial += 1
    leaves.sort()

    current = list(leaves)
    for _ in range(max_length - 1):
        packages = []
        for k in range(0, len(current) - 1, 2):
            a, b = current[k], current[k + 1]
            packages.append((a[0] + b[0], serial, a[2] + b[2]))
            serial += 1
        current = sorted(leaves + packages)

    for item in current[:2 * len(used) - 2]:
        for sym in item[2]:
            lengths[sym] += 1
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

    def cost(self, symbol: int) -> int:
        """Bit cost of ``symbol`` (0 means the symbol is not in the code)."""
        return self.lengths[symbol]


class HuffmanDecoder:
    """Decodes one canonical code from a :class:`BitReader`.

    Uses the counting method of Mark Adler's *puff*, fronted by a flat
    ``2**_ROOT_BITS`` packed-``array`` lookup table for codes short
    enough to fit.  An *incomplete* code is accepted only in the
    single-code case, which RFC 1951 tolerates for distance codes.
    """

    def __init__(self, lengths: Sequence[int]) -> None:
        self.max_length = max(lengths, default=0)
        if self.max_length == 0:
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

        self._build_fast_table()

    def _build_fast_table(self) -> None:
        """Flat packed root table, built in one canonical walk.

        ``self.symbols`` is already in (length, symbol) canonical order,
        so walking it while advancing the canonical code counter yields
        every code without a second :func:`canonical_codes` pass.  Each
        entry packs ``sym << 5 | code_length``; 0 marks codes longer
        than ``_ROOT_BITS`` (or unused patterns of an incomplete code).
        """
        fast = array("H", bytes(2 << _ROOT_BITS))
        rev8 = _REV8
        code = 0
        index = 0
        table_size = 1 << _ROOT_BITS
        for length in range(1, min(self.max_length, _ROOT_BITS) + 1):
            for _ in range(self.count[length]):
                sym = self.symbols[index]
                rev16 = (rev8[code & 0xFF] << 8) | rev8[(code >> 8) & 0xFF]
                prefix = rev16 >> (16 - length)
                packed = (sym << 5) | length
                step = 1 << length
                for fill in range(prefix, table_size, step):
                    fast[fill] = packed
                index += 1
                code += 1
            code <<= 1
        self._fast = fast

    def decode(self, reader: BitReader) -> int:
        entry = self._fast[reader.peek_bits(_ROOT_BITS)]
        if entry:
            reader.skip_bits(entry & 31)
            return entry >> 5
        return self._decode_slow(reader)

    def _decode_slow(self, reader: BitReader) -> int:
        code = 0
        first = 0
        index = 0
        for length in range(1, self.max_length + 1):
            code |= reader.read_bits(1)
            count = self.count[length]
            if code - first < count:
                return self.symbols[index + (code - first)]
            index += count
            first = (first + count) << 1
            code <<= 1
        raise HuffmanError("ran out of codes while decoding")


_FIXED_DECODERS: tuple[HuffmanDecoder, HuffmanDecoder] | None = None
_FIXED_ENCODERS: tuple[HuffmanEncoder, HuffmanEncoder] | None = None


def fixed_decoders() -> tuple[HuffmanDecoder, HuffmanDecoder]:
    """Module-level cache of the RFC 1951 fixed-code decoders.

    Fixed blocks are common in small streams; rebuilding the 288-symbol
    decoder (and its 512-entry root table) per block was pure waste.
    """
    global _FIXED_DECODERS
    if _FIXED_DECODERS is None:
        from .constants import fixed_dist_lengths, fixed_litlen_lengths
        _FIXED_DECODERS = (HuffmanDecoder(fixed_litlen_lengths()),
                           HuffmanDecoder(fixed_dist_lengths()))
    return _FIXED_DECODERS


def fixed_encoders() -> tuple[HuffmanEncoder, HuffmanEncoder]:
    """Module-level cache of the RFC 1951 fixed-code encoders."""
    global _FIXED_ENCODERS
    if _FIXED_ENCODERS is None:
        from .constants import fixed_dist_lengths, fixed_litlen_lengths
        _FIXED_ENCODERS = (HuffmanEncoder(fixed_litlen_lengths()),
                           HuffmanEncoder(fixed_dist_lengths()))
    return _FIXED_ENCODERS
