"""Fixed tables from RFC 1951 shared by the compressor and decompressor."""

from __future__ import annotations

# Block types (the 2-bit BTYPE field).
BTYPE_STORED = 0
BTYPE_FIXED = 1
BTYPE_DYNAMIC = 2

# Symbol alphabet sizes.
NUM_LITLEN_SYMBOLS = 288  # 0..255 literals, 256 EOB, 257..285 lengths (+2 reserved)
NUM_DIST_SYMBOLS = 30
NUM_CODELEN_SYMBOLS = 19
END_OF_BLOCK = 256

MAX_MATCH = 258
MIN_MATCH = 3
WINDOW_SIZE = 32768
MAX_CODE_LENGTH = 15
MAX_CODELEN_CODE_LENGTH = 7

# Length codes 257..285: (extra bits, base length).  RFC 1951 section 3.2.5.
LENGTH_EXTRA_BITS = (
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
    3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
)
LENGTH_BASE = (
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
    35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
)

# Distance codes 0..29: (extra bits, base distance).
DIST_EXTRA_BITS = (
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
    7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
)
DIST_BASE = (
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
    257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
    8193, 12289, 16385, 24577,
)

# Order in which code-length code lengths appear in the dynamic header.
CODELEN_ORDER = (16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15)


def _build_length_code_lut() -> tuple[int, ...]:
    """Map match length (3..258) -> length symbol (257..285)."""
    lut = [0] * (MAX_MATCH + 1)
    for code, (base, extra) in enumerate(zip(LENGTH_BASE, LENGTH_EXTRA_BITS)):
        top = base + (1 << extra) - 1
        if code == len(LENGTH_BASE) - 1:
            top = base  # code 285 covers length 258 only
        for length in range(base, min(top, MAX_MATCH) + 1):
            lut[length] = 257 + code
    lut[MAX_MATCH] = 285
    return tuple(lut)


def _build_dist_code_lut() -> tuple[int, ...]:
    """Map distance (1..32768) -> distance symbol (0..29)."""
    lut = [0] * (WINDOW_SIZE + 1)
    for code, (base, extra) in enumerate(zip(DIST_BASE, DIST_EXTRA_BITS)):
        top = min(base + (1 << extra) - 1, WINDOW_SIZE)
        for dist in range(base, top + 1):
            lut[dist] = code
    return tuple(lut)


LENGTH_TO_CODE = _build_length_code_lut()
DIST_TO_CODE = _build_dist_code_lut()


def fixed_litlen_lengths() -> list[int]:
    """Code lengths of the fixed literal/length Huffman code."""
    lengths = [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8
    assert len(lengths) == NUM_LITLEN_SYMBOLS
    return lengths


def fixed_dist_lengths() -> list[int]:
    """Code lengths of the fixed distance code (all 5 bits).

    The code is complete over 32 symbols; 30 and 31 are reserved and
    never legal in a stream, but they must be present for the decoder to
    see a complete code (RFC 1951 section 3.2.6).
    """
    return [5] * 32
