"""CRC-32 and Adler-32 implemented from scratch.

These mirror the checksums the gzip (RFC 1952) and zlib (RFC 1950)
containers carry, and the ones the NX accelerator computes inline with the
data pipe.  Both are incremental: ``crc32(b, crc32(a))`` equals
``crc32(a + b)``, matching the stdlib ``zlib`` calling convention.

The CRC is PCLMULQDQ-style folding in the widest register CPython has,
an arbitrary-precision ``int``.  CRC-32 reads each byte LSB first, so one
``translate`` that bit-reverses every byte makes the big-endian integer
of the buffer *be* the message polynomial M(x); the running register,
reversed the same way, is XORed into M's top 32 bits (the init
injection) and the CRC is ``M * x^32 mod P``.  A fold splits the integer
at bit ``k``: ``H*x^k + L == clmul(H, x^k mod P) + L (mod P)``, one
C-speed ``H << s`` and XOR per set bit ``s`` of the 32-bit constant.
``k`` halves per level and the value with it, plus up to 31 carry bits a
fold; below ``k`` = 256 a level costs more than the bytes it saves, so a
few more rounds there absorb the carries and the 32 bytes left go
through the byte table, which supplies the ``* x^32``.  Longer inputs
shift in a block at a time above that remainder (transient ints stay
O(block)); inputs under the measured crossover never leave the table.
Adler-32 batches each chunk through ``itertools.accumulate`` — exact
deferred modulo at any chunk size, unlike C's NMAX-bounded sums; at
1.6 ms per 64 KB and on no benchmark path it is left as it was.
"""

from __future__ import annotations

from itertools import accumulate

_CRC_POLY = 0xEDB88320  # reflected IEEE 802.3 polynomial
_FOLD_MIN_BYTES = 112  # measured crossover: below it the table loop wins
_FOLD_BLOCK_BYTES = 1 << 18  # bytes shifted in per round of folds
_FOLD_STOP_BITS = 256  # last fold level; the rest is the table's
_ADLER_MOD = 65521  # largest prime below 2**16
_ADLER_NMAX = 5552  # zlib's 8-bit overflow bound (kept for reference)
_ADLER_CHUNK = 1 << 16  # bounds the prefix-sum list, not the arithmetic

_BIT_REVERSE = bytes(int(f"{n:08b}"[::-1], 2) for n in range(256))


def _build_crc_table() -> tuple[int, ...]:
    table = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ _CRC_POLY if c & 1 else c >> 1
        table.append(c)
    return tuple(table)


_CRC_TABLE = _build_crc_table()


def _crc_bytes(data: bytes, crc: int) -> int:
    """The table loop on the raw register: small inputs and fold tails."""
    table = _CRC_TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc


def _fold(x: int, k: int, shifts: tuple[int, ...]) -> int:
    """``x`` with its part above bit ``k`` times ``x^k mod P`` added below."""
    high = x >> k
    if not high:
        return x
    folded = 0
    for s in shifts:
        folded ^= high << s
    return x & (1 << k) - 1 ^ folded


def _build_fold_levels() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``(k, set bits of x^k mod P)``, ``k`` halving from half a block to
    ``_FOLD_STOP_BITS``: each constant is the one below it squared."""
    def bits(c: int) -> tuple[int, ...]:
        return tuple(s for s in range(32) if c >> s & 1)
    rem = int(f"{_CRC_POLY:032b}"[::-1], 2)  # x^32 mod P, MSB first
    reduce = bits(rem)
    levels, k = [], 32
    while k < _FOLD_BLOCK_BYTES * 4:
        rem = _fold(rem << 32, 32, bits(rem))  # clmul(rem, rem)
        while rem >> 32:
            rem = _fold(rem, 32, reduce)
        k *= 2
        if k >= _FOLD_STOP_BITS:
            levels.append((k, bits(rem)))
    return tuple(reversed(levels))


_FOLD_LEVELS = _build_fold_levels()


def crc32(data: bytes, value: int = 0) -> int:
    """Update a CRC-32 with ``data`` and return the new checksum."""
    crc = (value & 0xFFFFFFFF) ^ 0xFFFFFFFF
    if len(data) < _FOLD_MIN_BYTES:
        return _crc_bytes(data, crc) ^ 0xFFFFFFFF
    view = memoryview(data)
    x = 0
    for pos in range(0, len(view), _FOLD_BLOCK_BYTES):
        block = view[pos:pos + _FOLD_BLOCK_BYTES]
        x = (x << 8 * len(block)
             ^ int.from_bytes(bytes(block).translate(_BIT_REVERSE), "big"))
        if not pos:  # the register meets the first 32 message bits
            x ^= int.from_bytes(crc.to_bytes(4, "little").translate(
                _BIT_REVERSE), "big") << 8 * len(block) - 32
        for k, shifts in _FOLD_LEVELS:
            x = _fold(x, k, shifts)
        while x >> k:  # the 31-bit carries the levels above left behind
            x = _fold(x, k, shifts)
    tail = x.to_bytes(_FOLD_STOP_BITS >> 3, "big").translate(_BIT_REVERSE)
    return _crc_bytes(tail, 0) ^ 0xFFFFFFFF


def adler32(data: bytes, value: int = 1) -> int:
    """Update an Adler-32 with ``data`` and return the new checksum."""
    s1 = value & 0xFFFF
    s2 = (value >> 16) & 0xFFFF
    n = len(data)
    pos = 0
    while pos < n:
        chunk = data[pos:pos + _ADLER_CHUNK]
        # acc[k] = s1 + sum of the first k bytes, so the new s2 is
        # s2 + sum(acc[1:]) and the new s1 is acc[-1].
        acc = list(accumulate(chunk, initial=s1))
        s2 = (s2 + sum(acc) - s1) % _ADLER_MOD
        s1 = acc[-1] % _ADLER_MOD
        pos += len(chunk)
    return (s2 << 16) | s1
