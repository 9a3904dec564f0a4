"""LSB-first bit stream reader/writer used by the DEFLATE codec.

DEFLATE (RFC 1951 section 3.1.1) packs data elements starting at the least
significant bit of each byte.  Huffman codes are packed most-significant-
bit-first *of the code*, which the Huffman layer handles by pre-reversing
code bit patterns; this module only ever deals in LSB-first integers.

Both ends are batch-oriented kernels: the reader refills its bit buffer
eight bytes at a time through one ``int.from_bytes`` call (instead of one
byte per loop iteration), and the writer accumulates bits into one wide
int that is flushed in eight-byte chunks.  Python's arbitrary-precision
ints make the wide accumulator exact; the hot-path consumers
(``inflate._inflate_huffman_block``, ``compress._emit_tokens``) keep the
same ``_bitbuf``/``_bitcount``/``_pos`` fields in locals across symbols
and write them back once per run.

The reader's own methods test every field against the end of the input
as it is read (``read_bits`` and ``skip_bits`` raise the one
:class:`~repro.errors.InputTruncated`; a ``peek_bits`` past the end
reads zero bits, which is why ``skip_bits`` must test).  The inflate
block loop does not: while it holds the fields its refills run past the
end (``pos`` beyond ``len(data)``, the missing bytes counted as zero
bits), it tests "consumed more than the input holds" once per token, and
it puts ``_pos``/``_bitcount`` back to exact values before it hands the
reader back — so ``bits_consumed``, ``align_to_byte`` and
``read_bytes`` never see the padding.
"""

from __future__ import annotations

from ..errors import DeflateError, InputTruncated

_LOW64 = (1 << 64) - 1


class BitWriter:
    """Accumulates an LSB-first bit stream into a growing byte buffer.

    Invariant: ``_bitbuf`` holds the pending ``_bitcount`` (< 64) bits;
    everything older has been flushed to ``_out`` in 8-byte chunks.
    """

    def __init__(self) -> None:
        self._out = bytearray()
        self._bitbuf = 0
        self._bitcount = 0

    def write_bits(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` bits of ``value``, LSB first."""
        if nbits < 0 or nbits > 64:
            raise DeflateError(f"write_bits supports 0..64 bits, got {nbits}")
        self._bitbuf |= (value & ((1 << nbits) - 1)) << self._bitcount
        bitcount = self._bitcount + nbits
        if bitcount >= 64:
            self._out += (self._bitbuf & _LOW64).to_bytes(8, "little")
            self._bitbuf >>= 64
            bitcount -= 64
        self._bitcount = bitcount

    def align_to_byte(self) -> None:
        """Pad with zero bits up to the next byte boundary."""
        nbytes = (self._bitcount + 7) >> 3
        if nbytes:
            self._out += self._bitbuf.to_bytes(nbytes, "little")
            self._bitbuf = 0
            self._bitcount = 0

    def write_bytes(self, data: bytes) -> None:
        """Append raw bytes; the stream must be byte-aligned."""
        if self._bitcount & 7:
            raise DeflateError("write_bytes requires byte alignment")
        if self._bitcount:
            self._out += self._bitbuf.to_bytes(self._bitcount >> 3, "little")
            self._bitbuf = 0
            self._bitcount = 0
        self._out.extend(data)

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._out) * 8 + self._bitcount

    def getvalue(self) -> bytes:
        """Return the byte-aligned stream (flushes a partial final byte)."""
        self.align_to_byte()
        return bytes(self._out)


class BitReader:
    """Reads an LSB-first bit stream from a bytes-like object.

    ``_bitbuf`` buffers bits loaded from ``_data``; refills pull up to
    eight bytes per ``int.from_bytes`` call.  ``bits_consumed`` stays
    exact regardless of how far ahead the refill ran.
    """

    def __init__(self, data: bytes, start: int = 0) -> None:
        self._data = data
        self._pos = start  # next byte index
        self._bitbuf = 0
        self._bitcount = 0

    def _fill(self, need: int) -> None:
        """Buffer at least ``need`` bits or raise on stream end."""
        bitcount = self._bitcount
        while bitcount < need:
            chunk = self._data[self._pos:self._pos + 8]
            if not chunk:
                raise InputTruncated("unexpected end of DEFLATE stream")
            self._bitbuf |= int.from_bytes(chunk, "little") << bitcount
            self._pos += len(chunk)
            bitcount += len(chunk) << 3
        self._bitcount = bitcount

    def read_bits(self, nbits: int) -> int:
        """Consume and return ``nbits`` bits as an LSB-first integer."""
        bitcount = self._bitcount
        if bitcount < nbits:
            chunk = self._data[self._pos:self._pos + 8]
            self._bitbuf |= int.from_bytes(chunk, "little") << bitcount
            self._pos += len(chunk)
            bitcount += len(chunk) << 3
            if bitcount < nbits:
                raise InputTruncated("unexpected end of DEFLATE stream")
        value = self._bitbuf & ((1 << nbits) - 1)
        self._bitbuf >>= nbits
        self._bitcount = bitcount - nbits
        return value

    def peek_bits(self, nbits: int) -> int:
        """Return up to ``nbits`` upcoming bits without consuming them.

        Near the end of the stream fewer bits may be available; missing
        high bits read as zero, which suits canonical Huffman peeking.
        """
        data = self._data
        while self._bitcount < nbits and self._pos < len(data):
            chunk = data[self._pos:self._pos + 8]
            self._bitbuf |= int.from_bytes(chunk, "little") << self._bitcount
            self._pos += len(chunk)
            self._bitcount += len(chunk) << 3
        return self._bitbuf & ((1 << nbits) - 1)

    def skip_bits(self, nbits: int) -> None:
        """Consume ``nbits`` previously peeked bits.

        Asking for more bits than the stream holds means a truncated
        stream (zero-padded peeks can look decodable), so the error is
        the uniform end-of-stream one.
        """
        if nbits > self._bitcount:
            raise InputTruncated("unexpected end of DEFLATE stream")
        self._bitbuf >>= nbits
        self._bitcount -= nbits

    def align_to_byte(self) -> None:
        """Drop bits up to the next byte boundary."""
        drop = self._bitcount & 7
        self._bitbuf >>= drop
        self._bitcount -= drop

    def read_bytes(self, n: int) -> bytes:
        """Read ``n`` raw bytes; the stream must be byte-aligned."""
        if self._bitcount & 7:
            raise DeflateError("read_bytes requires byte alignment")
        out = bytearray()
        buffered = min(self._bitcount >> 3, n)
        if buffered:
            out += (self._bitbuf
                    & ((1 << (buffered << 3)) - 1)).to_bytes(buffered,
                                                             "little")
            self._bitbuf >>= buffered << 3
            self._bitcount -= buffered << 3
            n -= buffered
        if n > 0:
            if self._pos + n > len(self._data):
                raise InputTruncated("unexpected end of DEFLATE stream "
                                     "in stored data")
            out += self._data[self._pos:self._pos + n]
            self._pos += n
        return bytes(out)

    @property
    def bits_consumed(self) -> int:
        """Number of bits consumed from the underlying buffer so far."""
        return self._pos * 8 - self._bitcount


def reader_at(data: bytes, bit: int) -> BitReader:
    """A :class:`BitReader` positioned at an arbitrary *bit* offset."""
    reader = BitReader(data, start=bit >> 3)
    pre = bit & 7
    if pre:
        reader._fill(pre)
        reader.skip_bits(pre)
    return reader
