"""Incremental DEFLATE decoding: feed arbitrary chunks, get output.

The one-shot :func:`repro.deflate.inflate.inflate` needs the whole
stream; the continuation units of the streaming compressor are decodable
unit-by-unit; but a *general* consumer (a proxy, a tape restore) receives
arbitrary byte chunks that can split the stream anywhere — mid-code,
mid-header, mid-stored-block.  :class:`InflateStream` handles that:

* ``feed(chunk)`` buffers input and decodes as far as it safely can,
  returning the newly produced plaintext;
* ``finish()`` decodes the remainder (it is an error if the stream is
  incomplete) and returns the final bytes.

Safety rule: while more input may arrive, an element is only decoded if
at least ``_SAFE_BITS`` bits are buffered — an upper bound on any single
DEFLATE element (longest litlen code + length extra + longest distance
code + distance extra = 15+5+15+13 = 48 bits) — so the canonical decoder
can never run off the end or mis-decode zero-padding.  ``finish()``
drops the guard, at which point one-shot semantics apply.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import DeflateError, OutputOverflow
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
)
from .huffman import HuffmanDecoder, codelen_decoder, fixed_decoders
from .inflate import dynamic_decoders, read_dynamic_counts

_SAFE_BITS = 64  # > any single element (48) and any header slice


class _State(enum.Enum):
    BLOCK_HEADER = "block-header"
    STORED_LEN = "stored-len"
    STORED_DATA = "stored-data"
    DYN_COUNTS = "dyn-counts"
    DYN_CODELEN = "dyn-codelen"
    DYN_LENGTHS = "dyn-lengths"
    SYMBOLS = "symbols"
    DONE = "done"


@dataclass
class InflateStream:
    """Resumable raw-DEFLATE decoder."""

    history: bytes = b""
    max_output: int = 1 << 31
    _out: bytearray = field(init=False, repr=False)
    _base: int = field(init=False)

    def __post_init__(self) -> None:
        window = self.history[-32768:]
        self._out = bytearray(window)
        self._base = len(window)
        self._emitted = self._base
        self._buf = bytearray()
        self._bits_consumed = 0  # within _buf
        self._state = _State.BLOCK_HEADER
        self._final_block = False
        self._stored_left = 0
        self._lit_dec: HuffmanDecoder | None = None
        self._dist_dec: HuffmanDecoder | None = None
        # dynamic-header progress
        self._hlit = 0
        self._hdist = 0
        self._hclen = 0
        self._cl_lengths: list[int] = []
        self._cl_read = 0
        self._cl_dec: HuffmanDecoder | None = None
        self._lengths: list[int] = []

    # -- public API ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._state is _State.DONE

    def feed(self, chunk: bytes) -> bytes:
        """Buffer ``chunk``; decode what is safe; return new plaintext."""
        if self._state is _State.DONE and chunk:
            raise DeflateError("data after final block")
        self._buf.extend(chunk)
        return self._drain(conservative=True)

    def finish(self) -> bytes:
        """No more input: decode to the end of the stream."""
        out = self._drain(conservative=False)
        if self._state is not _State.DONE:
            raise DeflateError("truncated DEFLATE stream")
        return out

    def unused_bytes(self) -> bytes:
        """Bytes past the final block (container trailers)."""
        if self._state is not _State.DONE:
            raise DeflateError("stream not finished")
        start = (self._bits_consumed + 7) // 8
        return bytes(self._buf[start:])

    @property
    def trailing_garbage_bytes(self) -> int:
        """How many fed bytes lie past the final block (0 while decoding).

        ``unused_bytes()`` hands the bytes back but their *count* used to
        be implicit; container layers that only need to account for a
        trailer (or report junk after it) read this without copying.
        """
        if self._state is not _State.DONE:
            return 0
        return len(self._buf) - (self._bits_consumed + 7) // 8

    # -- the resumable decode loop --------------------------------------------

    def _available_bits(self) -> int:
        return len(self._buf) * 8 - self._bits_consumed

    def _drain(self, conservative: bool) -> bytes:
        start_emit = self._emitted
        while self._state is not _State.DONE:
            if conservative and self._available_bits() < _SAFE_BITS \
                    and self._state is not _State.STORED_DATA:
                break
            if not self._step(conservative):
                break
        # Slice the new output BEFORE compaction can trim it away.
        new = bytes(self._out[start_emit - self._trimmed:
                              self._emitted - self._trimmed])
        self._compact()
        return new

    def _step(self, conservative: bool) -> bool:
        """Decode one element; returns False if it needs more input."""
        reader = BitReader(bytes(self._buf),
                           start=self._bits_consumed // 8)
        pre = self._bits_consumed % 8
        if pre:
            reader._fill(pre)
            reader.skip_bits(pre)

        try:
            advanced = self._dispatch(reader, conservative)
        except DeflateError as exc:
            if conservative and "unexpected end" in str(exc):
                return False
            raise
        if advanced:
            # bits_consumed of this reader is absolute within _buf
            self._bits_consumed = reader.bits_consumed
        return advanced

    def _dispatch(self, reader: BitReader, conservative: bool) -> bool:
        state = self._state
        if state is _State.BLOCK_HEADER:
            return self._do_block_header(reader)
        if state is _State.STORED_LEN:
            return self._do_stored_len(reader)
        if state is _State.STORED_DATA:
            return self._do_stored_data(reader)
        if state is _State.DYN_COUNTS:
            return self._do_dyn_counts(reader)
        if state is _State.DYN_CODELEN:
            return self._do_dyn_codelen(reader)
        if state is _State.DYN_LENGTHS:
            return self._do_dyn_lengths(reader, conservative)
        if state is _State.SYMBOLS:
            return self._do_symbols(reader, conservative)
        raise AssertionError(state)

    # -- element decoders ------------------------------------------------------

    def _do_block_header(self, reader: BitReader) -> bool:
        self._final_block = bool(reader.read_bits(1))
        btype = reader.read_bits(2)
        if btype == BTYPE_STORED:
            self._state = _State.STORED_LEN
        elif btype == BTYPE_FIXED:
            self._lit_dec, self._dist_dec = fixed_decoders()
            self._state = _State.SYMBOLS
        elif btype == BTYPE_DYNAMIC:
            self._state = _State.DYN_COUNTS
        else:
            raise DeflateError("reserved block type 3")
        return True

    def _do_stored_len(self, reader: BitReader) -> bool:
        reader.align_to_byte()
        header = reader.read_bytes(4)
        size = header[0] | (header[1] << 8)
        nsize = header[2] | (header[3] << 8)
        if size != (~nsize & 0xFFFF):
            raise DeflateError("stored block LEN/NLEN mismatch")
        self._stored_left = size
        self._state = _State.STORED_DATA
        return True

    def _do_stored_data(self, reader: BitReader) -> bool:
        if self._stored_left == 0:
            self._end_block()
            return True
        available = (len(self._buf) * 8 - reader.bits_consumed) // 8
        take = min(self._stored_left, available)
        if take == 0:
            raise DeflateError("unexpected end of DEFLATE stream")
        chunk = reader.read_bytes(take)
        self._emit(chunk)
        self._stored_left -= take
        if self._stored_left == 0:
            self._end_block()
        return True

    def _do_dyn_counts(self, reader: BitReader) -> bool:
        self._hlit, self._hdist, self._hclen = read_dynamic_counts(reader)
        self._cl_lengths = [0] * NUM_CODELEN_SYMBOLS
        self._cl_read = 0
        self._lengths = []
        self._state = _State.DYN_CODELEN
        return True

    def _do_dyn_codelen(self, reader: BitReader) -> bool:
        while self._cl_read < self._hclen:
            value = reader.read_bits(3)
            self._cl_lengths[CODELEN_ORDER[self._cl_read]] = value
            self._cl_read += 1
            if reader.bits_consumed > len(self._buf) * 8 - _SAFE_BITS:
                self._bits_consumed = reader.bits_consumed
                return True
        self._cl_dec = codelen_decoder(self._cl_lengths)
        self._state = _State.DYN_LENGTHS
        return True

    def _do_dyn_lengths(self, reader: BitReader,
                        conservative: bool) -> bool:
        target = self._hlit + self._hdist
        progressed = False
        while len(self._lengths) < target:
            if conservative and (len(self._buf) * 8
                                 - reader.bits_consumed) < _SAFE_BITS:
                self._bits_consumed = reader.bits_consumed
                return progressed
            sym = self._cl_dec.decode(reader)
            if sym < 16:
                self._lengths.append(sym)
            elif sym == 16:
                if not self._lengths:
                    raise DeflateError("repeat with no previous length")
                self._lengths.extend(
                    [self._lengths[-1]] * (3 + reader.read_bits(2)))
            elif sym == 17:
                self._lengths.extend([0] * (3 + reader.read_bits(3)))
            else:
                self._lengths.extend([0] * (11 + reader.read_bits(7)))
            self._bits_consumed = reader.bits_consumed
            progressed = True
        self._lit_dec, self._dist_dec = dynamic_decoders(
            self._lengths, self._hlit, self._hdist)
        self._state = _State.SYMBOLS
        return True

    def _do_symbols(self, reader: BitReader, conservative: bool) -> bool:
        progressed = False
        while True:
            if conservative and (len(self._buf) * 8
                                 - reader.bits_consumed) < _SAFE_BITS:
                return progressed
            sym = self._lit_dec.decode(reader)
            if sym < 256:
                self._emit(bytes([sym]))
            elif sym == END_OF_BLOCK:
                self._bits_consumed = reader.bits_consumed
                self._end_block()
                return True
            else:
                if sym > 285:
                    raise DeflateError(f"invalid length symbol {sym}")
                idx = sym - 257
                length = LENGTH_BASE[idx] + reader.read_bits(
                    LENGTH_EXTRA_BITS[idx])
                dsym = self._dist_dec.decode(reader)
                if dsym > 29:
                    raise DeflateError(f"invalid distance symbol {dsym}")
                dist = DIST_BASE[dsym] + reader.read_bits(
                    DIST_EXTRA_BITS[dsym])
                if dist > len(self._out) + self._trimmed:
                    raise DeflateError(
                        "back-reference before start of output")
                start = len(self._out) - dist
                if start < 0:
                    raise DeflateError(
                        "back-reference beyond retained window")
                # Append as we copy: overlapping matches (dist < length)
                # must read bytes this very copy produces.
                out = self._out
                for k in range(length):
                    out.append(out[start + k])
                self._emitted += length
                if self._emitted - self._base > self.max_output:
                    raise OutputOverflow("output exceeds allowed size")
            self._bits_consumed = reader.bits_consumed
            progressed = True

    # -- output management -------------------------------------------------------

    _trimmed: int = 0

    def _emit(self, data: bytes) -> None:
        self._out.extend(data)
        self._emitted += len(data)
        if self._emitted - self._base > self.max_output:
            raise OutputOverflow("output exceeds allowed size")

    def _end_block(self) -> None:
        self._state = (_State.DONE if self._final_block
                       else _State.BLOCK_HEADER)

    def _compact(self) -> None:
        """Drop fully consumed input bytes and old output beyond the
        window, keeping memory bounded for unbounded streams."""
        drop = self._bits_consumed // 8
        if drop:
            del self._buf[:drop]
            self._bits_consumed -= drop * 8
        excess = len(self._out) - 32768
        if excess > 0:
            del self._out[:excess]
            self._trimmed += excess


def inflate_incremental(chunks: list[bytes], history: bytes = b"") -> bytes:
    """Convenience: run chunks through an :class:`InflateStream`."""
    stream = InflateStream(history=history)
    out = bytearray()
    for chunk in chunks:
        out += stream.feed(chunk)
    out += stream.finish()
    return bytes(out)
