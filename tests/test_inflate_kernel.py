"""The inflate kernel, one-shot and streamed, against a symbol-at-a-time
reference.

``inflate._inflate_huffman_block`` keeps the bit buffer in locals,
resolves a length or a distance with one probe of a packed row, refills
past the end of the input and tests for the end once per token; the
root tables under it are filled by slice assignment.  ``reference_inflate``
below is the decoder written one field at a time against
``BitReader`` and ``HuffmanDecoder.decode`` — every field tested against
the end of the input and the cap as it is read — and the kernel must
return the same output, the same ``InflateStats`` and the same bit
count, or raise the same error with the same message, for every input.
``InflateStream`` resumes that kernel over chunked input, so every
comparison is made again through it: the same bytes or the same error
whatever the feed size.
"""

import ast
import gzip
import pathlib
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backend import create_backend
from repro.deflate.bitio import BitReader, BitWriter, reader_at
from repro.deflate.compress import deflate
from repro.deflate.constants import (
    CODELEN_ORDER,
    DIST_BASE,
    DIST_EXTRA_BITS,
    END_OF_BLOCK,
    LENGTH_BASE,
    LENGTH_EXTRA_BITS,
    WINDOW_SIZE,
    fixed_dist_lengths,
    fixed_litlen_lengths,
)
from repro.deflate.containers import gzip_decompress
from repro.deflate.huffman import (
    MISS,
    HuffmanDecoder,
    HuffmanEncoder,
    _reverse_bits,
    block_decoders,
    canonical_codes,
    codelen_decoder,
    limited_code_lengths,
)
from repro.deflate.inflate import (
    InflateStats,
    inflate,
    inflate_blocks,
    inflate_core,
)
from repro.deflate.inflate_stream import InflateStream
from repro.errors import DeflateError, HuffmanError, OutputOverflow
from repro.workloads.generators import GENERATORS, generate

END = "unexpected end of DEFLATE stream"
#: What a cut stream observes: the one truncation type, with END.
CUT = ("InputTruncated", END)


# -- the contract ------------------------------------------------------------

def _reference_header(reader: BitReader) -> tuple[HuffmanDecoder,
                                                  HuffmanDecoder]:
    hlit = reader.read_bits(5) + 257
    hdist = reader.read_bits(5) + 1
    hclen = reader.read_bits(4) + 4
    if hlit > 286 or hdist > 30:
        raise DeflateError("too many length or distance symbols")
    cl_lengths = [0] * 19
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
    if lengths[END_OF_BLOCK] == 0:
        raise DeflateError("dynamic block has no end-of-block code")
    return (HuffmanDecoder(lengths[:hlit]),
            HuffmanDecoder(lengths[hlit:], allow_empty=True))


def reference_inflate(data, start: int = 0, max_output: int = 1 << 31,
                      history: bytes = b""):
    """``(output, (literals, matches, match_bytes, blocks), bits)``."""
    reader = BitReader(data, start=start)
    out = bytearray(history[-WINDOW_SIZE:])
    limit = len(out) + max_output
    base = len(out)
    literals = matches = match_bytes = 0
    blocks = []

    def emit(chunk: bytes) -> None:
        out.extend(chunk)
        if len(out) > limit:
            raise OutputOverflow("output exceeds allowed size")

    while True:
        final = reader.read_bits(1)
        btype = reader.read_bits(2)
        blocks.append(btype)
        if btype == 0:
            reader.align_to_byte()
            header = reader.read_bytes(4)
            size = header[0] | (header[1] << 8)
            if size != (~(header[2] | (header[3] << 8)) & 0xFFFF):
                raise DeflateError("stored block LEN/NLEN mismatch")
            emit(reader.read_bytes(size))
            literals += size
        elif btype == 3:
            raise DeflateError("reserved block type 3")
        else:
            if btype == 1:
                lit_dec = HuffmanDecoder(fixed_litlen_lengths())
                dist_dec = HuffmanDecoder(fixed_dist_lengths())
            else:
                lit_dec, dist_dec = _reference_header(reader)
            while True:
                sym = lit_dec.decode(reader)
                if sym < 256:
                    emit(bytes([sym]))
                    literals += 1
                    continue
                if sym == END_OF_BLOCK:
                    break
                if sym > 285:
                    raise DeflateError(f"invalid length symbol {sym}")
                length = LENGTH_BASE[sym - 257] + reader.read_bits(
                    LENGTH_EXTRA_BITS[sym - 257])
                dsym = dist_dec.decode(reader)
                if dsym > 29:
                    raise DeflateError(f"invalid distance symbol {dsym}")
                dist = DIST_BASE[dsym] + reader.read_bits(
                    DIST_EXTRA_BITS[dsym])
                if dist > len(out):
                    raise DeflateError(
                        "back-reference before start of output")
                for _ in range(length):
                    out.append(out[-dist])
                matches += 1
                match_bytes += length
                emit(b"")
        if final:
            return (bytes(out[base:]),
                    (literals, matches, match_bytes, blocks),
                    reader.bits_consumed)


def observed(decode, *args, **kwargs):
    """A decode's result, or its error, as plain comparable values."""
    try:
        out, stats, bits = decode(*args, **kwargs)
    except DeflateError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(stats, InflateStats):
        stats = (stats.literals, stats.matches, stats.match_bytes,
                 stats.blocks)
    return out, stats, bits


def stream_inflate(data, feed=None, start: int = 0, cls=InflateStream,
                   **kwargs):
    """The decode through an ``InflateStream``, ``feed`` bytes a call
    (``None``: all at once) up to the call that ends the stream."""
    data = bytes(data[start:])
    stream = cls(**kwargs)
    out = bytearray()
    for at in range(0, len(data), feed or max(1, len(data))):
        out += stream.feed(data[at:at + (feed or len(data))])
        if stream.finished:
            break
    return bytes(out + stream.finish()), None, None


#: Bytes a ``feed`` of the streamed decodes: every bit boundary, a size
#: coprime to everything, one that holds whole blocks, and the lot.
FEEDS = (1, 7, 4096, None)


def assert_inflate_equals_reference(data, feeds=FEEDS, **kwargs):
    """One-shot and streamed, the kernel says what the reference says:
    the same bytes, stats and bit count, or the same error."""
    got = observed(inflate_core, data, **kwargs)
    want = observed(reference_inflate, data, **kwargs)
    assert got == want
    if len(want) == 3:
        want = want[0], None, None  # a stream reports bytes alone
    for feed in feeds:
        assert observed(stream_inflate, data, feed, **kwargs) == want, feed
    return got


# -- hand-built blocks ---------------------------------------------------------

def huffman_block(writer: BitWriter, fields, lit_lengths=None,
                  dist_lengths=None, final: bool = True,
                  hlit: int | None = None, hdist: int | None = None) -> None:
    """One Huffman block, field by field.

    ``fields`` holds ``("L", sym)`` (a lit/len code), ``("D", sym)`` (a
    distance code) and ``("X", value, nbits)`` (extra bits).  Without
    ``lit_lengths`` the block is a fixed one; with them the header ships
    every length as a plain 4-bit code-length symbol (no repeats), for
    ``hlit`` / ``hdist`` symbols — padded with zeros when that is more
    than the vectors hold, so a header can claim too many.
    """
    writer.write_bits(1 if final else 0, 1)
    if lit_lengths is None:
        writer.write_bits(1, 2)
        lit_lengths = fixed_litlen_lengths()
        dist_lengths = fixed_dist_lengths()
    else:
        writer.write_bits(2, 2)
        hlit = len(lit_lengths) if hlit is None else hlit
        hdist = len(dist_lengths) if hdist is None else hdist
        writer.write_bits(hlit - 257, 5)
        writer.write_bits(hdist - 1, 5)
        writer.write_bits(19 - 4, 4)
        cl_lengths = [4] * 16 + [0] * 3  # complete: sixteen 4-bit codes
        for sym in CODELEN_ORDER:
            writer.write_bits(cl_lengths[sym], 3)
        cl_enc = HuffmanEncoder(cl_lengths)
        for length in (list(lit_lengths) + [0] * hlit)[:hlit]:
            cl_enc.encode(writer, length)
        for length in (list(dist_lengths) + [0] * hdist)[:hdist]:
            cl_enc.encode(writer, length)
    encoders = {"L": HuffmanEncoder(lit_lengths),
                "D": (HuffmanEncoder(dist_lengths) if any(dist_lengths)
                      else None)}
    for kind, *rest in fields:
        if kind == "X":
            writer.write_bits(*rest)
        else:
            encoders[kind].encode(writer, rest[0])


def literals_only_lengths(payload: bytes) -> list[int]:
    """A lit/len code over the bytes of ``payload`` and end-of-block."""
    freqs = [0] * 257
    for byte in payload:
        freqs[byte] += 1
    freqs[END_OF_BLOCK] = 1
    return limited_code_lengths(freqs, 15)


def no_distance_code_stream(payload: bytes, hdist: int) -> bytes:
    """RFC 1951 3.2.7: ``hdist`` distance lengths, all zero."""
    writer = BitWriter()
    huffman_block(writer, [("L", byte) for byte in payload]
                  + [("L", END_OF_BLOCK)], literals_only_lengths(payload),
                  [0] * hdist)
    return writer.getvalue()


def overlong_header_stream(hlit: int, hdist: int) -> bytes:
    """A header claiming ``hlit`` / ``hdist`` symbols, codes usable."""
    payload = b"overlong"
    lit_lengths = literals_only_lengths(payload) + [0] * (hlit - 257)
    writer = BitWriter()
    huffman_block(writer, [("L", byte) for byte in payload]
                  + [("L", END_OF_BLOCK)], lit_lengths, [1, 1], hlit=hlit,
                  hdist=hdist)
    return writer.getvalue()


#: ``(name, raw stream, plain text or None if stdlib refuses it)`` of two
#: header behaviours: no distance code, and too many symbols.
def header_fix_cases():
    payload = b"all literals, no distance code at all"
    for hdist in (1, 2):
        yield (f"no distance code, HDIST={hdist}",
               no_distance_code_stream(payload, hdist), payload)
    for hlit, hdist in ((287, 2), (288, 2), (257, 31), (257, 32)):
        yield (f"HLIT={hlit} HDIST={hdist}",
               overlong_header_stream(hlit, hdist), None)


def repeat_first_stream() -> bytes:
    """A dynamic header whose first code-length symbol is 16, "repeat
    the previous length", with no previous length to repeat."""
    writer = BitWriter()
    writer.write_bits(0b101, 3)          # final, dynamic
    writer.write_bits(0, 5 + 5 + 4)      # 257 / 1 / 4 code lengths
    for length in (1, 1, 0, 0):          # ... of symbols 16, 17, 18, 0
        writer.write_bits(length, 3)
    writer.write_bits(0, 1)              # symbol 16
    return writer.getvalue() + bytes(8)


def _long_code_lengths(symbols: list[int], size: int) -> list[int]:
    """Lengths 1, 2, ... 14, 15, 15 over sixteen ``symbols`` in order."""
    assert len(symbols) == 16
    lengths = [0] * size
    for rank, sym in enumerate(symbols):
        lengths[sym] = min(rank + 1, 15)
    return lengths


#: Sixteen lit/len symbols with codes of 1..15 bits: literals, lengths
#: and end-of-block on both sides of the 11-bit root table.
_LONG_LIT = _long_code_lengths(
    [ord("a"), 257, ord("b"), 265, ord("c"), 285, ord("d"), 270, ord("e"),
     258, ord("f"), ord("g"), 280, ord("h"), 284, END_OF_BLOCK], 286)
_LONG_DIST = _long_code_lengths([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                 13, 14, 15], 30)


def long_code_stream() -> bytes:
    """Every kind of field behind a 12-15 bit code, then end-of-block
    (15 bits) as the last thing in the input."""
    fields = [("L", ord(ch)) for ch in "abcdefgh" * 40]
    fields += [
        ("L", 257), ("D", 0),                               # short, short
        ("L", 280), ("X", 9, 4), ("D", 14), ("X", 77, 6),   # 13 and 15 bits
        ("L", ord("g")), ("L", ord("h")),                   # long literals
        ("L", 284), ("X", 30, 5), ("D", 11), ("X", 5, 4),   # 15 and 12 bits
        ("L", 258), ("D", 12), ("X", 0, 5),
        ("L", 285), ("D", 13), ("X", 31, 5),
        ("L", 270), ("X", 1, 2), ("D", 15), ("X", 1, 6),
        ("L", ord("f")),
        ("L", END_OF_BLOCK),
    ]
    writer = BitWriter()
    huffman_block(writer, fields, _LONG_LIT, _LONG_DIST)
    return writer.getvalue()


# -- streams -------------------------------------------------------------------

_STRATEGIES = {"default": zlib.Z_DEFAULT_STRATEGY, "fixed": zlib.Z_FIXED,
               "huffman_only": zlib.Z_HUFFMAN_ONLY, "rle": zlib.Z_RLE}


def stdlib_stream(data: bytes, level: int = 6, strategy: str = "default",
                  history: bytes = b"") -> bytes:
    kwargs = {"zdict": history} if history else {}
    comp = zlib.compressobj(level, zlib.DEFLATED, -15, 9,
                            _STRATEGIES[strategy], **kwargs)
    return comp.compress(data) + comp.flush()


def repo_stream(producer: str, data: bytes, history: bytes = b"") -> bytes:
    if producer == "software":
        return deflate(data, level=6, history=history).data
    machine = "z15" if producer == "dfltcc" else "POWER9"
    backend = create_backend(producer, machine=machine)
    try:
        return backend.compress(data, fmt="raw", history=history).output
    finally:
        backend.close()


_PRODUCERS = ([("stdlib", level, "default") for level in (1, 6, 9)]
              + [("stdlib", 6, strategy)
                 for strategy in ("fixed", "huffman_only", "rle")]
              + [(name, 6, "default")
                 for name in ("nx", "dfltcc", "software")])
_HISTORY = generate("markov_text", WINDOW_SIZE, seed=77)


def make_stream(producer, data: bytes, history: bytes) -> bytes:
    name, level, strategy = producer
    if name == "stdlib":
        return stdlib_stream(data, level, strategy, history)
    return repo_stream(name, data, history)


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(GENERATORS)),
           st.integers(min_value=1, max_value=6000),
           st.integers(min_value=0, max_value=9),
           st.sampled_from(_PRODUCERS), st.booleans())
    def test_valid_streams(self, family, size, seed, producer, primed):
        data = generate(family, size, seed=seed)
        history = _HISTORY if primed else b""
        if primed:
            # Text that recurs in the dictionary, so matches reach it.
            data = _HISTORY[seed * 100:seed * 100 + size // 2] + data
        stream = make_stream(producer, data, history)
        got = assert_inflate_equals_reference(stream, history=history)
        assert got[0] == data

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(GENERATORS)),
           st.sampled_from(_PRODUCERS[:6]), st.data())
    def test_damaged_streams(self, family, producer, draw):
        """A cut or a flipped byte ends in the reference's error."""
        data = generate(family, 1500, seed=3)
        stream = bytearray(make_stream(producer, data, b""))
        for _ in range(draw.draw(st.integers(0, 2))):
            at = draw.draw(st.integers(0, len(stream) - 1))
            stream[at] ^= draw.draw(st.integers(1, 255))
        cut = draw.draw(st.integers(0, len(stream)))
        assert_inflate_equals_reference(bytes(stream[:cut]))

    @pytest.mark.parametrize("producer", _PRODUCERS, ids=str)
    def test_start_offset_and_trailer(self, producer):
        data = generate("log_lines", 3000, seed=5)
        stream = b"\x1f\x8bjunk" + make_stream(producer, data, b"") + b"TRL"
        got = assert_inflate_equals_reference(stream, start=6)
        assert got[0] == data
        assert (got[2] + 7) // 8 == len(stream) - 3

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_buffer_types(self, wrap):
        data = generate("source_code", 5000, seed=2)
        stream = stdlib_stream(data)
        want = observed(inflate_core, stream)
        assert observed(inflate_core, wrap(stream)) == want
        cut = stream[:len(stream) // 2]
        assert (observed(inflate_core, wrap(cut))
                == observed(inflate_core, cut) == CUT)


class TestLongCodes:
    def test_every_walk_branch(self):
        stream = long_code_stream()
        got = assert_inflate_equals_reference(stream)
        assert got[0] == zlib.decompress(stream, -15)
        # End-of-block is a 15-bit code and the last bits of the input.
        assert len(stream) * 8 - got[2] < 8

    def test_every_cut_says_unexpected_end(self):
        stream = long_code_stream()
        for cut in range(len(stream)):
            assert assert_inflate_equals_reference(stream[:cut]) == CUT

    def test_every_flipped_bit(self):
        stream = long_code_stream()
        for bit in range(len(stream) * 8):
            damaged = bytearray(stream)
            damaged[bit >> 3] ^= 1 << (bit & 7)
            # A byte a feed reads the 158-byte header again at every
            # feed: 19 ms a case, so every ninth bit gets all of FEEDS.
            assert_inflate_equals_reference(
                bytes(damaged), feeds=(7, None) if bit % 9 else FEEDS)

    def test_long_codes_after_history(self):
        stream = long_code_stream()
        got = assert_inflate_equals_reference(stream, history=_HISTORY)
        assert got[0] == zlib.decompress(stream, -15)


class TestReservedSymbols:
    @pytest.mark.parametrize("sym", [286, 287])
    def test_reserved_length_symbol(self, sym):
        writer = BitWriter()
        huffman_block(writer, [("L", 65), ("L", sym), ("D", 0),
                               ("L", END_OF_BLOCK)])
        stream = writer.getvalue() + bytes(8)
        assert (assert_inflate_equals_reference(stream)
                == ("DeflateError", f"invalid length symbol {sym}"))
        with pytest.raises(zlib.error):
            zlib.decompress(stream, -15)

    @pytest.mark.parametrize("dsym", [30, 31])
    def test_reserved_distance_symbol(self, dsym):
        writer = BitWriter()
        huffman_block(writer, [("L", 65), ("L", 257), ("D", dsym),
                               ("L", END_OF_BLOCK)])
        stream = writer.getvalue() + bytes(8)
        assert (assert_inflate_equals_reference(stream)
                == ("DeflateError", f"invalid distance symbol {dsym}"))
        with pytest.raises(zlib.error):
            zlib.decompress(stream, -15)

    @pytest.mark.parametrize("fields,error", [
        ([("L", 287)], "invalid length symbol 287"),
        ([("L", 257), ("D", 31)], "invalid distance symbol 31"),
        ([("L", 257), ("D", 29), ("X", 0x1FFF, 13)],
         "back-reference before start of output"),
    ], ids=["length", "distance", "far"])
    def test_a_cut_inside_a_bad_token_is_the_end_of_input(self, fields,
                                                          error):
        """Zero padding must not be read as a (bad) symbol or distance:
        the token is cut at every bit offset of a byte."""
        for shift in range(8):
            writer = BitWriter()
            # Literal 200 is a 9-bit code: each one moves the token a bit.
            huffman_block(writer, [("L", 200)] * shift + fields)
            whole = writer.bit_length
            stream = writer.getvalue()
            assert (assert_inflate_equals_reference(stream + bytes(8))
                    == ("DeflateError", error))
            for cut in range(len(stream) + 1):
                want = CUT if cut * 8 < whole else ("DeflateError", error)
                assert assert_inflate_equals_reference(stream[:cut]) == want


class TestIncompleteDistanceCode:
    def test_one_code_distance_tree(self):
        """One 1-bit distance code: bit 0 is it, bit 1 is no code."""
        payload = b"abcabc"
        lit_lengths = limited_code_lengths(
            [int(sym in (97, 98, 99, END_OF_BLOCK, 257))
             for sym in range(258)], 15)
        fields = [("L", byte) for byte in b"abc"] + [
            ("L", 257), ("D", 2), ("L", END_OF_BLOCK)]
        writer = BitWriter()
        huffman_block(writer, fields, lit_lengths, [0, 0, 1])
        stream = writer.getvalue()
        got = assert_inflate_equals_reference(stream)
        assert got[0] == payload == zlib.decompress(stream, -15)

        # The same block with the distance field's bit set: no code.
        writer = BitWriter()
        huffman_block(writer, fields[:4] + [("X", 1, 1)] + fields[5:],
                      lit_lengths, [0, 0, 1])
        assert (assert_inflate_equals_reference(writer.getvalue())
                == ("HuffmanError", "ran out of codes while decoding"))


class TestOutputCap:
    def _stream(self):
        data = generate("log_lines", 300, seed=4)
        return data, stdlib_stream(data)

    def test_every_cap(self):
        data, stream = self._stream()
        for cap in range(len(data) + 2):
            got = assert_inflate_equals_reference(stream, max_output=cap)
            if cap < len(data):
                assert got == ("OutputOverflow",
                               "output exceeds allowed size")
            else:
                assert got[0] == data

    def test_caps_only_the_slow_path_sees(self):
        """Literals after the last refill are stopped at end-of-block,
        literals behind long codes only where the walk decodes them."""
        writer = BitWriter()
        huffman_block(writer, [("L", byte) for byte in b"hello"]
                      + [("L", END_OF_BLOCK)])
        after_last_refill = writer.getvalue()
        writer = BitWriter()
        huffman_block(writer, [("L", ord("h"))] * 40 + [("L", END_OF_BLOCK)],
                      _LONG_LIT, _LONG_DIST)  # "h" is a 14-bit code
        long_coded = writer.getvalue()
        for stream, size in ((after_last_refill, 5), (long_coded, 40)):
            for cap in range(size + 2):
                got = assert_inflate_equals_reference(stream, max_output=cap)
                assert (got[0] == "OutputOverflow") == (cap < size)

    @pytest.mark.parametrize("history", [b"", _HISTORY], ids=["", "primed"])
    def test_overshoot_is_bounded(self, history):
        data, _ = self._stream()
        streams = [stdlib_stream(data, history=history),
                   stdlib_stream(bytes(300), history=history),
                   # Literals alone: only the literal loop sees the cap.
                   stdlib_stream(generate("log_lines", 2000, seed=4),
                                 strategy="huffman_only")]
        for stream in streams:
            for cap in range(300):
                out = bytearray(history)
                with pytest.raises(OutputOverflow):
                    inflate_blocks(BitReader(stream), out, cap,
                                   InflateStats())
                assert cap < len(out) - len(history) <= cap + 258 + 64


class TestBlockBoundaries:
    def _three_blocks(self):
        """Huffman block ending mid-byte, stored block, Huffman block."""
        writer = BitWriter()
        huffman_block(writer, [("L", byte) for byte in b"first"]
                      + [("L", END_OF_BLOCK)], final=False)
        ends = [writer.bit_length]
        assert ends[0] % 8  # the stored block has padding to skip
        writer.write_bits(0, 3)
        writer.align_to_byte()
        writer.write_bytes(bytes([6, 0, 0xF9, 0xFF]) + b"stored")
        ends.append(writer.bit_length)
        huffman_block(writer, [("L", byte) for byte in b"last"]
                      + [("L", 259), ("D", 3), ("L", END_OF_BLOCK)])
        ends.append(writer.bit_length)
        return writer.getvalue(), ends

    def test_stored_block_aligns_after_a_huffman_block(self):
        stream, ends = self._three_blocks()
        got = assert_inflate_equals_reference(stream)
        assert got == (b"firststoredlastlastl", (15, 1, 5, [1, 0, 1]),
                       ends[-1])
        assert got[0] == zlib.decompress(stream, -15)

    def test_bits_consumed_is_exact_at_every_block_end(self):
        stream, ends = self._three_blocks()
        # Trailing bytes, so that refills run ahead of every block end.
        for tail in (b"", bytes(16)):
            bit, out = 0, bytearray()
            for end in ends:
                # One block a call, each resumed where the last one
                # stopped, as the seek-index walker resumes.
                reader = reader_at(stream + tail, bit)
                final = inflate_blocks(reader, out, 1 << 20,
                                       InflateStats(), want_bytes=1)
                bit = reader.bits_consumed
                assert bit == end
                assert final == (end == ends[-1])
            assert out == b"firststoredlastlastl"


# -- root tables ---------------------------------------------------------------

def per_entry_table(lengths, root_bits: int) -> list[int]:
    """The root table filled the old way: one store per slot."""
    table = [MISS] * (1 << root_bits)
    for sym, (code, length) in enumerate(zip(canonical_codes(lengths),
                                             lengths)):
        if 0 < length <= root_bits:
            for fill in range(_reverse_bits(code, length), 1 << root_bits,
                              1 << length):
                table[fill] = sym << 4 | length
    return table


@st.composite
def complete_codes(draw):
    """Length vectors of complete codes, longest code 1..15 bits."""
    max_length = draw(st.integers(1, 15))
    # A chain (depths 1, 2, ... max - 1, max, max) is complete; splitting
    # a leaf into two one level down keeps it so.
    leaves = list(range(1, max_length)) + [max_length] * 2
    for choice in draw(st.lists(st.integers(0, 1 << 16), max_size=270)):
        splittable = [i for i, depth in enumerate(leaves)
                      if depth < max_length]
        if not splittable:
            break
        at = splittable[choice % len(splittable)]
        leaves[at] += 1
        leaves.append(leaves[at])
    gaps = draw(st.lists(st.integers(0, 2), min_size=len(leaves),
                         max_size=len(leaves)))
    lengths = []
    for depth, gap in zip(draw(st.permutations(leaves)), gaps):
        lengths += [0] * gap + [depth]
    return lengths


class TestRootTable:
    @settings(max_examples=200, deadline=None)
    @given(complete_codes(), st.sampled_from([7, 9, 11]))
    def test_slice_fill_equals_per_entry_fill(self, lengths, root_bits):
        decoder = HuffmanDecoder(lengths, root_bits=root_bits)
        assert decoder.table == per_entry_table(lengths, root_bits)
        assert decoder.rows is None

    @pytest.mark.parametrize("lengths", [
        fixed_litlen_lengths(), fixed_dist_lengths(), _LONG_LIT, _LONG_DIST,
        [0, 1, 0], [1], [1, 1]], ids=str)
    def test_known_codes(self, lengths):
        assert (HuffmanDecoder(lengths).table
                == per_entry_table(lengths, 11))

    def test_rows_sit_where_their_symbols_do(self):
        for lit_lengths, dist_lengths in (
                (fixed_litlen_lengths(), fixed_dist_lengths()),
                (_LONG_LIT, _LONG_DIST)):
            lit_dec, dist_dec = block_decoders(lit_lengths, dist_lengths)
            for dec, first, bases, extras in (
                    (lit_dec, 257, LENGTH_BASE, LENGTH_EXTRA_BITS),
                    (dist_dec, 0, DIST_BASE, DIST_EXTRA_BITS)):
                for entry, row in zip(dec.table, dec.rows):
                    idx = (entry >> 4) - first
                    if entry == MISS or not 0 <= idx < len(bases):
                        assert row is None
                        continue
                    nbits = entry & 15
                    assert row == (nbits, (1 << extras[idx]) - 1,
                                   bases[idx], nbits + extras[idx])

    def test_empty_code_only_where_asked(self):
        with pytest.raises(HuffmanError, match="empty code"):
            HuffmanDecoder([0, 0])
        decoder = HuffmanDecoder([0, 0], allow_empty=True)
        assert set(decoder.table) == {MISS}
        with pytest.raises(HuffmanError, match="ran out of codes"):
            decoder.decode(BitReader(b"\x00\x00"))


# -- the two header fixes ------------------------------------------------------

def _via_backend(name: str, machine: str):
    def decode(raw: bytes) -> bytes:
        backend = create_backend(name, machine=machine)
        try:
            return backend.decompress(raw, fmt="raw").output
        finally:
            backend.close()
    return decode


def _as_gzip(raw: bytes, plain: bytes) -> bytes:
    header = gzip.compress(b"", mtime=0)[:10]
    return (header + raw + zlib.crc32(plain).to_bytes(4, "little")
            + len(plain).to_bytes(4, "little"))


def _via_stream(raw: bytes) -> bytes:
    return stream_inflate(raw, 1)[0]


_HEADER_CASES = list(header_fix_cases())


class TestHeaderFixes:
    @pytest.mark.parametrize("name,raw,plain", _HEADER_CASES[:2],
                             ids=[case[0] for case in _HEADER_CASES[:2]])
    def test_block_with_no_distance_code_decodes(self, name, raw, plain):
        assert zlib.decompress(raw, -15) == plain
        assert assert_inflate_equals_reference(raw)[0] == plain
        assert inflate(raw) == plain
        assert _via_stream(raw) == plain
        assert gzip_decompress(_as_gzip(raw, plain)) == plain
        assert gzip.decompress(_as_gzip(raw, plain)) == plain
        assert _via_backend("nx", "POWER9")(raw) == plain
        assert _via_backend("dfltcc", "z15")(raw) == plain

    def test_a_length_symbol_without_distance_code_is_an_error(self):
        lit_lengths = limited_code_lengths(
            [int(sym in (97, END_OF_BLOCK, 257)) for sym in range(258)], 15)
        writer = BitWriter()
        huffman_block(writer, [("L", 97), ("L", 257), ("X", 0, 8)],
                      lit_lengths, [0])
        raw = writer.getvalue()
        with pytest.raises(zlib.error):
            zlib.decompress(raw, -15)
        assert (assert_inflate_equals_reference(raw)
                == ("HuffmanError", "ran out of codes while decoding"))
        with pytest.raises(DeflateError):
            _via_stream(raw)

    def test_empty_litlen_and_codelen_codes_stay_errors(self):
        with pytest.raises(HuffmanError, match="empty code"):
            block_decoders([0] * 257, [1, 1])
        with pytest.raises(HuffmanError, match="empty code"):
            codelen_decoder([0] * 19)
        writer = BitWriter()
        writer.write_bits(0b101, 3)           # final, dynamic
        writer.write_bits(0, 5 + 5 + 4)       # 257 / 1 / 4 code lengths
        writer.write_bits(0, 4 * 3)           # ... all of them zero
        raw = writer.getvalue() + bytes(8)
        assert (assert_inflate_equals_reference(raw)
                == ("HuffmanError", "decoder built from an empty code"))
        with pytest.raises(HuffmanError, match="empty code"):
            _via_stream(raw)

    @pytest.mark.parametrize("name,raw,plain", _HEADER_CASES[2:],
                             ids=[case[0] for case in _HEADER_CASES[2:]])
    def test_too_many_symbols_is_refused(self, name, raw, plain):
        with pytest.raises(zlib.error, match="too many length or distance"):
            zlib.decompress(raw, -15)
        assert (assert_inflate_equals_reference(raw)
                == ("DeflateError", "too many length or distance symbols"))
        with pytest.raises(DeflateError, match="too many length or dist"):
            _via_stream(raw)

    def test_the_largest_legal_header_still_decodes(self):
        payload = b"overlong"
        lit_lengths = literals_only_lengths(payload) + [0] * 29
        writer = BitWriter()
        huffman_block(writer, [("L", byte) for byte in payload]
                      + [("L", END_OF_BLOCK)], lit_lengths, [1, 1] + [0] * 28)
        raw = writer.getvalue()
        assert len(lit_lengths) == 286
        assert zlib.decompress(raw, -15) == payload
        assert assert_inflate_equals_reference(raw)[0] == payload
        assert _via_stream(raw) == payload

    def test_a_repeat_with_nothing_to_repeat(self):
        assert (assert_inflate_equals_reference(repeat_first_stream())
                == ("DeflateError", "repeat code with no previous length"))


# -- one decoder ---------------------------------------------------------------

#: Every way a module under ``src/`` comes by a ``HuffmanDecoder``.
_DECODER_SOURCES = {"HuffmanDecoder", "block_decoders", "fixed_decoders",
                    "codelen_decoder", "read_block_header"}


def test_one_function_decodes_huffman_symbols():
    """A second loop over a decoder's tables is a second decoder: under
    ``src/`` one function reads the packed ``rows``, and nothing calls
    the symbol-at-a-time ``HuffmanDecoder.decode`` — that method stays
    for ``reference_inflate`` above, the oracle."""
    root = pathlib.Path(repro.__file__).parent
    row_readers, decode_calls = set(), []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        named = {getattr(node, "id", getattr(node, "name", None))
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.alias))}
        if not named & _DECODER_SOURCES:
            continue
        where = str(path.relative_to(root))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr == "rows" \
                        and isinstance(node.ctx, ast.Load):
                    row_readers.add(f"{where}:{func.name}")
                elif isinstance(node, ast.Call) and node.args \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "decode":
                    decode_calls.append(f"{where}:{node.lineno}")
    assert row_readers == {"deflate/inflate.py:_inflate_huffman_block"}
    assert not decode_calls, decode_calls
