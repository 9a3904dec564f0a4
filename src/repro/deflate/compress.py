"""Raw DEFLATE compression: token buffering, block choice, bit emission.

The compressor tokenizes with :mod:`repro.deflate.matcher`, splits the
token stream into blocks, and per block picks the cheapest of the three
RFC 1951 encodings (stored / fixed Huffman / dynamic Huffman) exactly the
way zlib does, by comparing the computed bit costs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..errors import DeflateError, HuffmanError
from ..obs.trace import TRACE as _TRACE
from .bitio import _LOW64, BitWriter
from .constants import (
    BTYPE_DYNAMIC,
    BTYPE_FIXED,
    BTYPE_STORED,
    CODELEN_ORDER,
    DIST_BASE,
    DIST_EXTRA_BITS,
    DIST_TO_CODE,
    END_OF_BLOCK,
    LENGTH_BASE,
    LENGTH_EXTRA_BITS,
    LENGTH_TO_CODE,
    MAX_CODE_LENGTH,
    MAX_CODELEN_CODE_LENGTH,
    NUM_CODELEN_SYMBOLS,
    NUM_DIST_SYMBOLS,
    NUM_LITLEN_SYMBOLS,
    fixed_dist_lengths,
    fixed_litlen_lengths,
)
from .huffman import HuffmanEncoder, fixed_encoders, limited_code_lengths
from .matcher import (MatchStats, Token, tokenize,
                      tokenize_huffman_only, tokenize_rle)

DEFAULT_BLOCK_TOKENS = 16384
_MAX_STORED_BLOCK = 65535

#: Extra bits after each repeat symbol of a code-length header.
_REPEAT_EXTRA_BITS = {16: 2, 17: 3, 18: 7}


@dataclass
class BlockPlan:
    """One DEFLATE block before emission, with its costed header."""

    tokens: list[Token]
    raw: bytes  # the original input bytes this block covers
    btype: int = BTYPE_DYNAMIC
    header: tuple[list, int, int, list[int]] | None = None
    encoders: tuple[HuffmanEncoder, HuffmanEncoder] | None = None
    cost_bits: int = 0


@dataclass
class CompressResult:
    """Compressed stream plus the statistics models consume."""

    data: bytes
    stats: MatchStats
    blocks: list[int]  # chosen btype per emitted block

    @property
    def ratio(self) -> float:
        n = self.stats.input_bytes
        return n / len(self.data) if self.data else 0.0


def token_frequencies(
        tokens: list[Token]) -> tuple[list[int], list[int]]:
    """Histogram tokens into literal/length and distance frequencies."""
    lit_freq = [0] * NUM_LITLEN_SYMBOLS
    dist_freq = [0] * NUM_DIST_SYMBOLS
    for tok in tokens:
        if isinstance(tok, int):
            lit_freq[tok] += 1
        else:
            length, dist = tok
            lit_freq[LENGTH_TO_CODE[length]] += 1
            dist_freq[DIST_TO_CODE[dist]] += 1
    lit_freq[END_OF_BLOCK] += 1
    return lit_freq, dist_freq


def payload_cost_bits(lit_freq: list[int], dist_freq: list[int],
                      lit_lengths: Sequence[int],
                      dist_lengths: Sequence[int]) -> int:
    """Bit cost of the token payload under the given codes."""
    bits = 0
    for sym, freq in enumerate(lit_freq):
        if freq:
            bits += freq * lit_lengths[sym]
            if sym > END_OF_BLOCK:
                bits += freq * LENGTH_EXTRA_BITS[sym - 257]
    for sym, freq in enumerate(dist_freq):
        if freq:
            bits += freq * (dist_lengths[sym] + DIST_EXTRA_BITS[sym])
    return bits


def _ensure_decodable(freq: list[int], lengths: list[int],
                      fill_syms: tuple[int, int]) -> list[int]:
    """Guarantee at least two coded symbols so the table is complete.

    zlib does the same for sparse distance alphabets; decoders otherwise
    see a degenerate one-code table.
    """
    coded = sum(1 for length in lengths if length)
    if coded >= 2:
        return lengths
    bumped = list(freq)
    for sym in fill_syms:
        if bumped[sym] == 0:
            bumped[sym] = 1
    return limited_code_lengths(bumped, MAX_CODE_LENGTH)


def build_dynamic_code(
        lit_freq: list[int],
        dist_freq: list[int]) -> tuple[list[int], list[int]]:
    """Build bounded code lengths for both alphabets of one block."""
    lit_lengths = limited_code_lengths(lit_freq, MAX_CODE_LENGTH)
    lit_lengths = _ensure_decodable(lit_freq, lit_lengths, (0, END_OF_BLOCK))
    dist_lengths = limited_code_lengths(dist_freq, MAX_CODE_LENGTH)
    dist_lengths = _ensure_decodable(dist_freq, dist_lengths, (0, 1))
    return lit_lengths, dist_lengths


def encode_code_lengths(lit_lengths: Sequence[int],
                        dist_lengths: Sequence[int]) -> tuple[list, int, int]:
    """RLE-encode the two length arrays per RFC 1951 section 3.2.7.

    Returns ``(ops, hlit, hdist)`` where each op is either a plain length
    symbol 0..15 or a tuple ``(16|17|18, extra_value)``.
    """
    hlit = NUM_LITLEN_SYMBOLS
    while hlit > 257 and lit_lengths[hlit - 1] == 0:
        hlit -= 1
    hdist = NUM_DIST_SYMBOLS
    while hdist > 1 and dist_lengths[hdist - 1] == 0:
        hdist -= 1

    seq = list(lit_lengths[:hlit]) + list(dist_lengths[:hdist])
    ops: list = []
    i = 0
    n = len(seq)
    while i < n:
        value = seq[i]
        run = 1
        while i + run < n and seq[i + run] == value:
            run += 1
        i += run
        if value == 0:
            while run >= 3:
                if run >= 11:
                    chunk = min(run, 138)
                    ops.append((18, chunk - 11))
                else:
                    chunk = min(run, 10)
                    ops.append((17, chunk - 3))
                run -= chunk
            ops.extend([0] * run)
        else:
            ops.append(value)
            run -= 1
            while run >= 3:
                chunk = min(run, 6)
                ops.append((16, chunk - 3))
                run -= chunk
            ops.extend([value] * run)
    return ops, hlit, hdist


def _codelen_frequencies(ops: list) -> list[int]:
    freq = [0] * NUM_CODELEN_SYMBOLS
    for op in ops:
        sym = op[0] if isinstance(op, tuple) else op
        freq[sym] += 1
    return freq


def code_length_header(lit_lengths: Sequence[int],
                       dist_lengths: Sequence[int]) -> tuple[list, int, int,
                                                             list[int]]:
    """``(ops, hlit, hdist, cl_lengths)``: the RLE ops of a dynamic header
    plus the code-length code that ships them."""
    ops, hlit, hdist = encode_code_lengths(lit_lengths, dist_lengths)
    cl_freq = _codelen_frequencies(ops)
    cl_lengths = limited_code_lengths(cl_freq, MAX_CODELEN_CODE_LENGTH)
    cl_lengths = _ensure_decodable(cl_freq, cl_lengths, (0, 18))
    return ops, hlit, hdist, cl_lengths


def dynamic_header_cost_bits(ops: list, cl_lengths: list[int]) -> int:
    """Bit cost of the dynamic block header (HLIT/HDIST/HCLEN + lengths)."""
    hclen = NUM_CODELEN_SYMBOLS
    while hclen > 4 and cl_lengths[CODELEN_ORDER[hclen - 1]] == 0:
        hclen -= 1
    bits = 5 + 5 + 4 + 3 * hclen
    for op in ops:
        if isinstance(op, tuple):
            sym = op[0]
            bits += cl_lengths[sym] + _REPEAT_EXTRA_BITS[sym]
        else:
            bits += cl_lengths[op]
    return bits


def _emit_dynamic_header(writer: BitWriter, ops: list, hlit: int, hdist: int,
                         cl_lengths: list[int]) -> None:
    hclen = NUM_CODELEN_SYMBOLS
    while hclen > 4 and cl_lengths[CODELEN_ORDER[hclen - 1]] == 0:
        hclen -= 1
    writer.write_bits(hlit - 257, 5)
    writer.write_bits(hdist - 1, 5)
    writer.write_bits(hclen - 4, 4)
    for idx in range(hclen):
        writer.write_bits(cl_lengths[CODELEN_ORDER[idx]], 3)
    encoder = HuffmanEncoder(cl_lengths)
    for op in ops:
        if isinstance(op, tuple):
            sym, extra = op
            encoder.encode(writer, sym)
            writer.write_bits(extra, _REPEAT_EXTRA_BITS[sym])
        else:
            encoder.encode(writer, op)


def _emit_tokens(writer: BitWriter, tokens: list[Token],
                 lit_enc: HuffmanEncoder, dist_enc: HuffmanEncoder) -> None:
    """Emit the token payload of one block — the compressor's hot loop.

    Length code + extra bits are pre-merged into one ``(bits, nbits)``
    pair per match length (3..258), and the distance code + extra bits
    merge at emit time, so a match costs two bit-buffer accumulations
    and a literal costs one.  The writer's accumulator lives in locals
    and is flushed in 8-byte chunks, exactly like ``write_bits`` would.
    """
    lit_codes = lit_enc.codes
    lit_lengths = lit_enc.lengths
    len_bits = [0] * 259
    len_nbits = [0] * 259
    for length in range(3, 259):
        lcode = LENGTH_TO_CODE[length]
        nb = lit_lengths[lcode]
        if nb:
            len_bits[length] = (lit_codes[lcode]
                                | ((length - LENGTH_BASE[lcode - 257]) << nb))
            len_nbits[length] = nb + LENGTH_EXTRA_BITS[lcode - 257]
    dist_codes = dist_enc.codes
    dist_lengths = dist_enc.lengths
    dist_base = DIST_BASE
    dist_extra = DIST_EXTRA_BITS
    dist_to_code = DIST_TO_CODE

    out = writer._out
    bitbuf = writer._bitbuf
    bitcount = writer._bitcount
    for tok in tokens:
        if type(tok) is int:
            nb = lit_lengths[tok]
            if not nb:
                raise HuffmanError(f"symbol {tok} has no code")
            bitbuf |= lit_codes[tok] << bitcount
            bitcount += nb
        else:
            length, dist = tok
            nb = len_nbits[length]
            if not nb:
                raise HuffmanError(
                    f"symbol {LENGTH_TO_CODE[length]} has no code")
            bitbuf |= len_bits[length] << bitcount
            bitcount += nb
            dcode = dist_to_code[dist]
            dnb = dist_lengths[dcode]
            if not dnb:
                raise HuffmanError(f"symbol {dcode} has no code")
            bitbuf |= (dist_codes[dcode]
                       | ((dist - dist_base[dcode]) << dnb)) << bitcount
            bitcount += dnb + dist_extra[dcode]
        if bitcount >= 64:
            out += (bitbuf & _LOW64).to_bytes(8, "little")
            bitbuf >>= 64
            bitcount -= 64
    nb = lit_lengths[END_OF_BLOCK]
    if not nb:
        raise HuffmanError(f"symbol {END_OF_BLOCK} has no code")
    bitbuf |= lit_codes[END_OF_BLOCK] << bitcount
    bitcount += nb
    if bitcount >= 64:
        out += (bitbuf & _LOW64).to_bytes(8, "little")
        bitbuf >>= 64
        bitcount -= 64
    writer._bitbuf = bitbuf
    writer._bitcount = bitcount


def _emit_stored(writer: BitWriter, raw: bytes, final: bool) -> None:
    offset = 0
    remaining = len(raw)
    first = True
    while remaining > 0 or first:
        first = False
        chunk = min(remaining, _MAX_STORED_BLOCK)
        last = final and chunk == remaining
        writer.write_bits(1 if last else 0, 1)
        writer.write_bits(BTYPE_STORED, 2)
        writer.align_to_byte()
        writer.write_bytes(bytes([chunk & 0xFF, chunk >> 8,
                                  (~chunk) & 0xFF, ((~chunk) >> 8) & 0xFF]))
        writer.write_bytes(raw[offset:offset + chunk])
        offset += chunk
        remaining -= chunk


def plan_block(tokens: list[Token], raw: bytes) -> BlockPlan:
    """Choose the cheapest encoding for one block of tokens."""
    lit_freq, dist_freq = token_frequencies(tokens)
    lit_lengths, dist_lengths = build_dynamic_code(lit_freq, dist_freq)
    header = code_length_header(lit_lengths, dist_lengths)

    dyn_bits = (dynamic_header_cost_bits(header[0], header[3])
                + payload_cost_bits(lit_freq, dist_freq,
                                    lit_lengths, dist_lengths))
    fixed_bits = payload_cost_bits(lit_freq, dist_freq,
                                   fixed_litlen_lengths(),
                                   fixed_dist_lengths())
    nstored = (len(raw) + _MAX_STORED_BLOCK - 1) // _MAX_STORED_BLOCK
    stored_bits = len(raw) * 8 + max(nstored, 1) * (3 + 7 + 32)

    plan = BlockPlan(tokens=tokens, raw=raw)
    if stored_bits <= dyn_bits and stored_bits <= fixed_bits:
        plan.btype = BTYPE_STORED
        plan.cost_bits = stored_bits
    elif fixed_bits <= dyn_bits:
        plan.btype = BTYPE_FIXED
        plan.cost_bits = fixed_bits + 3
    else:
        plan.btype = BTYPE_DYNAMIC
        plan.cost_bits = dyn_bits + 3
        plan.header = header
        plan.encoders = (HuffmanEncoder(lit_lengths),
                         HuffmanEncoder(dist_lengths))
    return plan


def emit_block(writer: BitWriter, plan: BlockPlan, final: bool) -> None:
    """Write one planned block to the bit stream."""
    if plan.btype == BTYPE_STORED:
        _emit_stored(writer, plan.raw, final)
        return
    writer.write_bits(1 if final else 0, 1)
    writer.write_bits(plan.btype, 2)
    if plan.btype == BTYPE_FIXED:
        lit_enc, dist_enc = fixed_encoders()
    else:
        _emit_dynamic_header(writer, *plan.header)
        lit_enc, dist_enc = plan.encoders
    _emit_tokens(writer, plan.tokens, lit_enc, dist_enc)


def _split_tokens(tokens: list[Token], raw: bytes,
                  block_tokens: int) -> list[tuple[list[Token], bytes]]:
    """Split the token stream into blocks, tracking raw byte spans."""
    blocks = []
    start = 0
    pos = 0
    current: list[Token] = []
    for tok in tokens:
        current.append(tok)
        pos += 1 if isinstance(tok, int) else tok[0]
        if len(current) >= block_tokens:
            blocks.append((current, raw[start:pos]))
            current = []
            start = pos
    if current or not blocks:
        blocks.append((current, raw[start:pos]))
    return blocks


def deflate(data: bytes, level: int = 6,
            block_tokens: int = DEFAULT_BLOCK_TOKENS,
            history: bytes = b"", strategy: str = "default",
            final: bool = True) -> CompressResult:
    """Compress ``data`` into a raw DEFLATE stream at the given level.

    ``history`` is a preset dictionary: back-references may reach into
    it, and the decoder must be given the same bytes (zlib's ``zdict``).
    ``strategy`` mirrors zlib: "default", "huffman_only" (Z_HUFFMAN_ONLY,
    no matching) or "rle" (Z_RLE, distance-1 matches only).
    ``final=False`` emits a continuable unit: non-final blocks followed
    by an empty stored block (zlib's Z_FULL_FLUSH byte alignment).
    """
    with _TRACE.span("deflate.kernel", nbytes=len(data),
                     level=level) as span:
        result = deflate_core(data, level, block_tokens, history,
                              strategy, final)
        span.set(out_bytes=len(result.data),
                 literals=result.stats.literals,
                 matches=result.stats.matches)
        return result


def deflate_core(data: bytes, level: int = 6,
                 block_tokens: int = DEFAULT_BLOCK_TOKENS,
                 history: bytes = b"", strategy: str = "default",
                 final: bool = True) -> CompressResult:
    """:func:`deflate` without the telemetry guard (overhead baseline)."""
    if strategy not in ("default", "huffman_only", "rle"):
        raise DeflateError(f"unknown strategy {strategy!r}")
    if level == 0 and final:
        writer = BitWriter()
        _emit_stored(writer, data, final=True)
        return CompressResult(data=writer.getvalue(),
                              stats=MatchStats(literals=len(data)),
                              blocks=[BTYPE_STORED])
    if level == 0 or strategy == "huffman_only":
        # A continuable level-0 unit cannot be a stored block (the
        # trailing Z_FULL_FLUSH marker already is one); entropy-only
        # coding is the cheapest continuable encoding.
        tokens, stats = tokenize_huffman_only(data)
    elif strategy == "rle":
        tokens, stats = tokenize_rle(data)
    else:
        tokens, stats = tokenize(data, level, history=history)
    writer = BitWriter()
    chunks = _split_tokens(tokens, data, block_tokens)
    btypes = []
    for idx, (chunk, raw) in enumerate(chunks):
        plan = plan_block(chunk, raw)
        if plan.btype == BTYPE_STORED and not raw and len(chunks) > 1:
            raise DeflateError("empty stored block in multi-block stream")
        emit_block(writer, plan, final=final and idx == len(chunks) - 1)
        btypes.append(plan.btype)
    if not final:
        # Z_FULL_FLUSH: byte-align with an empty stored block so units
        # concatenate into one valid stream.
        writer.write_bits(0, 1)
        writer.write_bits(0, 2)
        writer.align_to_byte()
        writer.write_bytes(b"\x00\x00\xff\xff")
    return CompressResult(data=writer.getvalue(), stats=stats, blocks=btypes)
