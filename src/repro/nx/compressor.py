"""The NX compression engine: functional bitstream + cycle-level timing.

One :class:`NxCompressor` models the compression side of the accelerator:
the scan pipeline produces real DEFLATE tokens, the DHT stage picks
Huffman tables per the requested strategy, and the encoder emits an
RFC-compliant bitstream.  Timing composes the documented pipeline
structure: the Huffman encoder runs concurrently with the scanner, but a
DYNAMIC table generation inserts a serialization bubble per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..deflate.bitio import BitWriter
from ..deflate.compress import (
    BlockPlan,
    emit_block,
    payload_cost_bits,
    token_frequencies,
)
from ..deflate.constants import BTYPE_DYNAMIC, BTYPE_FIXED, BTYPE_STORED
from ..deflate.containers import FORMATS, checksum, frame
from ..deflate.matcher import MatchStats, Token
from ..errors import AcceleratorError
from ..obs.trace import TRACE as _TRACE
from .dht import (
    BUILTIN,
    CannedLibrary,
    DhtResult,
    DhtStrategy,
    fixed_dht,
    generate_dynamic,
)
from .params import PIPELINE_FILL_CYCLES, EngineParams

DEFAULT_BLOCK_BYTES = 65536


@dataclass(frozen=True)
class CycleBreakdown:
    """Where the compression cycles went."""

    pipeline_fill: int
    scan: int
    bank_stalls: int
    dht_generation: int
    encode_exposed: int  # encoder cycles not hidden behind the scan
    history_load: int = 0  # streaming a preset history through the pipe

    @property
    def total(self) -> int:
        return (self.pipeline_fill + self.scan + self.bank_stalls
                + self.dht_generation + self.encode_exposed
                + self.history_load)


@dataclass
class NxCompressResult:
    """Output of one accelerator compression request."""

    data: bytes
    input_bytes: int
    cycles: CycleBreakdown
    stats: MatchStats
    block_types: list[int]
    dht_sources: list[str]
    strategy: DhtStrategy
    clock_ghz: float

    @property
    def ratio(self) -> float:
        if not self.data:
            return 0.0
        return self.input_bytes / len(self.data)

    @property
    def seconds(self) -> float:
        return self.cycles.total / (self.clock_ghz * 1e9)

    @property
    def throughput_gbps(self) -> float:
        seconds = self.seconds
        return (self.input_bytes / 1e9) / seconds if seconds else 0.0


@dataclass
class NxCompressor:
    """Compression half of one NX/zEDC engine."""

    params: EngineParams
    block_bytes: int = DEFAULT_BLOCK_BYTES
    _pipeline: object = field(init=False, repr=False)

    def __post_init__(self) -> None:
        from .pipeline import NxMatchPipeline

        self._pipeline = NxMatchPipeline(self.params)

    def compress(self, data: bytes,
                 strategy: DhtStrategy = DhtStrategy.AUTO,
                 fmt: str = "raw", history: bytes = b"",
                 final: bool = True,
                 canned_name: str | None = None,
                 library: CannedLibrary = BUILTIN) -> NxCompressResult:
        """Run one compression request through the engine model.

        ``history`` primes the match window with prior plaintext (the NX
        history DDE).  ``final=False`` produces a *continuable* stream:
        no final block bit, terminated by an empty stored block that
        byte-aligns the output (zlib's Z_FULL_FLUSH), so per-request
        outputs concatenate into one valid DEFLATE stream.  ``library``
        is the canned tables the request carries; an explicit
        ``canned_name`` (e.g. the GDHT facility's scan-window pick)
        overrides its per-request :meth:`~CannedLibrary.select`.
        """
        if fmt not in FORMATS:
            raise AcceleratorError(f"unsupported wire format {fmt!r}")
        if not final and fmt != "raw":
            raise AcceleratorError(
                "container formats require a final (complete) stream")

        with _TRACE.span("engine.match", nbytes=len(data)) as span:
            scan = self._pipeline.scan(data, history=history)
            span.set(matches=scan.stats.matches,
                     literals=scan.stats.literals,
                     stalls=scan.conflict_stalls)
        blocks = _split_by_input_bytes(scan.tokens, data, self.block_bytes)

        canned = None
        if strategy in (DhtStrategy.CANNED, DhtStrategy.AUTO):
            canned = library.dht(canned_name
                                 or library.select(data, len(data)))

        # Plan every block first, then emit the planned stream — the two
        # hardware phases (DHT selection/generation vs encoder drain).
        with _TRACE.span("engine.huffman", blocks=len(blocks),
                         strategy=strategy.value) as span:
            plans = [self._plan_block(tokens, raw, strategy, canned)
                     for tokens, raw in blocks]
            dht_cycles = sum(dht.generation_cycles if dht else 0
                             for _, dht in plans)
            span.set(dht_cycles=dht_cycles)
        with _TRACE.span("engine.emit", blocks=len(plans)) as span:
            body, block_types, dht_sources = _emit_planned(plans, final)
            span.set(out_bytes=len(body))
        payload = frame(fmt, body, checksum(fmt, data), len(data),
                        zdict=history)

        encode_cycles = -(-len(body) * 8
                          // self.params.huffman_encode_bits_per_cycle)
        scan_total = scan.scan_cycles + scan.conflict_stalls
        encode_exposed = max(0, encode_cycles - scan_total)
        cycles = CycleBreakdown(
            pipeline_fill=PIPELINE_FILL_CYCLES,
            scan=scan.scan_cycles,
            bank_stalls=scan.conflict_stalls,
            dht_generation=dht_cycles,
            encode_exposed=encode_exposed,
            history_load=scan.history_cycles,
        )
        return NxCompressResult(
            data=payload,
            input_bytes=len(data),
            cycles=cycles,
            stats=scan.stats,
            block_types=block_types,
            dht_sources=dht_sources,
            strategy=strategy,
            clock_ghz=self.params.clock_ghz,
        )

    # -- block planning -------------------------------------------------

    def _plan_block(self, tokens: list[Token], raw: bytes,
                    strategy: DhtStrategy,
                    canned: DhtResult | None) -> tuple[BlockPlan,
                                                       DhtResult | None]:
        lit_freq, dist_freq = token_frequencies(tokens)

        if strategy is DhtStrategy.FIXED:
            return BlockPlan(tokens=tokens, raw=raw,
                             btype=BTYPE_FIXED), fixed_dht()

        if strategy is DhtStrategy.DYNAMIC:
            dht = generate_dynamic(lit_freq, dist_freq, self.params)
            return self._dynamic_plan(tokens, raw, dht), dht

        if strategy is DhtStrategy.CANNED:
            tokens = _demote_uncovered(tokens, raw, canned)
            return self._dynamic_plan(tokens, raw, canned), canned

        # AUTO: evaluate all options by real bit cost, preferring cheaper
        # generation on near-ties (within 1 %).
        fixed = fixed_dht()
        canned_tokens = _demote_uncovered(tokens, raw, canned)
        canned_lit_freq, canned_dist_freq = (
            (lit_freq, dist_freq) if canned_tokens is tokens
            else token_frequencies(canned_tokens))
        dynamic = generate_dynamic(lit_freq, dist_freq, self.params)

        fixed_bits = payload_cost_bits(lit_freq, dist_freq,
                                       fixed.litlen_lengths,
                                       fixed.dist_lengths)
        canned_bits = (payload_cost_bits(canned_lit_freq, canned_dist_freq,
                                         canned.litlen_lengths,
                                         canned.dist_lengths)
                       + canned.header_bits)
        dyn_bits = (payload_cost_bits(lit_freq, dist_freq,
                                      dynamic.litlen_lengths,
                                      dynamic.dist_lengths)
                    + dynamic.header_bits)
        stored_bits = len(raw) * 8 + 40

        best = min(stored_bits, fixed_bits, canned_bits, dyn_bits)
        if stored_bits == best and stored_bits < fixed_bits:
            return BlockPlan(tokens=tokens, raw=raw,
                             btype=BTYPE_STORED), None
        if fixed_bits <= best * 1.01:
            return BlockPlan(tokens=tokens, raw=raw,
                             btype=BTYPE_FIXED), fixed
        if canned_bits <= best * 1.01:
            return self._dynamic_plan(canned_tokens, raw, canned), canned
        return self._dynamic_plan(tokens, raw, dynamic), dynamic

    @staticmethod
    def _dynamic_plan(tokens: list[Token], raw: bytes,
                      dht: DhtResult) -> BlockPlan:
        return BlockPlan(tokens=tokens, raw=raw, btype=BTYPE_DYNAMIC,
                         header=dht.header, encoders=dht.encoders)


def _demote_uncovered(tokens: list[Token], raw: bytes,
                      dht: DhtResult) -> list[Token]:
    """Demote matches a canned table cannot encode back to literals.

    A trained canned DHT only carries the length/distance codes its
    cluster's traffic used (zeros elsewhere keep the table header
    small).  Any match whose code is missing is re-emitted as the
    literal bytes it would have reproduced — literals 0..255 are always
    covered, so a canned table can encode *any* input at worst as a
    literal stream.  Returns ``tokens`` unchanged (same object) when
    nothing was demoted — at once for a table that covers every length
    and distance code, as every built-in one does.
    """
    if dht.covers_all:
        return tokens
    from ..deflate.constants import DIST_TO_CODE, LENGTH_TO_CODE

    lit_lengths = dht.litlen_lengths
    dist_lengths = dht.dist_lengths
    out: list[Token] | None = None
    pos = 0
    for i, tok in enumerate(tokens):
        if type(tok) is int:
            if out is not None:
                out.append(tok)
            pos += 1
            continue
        length, dist = tok
        if (lit_lengths[LENGTH_TO_CODE[length]] == 0
                or dist_lengths[DIST_TO_CODE[dist]] == 0):
            if out is None:
                out = list(tokens[:i])
            out.extend(raw[pos:pos + length])
        elif out is not None:
            out.append(tok)
        pos += length
    return tokens if out is None else out


def _emit_planned(plans: list[tuple[BlockPlan, DhtResult | None]],
                  final: bool) -> tuple[bytes, list[int], list[str]]:
    """Encode a planned block sequence into one DEFLATE body."""
    writer = BitWriter()
    block_types: list[int] = []
    dht_sources: list[str] = []
    for idx, (plan, dht) in enumerate(plans):
        last = idx == len(plans) - 1
        emit_block(writer, plan, final=final and last)
        block_types.append(plan.btype)
        dht_sources.append(dht.source if dht else "stored")
    if not final:
        # Z_FULL_FLUSH: empty stored block byte-aligns the stream.
        writer.write_bits(0, 1)
        writer.write_bits(0, 2)
        writer.align_to_byte()
        writer.write_bytes(b"\x00\x00\xff\xff")
    return writer.getvalue(), block_types, dht_sources


def _split_by_input_bytes(tokens: list[Token], raw: bytes,
                          block_bytes: int) -> list[tuple[list[Token],
                                                          bytes]]:
    """Split the token stream into blocks covering ~block_bytes input."""
    if len(raw) <= block_bytes:
        return [(tokens, raw)]
    blocks: list[tuple[list[Token], bytes]] = []
    current: list[Token] = []
    start = 0
    pos = 0
    for tok in tokens:
        current.append(tok)
        pos += 1 if isinstance(tok, int) else tok[0]
        if pos - start >= block_bytes:
            blocks.append((current, raw[start:pos]))
            current = []
            start = pos
    if current or not blocks:
        blocks.append((current, raw[start:pos]))
    return blocks
