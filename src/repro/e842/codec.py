"""An 842-style compression codec, from scratch.

The POWER NX unit contains 842 engines alongside the gzip engines: 842
is IBM's hardware-friendly format for memory/SAN compression (Active
Memory Expansion, AIX), trading ratio for a trivially pipelineable
8-bytes-per-template design.  The paper positions the gzip engines as
the ratio upgrade over this in-house format, so the comparison matters.

Format modelled here (after the published 842 description and the Linux
``lib/842`` software implementation): input is processed in 8-byte
chunks; each chunk is encoded as a 5-bit template opcode followed by the
template's operands.  Operands are literal data (``D8/D4/D2``) or ring
indices (``I8/I4/I2``) referencing recently seen aligned 8/4/2-byte
subunits.  Special opcodes cover chunk repetition, zero chunks, trailing
short data, and end-of-stream.

The bitstream is self-consistent (our decoder ⇄ our encoder) and
documented as a modelled format: with no network access, bit-exact
cross-validation against ``lib/842`` is out of scope, but the template
structure, ring geometry (256/512/256 entries), and cost model match the
published design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..deflate.bitio import BitReader, BitWriter
from ..errors import NO_BOUND, E842Error, OutputOverflow

CHUNK = 8

# Ring geometries: entries of recently seen aligned subunits.
I2_BITS = 8   # 256 most recent 2-byte units
I4_BITS = 9   # 512 most recent 4-byte units
I8_BITS = 8   # 256 most recent 8-byte units

OP_BITS = 5

# Template table: opcode -> sequence of actions covering 8 bytes.
# D<n> = n literal bytes, I<n> = ring index replacing n bytes.
TEMPLATES: dict[int, tuple[str, ...]] = {
    0x00: ("D8",),
    0x01: ("D4", "D2", "I2"),
    0x02: ("D4", "I2", "D2"),
    0x03: ("D4", "I2", "I2"),
    0x04: ("D4", "I4"),
    0x05: ("D2", "I2", "D4"),
    0x06: ("D2", "I2", "D2", "I2"),
    0x07: ("D2", "I2", "I2", "D2"),
    0x08: ("D2", "I2", "I2", "I2"),
    0x09: ("D2", "I2", "I4"),
    0x0A: ("I2", "D2", "D4"),
    0x0B: ("I2", "D4", "I2"),
    0x0C: ("I2", "D2", "I2", "D2"),
    0x0D: ("I2", "D2", "I2", "I2"),
    0x0E: ("I2", "D2", "I4"),
    0x0F: ("I2", "I2", "D4"),
    0x10: ("I2", "I2", "D2", "I2"),
    0x11: ("I2", "I2", "I2", "D2"),
    0x12: ("I2", "I2", "I2", "I2"),
    0x13: ("I2", "I2", "I4"),
    0x14: ("I4", "D4"),
    0x15: ("I4", "D2", "I2"),
    0x16: ("I4", "I2", "D2"),
    0x17: ("I4", "I2", "I2"),
    0x18: ("I4", "I4"),
    0x19: ("I8",),
}
OP_REPEAT = 0x1A      # repeat previous chunk 1..64 times (6-bit count)
OP_ZEROS = 0x1B       # one all-zero chunk
OP_SHORT_DATA = 0x1C  # 1..7 trailing literal bytes (3-bit count)
OP_END = 0x1E

_ACTION_BITS = {"D8": 64, "D4": 32, "D2": 16,
                "I8": I8_BITS, "I4": I4_BITS, "I2": I2_BITS}
_ACTION_BYTES = {"D8": 8, "D4": 4, "D2": 2, "I8": 8, "I4": 4, "I2": 2}

_REPEAT_BITS = 6
_SHORT_BITS = 3


def template_cost_bits(actions: tuple[str, ...]) -> int:
    """Encoded size of one chunk under a template (opcode included)."""
    return OP_BITS + sum(_ACTION_BITS[a] for a in actions)


class _Rings:
    """The three subunit rings both sides maintain in lockstep."""

    def __init__(self) -> None:
        self.counts = {2: 0, 4: 0, 8: 0}
        self.sizes = {2: 1 << I2_BITS, 4: 1 << I4_BITS, 8: 1 << I8_BITS}
        self.slots = {width: [b""] * size
                      for width, size in self.sizes.items()}
        # encoder side: value -> last insertion counter
        self.last_seen: dict[int, dict[bytes, int]] = {2: {}, 4: {}, 8: {}}

    def push_chunk(self, chunk: bytes) -> None:
        """Insert every aligned subunit of one 8-byte chunk."""
        for width in (2, 4, 8):
            for off in range(0, CHUNK, width):
                unit = chunk[off:off + width]
                slot = self.counts[width] % self.sizes[width]
                self.slots[width][slot] = unit
                self.last_seen[width][unit] = self.counts[width]
                self.counts[width] += 1

    def find(self, unit: bytes) -> int | None:
        """Encoder: ring index of ``unit`` if it is still live."""
        width = len(unit)
        counter = self.last_seen[width].get(unit)
        if counter is None:
            return None
        if self.counts[width] - counter > self.sizes[width]:
            return None  # overwritten since
        return counter % self.sizes[width]

    def fetch(self, width: int, index: int) -> bytes:
        unit = self.slots[width][index]
        if len(unit) != width:
            raise E842Error(f"I{width} index {index} references an "
                            "unwritten ring slot")
        return unit


@dataclass
class E842Stats:
    """Encoder statistics for the engine timing model."""

    chunks: int = 0
    literal_chunks: int = 0
    indexed_chunks: int = 0
    repeat_chunks: int = 0
    zero_chunks: int = 0
    short_bytes: int = 0


@dataclass
class E842Result:
    data: bytes
    input_bytes: int
    stats: E842Stats = field(default_factory=E842Stats)

    @property
    def ratio(self) -> float:
        return self.input_bytes / len(self.data) if self.data else 0.0


def compress(data: bytes) -> E842Result:
    """Encode ``data`` as an 842 stream."""
    writer = BitWriter()
    rings = _Rings()
    stats = E842Stats()
    n = len(data)
    pos = 0
    prev_chunk: bytes | None = None

    while pos + CHUNK <= n:
        chunk = data[pos:pos + CHUNK]
        # Repetition run of the previous chunk.
        if chunk == prev_chunk:
            run = 0
            while (run < (1 << _REPEAT_BITS)
                   and pos + CHUNK <= n
                   and data[pos:pos + CHUNK] == prev_chunk):
                run += 1
                pos += CHUNK
            writer.write_bits(OP_REPEAT, OP_BITS)
            writer.write_bits(run - 1, _REPEAT_BITS)
            stats.chunks += run
            stats.repeat_chunks += run
            for _ in range(run):
                rings.push_chunk(chunk)
            continue
        if chunk == b"\x00" * CHUNK:
            writer.write_bits(OP_ZEROS, OP_BITS)
            stats.chunks += 1
            stats.zero_chunks += 1
            rings.push_chunk(chunk)
            prev_chunk = chunk
            pos += CHUNK
            continue

        opcode, plan = _choose_template(chunk, rings)
        writer.write_bits(opcode, OP_BITS)
        for action, payload in plan:
            writer.write_bits(payload, _ACTION_BITS[action])
        stats.chunks += 1
        if opcode == 0x00:
            stats.literal_chunks += 1
        else:
            stats.indexed_chunks += 1
        rings.push_chunk(chunk)
        prev_chunk = chunk
        pos += CHUNK

    tail = data[pos:]
    if tail:
        writer.write_bits(OP_SHORT_DATA, OP_BITS)
        writer.write_bits(len(tail), _SHORT_BITS)
        for byte in tail:
            writer.write_bits(byte, 8)
        stats.short_bytes = len(tail)
    writer.write_bits(OP_END, OP_BITS)
    return E842Result(data=writer.getvalue(), input_bytes=n, stats=stats)


def _choose_template(chunk: bytes,
                     rings: _Rings) -> tuple[int, list[tuple[str, int]]]:
    """Pick the cheapest template whose index references all resolve."""
    best_opcode = 0x00
    best_plan = [("D8", int.from_bytes(chunk, "big"))]
    best_bits = template_cost_bits(TEMPLATES[0x00])
    for opcode, actions in TEMPLATES.items():
        bits = template_cost_bits(actions)
        if bits >= best_bits:
            continue
        plan = []
        off = 0
        ok = True
        for action in actions:
            width = _ACTION_BYTES[action]
            unit = chunk[off:off + width]
            off += width
            if action.startswith("D"):
                plan.append((action, int.from_bytes(unit, "big")))
            else:
                index = rings.find(unit)
                if index is None:
                    ok = False
                    break
                plan.append((action, index))
        if ok:
            best_opcode = opcode
            best_plan = plan
            best_bits = bits
    return best_opcode, best_plan


def decompress(payload: bytes, max_output: int = NO_BOUND) -> bytes:
    """Decode an 842 stream, up to ``max_output`` bytes."""
    reader = BitReader(payload)
    rings = _Rings()
    out = bytearray()
    prev_chunk: bytes | None = None

    while True:
        opcode = reader.read_bits(OP_BITS)
        if opcode == OP_END:
            return bytes(out)
        if opcode == OP_REPEAT:
            if prev_chunk is None:
                raise E842Error("repeat with no previous chunk")
            run = reader.read_bits(_REPEAT_BITS) + 1
            for _ in range(run):
                out += prev_chunk
                rings.push_chunk(prev_chunk)
        elif opcode == OP_ZEROS:
            chunk = b"\x00" * CHUNK
            out += chunk
            rings.push_chunk(chunk)
            prev_chunk = chunk
        elif opcode == OP_SHORT_DATA:
            count = reader.read_bits(_SHORT_BITS)
            if not 1 <= count < CHUNK:
                raise E842Error(f"bad short-data count {count}")
            out += bytes(reader.read_bits(8) for _ in range(count))
        elif opcode in TEMPLATES:
            chunk = bytearray()
            for action in TEMPLATES[opcode]:
                width = _ACTION_BYTES[action]
                value = reader.read_bits(_ACTION_BITS[action])
                if action.startswith("D"):
                    chunk += value.to_bytes(width, "big")
                else:
                    chunk += rings.fetch(width, value)
            chunk = bytes(chunk)
            out += chunk
            rings.push_chunk(chunk)
            prev_chunk = chunk
        else:
            raise E842Error(f"reserved opcode {opcode:#x}")
        if len(out) > max_output:
            raise OutputOverflow("output exceeds allowed size")
