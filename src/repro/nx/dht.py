"""Dynamic Huffman Table (DHT) generation model.

The NX compressor supports three Huffman strategies, selected per request
by the CRB function code:

* **FIXED** — RFC 1951 fixed codes; zero table-generation latency, worst
  ratio.
* **DYNAMIC** — the hardware DHT generator sorts the LZ symbol statistics
  and builds length-limited canonical codes; best ratio, but the LZ pass
  and the encode pass are decoupled by a table-generation bubble.
* **CANNED** — a pre-computed DHT appropriate for the data class is
  fetched from a small on-chip cache keyed by a quick sample of the
  source; near-DYNAMIC ratio at near-FIXED latency.

The cycle model charges ``dht_base_cycles + dht_cycles_per_symbol x
(used litlen + dist symbols)`` for DYNAMIC generation, reflecting the
sorting-network implementation the product documentation describes.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

from ..deflate.constants import (
    MAX_CODE_LENGTH,
    NUM_DIST_SYMBOLS,
    NUM_LITLEN_SYMBOLS,
    fixed_dist_lengths,
    fixed_litlen_lengths,
)
from ..deflate.huffman import HuffmanEncoder, limited_code_lengths
from ..errors import ConfigError
from .params import EngineParams


class DhtStrategy(enum.Enum):
    """Huffman table policy for one compression request."""

    FIXED = "fixed"
    DYNAMIC = "dynamic"
    CANNED = "canned"
    AUTO = "auto"


@dataclass(frozen=True)
class DhtResult:
    """A chosen pair of code-length vectors plus its generation cost, and
    the one header and encoder pair built from them on first use."""

    litlen_lengths: tuple[int, ...]
    dist_lengths: tuple[int, ...]
    generation_cycles: int
    source: str  # "fixed", "dynamic" or canned template name

    @cached_property
    def header(self) -> tuple[list, int, int, list[int]]:
        """``(ops, hlit, hdist, cl_lengths)`` of a dynamic block header."""
        from ..deflate.compress import code_length_header

        return code_length_header(self.litlen_lengths, self.dist_lengths)

    @cached_property
    def header_bits(self) -> int:
        """Dynamic-header bit cost of shipping this table in a block."""
        from ..deflate.compress import dynamic_header_cost_bits

        return dynamic_header_cost_bits(self.header[0], self.header[3])

    @cached_property
    def encoders(self) -> tuple[HuffmanEncoder, HuffmanEncoder]:
        """The lit/len and distance encoders of this table."""
        return (HuffmanEncoder(self.litlen_lengths),
                HuffmanEncoder(self.dist_lengths))

    @cached_property
    def covers_all(self) -> bool:
        """Length codes 257..285 and distance codes 0..29 all have codes."""
        return all(self.litlen_lengths[257:286] + self.dist_lengths[:30])


def generate_dynamic(lit_freq: list[int], dist_freq: list[int],
                     params: EngineParams) -> DhtResult:
    """Model the hardware DHT generator on real block statistics."""
    from ..deflate.compress import build_dynamic_code

    lit_lengths, dist_lengths = build_dynamic_code(lit_freq, dist_freq)
    cycles = dynamic_generation_cycles(lit_freq, dist_freq, params)
    return DhtResult(tuple(lit_lengths), tuple(dist_lengths), cycles,
                     source="dynamic")


def dynamic_generation_cycles(lit_freq: list[int], dist_freq: list[int],
                              params: EngineParams) -> int:
    """Cycle cost of one hardware DHT generation pass."""
    used = (sum(1 for f in lit_freq if f)
            + sum(1 for f in dist_freq if f))
    return params.dht_base_cycles + params.dht_cycles_per_symbol * used


@lru_cache(maxsize=None)
def fixed_dht() -> DhtResult:
    """The RFC 1951 fixed code as a zero-cost DHT."""
    return DhtResult(tuple(fixed_litlen_lengths()),
                     tuple(fixed_dist_lengths()), 0, source="fixed")


# -- canned DHT library ------------------------------------------------
#
# Each template is a synthetic frequency profile for a broad data class.
# Codes built from it cover *every* symbol (a floor frequency of 1), so a
# canned table can encode any input, merely sub-optimally.

def _text_profile() -> tuple[list[int], list[int]]:
    lit = [1] * NUM_LITLEN_SYMBOLS
    common = b"etaoinshrdlucmfwypvbgkjqxz ETAOINSHRDLU.,;:'\"!?-\n\t0123456789"
    for rank, byte in enumerate(common):
        lit[byte] += 4000 // (rank + 4)
    for sym in range(257, 286):  # moderate lengths, biased short
        lit[sym] += max(1, 500 - 20 * (sym - 257))
    dist = [1] * NUM_DIST_SYMBOLS
    for sym in range(NUM_DIST_SYMBOLS):
        dist[sym] += max(1, 400 - 14 * abs(sym - 16))
    return lit, dist


def _binary_profile() -> tuple[list[int], list[int]]:
    """Object code: zero runs + opcode clusters over a flat-ish base.

    The base floor is high because instruction immediates/addresses are
    near-uniform; only the genuinely common bytes get shorter codes.
    """
    lit = [48] * NUM_LITLEN_SYMBOLS
    lit[0] += 1200  # zero bytes dominate binaries
    lit[255] += 150
    for byte in range(1, 32):
        lit[byte] += 60
    for sym in range(257, 286):
        lit[sym] = 40
    dist = [4] * NUM_DIST_SYMBOLS
    for sym in range(NUM_DIST_SYMBOLS):
        dist[sym] += 2 + sym  # binaries favour far distances
    return lit, dist


def _structured_profile() -> tuple[list[int], list[int]]:
    lit = [2] * NUM_LITLEN_SYMBOLS
    for byte in b'{}[]",:0123456789abcdefghijklmnopqrstuvwxyz_ ':
        lit[byte] += 600
    for sym in range(257, 286):  # long matches: repeated schemas
        lit[sym] += 80 + 15 * (sym - 257)
    dist = [1] * NUM_DIST_SYMBOLS
    for sym in range(NUM_DIST_SYMBOLS):
        dist[sym] += 30 + 12 * min(sym, 20)
    return lit, dist


def _flat_profile() -> tuple[list[int], list[int]]:
    """Near-uniform code: the conservative template for high-entropy data.

    Worst-case expansion on incompressible input stays tiny (~an extra
    fraction of a bit per literal), which is why a production canned
    library always includes a flat member.
    """
    lit = [64] * NUM_LITLEN_SYMBOLS
    lit[256] = 8  # EOB is rare
    for sym in range(257, 286):
        lit[sym] = 8
    dist = [8] * NUM_DIST_SYMBOLS
    return lit, dist


def _legalize(profile: tuple[list[int], list[int]]) -> tuple[
        list[int], list[int]]:
    """Zero the reserved litlen symbols 286/287 (illegal in headers)."""
    lit, dist = profile
    lit[286] = 0
    lit[287] = 0
    return lit, dist


_CANNED_PROFILES = {
    "text": _text_profile,
    "binary": _binary_profile,
    "structured": _structured_profile,
    "flat": _flat_profile,
}

CANNED_LOOKUP_CYCLES = 24  # cache index + table load


@lru_cache(maxsize=None)
def _builtin_canned(name: str) -> DhtResult:
    """Build (once) one built-in canned DHT by template name."""
    lit_freq, dist_freq = _legalize(_CANNED_PROFILES[name]())
    lit_lengths = limited_code_lengths(lit_freq, MAX_CODE_LENGTH)
    dist_lengths = limited_code_lengths(dist_freq, MAX_CODE_LENGTH)
    return DhtResult(tuple(lit_lengths), tuple(dist_lengths),
                     CANNED_LOOKUP_CYCLES, source=name)


def canned_dht(name: str) -> DhtResult:
    """One built-in canned DHT by template name."""
    return BUILTIN.dht(name)


def canned_names() -> list[str]:
    """The built-in template names."""
    return sorted(_CANNED_PROFILES)


#: byte -> literal class: 0 control, 1 digits/punctuation, 2 letters,
#: 3 high.  Classes 1 and 2 together are the printable ASCII range.
_BYTE_CLASS = bytes(0 if b < 0x20 else 1 if b < 0x41 else 2 if b < 0x7F
                    else 3 for b in range(256))
_HIGH_NIBBLE = bytes(b >> 4 for b in range(256))


def _byte_class_vector(sample: bytes) -> list[float]:
    """Coarse 4-bin literal distribution used to pick a canned table.

    One ``translate`` maps every byte to its class and four ``count``
    calls tally them: the sample is never walked in Python.
    """
    classes = bytes(sample).translate(_BYTE_CLASS)
    total = max(1, len(classes))
    return [classes.count(c) / total for c in range(4)]


_CLASS_CENTROIDS = {
    "text": [0.03, 0.17, 0.78, 0.02],
    "binary": [0.45, 0.12, 0.18, 0.25],   # zero/opcode heavy
    "structured": [0.02, 0.48, 0.48, 0.02],
    "flat": [0.125, 0.129, 0.242, 0.504],  # uniform byte distribution
}


# -- traffic signatures + tenant-trained canned tables -----------------
#
# The built-in library classifies on a coarse 4-bin vector; trained
# tables (one per traffic cluster, shipped by the dictionary service)
# need finer discrimination, so they match on a 20-dimension signature:
# a 16-bin byte histogram plus zero fraction, printable fraction,
# distinct-byte fraction, and an LZ match-density probe.

#: Squared-distance bound for a trained centroid to claim a sample;
#: beyond it classification falls back to the built-in templates, so
#: unseen traffic never gets clamped onto another tenant's profile.
TRAINED_MATCH_THRESHOLD = 0.02

#: Bytes the GDHT facility scans per voting window (see
#: :func:`select_canned_windowed`).
GDHT_SCAN_WINDOW = 512


def sample_signature(sample: bytes) -> tuple[float, ...]:
    """A 20-dim traffic signature for clustering and trained-table pick.

    All components are fractions in [0, 1], so Euclidean distance in
    this space is scale-free.  The match-density probe samples at most
    ~1024 positions, keeping the signature O(1) on large payloads.
    """
    s = bytes(sample[:4096])
    total = max(1, len(s))
    nibbles = s.translate(_HIGH_NIBBLE)
    vec = [nibbles.count(high) / total for high in range(16)]
    zero = s.count(0) / total
    classes = s.translate(_BYTE_CLASS)
    printable = (classes.count(1) + classes.count(2)) / total
    distinct = len(set(s)) / 256.0
    n = max(0, len(s) - 3)
    repeats = 0
    probes = 0
    if n:
        step = max(1, n // 1024)
        seen: set[bytes] = set()
        for i in range(0, n, step):
            sh = bytes(s[i:i + 4])
            probes += 1
            if sh in seen:
                repeats += 1
            else:
                seen.add(sh)
    density = repeats / probes if probes else 0.0
    return tuple(vec + [zero, printable, distinct, density])


def signature_distance(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    """Squared Euclidean distance between two signatures."""
    return sum((x - y) ** 2 for x, y in zip(a, b))


@dataclass(frozen=True)
class TrainedCanned:
    """One tenant-trained table of a :class:`CannedLibrary`."""

    dht: DhtResult
    centroid: tuple[float, ...]
    sample_bytes: int  # the longest sample it was trained on


class CannedLibrary:
    """The canned DHTs a job may use, as one immutable value.

    The built-in templates are always in it; ``tables`` adds
    tenant-trained ones, mapping a name to ``(litlen_lengths,
    dist_lengths, centroid, sample_bytes)``.  A job carries its library
    from admission to the engine, the way an NX compress CRB's parameter
    block carries the DHT, so which table compresses a payload never
    depends on which process runs it.  Its :attr:`key` is the same in
    every process and after a restart, so the result cache keys on it.

    A trained table must cover every *literal* (0..255) plus
    end-of-block — that guarantees any input can be encoded, because
    the engine demotes a match whose length/distance code is missing
    back to literals (see :meth:`repro.nx.compressor.NxCompressor`).
    Length codes 257..285 and distance codes may therefore be zero: a
    trained table only carries the codes its cluster's traffic used,
    which keeps the per-block table header small.  Reserved litlen
    symbols 286/287 must stay at length zero.
    """

    def __init__(self, tables: Mapping[str, tuple] | None = None) -> None:
        self._trained: dict[str, TrainedCanned] = {}
        content = []
        for name in sorted(tables or {}):
            lit, dist, centroid, sample_bytes = tables[name]
            lit = tuple(int(x) for x in lit)
            dist = tuple(int(x) for x in dist)
            if (len(lit) != NUM_LITLEN_SYMBOLS
                    or len(dist) != NUM_DIST_SYMBOLS):
                raise ConfigError(
                    f"trained DHT {name!r}: length vectors must cover "
                    f"{NUM_LITLEN_SYMBOLS}/{NUM_DIST_SYMBOLS} symbols")
            if lit[286] or lit[287]:
                raise ConfigError(f"trained DHT {name!r}: reserved "
                                  "symbols 286/287 must be 0")
            if any(length == 0 for length in lit[:257]):
                raise ConfigError(
                    f"trained DHT {name!r}: every literal and end-of-block "
                    "needs a code (the literal fallback must encode any "
                    "input)")
            if any(not 0 <= x <= MAX_CODE_LENGTH for x in lit + dist):
                raise ConfigError(
                    f"trained DHT {name!r}: code lengths must be in "
                    f"[0, {MAX_CODE_LENGTH}]")
            if name in _CANNED_PROFILES:
                raise ConfigError(
                    f"trained DHT {name!r} shadows a built-in template")
            centroid = tuple(float(x) for x in centroid)
            sample_bytes = int(sample_bytes)
            content.append((name, lit, dist, centroid, sample_bytes))
            self._trained[name] = TrainedCanned(
                DhtResult(lit, dist, CANNED_LOOKUP_CYCLES, source=name),
                centroid, sample_bytes)
        self._content = tuple(content)

    @cached_property
    def key(self) -> str:
        """sha256 of the content; hashlib (OpenSSL) loads only where a
        trained library's is read, the built-in one's being a constant."""
        if not self._content:  # sha256(repr(()))
            return ("2e38e77b22c314a449e91fafed92a438"
                    "26ac6aa403ae6a8acb6cf58239fbaf5d")
        import hashlib

        return hashlib.sha256(repr(self._content).encode()).hexdigest()

    def __reduce__(self):
        # Only the content crosses a process boundary: the receiver
        # builds each table's header and encoders on first use.
        return CannedLibrary, ({name: rest for name, *rest in self._content},)

    def dht(self, name: str) -> DhtResult:
        """One canned DHT by name: trained tables first, then built-ins."""
        trained = self._trained.get(name)
        if trained is not None:
            return trained.dht
        if name not in _CANNED_PROFILES:
            raise ConfigError(f"unknown canned DHT {name!r}; have "
                              f"{canned_names() + list(self._trained)}")
        return _builtin_canned(name)

    def select(self, sample: bytes, nbytes: int) -> str:
        """Classify a source sample of an ``nbytes`` payload onto the
        nearest canned table.

        A trained table may claim only a payload no longer than the
        samples it was trained on, and wins when its centroid is within
        :data:`TRAINED_MATCH_THRESHOLD` of the sample's signature;
        otherwise the built-in templates decide
        (:func:`select_canned`), so trained tables can only specialize
        classification, never break it.
        """
        candidates = [(name, table) for name, table in self._trained.items()
                      if nbytes <= table.sample_bytes]
        if candidates:
            sig = sample_signature(sample)
            best_dist, best_name = min(
                (signature_distance(sig, table.centroid), name)
                for name, table in candidates)
            if best_dist <= TRAINED_MATCH_THRESHOLD:
                return best_name
        return select_canned(sample)


#: The library with no trained tables.
BUILTIN = CannedLibrary()


def select_canned(sample: bytes) -> str:
    """Classify a source sample onto the nearest built-in template."""
    vec = _byte_class_vector(sample[:4096])
    return min(_CLASS_CENTROIDS, key=lambda name: sum(
        (a - b) ** 2 for a, b in zip(vec, _CLASS_CENTROIDS[name])))


def select_canned_windowed(sample: bytes, library: CannedLibrary,
                           nbytes: int) -> str:
    """The GDHT facility's canned pick for an ``nbytes`` payload: vote
    across full scan windows of its sample.

    Only *complete* windows are scanned — the caller guards against a
    sample shorter than one window (that case must degrade to a dynamic
    DHT rather than index past the sample).  Ties break toward the
    window seen first, keeping the pick deterministic.
    """
    window = GDHT_SCAN_WINDOW
    if len(sample) < window:
        raise ConfigError(
            f"GDHT sample of {len(sample)} bytes is shorter than the "
            f"{window}-byte scan window; degrade to a dynamic DHT")
    votes: dict[str, int] = {}
    order: list[str] = []
    for off in range(0, len(sample) - window + 1, window):
        pick = library.select(sample[off:off + window], nbytes)
        if pick not in votes:
            votes[pick] = 0
            order.append(pick)
        votes[pick] += 1
    return max(order, key=lambda name: votes[name])
