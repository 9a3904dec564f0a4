"""Compressibility analysis: what will this data do on the accelerator?

The production stack faces this question constantly (which strategy to
request, whether to bother compressing at all); this module answers it
from a bounded sample rather than a full compression pass, the way a
library-level heuristic must.

``analyze(data)`` samples up to a few extents, runs the NX scan pipeline
on the sample only, and reports estimated ratio per strategy, the
dominant byte class, and a recommendation (strategy + whether to skip
compression entirely for incompressible input).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..deflate.compress import (
    build_dynamic_code,
    payload_cost_bits,
    token_frequencies,
)
from ..deflate.constants import fixed_dist_lengths, fixed_litlen_lengths
from ..nx.dht import DhtStrategy, canned_dht, select_canned
from ..nx.params import POWER9
from ..nx.pipeline import NxMatchPipeline
from ..workloads.generators import shannon_entropy_bits_per_byte

SAMPLE_EXTENT = 16384
MAX_EXTENTS = 4
INCOMPRESSIBLE_THRESHOLD = 1.05


@dataclass(frozen=True)
class StrategyEstimate:
    """Predicted outcome of one DHT strategy on the sampled data."""

    strategy: DhtStrategy
    estimated_ratio: float
    table_cycles: int


@dataclass(frozen=True)
class Analysis:
    """The analyzer's full report."""

    sample_bytes: int
    entropy_bits_per_byte: float
    match_coverage: float           # fraction of bytes covered by matches
    data_class: str                 # canned-template classification
    estimates: tuple[StrategyEstimate, ...]
    recommended: DhtStrategy
    worth_compressing: bool


def _sample(data: bytes) -> bytes:
    """Take up to MAX_EXTENTS evenly spaced extents."""
    if len(data) <= SAMPLE_EXTENT * MAX_EXTENTS:
        return data
    step = len(data) // MAX_EXTENTS
    return b"".join(data[i * step:i * step + SAMPLE_EXTENT]
                    for i in range(MAX_EXTENTS))


def analyze(data: bytes) -> Analysis:
    """Estimate POWER9 accelerator behaviour for ``data`` from a sample."""
    params = POWER9.engine
    sample = _sample(data)
    if not sample:
        return Analysis(sample_bytes=0, entropy_bits_per_byte=0.0,
                        match_coverage=0.0, data_class="text",
                        estimates=(), recommended=DhtStrategy.FIXED,
                        worth_compressing=False)

    scan = NxMatchPipeline(params).scan(sample)
    lit_freq, dist_freq = token_frequencies(scan.tokens)
    coverage = scan.stats.match_bytes / max(1, scan.stats.input_bytes)
    data_class = select_canned(sample)

    estimates = []
    for strategy in (DhtStrategy.FIXED, DhtStrategy.CANNED,
                     DhtStrategy.DYNAMIC):
        if strategy is DhtStrategy.FIXED:
            lit_lengths = fixed_litlen_lengths()
            dist_lengths = fixed_dist_lengths()
            cycles = 0
        elif strategy is DhtStrategy.CANNED:
            dht = canned_dht(data_class)
            lit_lengths = list(dht.litlen_lengths)
            dist_lengths = list(dht.dist_lengths)
            cycles = dht.generation_cycles
        else:
            lit_lengths, dist_lengths = build_dynamic_code(lit_freq,
                                                           dist_freq)
            from ..nx.dht import dynamic_generation_cycles

            cycles = dynamic_generation_cycles(lit_freq, dist_freq,
                                               params)
        bits = payload_cost_bits(lit_freq, dist_freq, lit_lengths,
                                 dist_lengths)
        ratio = len(sample) * 8 / bits if bits else 0.0
        estimates.append(StrategyEstimate(strategy=strategy,
                                          estimated_ratio=ratio,
                                          table_cycles=cycles))

    best = max(estimates, key=lambda e: e.estimated_ratio)
    worth = best.estimated_ratio >= INCOMPRESSIBLE_THRESHOLD
    return Analysis(
        sample_bytes=len(sample),
        entropy_bits_per_byte=shannon_entropy_bits_per_byte(sample),
        match_coverage=coverage,
        data_class=data_class,
        estimates=tuple(estimates),
        recommended=best.strategy if worth else DhtStrategy.FIXED,
        worth_compressing=worth,
    )
