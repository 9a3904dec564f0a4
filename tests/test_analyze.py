"""Compressibility analyzer: estimates vs actual engine behaviour."""

import pytest

from repro.core.analyze import analyze
from repro.nx.compressor import NxCompressor
from repro.nx.dht import DhtStrategy
from repro.nx.params import POWER9
from repro.workloads.generators import generate


def by_strategy(report) -> dict:
    return {estimate.strategy: estimate for estimate in report.estimates}


class TestAnalyze:
    def test_empty_input(self):
        report = analyze(b"")
        assert not report.worth_compressing
        assert report.sample_bytes == 0

    def test_text_recommends_compression(self, text_20k):
        report = analyze(text_20k)
        assert report.worth_compressing
        assert report.recommended in (DhtStrategy.DYNAMIC,
                                      DhtStrategy.CANNED)
        assert report.data_class == "text"

    def test_random_not_worth_compressing(self):
        data = generate("random_bytes", 40000, seed=2)
        report = analyze(data)
        assert not report.worth_compressing
        assert report.entropy_bits_per_byte > 7.9

    def test_estimates_ordering(self, json_20k):
        report = analyze(json_20k)
        fixed = by_strategy(report)[DhtStrategy.FIXED]
        dynamic = by_strategy(report)[DhtStrategy.DYNAMIC]
        assert dynamic.estimated_ratio >= fixed.estimated_ratio
        assert dynamic.table_cycles > fixed.table_cycles

    def test_estimate_close_to_actual(self, json_20k):
        """Sampled estimate lands within ~20% of the real engine ratio."""
        report = analyze(json_20k)
        actual = NxCompressor(POWER9.engine).compress(
            json_20k, strategy=DhtStrategy.DYNAMIC).ratio
        estimate = by_strategy(report)[DhtStrategy.DYNAMIC].estimated_ratio
        assert estimate == pytest.approx(actual, rel=0.20)

    def test_large_input_sampled(self):
        data = generate("markov_text", 500000, seed=3)
        report = analyze(data)
        assert report.sample_bytes < len(data)
        assert report.sample_bytes <= 4 * 16384

    def test_match_coverage_ranges(self):
        zero = analyze(bytes(30000))
        rand = analyze(generate("random_bytes", 30000, seed=4))
        assert zero.match_coverage > 0.95
        assert rand.match_coverage < 0.05

    def test_missing_estimate_raises(self, text_20k):
        report = analyze(text_20k)
        with pytest.raises(KeyError):
            by_strategy(report)[DhtStrategy.AUTO]

    def test_dna_classified_and_compressible(self):
        data = generate("dna_sequence", 40000, seed=5)
        report = analyze(data)
        assert report.worth_compressing
        assert 1.9 < report.entropy_bits_per_byte < 2.1

    def test_analysis_is_deterministic(self, text_20k):
        assert analyze(text_20k) == analyze(text_20k)
