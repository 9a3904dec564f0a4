"""Generators, corpora, traces: determinism and statistical targets."""

import random

import pytest

from repro.workloads.corpus import build_corpus, corpus_bytes, corpus_names
from repro.workloads.generators import (
    GENERATORS,
    generate,
    shannon_entropy_bits_per_byte,
)
from repro.perf.queueing import bimodal_size


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_exact_size(self, name):
        assert len(generate(name, 10000, seed=1)) == 10000

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_deterministic(self, name):
        assert generate(name, 5000, seed=9) == generate(name, 5000, seed=9)

    def test_seed_changes_output(self):
        assert generate("markov_text", 5000, seed=1) != generate(
            "markov_text", 5000, seed=2)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            generate("quantum_noise", 100)

    def test_entropy_ordering(self):
        rand = shannon_entropy_bits_per_byte(
            generate("random_bytes", 20000, seed=1))
        text = shannon_entropy_bits_per_byte(
            generate("markov_text", 20000, seed=1))
        dna = shannon_entropy_bits_per_byte(
            generate("dna_sequence", 20000, seed=1))
        zero = shannon_entropy_bits_per_byte(
            generate("zero_bytes", 20000, seed=1))
        assert rand > 7.9
        assert 3.0 < text < 5.5
        assert dna == pytest.approx(2.0, abs=0.05)
        assert zero == 0.0

    def test_compressibility_ordering(self):
        """Ratios under our codec reflect the intended redundancy range."""
        from repro.deflate.compress import deflate

        ratios = {
            name: deflate(generate(name, 30000, seed=4), level=6).ratio
            for name in ("random_bytes", "markov_text", "database_pages",
                         "log_lines")
        }
        assert ratios["random_bytes"] < 1.05
        assert ratios["markov_text"] > 2.0
        assert ratios["log_lines"] > 3.0
        assert ratios["database_pages"] > 4.0

    def test_entropy_of_empty(self):
        assert shannon_entropy_bits_per_byte(b"") == 0.0


class TestCorpus:
    def test_names(self):
        assert "silesia-like" in corpus_names()
        assert "calgary-like" in corpus_names()

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_corpus("enwik8")

    def test_components_built(self):
        corpus = build_corpus("quick")
        assert set(corpus) == {"text", "json", "random"}
        assert all(len(v) > 0 for v in corpus.values())

    def test_scale(self):
        full = build_corpus("quick", scale=1.0)
        half = build_corpus("quick", scale=0.5)
        for name in full:
            assert len(half[name]) == pytest.approx(len(full[name]) / 2,
                                                    rel=0.1)

    def test_cached(self):
        assert build_corpus("quick") is build_corpus("quick")

    def test_corpus_bytes_concatenates(self):
        corpus = build_corpus("quick")
        assert len(corpus_bytes("quick")) == sum(
            len(v) for v in corpus.values())


class TestTraces:
    def test_bimodal_fractions(self):
        rng = random.Random(2)
        sampler = bimodal_size(100, 1000, small_fraction=0.9)
        values = [sampler(rng) for _ in range(2000)]
        small = sum(1 for v in values if v == 100)
        assert 0.85 < small / len(values) < 0.95


class TestSpark:
    def test_default_profile_speedup_near_23pct(self):
        from repro.workloads.spark import SparkJobModel

        result = SparkJobModel().run()
        assert 1.18 < result.speedup < 1.30
        assert 0.15 < result.codec_share < 0.25

    def test_no_codec_work_no_speedup(self):
        from repro.workloads.spark import SparkJobModel, Stage

        stages = [Stage("cpu-only", 100.0, 0, 0)]
        result = SparkJobModel().run(stages)
        assert result.speedup == pytest.approx(1.0)

    def test_speedup_grows_with_codec_share(self):
        from repro.workloads.spark import SparkJobModel, tpcds_like_profile

        small = SparkJobModel().run(tpcds_like_profile(scale_gb=0.5))
        large = SparkJobModel().run(tpcds_like_profile(scale_gb=3.0))
        assert large.speedup > small.speedup

    def test_z15_at_least_as_fast(self):
        from repro.nx.params import Z15
        from repro.workloads.spark import SparkJobModel

        p9 = SparkJobModel().run()
        z15 = SparkJobModel(machine=Z15).run()
        assert z15.offload_seconds <= p9.offload_seconds * 1.4

    def test_stage_timing_components(self):
        from repro.workloads.spark import SparkJobModel, tpcds_like_profile

        model = SparkJobModel()
        stage = tpcds_like_profile()[3]
        timing = model.stage_timing(stage)
        assert timing.software_seconds > timing.offload_seconds
        assert timing.codec_core_seconds > 0
