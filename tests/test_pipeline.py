"""NX scan pipeline: functional tokens and cycle accounting."""

import pytest

from repro.deflate.constants import MAX_MATCH, MIN_MATCH, WINDOW_SIZE
from repro.nx.params import POWER9, Z15
from repro.nx.pipeline import NxMatchPipeline

from .test_matcher import assert_tokens_valid, reconstruct


@pytest.fixture
def p9_pipe():
    return NxMatchPipeline(POWER9.engine)


class TestFunctional:
    def test_roundtrip(self, p9_pipe, payload_suite):
        for name, data in payload_suite.items():
            result = p9_pipe.scan(data)
            assert_tokens_valid(result.tokens, data)
            assert reconstruct(result.tokens) == data, name

    def test_finds_repeats(self, p9_pipe):
        result = p9_pipe.scan(b"0123456789" * 50)
        assert result.stats.matches > 0

    def test_greedy_no_lazy(self, p9_pipe):
        """Hardware takes the first acceptable match; software's lazy
        matcher may find a longer one starting one byte later."""
        data = b"ab" + b"bcd" * 4 + b"Xabcd" * 8
        result = p9_pipe.scan(data)
        assert reconstruct(result.tokens) == data

    def test_incompressible_all_literals(self, p9_pipe, random_8k):
        result = p9_pipe.scan(random_8k)
        assert result.stats.literals > 0.95 * len(random_8k)

    def test_stats_cover_input(self, p9_pipe, json_20k):
        result = p9_pipe.scan(json_20k)
        assert result.stats.input_bytes == len(json_20k)

    def test_state_reset_between_scans(self, p9_pipe):
        p9_pipe.scan(b"abcabcabc")
        result = p9_pipe.scan(b"abcabcabc")
        # Identical scans: history from the first must not leak.
        again = NxMatchPipeline(POWER9.engine).scan(b"abcabcabc")
        assert result.tokens == again.tokens


class TestCycles:
    def test_scan_cycles_match_width(self, p9_pipe):
        n = 4096
        result = p9_pipe.scan(bytes(range(256)) * (n // 256))
        width = POWER9.engine.scan_bytes_per_cycle
        assert result.scan_cycles == -(-n // width)

    def test_z15_scans_in_half_the_cycles(self, text_20k):
        p9 = NxMatchPipeline(POWER9.engine).scan(text_20k)
        z15 = NxMatchPipeline(Z15.engine).scan(text_20k)
        assert z15.scan_cycles == -(-p9.scan_cycles * 4 // 8)

    def test_stalls_bounded(self, p9_pipe, text_20k):
        """Dual-ported banks keep conflict loss below a few percent."""
        result = p9_pipe.scan(text_20k)
        assert result.conflict_stalls < 0.05 * result.scan_cycles

    def test_empty_input(self, p9_pipe):
        result = p9_pipe.scan(b"")
        assert result.scan_cycles == 0
        assert result.tokens == []


class TestMatchQuality:
    def test_ratio_between_zlib1_and_zlib9(self, text_20k):
        """The hardware policy sits near zlib -6: much better than a
        crude matcher, at most a few percent behind deep lazy search."""
        from repro.deflate.compress import deflate

        hw_tokens = NxMatchPipeline(POWER9.engine).scan(text_20k)
        hw_match_bytes = hw_tokens.stats.match_bytes
        _t, s9 = __import__(
            "repro.deflate.matcher", fromlist=["tokenize"]).tokenize(
                text_20k, 9)
        assert hw_match_bytes >= 0.9 * s9.match_bytes

    def test_match_fields_legal(self, p9_pipe, binary_20k):
        result = p9_pipe.scan(binary_20k)
        for tok in result.tokens:
            if not isinstance(tok, int):
                length, dist = tok
                assert MIN_MATCH <= length <= MAX_MATCH
                assert 1 <= dist <= WINDOW_SIZE
