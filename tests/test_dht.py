"""DHT strategies: generation cost, canned library, classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate.constants import NUM_DIST_SYMBOLS, NUM_LITLEN_SYMBOLS
from repro.deflate.huffman import kraft_sum
from repro.errors import ConfigError
from repro.nx.dht import (
    BUILTIN,
    CannedLibrary,
    DhtResult,
    DhtStrategy,
    _byte_class_vector,
    canned_dht,
    canned_names,
    dynamic_generation_cycles,
    fixed_dht,
    generate_dynamic,
    sample_signature,
    select_canned,
)
from repro.nx.params import POWER9, Z15
from repro.workloads.generators import generate


class TestFixedDht:
    def test_zero_cost(self):
        assert fixed_dht().generation_cycles == 0

    def test_covers_all_symbols(self):
        dht = fixed_dht()
        assert all(length > 0 for length in dht.litlen_lengths)
        assert all(length > 0 for length in dht.dist_lengths)


class TestDynamicDht:
    def _freqs(self):
        lit = [0] * NUM_LITLEN_SYMBOLS
        for byte in b"the quick brown fox":
            lit[byte] += 10
        lit[256] = 1
        lit[260] = 5
        dist = [0] * NUM_DIST_SYMBOLS
        dist[3] = 5
        dist[10] = 2
        return lit, dist

    def test_generation_produces_decodable_codes(self):
        lit, dist = self._freqs()
        dht = generate_dynamic(lit, dist, POWER9.engine)
        assert kraft_sum(dht.litlen_lengths) == pytest.approx(1.0)
        assert kraft_sum(dht.dist_lengths) == pytest.approx(1.0)

    def test_cost_scales_with_used_symbols(self):
        lit, dist = self._freqs()
        small = dynamic_generation_cycles(lit, dist, POWER9.engine)
        lit2 = list(lit)
        for sym in range(64):
            lit2[sym] += 1
        large = dynamic_generation_cycles(lit2, dist, POWER9.engine)
        assert large > small

    def test_z15_generator_is_faster(self):
        lit, dist = self._freqs()
        assert (dynamic_generation_cycles(lit, dist, Z15.engine)
                < dynamic_generation_cycles(lit, dist, POWER9.engine))

    def test_source_tag(self):
        lit, dist = self._freqs()
        assert generate_dynamic(lit, dist, POWER9.engine).source == "dynamic"


class TestCannedDht:
    def test_names_stable(self):
        assert canned_names() == ["binary", "flat", "structured", "text"]

    @pytest.mark.parametrize("name", canned_names())
    def test_covers_every_legal_symbol(self, name):
        dht = canned_dht(name)
        # All literals, EOB and length codes must be encodable.
        assert all(length > 0 for length in dht.litlen_lengths[:286])
        # Reserved symbols must NOT be in the header.
        assert dht.litlen_lengths[286] == 0
        assert dht.litlen_lengths[287] == 0
        assert all(length > 0 for length in dht.dist_lengths)

    @pytest.mark.parametrize("name", canned_names())
    def test_codes_complete(self, name):
        dht = canned_dht(name)
        used = [length for length in dht.litlen_lengths if length]
        assert kraft_sum(used) == pytest.approx(1.0)

    def test_lookup_cost_small(self):
        assert canned_dht("text").generation_cycles < 100

    def test_cached(self):
        assert canned_dht("text") is canned_dht("text")


def fresh_header_bits(dht: DhtResult) -> int:
    """The header cost recomputed from the lengths alone."""
    return DhtResult(dht.litlen_lengths, dht.dist_lengths,
                     dht.generation_cycles, dht.source).header_bits


class TestHeaderCost:
    """A table's header cost is worked out once and never goes stale."""

    SPARSE = ((9,) * 257 + (0,) * 31, (0,) * NUM_DIST_SYMBOLS)
    FULL = ((8,) * 256 + (9,) + (7,) * 29 + (0, 0), (5,) * NUM_DIST_SYMBOLS)

    def test_canned_cost_not_recomputed_per_request(self, monkeypatch):
        from repro.deflate import compress as deflate_compress
        from repro.nx.compressor import NxCompressor

        data = generate("markov_text", 4096, seed=5)
        comp = NxCompressor(POWER9.engine)
        first = comp.compress(data)  # warms the canned table's cost
        calls = []
        real = deflate_compress.dynamic_header_cost_bits
        monkeypatch.setattr(
            deflate_compress, "dynamic_header_cost_bits",
            lambda ops, cl: calls.append(1) or real(ops, cl))
        assert comp.compress(data).data == first.data
        # Only the request's own dynamic table is costed.
        assert len(calls) == 1

    @pytest.mark.parametrize("name", canned_names())
    def test_cached_cost_equals_fresh(self, name):
        dht = canned_dht(name)
        assert dht.header_bits == fresh_header_bits(dht)

    def test_replaced_and_cleared_tables_drop_their_cost(self):
        """A library that replaces a name's table, or one without it,
        keeps none of the old table's cost."""
        name = "tenant.c0.v1"

        def library(lit, dist):
            return CannedLibrary({name: (lit, dist, (0.0,) * 20, 4096)})

        sparse_bits = library(*self.SPARSE).dht(name).header_bits
        full = library(*self.FULL).dht(name)
        assert full.header_bits == fresh_header_bits(full) != sparse_bits
        with pytest.raises(ConfigError):
            BUILTIN.dht(name)
        assert library(*self.SPARSE).dht(name).header_bits == sparse_bits


class TestOneHeaderOneEncoderPair:
    """What a block shipping a table needs is built once per table."""

    NAME = "tenant.c0.v1"

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts of header builds and lit/len + distance encoder builds."""
        from repro.deflate import compress as deflate_compress
        from repro.nx import dht as dht_module

        counts = {"header": 0, "encoder": 0}
        real_header = deflate_compress.code_length_header
        real_encoder = dht_module.HuffmanEncoder

        def header(lit, dist):
            counts["header"] += 1
            return real_header(lit, dist)

        def encoder(lengths):
            counts["encoder"] += 1
            return real_encoder(lengths)

        monkeypatch.setattr(deflate_compress, "code_length_header", header)
        monkeypatch.setattr(dht_module, "HuffmanEncoder", encoder)
        return counts

    def test_canned_table_built_once_across_requests(self, builds):
        from repro.nx.compressor import NxCompressor

        text = canned_dht("text")
        library = CannedLibrary({self.NAME: (
            text.litlen_lengths, text.dist_lengths, (0.0,) * 20, 4096)})
        comp = NxCompressor(POWER9.engine)
        outputs = set()
        for seed in range(6):
            result = comp.compress(generate("markov_text", 4096, seed=seed),
                                   strategy=DhtStrategy.CANNED,
                                   canned_name=self.NAME, library=library)
            assert result.dht_sources == [self.NAME]
            outputs.add(result.data)
        assert len(outputs) == 6
        assert builds == {"header": 1, "encoder": 2}

    def test_dynamic_header_built_once_per_request(self, builds):
        from repro.nx.compressor import NxCompressor

        comp = NxCompressor(POWER9.engine)
        data = generate("markov_text", 4096, seed=5)
        comp.compress(data)  # warms the built-in canned table
        builds.update(header=0, encoder=0)
        for _ in range(3):
            # AUTO costs the request's own table, then ships it.
            assert comp.compress(data).dht_sources == ["dynamic"]
        assert builds == {"header": 3, "encoder": 6}

    def test_builtin_tables_cover_every_code(self):
        for name in canned_names():
            assert canned_dht(name).covers_all

    def test_covering_table_returns_tokens_untouched(self):
        from repro.nx.compressor import _demote_uncovered

        tokens = [object()]  # not a token: only a walk would trip on it
        assert _demote_uncovered(tokens, b"", canned_dht("flat")) is tokens

    @pytest.mark.parametrize("missing", ["length codes", "distance code 29"])
    def test_trained_table_with_missing_codes_demotes(self, missing):
        import zlib

        from repro.deflate.constants import DIST_TO_CODE
        from repro.deflate.huffman import limited_code_lengths
        from repro.nx.compressor import NxCompressor, _demote_uncovered
        from repro.nx.pipeline import NxMatchPipeline

        lit_freq, dist_freq = [1] * 286 + [0, 0], [1] * NUM_DIST_SYMBOLS
        if missing == "length codes":
            lit_freq[257:286] = [0] * 29
        else:
            dist_freq[29] = 0
        library = CannedLibrary({self.NAME: (
            limited_code_lengths(lit_freq, 15),
            limited_code_lengths(dist_freq, 15), (0.0,) * 20, 4096)})
        table = library.dht(self.NAME)
        assert not table.covers_all
        # Matches at every distance, the farthest in code 29's range.
        text = generate("log_lines", 2048, seed=3)
        data = text + generate("random_bytes", 26000, seed=3) + text

        def far(tokens):
            return [tok for tok in tokens
                    if type(tok) is tuple and DIST_TO_CODE[tok[1]] == 29]

        tokens = NxMatchPipeline(POWER9.engine).scan(data).tokens
        assert far(tokens)
        demoted = _demote_uncovered(tokens, data, table)
        if missing == "length codes":
            assert demoted == list(data)
        else:
            assert not far(demoted)
            assert len(demoted) - len(tokens) == sum(
                length - 1 for length, _dist in far(tokens))
        result = NxCompressor(POWER9.engine).compress(
            data, strategy=DhtStrategy.CANNED, canned_name=self.NAME,
            library=library)
        assert result.dht_sources == [self.NAME]
        assert zlib.decompress(result.data, -15) == data


class TestCannedLibrary:
    """The canned tables as one immutable, content-keyed value."""

    TABLE = ((8,) * 256 + (9,) + (7,) * 29 + (0, 0), (5,) * NUM_DIST_SYMBOLS,
             (0.5,) * 20, 4096)

    def test_key_is_the_content(self):
        import pickle

        one = CannedLibrary({"t.c0.v1": self.TABLE})
        assert one.key == CannedLibrary({"t.c0.v1": self.TABLE}).key
        assert one.key != CannedLibrary({"t.c0.v2": self.TABLE}).key
        assert CannedLibrary({}).key == BUILTIN.key != one.key
        copy = pickle.loads(pickle.dumps(one))
        assert copy.key == one.key
        assert copy.dht("t.c0.v1") == one.dht("t.c0.v1")

    @pytest.mark.parametrize("bad", [
        ("text", lambda lit, dist: (lit, dist)),
        ("t", lambda lit, dist: (lit[:-1], dist)),
        ("t", lambda lit, dist: (lit[:286] + (9, 0), dist)),
        ("t", lambda lit, dist: ((0,) + lit[1:], dist)),
        ("t", lambda lit, dist: (lit, (16,) + dist[1:])),
    ], ids=["shadows", "short", "reserved", "literal", "too-long"])
    def test_bad_table_refused(self, bad):
        name, mangle = bad
        lit, dist = mangle(*self.TABLE[:2])
        with pytest.raises(ConfigError):
            CannedLibrary({name: (lit, dist, *self.TABLE[2:])})

    def test_trained_table_claims_payloads_up_to_its_samples(self):
        sample = generate("json_records", 4096, seed=5)
        library = CannedLibrary({"t.c0.v1": (
            *self.TABLE[:2], sample_signature(sample), 4096)})
        assert library.select(sample, 4096) == "t.c0.v1"
        assert library.select(sample, 4097) == select_canned(sample)
        assert BUILTIN.select(sample, 4096) == select_canned(sample)


class TestSelectCanned:
    def test_text_classified(self):
        sample = generate("markov_text", 4096, seed=5)
        assert select_canned(sample) == "text"

    def test_random_classified_flat(self):
        sample = generate("random_bytes", 4096, seed=5)
        assert select_canned(sample) == "flat"

    def test_binary_classified(self):
        sample = generate("binary_executable", 4096, seed=5)
        assert select_canned(sample) == "binary"

    def test_structured_classified(self):
        sample = generate("json_records", 4096, seed=5)
        assert select_canned(sample) in ("structured", "text")

    def test_empty_defaults_to_text(self):
        assert select_canned(b"") in canned_names()


def loop_class_vector(sample: bytes) -> list[float]:
    """The classifier as it was written: one ``if`` ladder per byte."""
    bins = [0, 0, 0, 0]  # control, digits/punct, letters, high
    for byte in sample:
        if byte < 0x20:
            bins[0] += 1
        elif byte < 0x41:
            bins[1] += 1
        elif byte < 0x7F:
            bins[2] += 1
        else:
            bins[3] += 1
    total = max(1, len(sample))
    return [b / total for b in bins]


def loop_histogram_and_printable(sample: bytes) -> tuple[float, ...]:
    """The per-byte parts of ``sample_signature`` as they were written:
    its first 16 components and its 18th."""
    total = max(1, len(sample))
    hist16 = [0] * 16
    for byte in sample:
        hist16[byte >> 4] += 1
    printable = sum(1 for b in sample if 0x20 <= b < 0x7F) / total
    return (*(h / total for h in hist16), printable)


class TestClassifierEqualsTheByteLoop:
    """``translate`` + ``count`` give the identical floats."""

    @staticmethod
    def check(sample: bytes) -> None:
        assert _byte_class_vector(sample) == loop_class_vector(sample)
        signature = sample_signature(sample)
        assert (*signature[:16], signature[17]) == \
            loop_histogram_and_printable(sample[:4096])

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=5000))
    def test_any_bytes(self, sample):
        self.check(sample)

    def test_every_byte_value(self):
        every = bytes(range(256))
        self.check(every)
        assert _byte_class_vector(every) == [32 / 256, 33 / 256, 62 / 256,
                                             129 / 256]
        for value in range(256):  # each class boundary, one byte at a time
            self.check(bytes([value]))

    @pytest.mark.parametrize("family", ["markov_text", "binary_executable",
                                        "json_records"])
    def test_generated_families(self, family):
        self.check(generate(family, 6000, seed=9))

    def test_other_buffer_types(self):
        sample = generate("log_lines", 3000, seed=9)
        want = loop_class_vector(sample)
        assert _byte_class_vector(bytearray(sample)) == want
        assert _byte_class_vector(memoryview(sample)) == want
        assert sample_signature(bytearray(sample)) == \
            sample_signature(sample)


class TestStrategyEnum:
    def test_values(self):
        assert DhtStrategy("fixed") is DhtStrategy.FIXED
        assert DhtStrategy("auto") is DhtStrategy.AUTO
