"""842 codec and engine model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.e842.codec import (
    CHUNK,
    OP_BITS,
    TEMPLATES,
    E842Error,
    compress,
    decompress,
    template_cost_bits,
)
from repro.e842.engine import PIPELINE_FILL_CYCLES, Engine842
from repro.errors import OutputOverflow
from repro.workloads.generators import generate


class TestTemplates:
    def test_every_template_covers_eight_bytes(self):
        widths = {"D8": 8, "D4": 4, "D2": 2, "I8": 8, "I4": 4, "I2": 2}
        for opcode, actions in TEMPLATES.items():
            assert sum(widths[a] for a in actions) == CHUNK, hex(opcode)

    def test_literal_template_is_most_expensive(self):
        d8 = template_cost_bits(TEMPLATES[0x00])
        for opcode, actions in TEMPLATES.items():
            if opcode != 0x00:
                assert template_cost_bits(actions) < d8

    def test_i8_is_cheapest(self):
        i8 = template_cost_bits(TEMPLATES[0x19])
        assert i8 == OP_BITS + 8
        assert all(template_cost_bits(a) >= i8 for a in TEMPLATES.values())


class TestRoundtrip:
    @pytest.mark.parametrize("generator", [
        "markov_text", "json_records", "database_pages", "random_bytes",
        "zero_bytes", "binary_executable", "log_lines", "dna_sequence",
    ])
    def test_generators(self, generator):
        data = generate(generator, 20000, seed=21)
        assert decompress(compress(data).data) == data

    @pytest.mark.parametrize("data", [
        b"", b"x", b"1234567", b"12345678", b"123456789",
        b"\x00" * 8, b"\x00" * 800, b"ab" * 100, bytes(range(256)),
    ])
    def test_edges(self, data):
        assert decompress(compress(data).data) == data

    def test_repeat_run_compresses_hard(self):
        data = b"ABCDEFGH" * 1000
        result = compress(data)
        assert result.ratio > 50
        assert result.stats.repeat_chunks > 900

    def test_zero_chunks_counted(self):
        result = compress(bytes(80))
        assert result.stats.zero_chunks >= 1

    def test_short_tail_counted(self):
        result = compress(b"12345678" + b"abc")
        assert result.stats.short_bytes == 3

    def test_random_expansion_bounded(self):
        data = generate("random_bytes", 16384, seed=5)
        result = compress(data)
        # 5-bit opcode per 64 data bits -> <9% worst-case expansion.
        assert len(result.data) < len(data) * 1.09


class TestErrors:
    def test_truncated_stream(self):
        payload = compress(b"hello world padding!").data
        with pytest.raises(Exception):
            decompress(payload[:2])

    def test_repeat_without_previous(self):
        from repro.deflate.bitio import BitWriter
        from repro.e842.codec import OP_REPEAT

        w = BitWriter()
        w.write_bits(OP_REPEAT, OP_BITS)
        w.write_bits(0, 6)
        with pytest.raises(E842Error):
            decompress(w.getvalue())

    def test_reserved_opcode(self):
        from repro.deflate.bitio import BitWriter

        w = BitWriter()
        w.write_bits(0x1F, OP_BITS)
        with pytest.raises(E842Error):
            decompress(w.getvalue())

    def test_output_cap(self):
        payload = compress(bytes(100000)).data
        with pytest.raises(OutputOverflow):
            decompress(payload, max_output=1000)


class TestVsGzip:
    """The trade the paper's gzip engines win: ratio for simplicity."""

    def test_gzip_ratio_beats_842(self):
        from repro.deflate.compress import deflate

        for generator in ("markov_text", "json_records", "log_lines"):
            data = generate(generator, 30000, seed=31)
            gzip_ratio = deflate(data, level=6).ratio
            e842_ratio = compress(data).ratio
            assert gzip_ratio > e842_ratio, generator

    def test_842_engine_faster_than_gzip_engine(self):
        from repro.nx.compressor import NxCompressor
        from repro.nx.dht import DhtStrategy
        from repro.nx.params import POWER9

        data = generate("database_pages", 65536, seed=32)
        e842 = Engine842().compress(data)
        gzip = NxCompressor(POWER9.engine).compress(
            data, strategy=DhtStrategy.DYNAMIC)
        assert e842.throughput_gbps > gzip.throughput_gbps


class TestEngine:
    def test_cycles_track_width(self):
        result = Engine842().compress(bytes(8000))  # 8 bytes a cycle
        assert result.cycles == PIPELINE_FILL_CYCLES + 1000

    def test_decompress_roundtrip(self):
        engine = Engine842()
        data = generate("json_records", 30000, seed=33)
        comp = engine.compress(data)
        out = engine.decompress(comp.data, max_output=len(data))
        assert out.data == data
        assert out.throughput_gbps > 0


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=2000))
def test_roundtrip_property(data):
    assert decompress(compress(data).data) == data


@settings(max_examples=25, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=16), min_size=1,
                max_size=8),
       st.integers(min_value=1, max_value=40))
def test_repetitive_roundtrip_property(pieces, reps):
    data = b"".join(pieces) * reps
    result = compress(data)
    assert decompress(result.data) == data


class TestE842ThroughAccelerator:
    """The 842 engines are reachable through the same CRB/VAS path."""

    def _driver(self):
        from repro.nx.accelerator import NxAccelerator
        from repro.nx.params import POWER9
        from repro.sysstack.driver import NxDriver
        from repro.sysstack.mmu import AddressSpace

        space = AddressSpace()
        driver = NxDriver(NxAccelerator(POWER9), space)
        driver.open()
        return driver

    def test_crb_roundtrip(self):
        from repro.sysstack.crb import Op

        driver = self._driver()
        data = generate("database_pages", 50000, seed=8)
        comp = driver.run(Op.COMPRESS_842, data)
        back = driver.run(Op.DECOMPRESS_842, comp.output)
        assert back.output == data

    def test_routed_to_dedicated_engine(self):
        from repro.sysstack.crb import Op

        driver = self._driver()
        data = generate("markov_text", 20000, seed=9)
        driver.run(Op.COMPRESS_842, data)
        driver.run(Op.COMPRESS, data)
        accel = driver.accelerator
        assert accel.e842_engine.counters.jobs == 1
        assert accel.compress_engine.counters.jobs == 1

    def test_decompress_842_overflow_grows(self):
        from repro.sysstack.crb import Op

        driver = self._driver()
        data = bytes(200000)  # compresses ~400x: 4x target is too small
        comp = driver.run(Op.COMPRESS_842, data)
        back = driver.run(Op.DECOMPRESS_842, comp.output)
        assert back.output == data
        assert back.stats.target_overflows >= 1

    def test_corrupt_842_rejected_with_data_length(self):
        from repro.errors import JobError
        from repro.sysstack.crb import Op

        driver = self._driver()
        with pytest.raises(JobError):
            driver.run(Op.DECOMPRESS_842, b"\xff" * 64)
