"""NX decompressor: functional decode plus cycle model behaviour."""

import gzip as stdgzip
import zlib as stdzlib

import pytest

from repro.deflate.compress import deflate
from repro.errors import AcceleratorError, DeflateError
from repro.nx.compressor import NxCompressor
from repro.nx.decompressor import NxDecompressor
from repro.nx.dht import DhtStrategy
from repro.nx.params import POWER9, Z15


@pytest.fixture(scope="module")
def p9_decomp():
    return NxDecompressor(POWER9.engine)


class TestFunctional:
    def test_decodes_own_compressor(self, p9_decomp, payload_suite):
        comp = NxCompressor(POWER9.engine)
        for name, data in payload_suite.items():
            payload = comp.compress(data, strategy=DhtStrategy.AUTO).data
            assert p9_decomp.decompress(payload).data == data, name

    def test_decodes_software_zlib(self, p9_decomp, text_20k):
        for level in (1, 6, 9):
            payload = stdzlib.compress(text_20k, level)[2:-4]
            assert p9_decomp.decompress(payload).data == text_20k

    def test_gzip_format(self, p9_decomp, text_20k):
        payload = stdgzip.compress(text_20k)
        result = p9_decomp.decompress(payload, fmt="gzip")
        assert result.data == text_20k

    def test_zlib_format(self, p9_decomp, text_20k):
        payload = stdzlib.compress(text_20k)
        result = p9_decomp.decompress(payload, fmt="zlib")
        assert result.data == text_20k

    def test_bad_format_rejected(self, p9_decomp):
        with pytest.raises(AcceleratorError):
            p9_decomp.decompress(b"x", fmt="snappy")

    def test_corrupt_stream_raises(self, p9_decomp, text_20k):
        payload = bytearray(deflate(text_20k, level=6).data)
        payload[1] ^= 0xFF
        with pytest.raises(DeflateError):
            p9_decomp.decompress(bytes(payload))

    def test_output_cap(self, p9_decomp):
        """The request ends at the last block that fits the target, with
        the state the next one goes on from."""
        payload = deflate(bytes(100000), level=6).data
        result = p9_decomp.decompress(payload, max_output=1000)
        assert len(result.data) <= 1000 and result.resume is not None


class TestTiming:
    def test_throughput_in_band(self, p9_decomp, text_20k):
        payload = deflate(text_20k, level=6).data
        result = p9_decomp.decompress(payload)
        assert 8.0 < result.throughput_gbps < 16.5

    def test_z15_faster_than_p9(self, text_20k):
        payload = deflate(text_20k, level=6).data
        p9 = NxDecompressor(POWER9.engine).decompress(payload)
        z15 = NxDecompressor(Z15.engine).decompress(payload)
        assert z15.cycles < p9.cycles

    def test_dynamic_blocks_cost_table_setup(self, text_20k):
        one_block = deflate(text_20k, level=6).data
        many_blocks = deflate(text_20k, level=6, block_tokens=256).data
        d = NxDecompressor(POWER9.engine)
        r_one = d.decompress(one_block)
        r_many = d.decompress(many_blocks)
        per_out_one = r_one.cycles / len(r_one.data)
        per_out_many = r_many.cycles / len(r_many.data)
        assert per_out_many > per_out_one

    def test_stats_carry_block_types(self, p9_decomp, text_20k):
        payload = deflate(text_20k, level=6).data
        result = p9_decomp.decompress(payload)
        assert result.stats.blocks
        assert result.stats.literals + result.stats.match_bytes \
            == len(text_20k)

    def test_decompression_faster_than_compression(self, text_20k):
        comp = NxCompressor(POWER9.engine)
        c = comp.compress(text_20k, strategy=DhtStrategy.DYNAMIC)
        d = NxDecompressor(POWER9.engine).decompress(c.data)
        assert d.throughput_gbps > c.throughput_gbps
