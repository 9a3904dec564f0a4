"""Streaming (continuation) compression and dictionary support."""

import gzip as stdgzip
import zlib as stdzlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NxGzip
from repro.deflate.compress import deflate
from repro.deflate.containers import zlib_compress, zlib_decompress
from repro.deflate.inflate import inflate_with_stats
from repro.deflate.stream import DecompressStream
from repro.errors import (AcceleratorError, ChecksumError, ConfigError,
                          DeflateError, StreamStateError)
from repro.nx.compressor import NxCompressor
from repro.nx.dht import DhtStrategy
from repro.nx.params import POWER9
from repro.workloads.generators import generate


@pytest.fixture(scope="module")
def stream_data():
    return generate("log_lines", 120000, seed=8)


def chunked(data, size):
    return [data[i:i + size] for i in range(0, len(data), size)]


class TestDictionaryCodec:
    def test_deflate_with_history_roundtrip(self, json_20k):
        hist = json_20k[:8000]
        data = json_20k[8000:]
        payload = deflate(data, level=6, history=hist).data
        out, _s, _b = inflate_with_stats(payload, history=hist)
        assert out == data

    def test_stdlib_zdict_decodes_ours(self, json_20k):
        hist = json_20k[:8000]
        data = json_20k[8000:]
        payload = deflate(data, level=6, history=hist).data
        obj = stdzlib.decompressobj(-15, zdict=hist)
        assert obj.decompress(payload) == data

    def test_we_decode_stdlib_zdict(self, json_20k):
        hist = json_20k[:8000]
        data = json_20k[8000:]
        comp = stdzlib.compressobj(6, stdzlib.DEFLATED, -15, zdict=hist)
        payload = comp.compress(data) + comp.flush()
        out, _s, _b = inflate_with_stats(payload, history=hist)
        assert out == data

    def test_dictionary_improves_ratio_on_shared_schema(self):
        hist = generate("json_records", 16384, seed=70)
        data = generate("json_records", 16384, seed=71)
        plain = len(deflate(data, level=6).data)
        primed = len(deflate(data, level=6, history=hist).data)
        assert primed < plain

    def test_zlib_container_fdict(self, json_20k):
        hist = json_20k[:4000]
        data = json_20k[4000:]
        payload = zlib_compress(data, 6, zdict=hist)
        assert payload[1] & 0x20  # FDICT set
        assert zlib_decompress(payload, zdict=hist) == data
        obj = stdzlib.decompressobj(zdict=hist)
        assert obj.decompress(payload) == data

    def test_fdict_wrong_dictionary_rejected(self, json_20k):
        payload = zlib_compress(json_20k, 6, zdict=b"right dictionary")
        with pytest.raises(ChecksumError):
            zlib_decompress(payload, zdict=b"wrong dictionary")

    def test_fdict_missing_dictionary_rejected(self, json_20k):
        payload = zlib_compress(json_20k, 6, zdict=b"needed")
        with pytest.raises(DeflateError):
            zlib_decompress(payload)

    def test_history_longer_than_window_truncated(self, text_20k):
        hist = bytes(40000) + text_20k
        payload = deflate(text_20k, level=6, history=hist).data
        obj = stdzlib.decompressobj(-15, zdict=hist[-32768:])
        assert obj.decompress(payload) == text_20k


class TestNxHistory:
    def test_compressor_history_roundtrip(self, stream_data):
        comp = NxCompressor(POWER9.engine)
        hist = stream_data[:32768]
        data = stream_data[32768:65536]
        result = comp.compress(data, strategy=DhtStrategy.DYNAMIC,
                               history=hist)
        obj = stdzlib.decompressobj(-15, zdict=hist)
        assert obj.decompress(result.data) == data

    def test_history_charges_cycles(self, stream_data):
        comp = NxCompressor(POWER9.engine)
        data = stream_data[32768:65536]
        plain = comp.compress(data, strategy=DhtStrategy.FIXED)
        primed = comp.compress(data, strategy=DhtStrategy.FIXED,
                               history=stream_data[:32768])
        assert primed.cycles.history_load > 0
        assert primed.cycles.total > plain.cycles.total

    def test_nonfinal_requires_raw(self):
        comp = NxCompressor(POWER9.engine)
        with pytest.raises(AcceleratorError):
            comp.compress(b"abc", fmt="gzip", final=False)

    def test_continuation_units_concatenate(self, stream_data):
        comp = NxCompressor(POWER9.engine)
        chunks = chunked(stream_data, 30000)
        parts = []
        hist = b""
        for idx, chunk in enumerate(chunks):
            result = comp.compress(chunk, strategy=DhtStrategy.DYNAMIC,
                                   history=hist,
                                   final=idx == len(chunks) - 1)
            parts.append(result.data)
            hist = (hist + chunk)[-32768:]
        assert stdzlib.decompress(b"".join(parts), -15) == stream_data


class TestCompressStream:
    @pytest.mark.parametrize("fmt", ["gzip", "zlib", "raw"])
    def test_stream_roundtrip(self, fmt, stream_data):
        with NxGzip("POWER9") as session:
            stream = session.compress_stream(fmt=fmt)
            wire = b""
            for chunk in chunked(stream_data, 25000):
                wire += stream.write(chunk)
            wire += stream.finish()
        if fmt == "gzip":
            assert stdgzip.decompress(wire) == stream_data
        elif fmt == "zlib":
            assert stdzlib.decompress(wire) == stream_data
        else:
            assert stdzlib.decompress(wire, -15) == stream_data

    def test_stream_beats_independent_chunks(self, stream_data):
        """Window carry across chunks buys ratio vs. isolated requests."""
        with NxGzip("POWER9") as session:
            stream = session.compress_stream(fmt="raw")
            wire = b""
            for chunk in chunked(stream_data, 8192):
                wire += stream.write(chunk)
            wire += stream.finish()
        comp = NxCompressor(POWER9.engine)
        isolated = sum(
            len(comp.compress(c).data)
            for c in chunked(stream_data, 8192))
        assert len(wire) < isolated

    def test_write_after_finish_rejected(self, stream_data):
        with NxGzip("POWER9") as session:
            stream = session.compress_stream()
            stream.finish(stream_data[:1000])
            with pytest.raises(StreamStateError):
                stream.write(b"more")

    def test_empty_stream(self):
        with NxGzip("POWER9") as session:
            stream = session.compress_stream(fmt="gzip")
            wire = stream.finish()
        assert stdgzip.decompress(wire) == b""

    def test_stats_accumulate(self, stream_data):
        with NxGzip("POWER9") as session:
            stream = session.compress_stream(fmt="raw")
            for chunk in chunked(stream_data[:60000], 20000):
                stream.write(chunk)
            stream.finish()
        assert session.stats.requests == 4  # 3 writes + final empty
        assert session.stats.bytes_in == 60000
        assert session.stats.modelled_seconds > 0

    @pytest.mark.parametrize("fmt", ["bogus", "842"])
    def test_unknown_format_refused(self, fmt):
        """A stream frames one of the wire formats or none: a name the
        table does not know is refused before any unit is compressed."""
        with NxGzip("POWER9") as session:
            with pytest.raises(ConfigError):
                session.compress_stream(fmt=fmt)
            assert session.stats.requests == 0

    def test_faults_during_streaming_recovered(self, stream_data):
        with NxGzip("POWER9", fault_probability=0.02, seed=5) as session:
            stream = session.compress_stream(fmt="gzip")
            wire = b""
            for chunk in chunked(stream_data[:80000], 20000):
                wire += stream.write(chunk)
            wire += stream.finish()
        assert stdgzip.decompress(wire) == stream_data[:80000]


class TestDecompressStream:
    def test_unit_by_unit_decode(self, stream_data):
        with NxGzip("POWER9") as session:
            cstream = session.compress_stream(fmt="raw")
            units = [cstream.write(chunk)
                     for chunk in chunked(stream_data, 30000)]
            units.append(cstream.finish())

        dstream = DecompressStream("raw")
        out = b""
        for unit in units:
            out += dstream.feed(unit)
        out += dstream.finish()
        assert out == stream_data

    def test_a_unit_may_arrive_in_two_pieces(self, stream_data):
        """A unit cut at any byte and handed over in two calls decodes
        to what it does whole — first unit (no window yet) and second
        (matches reach into the carried window) alike."""
        data = stream_data[:12000]
        with NxGzip("POWER9") as session:
            cstream = session.compress_stream(fmt="raw")
            units = [cstream.write(data[:6000]), cstream.finish(data[6000:])]
        for split in (0, 1):
            for cut in range(0, len(units[split]) + 1, 7):
                dstream = DecompressStream("raw")
                out = b""
                for idx, unit in enumerate(units):
                    if idx == split:
                        out += dstream.feed(unit[:cut])
                        unit = unit[cut:]
                    out += dstream.feed(unit)
                assert out + dstream.finish() == data


@settings(max_examples=20, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=3000), min_size=1,
                max_size=6))
def test_streaming_roundtrip_property(chunks):
    comp = NxCompressor(POWER9.engine)
    parts = []
    hist = b""
    for idx, chunk in enumerate(chunks):
        result = comp.compress(chunk, strategy=DhtStrategy.AUTO,
                               history=hist,
                               final=idx == len(chunks) - 1)
        parts.append(result.data)
        hist = (hist + chunk)[-32768:]
    assert stdzlib.decompress(b"".join(parts), -15) == b"".join(chunks)
