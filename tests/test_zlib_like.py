"""The zlib-shaped facade: wbits dispatch and streaming objects."""

import gzip as stdgzip
import zlib as stdzlib

import pytest

from repro.deflate import zlib_like
from repro.deflate.stream import DecompressStream
from repro.errors import DeflateError
from repro.workloads.generators import generate


class TestOneShot:
    def test_wbits_zlib(self, text_20k):
        payload = zlib_like.compress(text_20k, wbits=15)
        assert stdzlib.decompress(payload) == text_20k
        assert zlib_like.decompress(payload, wbits=15) == text_20k

    def test_wbits_raw(self, text_20k):
        payload = zlib_like.compress(text_20k, wbits=-15)
        assert stdzlib.decompress(payload, -15) == text_20k
        assert zlib_like.decompress(payload, wbits=-15) == text_20k

    def test_wbits_gzip(self, text_20k):
        payload = zlib_like.compress(text_20k, wbits=31)
        assert stdgzip.decompress(payload) == text_20k
        assert zlib_like.decompress(payload, wbits=31) == text_20k

    def test_wbits_zero_rejected(self):
        with pytest.raises(DeflateError):
            zlib_like.compress(b"x", wbits=0)

    def test_zdict_zlib(self, json_20k):
        d = json_20k[:4000]
        payload = zlib_like.compress(json_20k, wbits=15, zdict=d)
        assert zlib_like.decompress(payload, wbits=15, zdict=d) == json_20k

    def test_zdict_raw(self, json_20k):
        d = json_20k[:4000]
        payload = zlib_like.compress(json_20k, wbits=-15, zdict=d)
        assert zlib_like.decompress(payload, wbits=-15,
                                    zdict=d) == json_20k

    def test_zdict_gzip_rejected(self):
        with pytest.raises(DeflateError):
            zlib_like.compress(b"x", wbits=31, zdict=b"d")


class TestCompressObj:
    def _chunks(self, data, size=7000):
        return [data[i:i + size] for i in range(0, len(data), size)]

    @pytest.mark.parametrize("wbits,decoder", [
        (-15, lambda p: stdzlib.decompress(p, -15)),
        (15, stdzlib.decompress),
        (31, stdgzip.decompress),
    ])
    def test_streaming_all_containers(self, wbits, decoder, text_20k):
        obj = zlib_like.compressobj(wbits=wbits)
        for chunk in self._chunks(text_20k):
            obj.compress(chunk)
        payload = obj.flush()
        assert decoder(payload) == text_20k

    def test_flush_with_last_chunk(self, json_20k):
        """The last chunk goes through compress(); flush() ends the
        stream after it, as stdlib's does."""
        obj = zlib_like.compressobj(wbits=-15)
        obj.compress(json_20k[:10000])
        obj.compress(json_20k[10000:])
        payload = obj.flush()
        assert stdzlib.decompress(payload, -15) == json_20k

    def test_double_flush_rejected(self):
        obj = zlib_like.compressobj()
        obj.flush()
        with pytest.raises(DeflateError):
            obj.flush()

    def test_compress_after_flush_rejected(self):
        obj = zlib_like.compressobj()
        obj.flush()
        with pytest.raises(DeflateError):
            obj.compress(b"late")

    def test_zdict_streaming(self, json_20k):
        d = json_20k[:5000]
        obj = zlib_like.compressobj(wbits=-15, zdict=d)
        for chunk in self._chunks(json_20k[5000:]):
            obj.compress(chunk)
        payload = obj.flush()
        dec = stdzlib.decompressobj(-15, zdict=d)
        assert dec.decompress(payload) == json_20k[5000:]

    def test_zdict_streaming_zlib(self, json_20k):
        """The zlib header names the dictionary (FDICT + DICTID), so
        stdlib can find and check it."""
        d = json_20k[:5000]
        obj = zlib_like.compressobj(wbits=15, zdict=d)
        for chunk in self._chunks(json_20k[5000:]):
            obj.compress(chunk)
        payload = obj.flush()
        dec = stdzlib.decompressobj(15, zdict=d)
        assert dec.decompress(payload) == json_20k[5000:]
        assert zlib_like.decompress(payload, wbits=15,
                                    zdict=d) == json_20k[5000:]

    def test_zdict_gzip_refused_at_construction(self):
        """gzip has no field to name a dictionary; stdlib refuses the
        combination when the object is made, and so do we."""
        with pytest.raises(DeflateError, match="DICTID"):
            zlib_like.compressobj(wbits=31, zdict=b"dictionary")

    def test_window_carry_improves_ratio(self):
        data = generate("log_lines", 80000, seed=19)
        streaming = zlib_like.compressobj(wbits=-15)
        for chunk in self._chunks(data, 4096):
            streaming.compress(chunk)
        carried = len(streaming.flush())
        isolated = sum(len(zlib_like.compress(c, wbits=-15))
                       for c in self._chunks(data, 4096))
        assert carried < isolated


class TestDecompressObj:
    def test_unit_roundtrip(self, text_20k):
        from repro.deflate.compress import deflate

        units = []
        hist = b""
        chunks = [text_20k[i:i + 6000]
                  for i in range(0, len(text_20k), 6000)]
        for idx, chunk in enumerate(chunks):
            units.append(deflate(chunk, 6, history=hist,
                                 final=idx == len(chunks) - 1).data)
            hist = (hist + chunk)[-32768:]
        dec = DecompressStream("raw")
        out = b""
        for unit in units:
            out += dec.feed(unit)
        out += dec.finish()
        assert out == text_20k

    def test_zdict_decompressobj(self, json_20k):
        from repro.deflate.compress import deflate

        d = json_20k[:5000]
        unit = deflate(json_20k[5000:], 6, history=d, final=True).data
        dec = DecompressStream("raw", zdict=d)
        assert dec.feed(unit) + dec.finish() == json_20k[5000:]

    @pytest.mark.parametrize("primed", [False, True], ids=["", "zdict"])
    def test_a_unit_may_arrive_in_two_pieces(self, json_20k, primed):
        """Any chunking: a unit cut at any byte and fed in two calls
        gives the plaintext of the unit fed whole."""
        from repro.deflate.compress import deflate

        zdict = json_20k[:5000] if primed else b""
        first, last = json_20k[5000:9000], json_20k[9000:12000]
        units = [deflate(first, 6, history=zdict, final=False).data,
                 deflate(last, 6, history=zdict + first, final=True).data]
        for split in (0, 1):
            for cut in range(len(units[split]) + 1):
                dec = DecompressStream("raw", zdict=zdict)
                out = b""
                for idx, unit in enumerate(units):
                    if idx == split:
                        out += dec.feed(unit[:cut])
                        unit = unit[cut:]
                    out += dec.feed(unit)
                assert out + dec.finish() == first + last
