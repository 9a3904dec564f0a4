"""Property-based tests across the accelerator surface + decoder fuzz."""

import zlib as stdzlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate.inflate import inflate
from repro.e842.codec import decompress as e842_decompress
from repro.errors import ReproError
from repro.nx.compressor import NxCompressor
from repro.nx.decompressor import NxDecompressor
from repro.nx.dht import DhtStrategy
from repro.nx.params import POWER9, Z15

_structured = st.builds(
    lambda chunks, reps: b"".join(chunk * reps for chunk in chunks),
    st.lists(st.binary(min_size=1, max_size=50), max_size=10),
    st.integers(min_value=1, max_value=25),
)
_payload = st.one_of(st.binary(max_size=3000), _structured)


@settings(max_examples=40, deadline=None)
@given(_payload, st.sampled_from(list(DhtStrategy)))
def test_nx_output_always_stdlib_decodable(data, strategy):
    result = NxCompressor(POWER9.engine).compress(data, strategy=strategy)
    assert stdzlib.decompress(result.data, -15) == data


@settings(max_examples=25, deadline=None)
@given(_payload)
def test_p9_and_z15_both_roundtrip(data):
    for machine in (POWER9, Z15):
        comp = NxCompressor(machine.engine).compress(
            data, strategy=DhtStrategy.AUTO)
        out = NxDecompressor(machine.engine).decompress(comp.data)
        assert out.data == data


@settings(max_examples=25, deadline=None)
@given(_payload)
def test_nx_never_worse_than_stored_plus_slack(data):
    result = NxCompressor(POWER9.engine).compress(
        data, strategy=DhtStrategy.AUTO)
    assert len(result.data) <= len(data) + 64 + 5 * (len(data) // 65535 + 1)


@settings(max_examples=25, deadline=None)
@given(_payload)
def test_cycles_monotone_in_input(data):
    comp = NxCompressor(POWER9.engine)
    small = comp.compress(data, strategy=DhtStrategy.FIXED)
    large = comp.compress(data + data, strategy=DhtStrategy.FIXED)
    assert large.cycles.scan >= small.cycles.scan


@settings(max_examples=30, deadline=None)
@given(_payload, st.sampled_from(["raw", "zlib", "gzip"]))
def test_session_formats_property(data, fmt):
    from repro import NxGzip

    wbits = {"raw": -15, "zlib": 15, "gzip": 31}[fmt]
    with NxGzip("POWER9") as session:
        comp = session.compress(data, fmt=fmt)
        assert stdzlib.decompress(comp.data, wbits) == data


class TestDecoderFuzz:
    """Malformed input must raise a library error, never crash or hang."""

    @settings(max_examples=150, deadline=None)
    @given(st.binary(min_size=1, max_size=400))
    def test_inflate_never_crashes(self, junk):
        try:
            inflate(junk)
        except ReproError:
            pass  # rejection is fine; silent garbage is checked elsewhere

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=1, max_size=400))
    def test_e842_never_crashes(self, junk):
        try:
            e842_decompress(junk, max_output=1 << 20)
        except ReproError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=2000), st.integers(min_value=0,
                                                 max_value=1999),
           st.integers(min_value=1, max_value=255))
    def test_bitflip_detected_or_decoded(self, data, pos, flip):
        """A corrupted valid stream either raises or yields bytes; the
        gzip container layer (CRC) is what guarantees detection."""
        comp = NxCompressor(POWER9.engine)
        payload = bytearray(comp.compress(data,
                                          strategy=DhtStrategy.AUTO).data)
        if pos >= len(payload):
            return
        payload[pos] ^= flip
        try:
            inflate(bytes(payload))
        except ReproError:
            pass

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=1500), st.integers(min_value=0,
                                                 max_value=1499))
    def test_gzip_container_catches_payload_corruption(self, data, pos):
        from repro.deflate.containers import gzip_decompress
        from repro.errors import ChecksumError, DeflateError

        comp = NxCompressor(POWER9.engine)
        payload = bytearray(comp.compress(data, fmt="gzip").data)
        body_start, body_end = 10, len(payload) - 8
        if body_end <= body_start:
            return
        target = body_start + pos % (body_end - body_start)
        payload[target] ^= 0xFF
        try:
            out = gzip_decompress(bytes(payload))
            # If it decoded, it must have decoded to the original
            # (the flip landed in a bit the decoder never consumed,
            # e.g. final-byte padding); CRC would catch anything else.
            assert out == data
        except (DeflateError, ChecksumError):
            pass
