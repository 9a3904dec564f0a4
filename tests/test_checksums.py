"""CRC-32 / Adler-32 against the stdlib reference and by properties."""

import random
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate import checksums
from repro.deflate.checksums import adler32, crc32

BLOCK = checksums._FOLD_BLOCK_BYTES
CROSSOVER = checksums._FOLD_MIN_BYTES


def _table_crc32(data, value=0):
    """The retained byte-wise loop, whatever the length: the reference."""
    return checksums._crc_bytes(data, value ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


class TestCrc32:
    def test_empty(self):
        assert crc32(b"") == 0

    def test_known_vector(self):
        # The canonical "123456789" check value for CRC-32/ISO-HDLC.
        assert crc32(b"123456789") == 0xCBF43926

    def test_matches_stdlib_on_samples(self, payload_suite):
        for data in payload_suite.values():
            assert crc32(data) == zlib.crc32(data)

    @given(st.binary(max_size=2048))
    def test_matches_stdlib(self, data):
        assert crc32(data) == zlib.crc32(data)

    @given(st.binary(max_size=512), st.binary(max_size=512))
    def test_incremental(self, a, b):
        assert crc32(b, crc32(a)) == crc32(a + b)

    def test_single_bit_change_changes_crc(self):
        data = bytearray(b"hello world payload")
        base = crc32(bytes(data))
        data[3] ^= 0x01
        assert crc32(bytes(data)) != base


class TestCrc32FoldKernel:
    """The big-int folding path, differentially: stdlib and table loop."""

    def test_every_short_length(self):
        # 0..600 straddles the crossover and the lowest fold levels.
        rng = random.Random(14)
        for n in range(601):
            data = rng.randbytes(n)
            value = rng.getrandbits(32)
            assert crc32(data) == zlib.crc32(data) == _table_crc32(data), n
            assert crc32(data, value) == zlib.crc32(data, value) \
                == _table_crc32(data, value), n

    @pytest.mark.parametrize("n", [4095, 4096, 4097, 65535, 65536, 65537,
                                   100_000, BLOCK - 1, BLOCK, BLOCK + 1,
                                   3 * BLOCK + 17])
    def test_lengths_around_fold_levels_and_blocks(self, n):
        rng = random.Random(n)
        data = rng.randbytes(n)
        value = rng.getrandbits(32)
        assert crc32(data) == zlib.crc32(data)
        assert crc32(data, value) == zlib.crc32(data, value) \
            == _table_crc32(data, value)

    @pytest.mark.parametrize("n", [0, 5, CROSSOVER - 1, CROSSOVER,
                                   CROSSOVER + 1, 5000, BLOCK + 3])
    def test_buffer_types(self, n):
        data = random.Random(n).randbytes(n)
        expect = zlib.crc32(data, 0xDEADBEEF)
        for buf in (data, bytearray(data), memoryview(data),
                    memoryview(bytearray(data))):
            assert crc32(buf, 0xDEADBEEF) == expect
        padded = b"\x01" + data + b"\x02"
        assert crc32(memoryview(padded)[1:-1], 0xDEADBEEF) == expect

    def test_incremental_at_every_cut_of_1k(self):
        data = random.Random(1).randbytes(1024)
        expect = zlib.crc32(data)
        for cut in range(1025):
            assert crc32(data[cut:], crc32(data[:cut])) == expect, cut

    def test_incremental_at_random_cuts_of_200k(self):
        rng = random.Random(2)
        data = rng.randbytes(200_000)
        expect = zlib.crc32(data)
        for _ in range(12):
            # Pieces on both sides of the crossover, some of them empty.
            cuts = sorted(rng.choice((rng.randrange(200_001),
                                      rng.randrange(200)))
                          for _ in range(rng.randrange(1, 6)))
            value = 0
            for lo, hi in zip([0] + cuts, cuts + [len(data)]):
                value = crc32(data[lo:hi], value)
            assert value == expect, cuts

    @pytest.mark.parametrize("fill", [0x00, 0xFF])
    @pytest.mark.parametrize("n", [CROSSOVER, 1024, 65536, BLOCK + 1])
    def test_constant_fill(self, fill, n):
        data = bytes([fill]) * n
        assert crc32(data) == zlib.crc32(data)
        assert crc32(data, 0x12345678) == zlib.crc32(data, 0x12345678)

    @pytest.mark.parametrize("n", [100, 5000, 70_000])
    def test_leading_zeros(self, n):
        # A register injected at the wrong bit vanishes into leading
        # zeros only if it is right: 1 KB of them in front of a payload.
        data = bytes(1024) + random.Random(n).randbytes(n)
        for value in (0, 1, 0x80000000, 0xFFFFFFFF, 0xCBF43926):
            assert crc32(data, value) == zlib.crc32(data, value)
        assert crc32(bytes(1024)) == zlib.crc32(bytes(1024))

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=70_000), st.integers(0, 0xFFFFFFFF))
    def test_matches_stdlib_up_to_70k(self, data, value):
        assert crc32(data, value) == zlib.crc32(data, value)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=1, max_size=64), st.integers(1, 3000),
           st.integers(0, 0xFFFFFFFF))
    def test_matches_stdlib_on_long_repeats(self, unit, repeats, value):
        # Hypothesis rarely draws long buffers: build them.
        data = unit * repeats
        assert crc32(data, value) == zlib.crc32(data, value)


class TestCrc32DoesNoPerByteWork:
    """Structure, not a clock: what reaches the table loop, and how big
    the transient integers get."""

    @pytest.fixture
    def finisher_bytes(self, monkeypatch):
        seen = []
        real = checksums._crc_bytes

        def counting(data, crc):
            seen.append(len(data))
            return real(data, crc)

        monkeypatch.setattr(checksums, "_crc_bytes", counting)
        return seen

    @pytest.mark.parametrize("n", [65536, 4 << 20])
    def test_table_loop_sees_only_the_fold_remainder(self, n,
                                                     finisher_bytes):
        data = random.Random(n).randbytes(n)
        assert crc32(data) == zlib.crc32(data)
        assert sum(finisher_bytes) <= 128

    def test_below_the_crossover_is_the_table_loop_alone(self,
                                                         finisher_bytes):
        crc32(bytes(CROSSOVER - 1))
        assert finisher_bytes == [CROSSOVER - 1]

    def test_transient_memory_is_bounded_by_the_block(self):
        # The largest integer alive is one block plus the 32-byte carry;
        # with its reversed byte copy and the fold temporaries the peak
        # measures 3.2 blocks, never the 64 blocks of the input.
        data = bytes(16 << 20)
        crc32(data[:BLOCK + 1])  # constants and caches warm
        tracemalloc.start()
        try:
            assert crc32(data) == zlib.crc32(data)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * BLOCK

    def test_fold_constants_are_small(self):
        # A few hundred ints, not a 64 K-entry table; one level per
        # halving from half a block down to the stop.
        levels = checksums._FOLD_LEVELS
        assert sum(len(shifts) for _k, shifts in levels) < 500
        assert [k for k, _shifts in levels] == [
            BLOCK * 4 >> i for i in range(len(levels))]
        assert levels[-1][0] == checksums._FOLD_STOP_BITS


class TestAdler32:
    def test_empty_is_one(self):
        assert adler32(b"") == 1

    def test_known_vector(self):
        assert adler32(b"Wikipedia") == 0x11E60398

    @given(st.binary(max_size=2048))
    def test_matches_stdlib(self, data):
        assert adler32(data) == zlib.adler32(data)

    @given(st.binary(max_size=512), st.binary(max_size=512))
    def test_incremental(self, a, b):
        assert adler32(b, adler32(a)) == adler32(a + b)

    def test_long_input_modular_reduction(self):
        # Exceeds the NMAX deferral window, exercising the chunk loop.
        data = b"\xff" * 20000
        assert adler32(data) == zlib.adler32(data)
