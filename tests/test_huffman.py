"""Canonical Huffman construction, encode/decode, and code properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate.bitio import BitReader, BitWriter
from repro.deflate.huffman import (
    HuffmanDecoder,
    HuffmanEncoder,
    canonical_codes,
    kraft_sum,
    limited_code_lengths,
)
from repro.errors import HuffmanError


def reference_code_lengths(freqs, max_length):
    """Package-merge with every package carrying its leaf symbols: the
    textbook form ``limited_code_lengths`` must equal, ties included."""
    used = [i for i, f in enumerate(freqs) if f > 0]
    lengths = [0] * len(freqs)
    if not used:
        return lengths
    if len(used) == 1:
        lengths[used[0]] = 1
        return lengths
    if len(used) > (1 << max_length):
        raise HuffmanError(
            f"{len(used)} symbols cannot fit in {max_length}-bit codes")

    # Items are (weight, serial, leaf_symbols).  The serial breaks weight
    # ties deterministically: leaves by symbol, then packages by age.
    serial = 0
    leaves = []
    for sym in used:
        leaves.append((freqs[sym], serial, (sym,)))
        serial += 1
    leaves.sort()

    current = list(leaves)
    for _ in range(max_length - 1):
        packages = []
        for k in range(0, len(current) - 1, 2):
            a, b = current[k], current[k + 1]
            packages.append((a[0] + b[0], serial, a[2] + b[2]))
            serial += 1
        current = sorted(leaves + packages)

    for item in current[:2 * len(used) - 2]:
        for sym in item[2]:
            lengths[sym] += 1
    return lengths


def _fibonacci(count):
    weights = [1, 1]
    while len(weights) < count:
        weights.append(weights[-1] + weights[-2])
    return weights[:count]


@st.composite
def _alphabets(draw):
    """Frequencies over a DEFLATE alphabet: sparse or dense, few distinct
    weights (ties everywhere) or Fibonacci weights, whose unbounded
    Huffman code is as deep as the alphabet is wide, so the limit binds."""
    size = draw(st.sampled_from([19, 30, 286, 288]))
    shape = draw(st.sampled_from(["random", "ties", "fibonacci"]))
    if shape == "random":
        freqs = draw(st.lists(st.integers(0, 10 ** 6), min_size=size,
                              max_size=size))
    elif shape == "ties":
        freqs = draw(st.lists(st.sampled_from([0, 1, 2, 7]), min_size=size,
                              max_size=size))
    else:
        freqs = _fibonacci(size)
        freqs = draw(st.permutations(freqs))
        zeroed = draw(st.sets(st.integers(0, size - 1), max_size=size // 2))
        freqs = [0 if i in zeroed else f for i, f in enumerate(freqs)]
    return list(freqs)


class TestPackageMergeByCounting:
    """``limited_code_lengths`` counts leaves per level instead of
    carrying symbol tuples; it must give the textbook lengths exactly."""

    @settings(max_examples=300, deadline=None)
    @given(_alphabets(), st.sampled_from([7, 15]))
    def test_equals_reference(self, freqs, limit):
        if sum(1 for f in freqs if f) > 1 << limit:
            with pytest.raises(HuffmanError):
                limited_code_lengths(freqs, limit)
            return
        assert (limited_code_lengths(freqs, limit)
                == reference_code_lengths(freqs, limit))

    @pytest.mark.parametrize("size", [19, 30, 286, 288])
    @pytest.mark.parametrize("limit", [7, 15])
    def test_limit_binds(self, size, limit):
        """Fibonacci weights want a code ``size - 1`` bits deep."""
        freqs = _fibonacci(size)
        if size > 1 << limit:
            pytest.skip("alphabet does not fit the limit")
        lengths = limited_code_lengths(freqs, limit)
        assert max(lengths) == limit
        assert lengths == reference_code_lengths(freqs, limit)

    @pytest.mark.parametrize("limit", range(1, 9))
    def test_every_limit_small_alphabets(self, limit):
        for size in range(2, min(1 << limit, 40) + 1):
            for freqs in ([1] * size, list(range(1, size + 1)),
                          _fibonacci(size), [size - i for i in range(size)]):
                assert (limited_code_lengths(freqs, limit)
                        == reference_code_lengths(freqs, limit))


class TestLimitedCodeLengths:
    def test_empty_alphabet(self):
        assert limited_code_lengths([0, 0, 0], 15) == [0, 0, 0]

    def test_single_symbol_gets_one_bit(self):
        assert limited_code_lengths([0, 7, 0], 15) == [0, 1, 0]

    def test_two_symbols(self):
        assert limited_code_lengths([3, 5], 15) == [1, 1]

    def test_skewed_frequencies_give_skewed_lengths(self):
        lengths = limited_code_lengths([1000, 10, 10, 1], 15)
        assert lengths[0] < lengths[3]

    def test_respects_max_length(self):
        # Exponential frequencies would want very long codes.
        freqs = [2 ** i for i in range(20)]
        lengths = limited_code_lengths(freqs, 7)
        assert max(lengths) <= 7
        assert kraft_sum(lengths) <= 1.0 + 1e-12

    def test_kraft_complete_for_many_symbols(self):
        freqs = [i % 17 + 1 for i in range(100)]
        lengths = limited_code_lengths(freqs, 15)
        assert kraft_sum(lengths) == pytest.approx(1.0)

    def test_too_many_symbols_for_bound(self):
        with pytest.raises(HuffmanError):
            limited_code_lengths([1] * 9, 3)

    def test_deterministic(self):
        freqs = [5, 5, 5, 5, 3, 3, 1]
        assert (limited_code_lengths(freqs, 15)
                == limited_code_lengths(freqs, 15))

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6),
                    min_size=1, max_size=64))
    def test_kraft_inequality_always_holds(self, freqs):
        lengths = limited_code_lengths(freqs, 15)
        assert kraft_sum(lengths) <= 1.0 + 1e-12
        used = sum(1 for f in freqs if f)
        coded = sum(1 for length in lengths if length)
        assert coded == used

    @given(st.lists(st.integers(min_value=1, max_value=1000),
                    min_size=2, max_size=32))
    def test_optimality_vs_unbounded_within_bound(self, freqs):
        """With a loose bound the result is a true Huffman code: its cost
        matches an independently computed optimal-tree cost."""
        import heapq

        lengths = limited_code_lengths(freqs, 32)
        cost = sum(f * l for f, l in zip(freqs, lengths))

        heap = [(f, i) for i, f in enumerate(freqs)]
        heapq.heapify(heap)
        depth_cost = 0
        while len(heap) > 1:
            a = heapq.heappop(heap)
            b = heapq.heappop(heap)
            depth_cost += a[0] + b[0]
            heapq.heappush(heap, (a[0] + b[0], -1))
        assert cost == depth_cost


class TestCanonicalCodes:
    def test_rfc_example(self):
        # RFC 1951 section 3.2.2 example: lengths (3,3,3,3,3,2,4,4).
        lengths = [3, 3, 3, 3, 3, 2, 4, 4]
        assert canonical_codes(lengths) == [2, 3, 4, 5, 6, 0, 14, 15]

    def test_oversubscribed_rejected(self):
        with pytest.raises(HuffmanError):
            canonical_codes([1, 1, 1])

    def test_codes_are_prefix_free(self):
        lengths = [2, 3, 3, 3, 4, 4, 4, 4]
        codes = canonical_codes(lengths)
        items = [(format(c, f"0{l}b")) for c, l in zip(codes, lengths) if l]
        for i, a in enumerate(items):
            for j, b in enumerate(items):
                if i != j:
                    assert not b.startswith(a)


class TestEncoderDecoder:
    def _roundtrip(self, lengths, symbols):
        enc = HuffmanEncoder(lengths)
        w = BitWriter()
        for sym in symbols:
            enc.encode(w, sym)
        dec = HuffmanDecoder(lengths)
        r = BitReader(w.getvalue())
        return [dec.decode(r) for _ in symbols]

    def test_simple_roundtrip(self):
        lengths = [2, 2, 2, 2]
        symbols = [0, 3, 1, 2, 2, 0]
        assert self._roundtrip(lengths, symbols) == symbols

    def test_roundtrip_with_long_codes(self):
        freqs = [2 ** i for i in range(12)]
        lengths = limited_code_lengths(freqs, 15)
        symbols = list(range(12)) * 3
        assert self._roundtrip(lengths, symbols) == symbols

    def test_codes_longer_than_fast_root(self):
        # Force codes > 9 bits so the slow path runs.
        freqs = [2 ** i for i in range(14)]
        lengths = limited_code_lengths(freqs, 15)
        assert max(lengths) > 9
        symbols = [0, 13, 0, 1, 13]
        assert self._roundtrip(lengths, symbols) == symbols

    def test_encode_symbol_without_code_raises(self):
        enc = HuffmanEncoder([1, 1, 0])
        w = BitWriter()
        with pytest.raises(HuffmanError):
            enc.encode(w, 2)

    def test_decoder_rejects_empty(self):
        with pytest.raises(HuffmanError):
            HuffmanDecoder([0, 0])

    def test_decoder_rejects_oversubscribed(self):
        with pytest.raises(HuffmanError):
            HuffmanDecoder([1, 1, 1])

    def test_decoder_rejects_incomplete_multicode(self):
        with pytest.raises(HuffmanError):
            HuffmanDecoder([2, 2, 2])  # 3 codes of 2 bits: one missing

    def test_single_code_incomplete_accepted(self):
        dec = HuffmanDecoder([0, 1, 0])
        r = BitReader(bytes([0b0]))
        assert dec.decode(r) == 1

    @given(st.lists(st.integers(min_value=0, max_value=500),
                    min_size=2, max_size=48).filter(
                        lambda f: sum(1 for x in f if x) >= 2),
           st.data())
    def test_roundtrip_property(self, freqs, data):
        lengths = limited_code_lengths(freqs, 15)
        usable = [i for i, length in enumerate(lengths) if length]
        symbols = data.draw(st.lists(st.sampled_from(usable), max_size=64))
        assert self._roundtrip(lengths, symbols) == symbols
