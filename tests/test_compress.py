"""Block builder: planning, header RLE, block choice, emission."""

import zlib

import pytest

from repro.deflate.bitio import BitWriter
from repro.deflate.compress import (
    BlockPlan,
    deflate,
    emit_block,
    encode_code_lengths,
    plan_block,
    token_frequencies,
)
from repro.deflate.constants import (
    BTYPE_DYNAMIC,
    BTYPE_FIXED,
    BTYPE_STORED,
    END_OF_BLOCK,
    WINDOW_SIZE,
)
from repro.deflate.inflate import inflate
from repro.deflate.matcher import tokenize
from repro.workloads.generators import generate


class TestTokenFrequencies:
    def test_counts_literals_and_eob(self):
        lit, dist = token_frequencies([65, 65, 66])
        assert lit[65] == 2
        assert lit[66] == 1
        assert lit[END_OF_BLOCK] == 1
        assert sum(dist) == 0

    def test_counts_matches(self):
        lit, dist = token_frequencies([(3, 1), (258, 32768)])
        assert lit[257] == 1   # length 3
        assert lit[285] == 1   # length 258
        assert dist[0] == 1    # distance 1
        assert dist[29] == 1   # distance 32768


class TestEncodeCodeLengths:
    def _decode_ops(self, ops):
        out = []
        for op in ops:
            if isinstance(op, tuple):
                sym, extra = op
                if sym == 16:
                    out.extend([out[-1]] * (3 + extra))
                elif sym == 17:
                    out.extend([0] * (3 + extra))
                else:
                    out.extend([0] * (11 + extra))
            else:
                out.append(op)
        return out

    def test_roundtrip_simple(self):
        lit = [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8
        dist = [5] * 30
        ops, hlit, hdist = encode_code_lengths(lit, dist)
        assert hlit == 288
        assert hdist == 30
        assert self._decode_ops(ops) == lit[:hlit] + dist[:hdist]

    def test_trailing_zeros_trimmed(self):
        lit = [0] * 288
        lit[0] = 1
        lit[256] = 1
        dist = [0] * 30
        ops, hlit, hdist = encode_code_lengths(lit, dist)
        assert hlit == 257
        assert hdist == 1
        assert self._decode_ops(ops) == lit[:hlit] + dist[:hdist]

    def test_long_zero_runs_use_18(self):
        lit = [0] * 288
        lit[0] = 5
        lit[256] = 5
        dist = [1, 1] + [0] * 28
        ops, _hlit, _hdist = encode_code_lengths(lit, dist)
        assert any(isinstance(op, tuple) and op[0] == 18 for op in ops)

    def test_nonzero_repeats_use_16(self):
        lit = [7] * 288
        lit[286] = 0
        lit[287] = 0
        dist = [5] * 30
        ops, hlit, hdist = encode_code_lengths(lit, dist)
        assert any(isinstance(op, tuple) and op[0] == 16 for op in ops)
        assert self._decode_ops(ops) == lit[:hlit] + dist[:hdist]

    def test_various_run_lengths_roundtrip(self):
        for zrun in (1, 2, 3, 10, 11, 138, 139, 200):
            lit = [1, 1] + [0] * zrun + [2] * 4
            lit += [0] * (288 - len(lit))
            lit[256] = 1
            dist = [1] * 4 + [0] * 26
            ops, hlit, hdist = encode_code_lengths(lit, dist)
            assert self._decode_ops(ops) == lit[:hlit] + dist[:hdist]


class TestPlanBlock:
    def test_incompressible_chooses_stored(self, random_8k):
        tokens, _ = tokenize(random_8k, 6)
        plan = plan_block(tokens, random_8k)
        assert plan.btype == BTYPE_STORED

    def test_text_chooses_dynamic(self, text_20k):
        tokens, _ = tokenize(text_20k, 6)
        plan = plan_block(tokens, text_20k)
        assert plan.btype == BTYPE_DYNAMIC

    def test_tiny_input_prefers_fixed(self):
        data = b"abc"
        tokens, _ = tokenize(data, 6)
        plan = plan_block(tokens, data)
        assert plan.btype in (BTYPE_FIXED, BTYPE_STORED)

    def test_cost_is_positive(self, text_20k):
        tokens, _ = tokenize(text_20k, 6)
        assert plan_block(tokens, text_20k).cost_bits > 0


class TestEmitBlock:
    def _roundtrip_plan(self, plan):
        writer = BitWriter()
        emit_block(writer, plan, final=True)
        return inflate(writer.getvalue())

    def test_emit_stored(self):
        plan = BlockPlan(tokens=[], raw=b"hello world", btype=BTYPE_STORED)
        assert self._roundtrip_plan(plan) == b"hello world"

    def test_emit_stored_over_64k(self):
        raw = bytes(range(256)) * 300  # 76800 bytes: two stored blocks
        plan = BlockPlan(tokens=[], raw=raw, btype=BTYPE_STORED)
        assert self._roundtrip_plan(plan) == raw

    def test_emit_fixed(self, text_20k):
        tokens, _ = tokenize(text_20k, 6)
        plan = BlockPlan(tokens=tokens, raw=text_20k, btype=BTYPE_FIXED)
        assert self._roundtrip_plan(plan) == text_20k


class TestDeflate:
    @pytest.mark.parametrize("level", [0, 1, 4, 6, 9])
    def test_roundtrip(self, level, payload_suite):
        for name, data in payload_suite.items():
            result = deflate(data, level=level)
            assert inflate(result.data) == data, (name, level)

    def test_level0_is_stored(self, text_20k):
        result = deflate(text_20k, level=0)
        assert result.blocks == [BTYPE_STORED]
        assert len(result.data) > len(text_20k)

    def test_multiblock_stream(self, text_20k):
        result = deflate(text_20k, level=6, block_tokens=512)
        assert len(result.blocks) > 1
        assert inflate(result.data) == text_20k

    def test_ratio_reported(self, text_20k):
        result = deflate(text_20k, level=6)
        assert result.ratio == pytest.approx(
            len(text_20k) / len(result.data))

    def test_higher_levels_compress_at_least_as_well(self, text_20k):
        sizes = {level: len(deflate(text_20k, level=level).data)
                 for level in (1, 6, 9)}
        assert sizes[6] <= sizes[1] * 1.02
        assert sizes[9] <= sizes[6] * 1.02

    def test_empty_input(self):
        result = deflate(b"", level=6)
        assert inflate(result.data) == b""

    def test_history_reaches_back_across_the_seam(self):
        """A copy of the history compresses to back-references.

        A random block makes the effect unambiguous: its trigrams repeat
        nowhere inside itself, so every match must reach into the primed
        window — without priming the copy is incompressible noise.  The
        block is kept just under the window size: a window-aligned copy
        sits at distance 32768, which the matcher (like zlib's) cannot
        reach.
        """
        block = generate("random_bytes", WINDOW_SIZE - 4096, seed=32)
        head = deflate(block, level=6, final=False).data
        primed = head + deflate(block, level=6, history=block).data
        unprimed = head + deflate(block, level=6).data
        assert zlib.decompress(primed, -15) == block + block
        assert len(primed) < 0.6 * len(unprimed)

    def test_final_false_is_continuable(self):
        corpus = generate("markov_text", 120000, seed=31)
        head, tail = corpus[:70000], corpus[70000:]
        cont = deflate(head, level=6, final=False).data
        fin = deflate(tail, level=6, history=head[-WINDOW_SIZE:]).data
        assert zlib.decompress(cont + fin, -15) == corpus
