"""DFLTCC instruction model: function codes, continuation, CC semantics."""

import gzip as stdgzip
import zlib as stdzlib

import pytest

from repro.backend.dfltcc import DfltccBackend
from repro.errors import AcceleratorError
from repro.nx.dht import DhtStrategy
from repro.nx.params import POWER9
from repro.nx.z15 import (
    ConditionCode,
    Dfltcc,
    DfltccFunction,
    ParameterBlock,
    dfltcc_compress,
    dfltcc_expand,
)
from repro.workloads.generators import generate


@pytest.fixture(scope="module")
def payload_200k():
    return generate("json_records", 200000, seed=15)


class TestFacility:
    def test_qaf(self):
        facility = Dfltcc()
        assert facility.query_available_functions() == {
            DfltccFunction.QAF, DfltccFunction.GDHT,
            DfltccFunction.CMPR, DfltccFunction.XPND}

    def test_power9_has_no_dfltcc(self):
        with pytest.raises(AcceleratorError):
            Dfltcc(machine=POWER9)


class TestCmpr:
    def test_single_invocation_small_input(self):
        facility = Dfltcc()
        block = ParameterBlock(dht_strategy=DhtStrategy.DYNAMIC)
        data = b"hello dfltcc " * 100
        result = facility.compress(block, data)
        assert result.cc is ConditionCode.DONE
        assert result.consumed == len(data)
        assert stdzlib.decompress(result.produced, -15) == data

    def test_cc3_partial_completion(self, payload_200k):
        facility = Dfltcc(processing_quantum=65536)
        block = ParameterBlock(dht_strategy=DhtStrategy.DYNAMIC)
        result = facility.compress(block, payload_200k)
        assert result.cc is ConditionCode.PARTIAL
        assert result.consumed == 65536
        assert block.continuation

    def test_reissue_loop_produces_valid_stream(self, payload_200k):
        stream, seconds, invocations = dfltcc_compress(
            payload_200k, quantum=65536)
        assert invocations == 4  # ceil(200000 / 65536)
        assert stdzlib.decompress(stream, -15) == payload_200k
        assert seconds > 0

    def test_quantum_does_not_change_output_validity(self, payload_200k):
        for quantum in (32768, 65536, 1 << 20):
            stream, _s, _i = dfltcc_compress(payload_200k, quantum=quantum)
            assert stdzlib.decompress(stream, -15) == payload_200k

    def test_check_value_accumulates_crc(self, payload_200k):
        facility = Dfltcc(processing_quantum=65536)
        block = ParameterBlock()
        offset = 0
        while offset < len(payload_200k):
            result = facility.compress(block, payload_200k[offset:])
            offset += result.consumed
            if result.cc is ConditionCode.DONE:
                break
        assert block.check_value == stdzlib.crc32(payload_200k)
        assert block.total_in == len(payload_200k)

    def test_history_too_large_rejected(self):
        facility = Dfltcc()
        block = ParameterBlock(history=bytes(40000))
        with pytest.raises(AcceleratorError):
            facility.compress(block, b"abc")

    def test_per_invocation_overhead_sub_microsecond(self):
        facility = Dfltcc()
        assert facility._issue_seconds() < 1e-6


class TestGdht:
    def test_gdht_then_cmpr_uses_dynamic(self, payload_200k):
        facility = Dfltcc()
        block = ParameterBlock()
        assert block.dht_strategy is DhtStrategy.FIXED
        gdht = facility.generate_dht(block, payload_200k[:4096])
        assert gdht.cc is ConditionCode.DONE
        assert block.dht_strategy is DhtStrategy.DYNAMIC

    def test_gdht_improves_ratio(self, payload_200k):
        fixed = Dfltcc().compress(ParameterBlock(), payload_200k)
        facility = Dfltcc()
        block = ParameterBlock()
        facility.generate_dht(block, payload_200k[:4096])
        result = facility.compress(block, payload_200k)
        assert len(result.produced) < len(fixed.produced)

    def test_short_dht_sample_degrades_to_dynamic(self, payload_200k):
        """Regression: a sub-window sample must not drive the canned
        scan off the end of the sample — the facility degrades the
        request to a dynamic DHT instead."""
        from repro.nx.dht import GDHT_SCAN_WINDOW

        data = payload_200k[:8192]
        short = payload_200k[:GDHT_SCAN_WINDOW - 1]

        block = ParameterBlock()
        block.dht_strategy = DhtStrategy.CANNED
        block.dht_sample = short
        result = Dfltcc().compress(block, data)
        assert result.cc is ConditionCode.DONE
        assert stdzlib.decompress(result.produced, wbits=-15) == data

        # Byte-identical to an explicit dynamic request: proof the
        # degraded path used a freshly generated table, not a canned
        # pick computed from a truncated window.
        dyn_block = ParameterBlock()
        dyn_block.dht_strategy = DhtStrategy.DYNAMIC
        dyn = Dfltcc().compress(dyn_block, data)
        assert result.produced == dyn.produced

    def test_full_window_sample_uses_canned_pick(self, payload_200k):
        """A sample covering >= one scan window picks a canned table."""
        from repro.nx.compressor import NxCompressor
        from repro.nx.dht import (BUILTIN, GDHT_SCAN_WINDOW,
                                  select_canned_windowed)
        from repro.nx.params import Z15

        data = payload_200k[:8192]
        sample = payload_200k[:GDHT_SCAN_WINDOW]

        block = ParameterBlock()
        block.dht_strategy = DhtStrategy.CANNED
        block.dht_sample = sample
        result = Dfltcc().compress(block, data)
        assert stdzlib.decompress(result.produced, wbits=-15) == data

        expected = NxCompressor(Z15.engine).compress(
            data, strategy=DhtStrategy.CANNED, fmt="raw",
            canned_name=select_canned_windowed(sample, BUILTIN, len(data)))
        assert result.produced == expected.data


class TestXpnd:
    def test_expand_roundtrip(self, payload_200k):
        stream, _s, _i = dfltcc_compress(payload_200k)
        out, seconds = dfltcc_expand(stream)
        assert out == payload_200k
        assert seconds > 0

    def test_expand_grows_output(self, payload_200k):
        facility = Dfltcc()
        stream, _s, _i = dfltcc_compress(payload_200k)
        block = ParameterBlock()
        result = facility.expand(block, stream, out_capacity=100)
        assert result.cc is ConditionCode.OP1_FULL
        result = facility.expand(block, stream,
                                 out_capacity=len(payload_200k) * 2)
        assert result.cc is ConditionCode.DONE
        assert result.produced == payload_200k

    def test_expand_carries_the_state(self, payload_200k):
        """CC=1 leaves the running check and the window in the
        parameter block, and the re-issue goes on from them."""
        packer = stdzlib.compressobj(6, stdzlib.DEFLATED, 31)
        member = (packer.compress(payload_200k[:100000])
                  + packer.flush(stdzlib.Z_SYNC_FLUSH)
                  + packer.compress(payload_200k[100000:]) + packer.flush())
        facility, block = Dfltcc(), ParameterBlock()
        first = facility.expand(block, member, "gzip", out_capacity=150000)
        assert first.cc is ConditionCode.OP1_FULL
        assert first.produced == payload_200k[:100000]
        assert block.check_value == stdzlib.crc32(first.produced)
        assert block.history == first.produced[-32768:]
        rest = facility.expand(block, member, "gzip",
                               out_capacity=len(payload_200k))
        assert rest.cc is ConditionCode.DONE
        assert first.produced + rest.produced == payload_200k
        assert rest.consumed == len(member)

    def test_archive_goes_on_from_the_first_member_that_fits(self):
        """The ISIZE hint is the last member's (4 bytes here, so 4 KB):
        4 KB holds no block of the first 12 KB member; the next target,
        sized at the rate the rolled-back block decoded, holds three
        members, and the rest goes into a third."""
        members = [generate("markov_text", 12000, seed=s) for s in range(4)]
        archive = b"".join(stdgzip.compress(m) for m in members)
        archive += stdgzip.compress(b"tiny")
        result = DfltccBackend().decompress(archive, fmt="gzip")
        assert result.output == b"".join(members) + b"tiny"
        assert (result.stats.submissions,
                result.stats.target_overflows) == (3, 2)


    def test_every_issue_is_charged(self, monkeypatch):
        """A multi-issue expansion's modelled time is the sum of all its
        issues', the CC=1 ones included."""
        members = [generate("markov_text", 12000, seed=s) for s in range(4)]
        archive = b"".join(stdgzip.compress(m) for m in members)
        archive += stdgzip.compress(b"tiny")
        backend = DfltccBackend()
        facility = backend._facility
        real, seconds = facility.expand, []

        def expand(*args, **kwargs):
            result = real(*args, **kwargs)
            seconds.append(result.seconds)
            return result

        monkeypatch.setattr(facility, "expand", expand)
        result = backend.decompress(archive, fmt="gzip")
        assert len(seconds) == result.stats.submissions > 1
        assert result.stats.elapsed_seconds == pytest.approx(sum(seconds))


class TestTimingShape:
    def test_sync_path_cheaper_than_p9_for_small_buffers(self):
        """The z15 selling point: no paste/poll, so tiny requests win."""
        from repro.perf.timing import OffloadTimingModel

        data = generate("markov_text", 4096, seed=3)
        _stream, z15_seconds, _i = dfltcc_compress(data)
        p9 = OffloadTimingModel(POWER9)
        assert z15_seconds < p9.offload_latency(4096).total

    def test_quantum_reissues_have_bounded_cost(self, payload_200k):
        """Chunking pays mostly for history refetch (32 KB per re-issue
        through the scan pipe), not for instruction issue — total stays
        within a small factor of one-shot."""
        _s1, one_shot, _i = dfltcc_compress(payload_200k, quantum=1 << 20)
        _s2, chunked, invocations = dfltcc_compress(payload_200k,
                                                    quantum=32768)
        assert invocations > 5
        assert chunked < one_shot * 3.0
        # The issue overhead itself is negligible next to the refetch.
        issue = Dfltcc()._issue_seconds() * invocations
        assert issue < 0.2 * (chunked - one_shot)
