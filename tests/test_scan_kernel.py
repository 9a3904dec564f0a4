"""The flat scan kernel against the per-access reference model.

``NxMatchPipeline.scan`` inlines the banked hash table for speed; the
table's own ``lookup_insert`` / ``charge_group_conflicts`` stay as the
readable model.  ``reference_scan`` below is the scan written against
those two methods, and every field of ``ScanResult`` must come out
equal for every input, history and engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate.constants import MAX_MATCH, MIN_MATCH
from repro.deflate.matcher import MatchStats
from repro.nx.hashbank import BankedHashTable
from repro.nx.params import POWER9, Z15, EngineParams
from repro.nx.pipeline import NxMatchPipeline, ScanResult
from repro.workloads.generators import GENERATORS, generate

from .test_hashbank import small_params


def reference_scan(params: EngineParams, data: bytes,
                   history: bytes = b"") -> tuple[ScanResult,
                                                  BankedHashTable]:
    table = BankedHashTable(params)
    width = params.scan_bytes_per_cycle
    history = history[-params.window_bytes:]
    start = len(history)
    data = history + data
    n = len(data)
    tokens = []
    stats = MatchStats()
    stalls = 0
    next_emit = start
    for group_start in range(0, n, width):
        accesses = []
        for i in range(group_start, min(group_start + width, n)):
            candidates = []
            if i < n - MIN_MATCH + 1:
                candidates, access = table.lookup_insert(data, i)
                accesses.append(access)
            if i < next_emit:
                continue  # history, or inside a committed match
            best_len = best_dist = 0
            max_len = min(MAX_MATCH, n - i)
            for cand in candidates:
                stats.chain_probes += 1
                length = 0
                while (length < max_len
                       and data[cand + length] == data[i + length]):
                    length += 1
                if length > best_len:
                    best_len, best_dist = length, i - cand
            if best_len >= MIN_MATCH:
                tokens.append((best_len, best_dist))
                stats.matches += 1
                stats.match_bytes += best_len
                next_emit = i + best_len
            else:
                tokens.append(data[i])
                stats.literals += 1
                next_emit = i + 1
        stalls += table.charge_group_conflicts(accesses)
    return ScanResult(tokens=tokens, stats=stats,
                      scan_cycles=-(-(n - start) // width),
                      conflict_stalls=stalls,
                      candidate_probes=stats.chain_probes,
                      history_cycles=-(-start // width)), table


def assert_scan_equals_reference(pipe: NxMatchPipeline, data: bytes,
                                 history: bytes = b"") -> ScanResult:
    got = pipe.scan(data, history=history)
    want, table = reference_scan(pipe.params, data, history)
    assert got == want  # tokens, stats and every cycle field
    assert pipe.table.entries == table.entries
    assert ((pipe.table.lookups, pipe.table.insertions,
             pipe.table.conflict_stalls)
            == (table.lookups, table.insertions, table.conflict_stalls))
    return got


#: Engines small enough that FIFO eviction, the window filter and
#: multi-stall groups fire on a few hundred bytes.
TINY_ENGINES = {
    "one-way": small_params(hash_ways=1),
    "two-way-one-port": small_params(),
    "window-64": small_params(window_bytes=64),
    "wide-two-port": small_params(scan_bytes_per_cycle=8, hash_ports=2,
                                  window_bytes=256),
    "odd-geometry": small_params(scan_bytes_per_cycle=5, hash_banks=3,
                                 hash_sets_log2=2, hash_ways=3),
}

_HISTORY_SOURCE = generate("markov_text", 40 * 1024, seed=99)
HISTORIES = {"none": b"", "1k": _HISTORY_SOURCE[:1024],
             "40k": _HISTORY_SOURCE}


def _sizes(width: int) -> list[int]:
    return sorted({0, 1, 2, 3, width - 1, width, width + 1, 100, 4096,
                   4099, 32768, 70000})


class TestDifferential:
    @pytest.mark.parametrize("family", sorted(GENERATORS))
    @pytest.mark.parametrize("machine", [POWER9, Z15],
                             ids=lambda m: m.name)
    def test_product_engines(self, machine, family):
        pipe = NxMatchPipeline(machine.engine)  # reused across scans
        for size in _sizes(machine.engine.scan_bytes_per_cycle):
            data = generate(family, size, seed=size % 5)
            for history in HISTORIES.values():
                assert_scan_equals_reference(pipe, data, history)

    @pytest.mark.parametrize("engine", TINY_ENGINES.values(),
                             ids=TINY_ENGINES.keys())
    def test_tiny_engines(self, engine):
        pipe = NxMatchPipeline(engine)
        evicted = filtered = stalled = False
        for family in sorted(GENERATORS):
            for size in (0, 1, 2, 3, 7, 100, 1500):
                data = generate(family, size, seed=3)
                for history in (b"", _HISTORY_SOURCE[:300]):
                    result = assert_scan_equals_reference(pipe, data,
                                                          history)
                    hashed = pipe.table.insertions
                    resident = sum(map(len, pipe.table.entries.values()))
                    evicted |= resident < hashed
                    filtered |= (len(history) + size
                                 > engine.window_bytes)
                    stalled |= result.conflict_stalls > 0
        assert evicted and stalled
        assert filtered == (engine.window_bytes < 1800)

    def test_multi_stall_group(self):
        """Eight distinct hashes on one single-ported bank: 7 stalls."""
        engine = small_params(scan_bytes_per_cycle=8, hash_banks=1)
        result = assert_scan_equals_reference(
            NxMatchPipeline(engine), bytes(range(10)))
        assert result.conflict_stalls == 7


_structured = st.builds(
    lambda chunks, reps: b"".join(chunk * reps for chunk in chunks),
    st.lists(st.binary(min_size=1, max_size=40), max_size=8),
    st.integers(min_value=1, max_value=20),
)
_bytes = st.one_of(st.binary(max_size=600), _structured)


@settings(max_examples=120, deadline=None)
@given(_bytes, _bytes,
       st.sampled_from([POWER9.engine, Z15.engine, *TINY_ENGINES.values()]))
def test_any_bytes_any_history(data, history, engine):
    assert_scan_equals_reference(NxMatchPipeline(engine), data, history)


class TestSparseTable:
    """Invariants by count, not by clock."""

    def test_construction_allocates_no_sets(self):
        for machine in (POWER9, Z15):
            table = NxMatchPipeline(machine.engine).table
            assert table.entries == {}
            assert table.slots == 131072  # the silicon's sets, unallocated

    def test_live_sets_bounded_by_positions_hashed(self):
        pipe = NxMatchPipeline(POWER9.engine)
        for family in sorted(GENERATORS):
            data = generate(family, 4096, seed=1)
            pipe.scan(data)
            assert pipe.table.insertions == len(data) - MIN_MATCH + 1
            assert 0 < len(pipe.table.entries) <= pipe.table.insertions
            assert all(0 < len(entry) <= pipe.table.ways
                       for entry in pipe.table.entries.values())

    def test_reset_leaves_nothing(self):
        pipe = NxMatchPipeline(Z15.engine)
        pipe.scan(generate("json_records", 4096, seed=2))
        pipe.table.reset()
        assert pipe.table.entries == {}
        assert (pipe.table.lookups, pipe.table.insertions,
                pipe.table.conflict_stalls) == (0, 0, 0)

    def test_reused_pipeline_equals_fresh(self):
        pipe = NxMatchPipeline(POWER9.engine)
        pipe.scan(generate("source_code", 20000, seed=4),
                  history=_HISTORY_SOURCE)
        data = generate("log_lines", 5000, seed=6)
        assert pipe.scan(data) == NxMatchPipeline(POWER9.engine).scan(data)
