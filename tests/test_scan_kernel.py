"""The bulk scan kernel against the per-access reference model.

``NxMatchPipeline.scan`` hashes a slab of positions at a time and drives
the banked hash table inline for speed; the table's own
``lookup_insert`` / ``charge_group_conflicts`` stay as the readable
model.  ``reference_scan`` below is the scan written against those two
methods, and every field of ``ScanResult`` must come out equal for every
input, history and engine.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate.constants import MAX_MATCH, MIN_MATCH
from repro.deflate.matcher import MatchStats
from repro.nx import pipeline
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
    "odd-geometry": small_params(scan_bytes_per_cycle=5, hash_banks=4,
                                 hash_sets_log2=2, hash_ways=3),
    # Past 128 positions a group: a stall count no byte lane holds.
    "wide-130": small_params(scan_bytes_per_cycle=130, hash_banks=2),
}

_HISTORY_SOURCE = generate("markov_text", 40 * 1024, seed=99)
HISTORIES = {"none": b"", "1k": _HISTORY_SOURCE[:1024],
             "40k": _HISTORY_SOURCE}


def _sizes(width: int) -> list[int]:
    return sorted({0, 1, 2, 3, width - 1, width, width + 1, 100, 4096,
                   4099, 32768, 70000})


def product_inputs(engine: EngineParams, family: str):
    """(data, history) of one family for a product engine: size x history."""
    for size in _sizes(engine.scan_bytes_per_cycle):
        data = generate(family, size, seed=size % 5)
        for history in HISTORIES.values():
            yield data, history


def tiny_inputs(family: str):
    """(data, history) of one family for a tiny engine."""
    for size in (0, 1, 2, 3, 7, 100, 1500):
        data = generate(family, size, seed=3)
        for history in (b"", _HISTORY_SOURCE[:300]):
            yield data, history


class TestDifferential:
    @pytest.mark.parametrize("family", sorted(GENERATORS))
    @pytest.mark.parametrize("machine", [POWER9, Z15],
                             ids=lambda m: m.name)
    def test_product_engines(self, machine, family):
        pipe = NxMatchPipeline(machine.engine)  # reused across scans
        for data, history in product_inputs(machine.engine, family):
            assert_scan_equals_reference(pipe, data, history)

    @pytest.mark.parametrize("engine", TINY_ENGINES.values(),
                             ids=TINY_ENGINES.keys())
    def test_tiny_engines(self, engine):
        pipe = NxMatchPipeline(engine)
        evicted = filtered = stalled = False
        for family in sorted(GENERATORS):
            for data, history in tiny_inputs(family):
                result = assert_scan_equals_reference(pipe, data, history)
                hashed = pipe.table.insertions
                resident = sum(map(len, pipe.table.entries.values()))
                evicted |= resident < hashed
                filtered |= len(history) + len(data) > engine.window_bytes
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


#: Geometry edges of the stall count: one position a group, more ports
#: than positions, one bank, 256 banks.
_EDGE_ENGINES = [small_params(scan_bytes_per_cycle=1),
                 small_params(scan_bytes_per_cycle=2, hash_ports=3),
                 small_params(scan_bytes_per_cycle=6, hash_banks=1),
                 small_params(scan_bytes_per_cycle=16, hash_banks=256,
                              hash_sets_log2=1, hash_ports=2)]


@settings(max_examples=120, deadline=None)
@given(_bytes, _bytes,
       st.sampled_from([POWER9.engine, Z15.engine, *TINY_ENGINES.values(),
                        *_EDGE_ENGINES]))
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


#: Every table geometry the scans above run on, plus one bank and 256.
_GEOMETRIES = [POWER9.engine, Z15.engine, *TINY_ENGINES.values(),
               small_params(hash_banks=1, hash_sets_log2=0),
               small_params(hash_banks=256, hash_sets_log2=9)]


class TestBulkHash:
    """``slab_columns`` is ``hash3 % slots`` at every position it is asked
    for."""

    @staticmethod
    def columns(table: BankedHashTable, data: bytes, lo: int,
                hi: int) -> list[int]:
        return table.slab_columns(data, lo, hi)

    @staticmethod
    def per_position(table: BankedHashTable, data: bytes, lo: int,
                     hi: int) -> list[int]:
        return [BankedHashTable.hash3(data, i) % table.slots
                for i in range(lo, hi)]

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=300), st.integers(0, 3), st.integers(0, 40),
           st.sampled_from(_GEOMETRIES))
    def test_equals_hash3(self, data, short, lo, engine):
        # ``short`` = 0 hashes through the last full prefix; 1..3 stop
        # that many positions early, as a slab that is not the last does.
        table = BankedHashTable(engine)
        hi = max(0, len(data) - 2 - short)
        lo = min(lo, hi)
        assert (self.columns(table, data, lo, hi)
                == self.per_position(table, data, lo, hi))

    @pytest.mark.parametrize("length", range(6))
    def test_short_inputs(self, length):
        table = BankedHashTable(POWER9.engine)
        data = bytes(range(250, 250 + length))
        hashed = max(0, length - 2)
        assert (self.columns(table, data, 0, hashed)
                == self.per_position(table, data, 0, hashed))
        assert self.columns(table, data, 0, 0) == []

    def test_lanes_do_not_carry(self):
        """The largest prefix next to the smallest: 0xFFFFFF * HASH_MULT
        is the widest a lane's product gets, and a mask must not let
        its high bits into a set name."""
        data = b"\xff\xff\xff\x00\x00\x00\xff\xff\xff\x00\x00"
        for engine in _GEOMETRIES:
            table = BankedHashTable(engine)
            assert (self.columns(table, data, 0, 9)
                    == self.per_position(table, data, 0, 9))

    def test_any_buffer_type(self):
        table = BankedHashTable(Z15.engine)
        data = generate("markov_text", 500, seed=8)
        want = self.per_position(table, data, 3, 400)
        assert self.columns(table, bytearray(data), 3, 400) == want
        assert self.columns(table, memoryview(data), 3, 400) == want


#: Three z15 scan groups (four at width 5, six on POWER9): with the slab
#: this short a seam falls every 20-24 bytes.
SMALL_SLAB = 24


@pytest.fixture
def small_slab(monkeypatch):
    monkeypatch.setattr(pipeline, "SCAN_SLAB", SMALL_SLAB)
    return SMALL_SLAB


class TestSlabSeams:
    @pytest.mark.parametrize("family", sorted(GENERATORS))
    def test_product_engine(self, small_slab, family):
        pipe = NxMatchPipeline(Z15.engine)
        for data, history in product_inputs(Z15.engine, family):
            assert_scan_equals_reference(pipe, data, history)

    def test_tiny_engine(self, small_slab):
        pipe = NxMatchPipeline(TINY_ENGINES["odd-geometry"])
        for family in sorted(GENERATORS):
            for data, history in tiny_inputs(family):
                assert_scan_equals_reference(pipe, data, history)

    def test_slab_not_a_multiple_of_the_width(self, monkeypatch):
        """The constant is rounded down to whole scan groups, and never
        below one."""
        engine = TINY_ENGINES["odd-geometry"]  # 5 positions a cycle
        data = generate("log_lines", 700, seed=2)
        for slab in (1, 4, 5, 7, 13):
            monkeypatch.setattr(pipeline, "SCAN_SLAB", slab)
            assert_scan_equals_reference(NxMatchPipeline(engine), data,
                                         _HISTORY_SOURCE[:33])

    def test_longest_match_starts_in_last_position_of_a_slab(
            self, small_slab):
        # A literal run, then a run of one byte: its first byte is a
        # literal, and the match of distance 1 starts right after it.
        data = bytes(range(1, small_slab - 1)) + b"\0" * 600 + b"tail"
        result = assert_scan_equals_reference(
            NxMatchPipeline(POWER9.engine), data)
        first_match = result.tokens.index((MAX_MATCH, 1))
        assert first_match == small_slab - 1  # all literals before it
        # Its 257 uninserted positions were carried over eleven seams.
        assert result.tokens[first_match + 1] == (MAX_MATCH, 1)

    def test_history_ends_mid_slab(self, small_slab):
        data = generate("json_records", 900, seed=4)
        pipe = NxMatchPipeline(Z15.engine)
        for history_len in (1, small_slab // 2, small_slab + 5,
                            5 * small_slab - 1):
            history = _HISTORY_SOURCE[:history_len]
            result = assert_scan_equals_reference(pipe, data, history)
            assert result.history_cycles == -(-history_len // 8)

    def test_partial_group_alone_in_its_slab(self, small_slab):
        # One single-ported bank: every group stalls on its distinct
        # hashes, the trailing partial one included.
        engine = small_params(scan_bytes_per_cycle=8, hash_banks=1)
        for partial in (1, 3, 7):
            hashed = 2 * small_slab + partial
            data = bytes(range(hashed + MIN_MATCH - 1))
            result = assert_scan_equals_reference(NxMatchPipeline(engine),
                                                  data)
            assert result.conflict_stalls == (hashed // 8) * 7 + partial - 1


class TestBufferTypes:
    @pytest.mark.parametrize("history", [b"", _HISTORY_SOURCE[:5000]],
                             ids=["no-history", "history"])
    def test_bytearray_and_memoryview_scan_like_bytes(self, history):
        data = generate("xml_documents", 20000, seed=5)
        pipe = NxMatchPipeline(POWER9.engine)
        want = pipe.scan(data, history=history)
        for cast in (bytearray, memoryview):
            assert pipe.scan(cast(data), history=history) == want
            assert pipe.scan(cast(data), history=cast(history)) == want
        assert all(type(t) in (int, tuple) for t in want.tokens)


def test_transient_memory_does_not_grow_with_the_input():
    """A 1 MB scan peaks within twice what it keeps (tokens + table):
    the bulk lists are one slab long, and the sets that insert-only runs
    grow are cut back as the scan goes, not only at the end."""
    data = generate("json_records", 1 << 20, seed=1)
    pipe = NxMatchPipeline(Z15.engine)
    tracemalloc.start()
    try:
        result = pipe.scan(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.stats.match_bytes > 0
    assert peak <= 2 * retained
