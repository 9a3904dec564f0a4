"""Banked hash table: candidate quality, capacity, conflict accounting."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.nx.hashbank import BankedHashTable
from repro.nx.params import POWER9, EngineParams


def small_params(**overrides) -> EngineParams:
    base = dict(
        name="tiny", clock_ghz=1.0, scan_bytes_per_cycle=4,
        decomp_bytes_per_cycle=8, hash_banks=4, hash_ways=2,
        hash_sets_log2=4, hash_ports=1, compare_window=16,
    )
    base.update(overrides)
    return EngineParams(**base)


class TestLookupInsert:
    def test_first_lookup_has_no_candidates(self):
        t = BankedHashTable(POWER9.engine)
        cands, _access = t.lookup_insert(b"abcdef", 0)
        assert cands == []

    def test_repeat_prefix_found(self):
        t = BankedHashTable(POWER9.engine)
        data = b"abcXabc"
        t.lookup_insert(data, 0)
        cands, _ = t.lookup_insert(data, 4)
        assert 0 in cands

    def test_most_recent_first(self):
        t = BankedHashTable(small_params(hash_ways=4))
        data = b"abc" + b"abc" + b"abc" + b"abc"
        for pos in (0, 3, 6):
            t.lookup_insert(data, pos)
        cands, _ = t.lookup_insert(data, 9)
        assert cands == [6, 3, 0]

    def test_way_capacity_evicts_fifo(self):
        t = BankedHashTable(small_params(hash_ways=2))
        data = b"abc" * 10
        for pos in (0, 3, 6):
            t.lookup_insert(data, pos)
        cands, _ = t.lookup_insert(data, 9)
        assert cands == [6, 3]  # position 0 evicted

    def test_window_filtering(self):
        params = POWER9.engine
        t = BankedHashTable(params)
        data = b"xyz" + bytes(params.window_bytes + 10) + b"xyz"
        t.lookup_insert(data, 0)
        cands, _ = t.lookup_insert(data, params.window_bytes + 13)
        assert 0 not in cands

    def test_counters(self):
        t = BankedHashTable(POWER9.engine)
        for i in range(5):
            t.lookup_insert(b"abcdefghij", i)
        assert t.lookups == 5
        assert t.insertions == 5

    def test_reset_clears(self):
        t = BankedHashTable(POWER9.engine)
        t.lookup_insert(b"abcabc", 0)
        t.reset()
        cands, _ = t.lookup_insert(b"abcabc", 3)
        assert cands == []
        assert t.lookups == 1


class TestConflicts:
    def test_no_accesses_no_stall(self):
        t = BankedHashTable(small_params())
        assert t.charge_group_conflicts([]) == 0

    def test_distinct_banks_no_stall(self):
        t = BankedHashTable(small_params(hash_ports=1))
        assert t.charge_group_conflicts([(0, 1), (1, 2), (2, 3)]) == 0

    def test_same_bank_distinct_hash_stalls(self):
        t = BankedHashTable(small_params(hash_ports=1))
        assert t.charge_group_conflicts([(0, 1), (0, 2), (0, 3)]) == 2

    def test_same_hash_merged(self):
        t = BankedHashTable(small_params(hash_ports=1))
        assert t.charge_group_conflicts([(0, 7), (0, 7), (0, 7)]) == 0

    def test_dual_port_halves_stalls(self):
        single = BankedHashTable(small_params(hash_ports=1))
        dual = BankedHashTable(small_params(hash_ports=2))
        accesses = [(0, i) for i in range(4)]
        assert single.charge_group_conflicts(list(accesses)) == 3
        assert dual.charge_group_conflicts(list(accesses)) == 1

    def test_stall_counter_accumulates(self):
        t = BankedHashTable(small_params(hash_ports=1))
        t.charge_group_conflicts([(0, 1), (0, 2)])
        t.charge_group_conflicts([(1, 1), (1, 2)])
        assert t.conflict_stalls == 2


def group_by_group(table: BankedHashTable, data: bytes, lo: int,
                   hi: int) -> int:
    """The stalls of ``[lo, hi)``, one :meth:`charge_group_conflicts` a
    scan group, as the hardware charges them."""
    stalls = 0
    for at in range(lo, hi, table.width):
        hashes = [BankedHashTable.hash3(data, i)
                  for i in range(at, min(at + table.width, hi))]
        stalls += table.charge_group_conflicts(
            [(h % table.banks, h) for h in hashes])
    return stalls


class TestSlabStalls:
    """``slab_stalls`` is ``charge_group_conflicts`` summed group by
    group, at every width ``EngineParams`` admits: its lanes must hold a
    count of 256 distinct hashes on one bank."""

    @pytest.mark.parametrize("banks", [1, 256])
    @pytest.mark.parametrize("width", [1, 2, 127, 128, 129, 256])
    @settings(max_examples=25, deadline=None)
    @given(ports=st.sampled_from(["one", "wider"]), lo=st.integers(0, 3),
           byte_mask=st.sampled_from([0x01, 0x0F, 0xFF]), draw=st.data())
    def test_equals_group_by_group(self, width, banks, ports, lo, byte_mask,
                                   draw):
        engine = small_params(scan_bytes_per_cycle=width, hash_banks=banks,
                              hash_ports=1 if ports == "one" else width + 1)
        # Up to two whole groups, then a partial one of any length.
        hi = lo + draw.draw(st.integers(0, 3 * width - 1), label="positions")
        data = draw.draw(st.binary(min_size=hi + 2, max_size=hi + 2).map(
            lambda raw: bytes(b & byte_mask for b in raw)), label="data")
        bulk, model = BankedHashTable(engine), BankedHashTable(engine)
        assert bulk.slab_stalls(data, lo, hi) == group_by_group(
            model, data, lo, hi)
        assert bulk.conflict_stalls == model.conflict_stalls

    @pytest.mark.parametrize("width", [127, 128, 129, 200, 256])
    def test_every_position_on_one_bank(self, width):
        """One single-ported bank and no repeated prefix: ``width - 1``
        stalls a group, 255 at width 256, and the partial group's own."""
        table = BankedHashTable(small_params(scan_bytes_per_cycle=width,
                                             hash_banks=1))
        hashed = 2 * width + 5
        data = bytes(range(256)) * 3
        assert table.slab_stalls(data, 0, hashed) == 2 * (width - 1) + 4


class TestGeometryValidation:
    """A geometry the scan cannot model is refused when it is built, not
    by a ``ZeroDivisionError`` in the middle of a scan."""

    @pytest.mark.parametrize("overrides", [
        {"hash_banks": 0}, {"hash_banks": 3}, {"hash_banks": 12},
        {"hash_banks": 512}, {"hash_banks": -4},
        {"scan_bytes_per_cycle": 0}, {"scan_bytes_per_cycle": 257},
        {"hash_ports": 0}, {"hash_ways": 0}, {"hash_ways": -1},
    ], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
    def test_refused(self, overrides):
        (field, value), = overrides.items()
        with pytest.raises(ConfigError, match=rf"\b{field}={value}\b"):
            small_params(**overrides)
        with pytest.raises(ConfigError):
            replace(POWER9.engine, **overrides)

    @pytest.mark.parametrize("banks", [1, 2, 64, 128, 256])
    def test_powers_of_two_up_to_256_accepted(self, banks):
        assert small_params(hash_banks=banks).hash_banks == banks

    def test_ablation_geometries_accepted(self):
        """A3 scales banks with the scan width, 16 a byte."""
        for width in (2, 4, 8, 16):
            params = replace(POWER9.engine, scan_bytes_per_cycle=width,
                             hash_banks=16 * width)
            assert BankedHashTable(params).banks == 16 * width


class TestHashFunction:
    def test_deterministic(self):
        assert (BankedHashTable.hash3(b"abcd", 0)
                == BankedHashTable.hash3(b"abcd", 0))

    def test_depends_on_all_three_bytes(self):
        h0 = BankedHashTable.hash3(b"abc", 0)
        assert h0 != BankedHashTable.hash3(b"abd", 0)
        assert h0 != BankedHashTable.hash3(b"adc", 0)
        assert h0 != BankedHashTable.hash3(b"dbc", 0)
