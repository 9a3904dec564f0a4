"""Cost, timing, energy, system, and adapter models."""

import pytest

from repro.nx.params import POWER9, Z15, Topology, z15_max_config
from repro.perf.cost import (
    COMPRESS_CYCLES_PER_BYTE,
    SoftwareCostModel,
    accelerator_effective_gbps,
    measure_effective_gbps,
)
from repro.perf.energy import EnergyModel
from repro.perf.io_adapter import PcieAdapterModel, compare_onchip_vs_adapter
from repro.perf.system import SystemModel, scaling_series
from repro.perf.timing import OffloadTimingModel


class TestSoftwareCost:
    def test_level6_near_20mbps(self):
        cost = SoftwareCostModel(POWER9)
        assert 15 < cost.compress_rate_mbps(6) < 25

    def test_levels_monotonically_slower(self):
        cost = SoftwareCostModel(POWER9)
        rates = [cost.compress_rate_mbps(level) for level in range(1, 10)]
        assert rates == sorted(rates, reverse=True)

    def test_decompress_much_faster_than_compress(self):
        cost = SoftwareCostModel(POWER9)
        assert cost.decompress_rate_mbps() > 5 * cost.compress_rate_mbps(6)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            SoftwareCostModel(POWER9).compress_cycles(100, level=11)

    def test_chip_rate_uses_all_threads(self):
        cost = SoftwareCostModel(POWER9)
        single = cost.compress_rate_mbps(6) / 1000
        assert cost.chip_compress_rate_gbps(6) == pytest.approx(
            single * POWER9.cores.cores * POWER9.cores.smt_scaling)

    def test_z15_cores_faster_per_thread(self):
        p9 = SoftwareCostModel(POWER9)
        z15 = SoftwareCostModel(Z15)
        assert z15.compress_rate_mbps(6) > p9.compress_rate_mbps(6)

    def test_calibration_matches_engine_model(self, text_20k):
        """The headline constant stays honest against the real model."""
        from repro.workloads.generators import generate

        sample = generate("markov_text", 262144, seed=77)
        measured = measure_effective_gbps(POWER9, sample)
        calibrated = accelerator_effective_gbps(POWER9)
        assert measured == pytest.approx(calibrated, rel=0.15)

    def test_unknown_machine_rejected(self):
        from dataclasses import replace

        fake = replace(POWER9, name="POWER11")
        with pytest.raises(ValueError):
            accelerator_effective_gbps(fake)

    def test_cpb_table_covers_levels_0_to_9(self):
        assert set(COMPRESS_CYCLES_PER_BYTE) == set(range(10))


class TestOffloadTiming:
    def test_fixed_overhead_microseconds(self):
        t = OffloadTimingModel(POWER9)
        assert 1e-6 < t.fixed_overhead_seconds() < 10e-6

    def test_latency_breakdown_totals(self):
        t = OffloadTimingModel(POWER9)
        lat = t.offload_latency(1 << 20, queue_wait=5e-6)
        assert lat.total == pytest.approx(
            lat.submit + lat.dispatch + lat.queue_wait + lat.service
            + lat.completion)

    def test_speedup_grows_with_size(self):
        t = OffloadTimingModel(POWER9)
        assert t.speedup(1 << 22) > t.speedup(1 << 12)

    def test_large_buffer_speedup_near_388(self):
        t = OffloadTimingModel(POWER9)
        assert 350 < t.speedup(8 << 20) < 420

    def test_ramp_monotone_and_saturating(self):
        t = OffloadTimingModel(POWER9)
        sizes = [1 << s for s in range(10, 25, 2)]
        values = [t.effective_throughput_gbps(size) for size in sizes]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(t.rate_gbps, rel=0.1)

    def test_small_buffers_overhead_dominated(self):
        t = OffloadTimingModel(POWER9)
        assert t.effective_throughput_gbps(1024) < 0.5 * t.rate_gbps

    def test_break_even_small_but_positive(self):
        t = OffloadTimingModel(POWER9)
        be = t.break_even_bytes(6)
        assert 0 < be < 16384

    def test_z15_sync_overhead_lower(self):
        p9 = OffloadTimingModel(POWER9)
        z15 = OffloadTimingModel(Z15)
        assert z15.fixed_overhead_seconds() < p9.fixed_overhead_seconds()

    def test_z15_wins_more_at_small_sizes(self):
        p9 = OffloadTimingModel(POWER9)
        z15 = OffloadTimingModel(Z15)
        small_gain = (z15.effective_throughput_gbps(4096)
                      / p9.effective_throughput_gbps(4096))
        large_gain = (z15.effective_throughput_gbps(16 << 20)
                      / p9.effective_throughput_gbps(16 << 20))
        assert small_gain > large_gain


class TestSystemModel:
    def test_single_chip_rates(self):
        model = SystemModel(Topology(machine=POWER9))
        rates = model.rates()
        assert rates.chips == 1
        assert rates.accelerator_gbps == pytest.approx(7.1)
        assert 12 < rates.speedup < 14

    def test_z15_max_config_hits_280(self):
        rates = SystemModel(z15_max_config()).rates()
        assert rates.chips == 20
        assert 250 < rates.accelerator_gbps < 300

    def test_scaling_linear_in_chips(self):
        series = scaling_series(Z15, max_chips=8)
        assert series[7].accelerator_gbps == pytest.approx(
            8 * series[0].accelerator_gbps)


class TestEnergyModel:
    def test_area_fraction_below_half_percent(self):
        assert POWER9.area_fraction < 0.005
        assert Z15.area_fraction < 0.005

    def test_energy_gain_orders_of_magnitude(self):
        gain = EnergyModel(POWER9).energy_comparison().efficiency_gain
        assert gain > 100

    def test_area_efficiency_gain_large(self):
        comp = EnergyModel(POWER9).area_comparison()
        assert comp.efficiency_gain > 100

    def test_cycles_freed_positive(self):
        # Core cycles one offloaded GB hands back to the application.
        assert SoftwareCostModel(POWER9).compress_cycles(10 ** 9, 6) > 1e11


class TestPcieAdapter:
    def test_onchip_beats_adapter_at_small_sizes(self):
        rows = compare_onchip_vs_adapter(POWER9, [4096, 65536])
        for _size, onchip, adapter in rows:
            assert onchip > adapter

    def test_gap_narrows_with_size(self):
        rows = compare_onchip_vs_adapter(
            POWER9, [4096, 1 << 20, 16 << 20])
        gaps = [onchip / adapter for _s, onchip, adapter in rows]
        assert gaps == sorted(gaps, reverse=True)

    def test_adapter_overhead_tens_of_microseconds(self):
        adapter = PcieAdapterModel()
        lat = adapter.offload_latency(4096)
        assert lat.submit + lat.completion > 20e-6
