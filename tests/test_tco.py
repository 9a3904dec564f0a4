"""Fleet TCO model."""

from dataclasses import replace

import pytest

from repro.nx.params import POWER9, Z15
from repro.perf.io_adapter import CARD_COST_USD
from repro.perf.tco import (STORAGE_USD_PER_TB_MONTH, FleetAssumptions,
                            TcoModel)


@pytest.fixture
def model():
    return TcoModel(POWER9)


class TestStorageSavings:
    def test_formula(self, model):
        a = model.assumptions
        expected = (a.compressed_tb_per_day * 30
                    * (1 - 1 / a.compression_ratio)
                    * STORAGE_USD_PER_TB_MONTH)
        assert model.storage_savings_usd_per_month() == pytest.approx(
            expected)

    def test_ratio_one_saves_nothing(self):
        model = TcoModel(POWER9, assumptions=replace(
            FleetAssumptions(), compression_ratio=1.0))
        assert model.storage_savings_usd_per_month() == 0.0

    def test_better_ratio_saves_more(self):
        low = TcoModel(POWER9, assumptions=replace(
            FleetAssumptions(), compression_ratio=2.0))
        high = TcoModel(POWER9, assumptions=replace(
            FleetAssumptions(), compression_ratio=4.0))
        assert (high.storage_savings_usd_per_month()
                > low.storage_savings_usd_per_month())


class TestCoreHours:
    def test_scale_with_volume(self):
        small = TcoModel(POWER9, assumptions=replace(
            FleetAssumptions(), compressed_tb_per_day=10))
        large = TcoModel(POWER9, assumptions=replace(
            FleetAssumptions(), compressed_tb_per_day=100))
        assert large.core_hours_returned_per_month() == pytest.approx(
            10 * small.core_hours_returned_per_month())

    def test_z15_cores_cheaper_to_replace(self):
        """Faster cores burn fewer hours for the same bytes."""
        p9 = TcoModel(POWER9).core_hours_returned_per_month()
        z15 = TcoModel(Z15).core_hours_returned_per_month()
        assert z15 < p9

    def test_magnitude_sane(self, model):
        # 100 TB/day at ~18 MB/s/core ~ 45 k core-hours/month.
        hours = model.core_hours_returned_per_month()
        assert 1e4 < hours < 1e6


class TestAdapters:
    def test_at_least_one(self):
        tiny = TcoModel(POWER9, assumptions=replace(
            FleetAssumptions(), compressed_tb_per_day=0.1))
        assert tiny.adapters_avoided() == 1

    def test_grow_with_volume(self, model):
        big = TcoModel(POWER9, assumptions=replace(
            FleetAssumptions(), compressed_tb_per_day=5000))
        assert big.adapters_avoided() > model.adapters_avoided()

    def test_report_composition(self, model):
        rep = model.report()
        assert rep.recurring_usd_per_month == pytest.approx(
            rep.storage_usd_per_month + rep.core_usd_per_month
            + rep.adapter_power_usd_per_month)
        assert rep.adapter_capex_usd == pytest.approx(
            rep.adapters_avoided
            * CARD_COST_USD)
