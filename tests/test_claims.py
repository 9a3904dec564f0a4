"""Integration: every headline claim from the abstract, in one place.

These are the reproduction's acceptance tests — each asserts the *shape*
(and, for the calibrated anchors, the value) of one published claim.  A
claim that an experiment also checks takes its band from that row of
``benchmarks/experiments.py``, so each band is stated once.
"""

import pathlib
import sys

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.append(str(BENCHMARKS))

from experiments import EXPERIMENTS, holds  # noqa: E402
from repro.nx.params import POWER9, Z15, Topology, z15_max_config
from repro.perf.cost import SoftwareCostModel, accelerator_effective_gbps
from repro.perf.energy import EnergyModel
from repro.perf.system import SystemModel
from repro.perf.timing import OffloadTimingModel
from repro.workloads.spark import SparkJobModel


def band(experiment: str, claim: str):
    return EXPERIMENTS[experiment].claims[claim]


class TestAbstractClaims:
    def test_388x_single_core_speedup(self):
        """'provides a 388x speedup factor over the zlib compression
        software running on a general-purpose core'"""
        timing = OffloadTimingModel(POWER9)
        speedup = timing.speedup(8 << 20, level=6)
        assert holds(band("e1", "headline"), speedup)

    def test_13x_whole_chip_speedup(self):
        """'provides a 13x speedup factor over the entire chip of cores'"""
        accel = accelerator_effective_gbps(POWER9)
        chip = SoftwareCostModel(POWER9).chip_compress_rate_gbps(6)
        assert holds(band("e2", "headline"), accel / chip)

    def test_23pct_spark_tpcds_speedup(self):
        """'the accelerators provide an end-to-end 23% speedup to Apache
        Spark TPC-DS workload compared to the software baseline'"""
        result = SparkJobModel().run()
        assert holds(band("e6", "speedup"), result.speedup)

    def test_z15_doubles_power9(self):
        """'The z15 chip doubles the compression rate of POWER9'"""
        p9 = accelerator_effective_gbps(POWER9)
        z15 = accelerator_effective_gbps(Z15)
        assert holds(band("e7", "large_gain"), z15 / p9)

    def test_280_gbps_max_z15(self):
        """'on a maximally configured z15 system topology ... up to
        280 GB/s data compression rate'"""
        rates = SystemModel(z15_max_config()).rates()
        assert holds(band("e8", "max_rate"), rates.accelerator_gbps)

    def test_half_percent_chip_area(self):
        """'a single accelerator uses less than 0.5% of the processor
        chip area'"""
        assert holds(band("e9", "area_fraction"), POWER9.area_fraction)

    def test_microsecond_scale_invocation(self):
        """On-chip integration keeps invocation overhead in microseconds,
        versus tens of microseconds for an I/O-attached adapter."""
        timing = OffloadTimingModel(POWER9)
        assert timing.fixed_overhead_seconds() < 5e-6

    def test_energy_efficiency_beyond_speedup(self):
        """'significantly advance the state of the art in ... power/energy
        efficiency': the energy gap exceeds 100x."""
        gain = EnergyModel(POWER9).energy_comparison().efficiency_gain
        assert holds(band("e9", "energy_gain"), gain)


class TestShapeClaims:
    def test_ratio_ordering_on_corpus(self):
        """zlib -9 >= zlib -6 >~ NX >> zlib -1-ish ordering on corpora."""
        from repro.deflate.compress import deflate
        from repro.nx.compressor import NxCompressor
        from repro.nx.dht import DhtStrategy
        from repro.workloads.corpus import build_corpus

        corpus = build_corpus("quick")
        compressor = NxCompressor(POWER9.engine)
        total_in = total_nx = total_z1 = total_z6 = total_z9 = 0
        for data in corpus.values():
            total_in += len(data)
            total_nx += len(compressor.compress(
                data, strategy=DhtStrategy.DYNAMIC).data)
            total_z1 += len(deflate(data, 1).data)
            total_z6 += len(deflate(data, 6).data)
            total_z9 += len(deflate(data, 9).data)
        # Sizes, so each ratio of ratios is a size over a size.
        assert holds(band("e3", "z9_of_z6"), total_z6 / total_z9)
        assert holds(band("e3", "nx_of_z6"), total_z6 / total_nx)
        assert total_nx <= total_z1 * 1.05   # and competitive with -1

    def test_break_even_in_kilobyte_range(self):
        be = OffloadTimingModel(POWER9).break_even_bytes(6)
        assert holds(band("e4", "break_even"), be)

    def test_aggregate_scaling_linear(self):
        one = SystemModel(Topology(machine=Z15)).rates().accelerator_gbps
        ten = SystemModel(Topology(machine=Z15, chips_per_drawer=2,
                                   drawers=5)).rates().accelerator_gbps
        assert holds(band("e8", "per_chip_spread"), abs(ten / (10 * one) - 1))

    def test_decompress_rate_higher_than_compress(self):
        assert (accelerator_effective_gbps(POWER9, "decompress")
                > accelerator_effective_gbps(POWER9, "compress"))


class TestSelfTest:
    def test_power9_selftest_passes(self):
        from repro.nx.selftest import run_selftest

        report = run_selftest(POWER9)
        assert report.passed
        assert report.vectors_run >= 5
        assert report.strategies_run == 4

    def test_z15_selftest_passes(self):
        from repro.nx.selftest import run_selftest

        assert run_selftest(Z15).passed
