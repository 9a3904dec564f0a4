"""Public API: sessions, offload advisor, metrics helpers."""

import gzip as stdgzip
import zlib as stdzlib

import pytest

from repro import NxGzip, OffloadAdvisor, Route
from repro.core.metrics import Table, human_bytes
from repro.e842 import codec as e842
from repro.errors import ConfigError


class TestNxGzipSession:
    def test_roundtrip_gzip(self, text_20k):
        with NxGzip("POWER9") as session:
            comp = session.compress(text_20k)
            assert stdgzip.decompress(comp.data) == text_20k
            restored = session.decompress(comp.data)
            assert restored.data == text_20k

    def test_roundtrip_raw_and_zlib(self, json_20k):
        with NxGzip("POWER9") as session:
            for fmt, wbits in (("raw", -15), ("zlib", 15)):
                comp = session.compress(json_20k, fmt=fmt)
                assert stdzlib.decompress(comp.data, wbits) == json_20k
                assert session.decompress(comp.data, fmt=fmt).data \
                    == json_20k

    def test_strategies_accepted(self, text_20k):
        with NxGzip("POWER9") as session:
            for strategy in ("fixed", "dynamic", "canned", "auto"):
                comp = session.compress(text_20k, strategy=strategy)
                assert stdgzip.decompress(comp.data) == text_20k

    def test_machine_by_object(self, text_20k):
        from repro import Z15

        with NxGzip(Z15) as session:
            comp = session.compress(text_20k)
            assert stdgzip.decompress(comp.data) == text_20k

    def test_unknown_machine_rejected(self):
        with pytest.raises(ConfigError):
            NxGzip("POWER12")

    def test_session_stats_accumulate(self, text_20k):
        with NxGzip("POWER9") as session:
            session.compress(text_20k)
            session.compress(text_20k)
            assert session.stats.requests == 2
            assert session.stats.bytes_in == 2 * len(text_20k)
            assert session.stats.modelled_seconds > 0

    def test_fault_injection_still_correct(self, text_20k):
        with NxGzip("POWER9", fault_probability=0.03, seed=11) as session:
            for _ in range(4):
                comp = session.compress(text_20k)
                assert stdgzip.decompress(comp.data) == text_20k

    def test_z15_faster_than_p9(self, text_20k):
        with NxGzip("POWER9") as p9, NxGzip("z15") as z15:
            t_p9 = p9.compress(text_20k).modelled_seconds
            t_z15 = z15.compress(text_20k).modelled_seconds
            assert t_z15 < t_p9

    def test_modelled_time_far_faster_than_software(self, text_20k):
        from repro.perf.cost import SoftwareCostModel
        from repro.nx.params import POWER9

        with NxGzip("POWER9") as session:
            hw = session.compress(text_20k, fmt="raw").modelled_seconds
        sw = SoftwareCostModel(POWER9).compress_seconds(len(text_20k), 6)
        assert sw / hw > 50  # small buffer: overhead eats into 388x


class TestOffloadAdvisor:
    def test_large_buffers_route_hardware(self, p9):
        advisor = OffloadAdvisor(p9)
        rec = advisor.recommend(1 << 20)
        assert rec.route is Route.HARDWARE
        assert rec.gain > 100

    def test_queue_wait_degrades_hardware(self, p9):
        advisor = OffloadAdvisor(p9)
        free = advisor.recommend(1 << 16)
        congested = advisor.recommend(1 << 16, queue_wait_s=1.0)
        assert congested.route is Route.SOFTWARE
        assert free.route is Route.HARDWARE



class TestMetrics:
    def test_human_bytes(self):
        assert human_bytes(512) == "512 B"
        assert human_bytes(1536) == "1.5 KB"
        assert human_bytes(2_500_000) == "2.5 MB"
        assert human_bytes(7_100_000_000) == "7.1 GB"

    def test_table_renders(self):
        table = Table(headers=["name", "value"])
        table.add("alpha", 1.2345)
        table.add("beta", 250.0)
        text = table.render(title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "alpha" in text
        assert "250" in text

    def test_table_wrong_arity_rejected(self):
        table = Table(headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add("only-one")


class Test842Session:
    def test_roundtrip(self, json_20k):
        with NxGzip("POWER9") as session:
            comp = session.compress_842(json_20k)
        assert e842.decompress(comp.data) == json_20k

    def test_842_weaker_but_faster_than_gzip(self, json_20k):
        with NxGzip("POWER9") as session:
            gz = session.compress(json_20k, fmt="raw")
            e842 = session.compress_842(json_20k)
        assert len(gz.data) < len(e842.data)
        assert e842.modelled_seconds < gz.modelled_seconds

    def test_accounted_in_session_stats(self, json_20k):
        with NxGzip("POWER9") as session:
            session.compress_842(json_20k)
            assert session.stats.requests == 1
