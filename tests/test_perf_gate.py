"""The perf gate's table, judged on synthetic documents (no bench runs)."""

from __future__ import annotations

import pytest

from tools.perf_gate import TABLE, gate, main


def doc(slowdown: float = 1.0, **results) -> dict:
    return {"meta": {"host_slowdown": slowdown},
            "results": results}


def rows(*metrics: str) -> tuple:
    found = tuple(row for row in TABLE if row.metric in metrics)
    assert len(found) == len(metrics)
    return found


def test_a_rate_halved_after_speed_correction_fails_by_name(capsys):
    failed = gate({"hotpath": doc(crc32_mbps=50.0)},
                  {"hotpath": doc(crc32_mbps=100.0)}, rows("crc32_mbps"))
    assert failed == ["hotpath:crc32_mbps"]
    assert "FAIL    hotpath crc32_mbps" in capsys.readouterr().out


def test_equal_corrected_rates_pass_when_raw_rates_differ_2x():
    # Half the raw rate on a host running at half speed.
    assert gate({"hotpath": doc(slowdown=2.0, crc32_mbps=50.0)},
                {"hotpath": doc(slowdown=1.0, crc32_mbps=100.0)},
                rows("crc32_mbps")) == []
    # Equal raw rates, but the fresh one on a host twice as fast.
    assert gate({"hotpath": doc(slowdown=0.5, crc32_mbps=100.0)},
                {"hotpath": doc(slowdown=1.0, crc32_mbps=100.0)},
                rows("crc32_mbps")) == ["hotpath:crc32_mbps"]


def test_a_missing_metric_fails(capsys):
    committed = doc(inflate_mbps=10.0, crc32_mbps=1.0)
    table = rows("inflate_mbps", "crc32_mbps")
    assert gate({"hotpath": doc()}, {"hotpath": committed}, table) \
        == ["hotpath:inflate_mbps", "hotpath:crc32_mbps"]
    assert capsys.readouterr().out.count("missing from the fresh run") == 2
    assert gate({"hotpath": doc(inflate_mbps=10.0)}, {"hotpath": doc()},
                rows("inflate_mbps")) == ["hotpath:inflate_mbps"]


@pytest.mark.parametrize("value, passes", [(1.9, True), (2.1, False)])
def test_an_absolute_ceiling_fails_above_its_limit(value, passes):
    # Taken as measured: neither the slowdown nor a baseline counts.
    metric = "deflate_l6_off_overhead_pct"
    failed = gate({"obs": doc(slowdown=3.0, **{metric: value})},
                  {"obs": {}}, rows(metric))
    assert failed == ([] if passes else [f"obs:{metric}"])


def test_an_unknown_source_is_refused(capsys):
    assert main(["hotpath", "kernels"]) == 2
    assert "unknown source kernels" in capsys.readouterr().err
