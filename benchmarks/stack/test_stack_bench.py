"""Unit tests of the stack benchmark's own maths and parsers.

Not part of tier-1; run with ``python -m pytest benchmarks/stack``.
"""

import copy
import os
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import compare  # noqa: E402
import loadgen  # noqa: E402
import payloads  # noqa: E402
import procs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- bursts, speed correction, quartiles -------------------------------------

def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert loadgen.percentile(values, 0.5) == 3.0
    assert loadgen.percentile(values, 0.9) == 5.0
    assert loadgen.percentile(values, 0.2) == 1.0
    assert loadgen.percentile([7.0], 0.9) == 7.0


def test_group_median_is_per_group_then_mean():
    groups = {0: [1.0, 2.0, 30.0], 8: [10.0]}
    assert loadgen.group_median(groups) == pytest.approx(6.0)


@pytest.mark.parametrize("trips", [0, 20])
def test_probe_reads_a_slowdown_and_keeps_the_affinity(trips):
    cpus = os.sched_getaffinity(0)
    probe = loadgen.Probe(cpus, trips)
    try:
        assert 0.1 < probe() < 50.0
    finally:
        probe.close()
    assert os.sched_getaffinity(0) == cpus


def _sample(group, wall, slowdown, requests=1, plain=0, root=0.0,
            workers=0.0):
    return loadgen.Sample(group, wall, slowdown, root, workers, 0.0,
                          [wall / requests] * requests, plain, plain // 2)


def test_a_time_is_divided_by_the_slowdown():
    slow = _sample(0, 0.030, 2.0)
    assert slow.corrected(slow.wall_s) == pytest.approx(0.015)


def test_summarise_corrects_groups_and_takes_the_median_launch():
    ref = 1.0

    def launch(scale):
        """One round; the host is ``scale`` times slower all through,
        so the corrected values agree with those of scale 1."""
        return [loadgen.Round(
            [_sample(0, 0.010 * scale, scale * ref,
                     root=0.004 * scale, workers=0.004 * scale),
             _sample(1, 0.030 * scale, scale * ref,
                     root=0.010 * scale, workers=0.010 * scale)],
            [_sample(0, 2.0 * scale, scale * ref, requests=4,
                     plain=4_000_000, workers=1.0 * scale)])]

    slow = launch(1.0)
    slow[0].solo[0].wall_s = 0.050      # one launch reads worse
    e2e, per_launch, layer = loadgen.summarise(
        [launch(1.0), launch(2.0), slow])
    assert e2e["latency_ms"] == pytest.approx(20.0)
    assert e2e["server_cpu_ms_per_req"] == pytest.approx(14.0)
    assert e2e["throughput_mbps"] == pytest.approx(2.0)
    assert per_launch["latency_ms"] == pytest.approx([20.0, 20.0, 40.0])
    assert per_launch["throughput_mbps"] == pytest.approx([2.0] * 3)
    # Layer values are raw: 6 solo + 12 loaded requests, as read.
    assert layer["loadgen.samples"] == 18
    assert layer["loadgen.solo_p50_ms"] == pytest.approx(25.0)
    assert layer["loadgen.solo_p90_ms"] == pytest.approx(60.0)
    assert layer["exec.worker_cpu_share"] == pytest.approx(
        4.056 / (4.056 + 0.056))
    assert layer["exec.parallelism"] == pytest.approx(4.0 / 8.0)


# -- payload sets ------------------------------------------------------------

def test_payloads_repeat_under_one_seed_and_differ_across_seeds():
    workload = payloads.WORKLOADS["scan_inflate"]
    first = payloads.make_items(workload, seed=5)
    again = payloads.make_items(workload, seed=5)
    other = payloads.make_items(workload, seed=6)
    assert first == again and len(first) == workload.payloads
    assert all(a.plain != b.plain for a, b in zip(first, other))
    payloads.check_items(workload, first)
    assert all(len(item.plain) == workload.size for item in first)


def test_check_items_rejects_a_corrupt_member():
    workload = payloads.WORKLOADS["scan_inflate"]
    item = payloads.make_items(workload, seed=5, count=1)[0]
    bad = payloads.Item(item.wire, item.plain, item.crc ^ 1)
    with pytest.raises(ValueError):
        payloads.check_items(workload, [bad])


@pytest.mark.parametrize("name", list(payloads.WORKLOADS))
def test_bursts_of_one_group_do_the_same_work(name):
    workload = payloads.WORKLOADS[name]
    plan = payloads.make_plan(workload, SPEC["run_seconds"])
    for segment, bursts in (("solo", plan.solo_bursts),
                            ("loaded", plan.loaded_bursts)):
        by_group = {}
        for b in range(bursts):
            positions = workload.positions(segment, b)
            by_group.setdefault(positions[0], []).append(positions)
        assert all(len({tuple(p) for p in same}) == 1
                   for same in by_group.values())
        # Every group has as many samples, and together they draw
        # every payload equally often.
        assert len({len(same) for same in by_group.values()}) == 1
        drawn = [p for same in by_group.values() for p in same[0]]
        assert {drawn.count(p) for p in range(workload.payloads)} == {
            len(drawn) // workload.payloads}


def test_a_stamp_changes_the_head_of_the_payload_only():
    workload = payloads.WORKLOADS["rpc_small"]
    item = payloads.make_items(workload, seed=5, count=1)[0]
    one, two = payloads.stamp(item, 1), payloads.stamp(item, 2)
    assert one.wire != two.wire and len(one.wire) == workload.size
    assert one.wire[payloads.STAMP_BYTES:] == item.wire[payloads.STAMP_BYTES:]
    payloads.check_items(workload, [one, two])


def test_quick_plan_is_two_launches_of_one_round_of_quarter_counts():
    workload = payloads.WORKLOADS["hot_cache"]
    full = payloads.make_plan(workload, payloads.REFERENCE_SECONDS)
    quick = payloads.make_plan(workload, payloads.REFERENCE_SECONDS,
                               quick=True)
    assert (full.launches, full.rounds) == (5, 2)
    assert (quick.launches, quick.rounds) == (2, 1)
    assert quick.solo_bursts == round(full.solo_bursts / 4)
    assert quick.loaded_bursts == round(full.loaded_bursts / 4)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(payloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/stack"]


# -- /proc parsers -----------------------------------------------------------

def test_parse_stat_survives_spaces_and_parens_in_the_name():
    line = ("4242 (python3 (repro) x) S 17 4240 4242 0 -1 4194304 100 0 0 0 "
            "250 50 0 0 20 0 3 0 1000 2000 300 1 1 1 1 1 1 0 0 0 0 0 0 0 17 "
            "1 0 0 0 0 0")
    assert procs.parse_stat(line) == (17, 4240, "S")


def test_descendants_walks_the_whole_tree():
    table = {pid: (ppid, pid, "S")
             for pid, ppid in {1: 0, 10: 1, 11: 10, 12: 11, 20: 1}.items()}
    assert sorted(procs.descendants(table, 10)) == [11, 12]
    assert procs.descendants(table, 12) == []


def test_tree_clock_sees_this_process_and_survives_a_gone_one():
    own, below = procs.TreeClock(os.getpid()).read()
    assert own > 0.0 and below >= 0.0
    assert procs.cpu_clock_s(2 ** 22 + 1) == 0.0    # above pid_max


def test_banner_and_drain_parsers():
    assert procs.parse_port(
        "serving on 127.0.0.1:40123 (machine POWER9, 2 chip(s), "
        "policy round_robin)\n") == 40123
    with pytest.raises(RuntimeError):
        procs.parse_port("Traceback (most recent call last):")
    assert procs.parse_drain(
        "drained: 41 served, 0 shed, 2 failed\n"
        "cache: 1 hits / 41 requests (40 executions, 0 evictions)\n") == {
            "served": 41, "shed": 0, "failed": 2,
            "cache_hits": 1, "cache_requests": 41}


# -- compare.py --------------------------------------------------------------

def _document(latency_launches, quick=False):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    metrics["latency_ms"]["value"] = sorted(latency_launches)[3]
    return {"meta": {"quick": quick, "trace": False},
            "workloads": {"rpc_small": {
                "metrics": metrics,
                "launches": {"latency_ms": list(latency_launches)}}}}


def _verdicts(doc_a, doc_b):
    rows = compare.compare(doc_a, doc_b, SPEC["end_to_end"])
    return {row["metric"]: row["verdict"] for row in rows}


def test_compare_ok_worse_and_unresolved():
    steady = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0]
    base = _document(steady)
    assert set(_verdicts(base, copy.deepcopy(base)).values()) == {"ok"}

    slow = _document([v * 1.5 for v in steady])
    assert _verdicts(base, slow)["latency_ms"] == "worse"
    assert _verdicts(slow, base)["latency_ms"] == "ok"

    noisy = _document([6.0, 14.0, 8.0, 10.0, 13.0, 7.0, 12.0])
    assert _verdicts(base, noisy)["latency_ms"] == "unresolved"
    # Wide spread, but every launch of B beats every launch of A.
    fast_noisy = _document([v / 4 for v in noisy["workloads"]["rpc_small"]
                            ["launches"]["latency_ms"]])
    assert _verdicts(base, fast_noisy)["latency_ms"] == "ok"


def test_compare_reports_any_change_of_an_exact_metric():
    base = _document([10.0] * 7)
    moved = copy.deepcopy(base)
    moved["workloads"]["rpc_small"]["metrics"]["ratio"]["value"] = 0.999
    row = next(r for r in compare.compare(base, moved, SPEC["end_to_end"])
               if r["metric"] == "ratio")
    assert row["changed"] and row["verdict"] == "ok"
    moved["workloads"]["rpc_small"]["metrics"]["ratio"]["value"] = 0.5
    assert _verdicts(base, moved)["ratio"] == "worse"


def test_compare_refuses_a_quick_result(tmp_path):
    base = _document([10.0] * 7)
    with pytest.raises(compare.Incomparable):
        compare.compare(base, _document([10.0] * 7, quick=True),
                        SPEC["end_to_end"])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(_document([10.0] * 7, quick=True)))
    assert compare.main([str(a), str(b)]) == 2
    b.write_text(json.dumps(_document([20.0] * 7)))
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
