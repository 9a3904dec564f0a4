"""The stack benchmark: four served workloads, end to end and per layer.

Driver contract (see BENCHMARK.json)::

    python3 benchmarks/stack/run.py --workload rpc_small --seed 7 \\
        --seconds 20 --trace 0

launches the product's own ``python -m repro serve`` as a child, drives
it over loopback with ``ServiceClient`` from ``nproc`` closed-loop
connections, verifies every reply with the stdlib, and prints one JSON
object as the last line.  ``--trace 0`` measures the end-to-end metrics
with all telemetry off; ``--trace 1`` runs a shorter served pass plus
the in-process ladder (ladder.py) and prints the per-layer metrics.
Every end-to-end time is corrected for the speed of the host at the
moment it was measured (loadgen.py, "Speed correction").

Without ``--workload`` every workload runs in turn, the metrics are
printed by name with their units, and a result document for
``compare.py`` is written under ``results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"

if not (SRC / "repro").is_dir():
    sys.exit(f"error: no program to measure under {SRC}")
sys.path.insert(0, str(SRC))

from repro.service import ServiceClient  # noqa: E402

from loadgen import (REQUEST_TIMEOUT_S, LoadGen, Probe,  # noqa: E402
                     Verifier, summarise)
from payloads import (WARMUP, WORKLOADS, check_items,  # noqa: E402
                      make_items, make_plan, stamp)
from procs import (Server, child_env, shm_slabs, sweep_group,  # noqa: E402
                   tree_peak_rss_mb)

#: A traced run's served pass: one launch, three rounds.
TRACE_LAUNCHES, TRACE_ROUNDS = 1, 3


class InvalidRun(RuntimeError):
    """A validity guard failed: the numbers would describe some other
    workload than the one named, so none are reported."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_context(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg_start": os.getloadavg(),
            "seed": seed,
            "git_commit": commit or None}


def first_reply(server, workload, item, verifier) -> float:
    """Dial, send one request, verify it; seconds since the launch."""
    if workload.stamped:
        item = stamp(item, 0)
    with ServiceClient(port=server.port,
                       timeout_s=REQUEST_TIMEOUT_S) as client:
        output = client.request(workload.op, item.wire, qos=workload.qos,
                                fmt="gzip").output
    elapsed = time.perf_counter() - server.started_at
    if not verifier.check(item, output):
        raise InvalidRun(f"{workload.name}: first reply failed "
                         "stdlib verification")
    return elapsed


def place_cpus(workload) -> set[int]:
    """The CPUs the load generator and the server are confined to.

    A server without exec workers is GIL-bound: one CPU is all it can
    use.  A cache hit is ~0.1 ms of work on each side, so its latency
    is mostly two thread wake-ups, and on a VM a wake-up on the waker's
    own CPU is a context switch while one on another, idle, CPU is an
    IPI to a halted vCPU, several times dearer in time *and* in CPU.
    Left to the scheduler the choice flips after the first loaded
    segment (solo p50 read 0.10 to 0.43 ms, loaded 3k to 8k req/s), so
    client and server share one CPU and every wake-up is local.  The
    exec server keeps every CPU: its workers are the point.
    """
    cpus = os.sched_getaffinity(0)
    return cpus if workload.exec_workers else {max(cpus)}


def serve_and_measure(workload, plan, items, nproc: int) -> dict:
    """``plan.launches`` times: launch, time the first reply, warm up,
    run the rounds, drain; everything observed from outside the server.
    Returns one record per launch."""
    verifier = Verifier(workload)
    slabs_before = shm_slabs()
    launches = []
    everywhere = os.sched_getaffinity(0)
    cpus = place_cpus(workload)
    os.sched_setaffinity(0, cpus)
    probe = Probe(cpus, workload.probe_trips)
    try:
        for launch in range(plan.launches):
            # Speed-corrected like every other time (loadgen.py), by
            # the probe before the launch alone: after the first reply
            # a server is still busy, on the very CPU the probe uses.
            slowdown = statistics.median(probe() for _ in range(3))
            with Server(SRC, workload.serve_args(nproc), cpus) as server:
                elapsed = first_reply(server, workload,
                                      items[launch % len(items)], verifier)
                clients = [ServiceClient(port=server.port,
                                         timeout_s=REQUEST_TIMEOUT_S)
                           for _ in range(nproc)]
                try:
                    loadgen = LoadGen(workload, items, clients, server.pid,
                                      probe, verifier)
                    loadgen.round(WARMUP)
                    rounds = [loadgen.round(plan)
                              for _ in range(plan.rounds)]
                    stats = clients[0].stats()
                finally:
                    for client in clients:
                        client.close()
                launches.append({"setup_s": elapsed / slowdown,
                                 "rounds": rounds, "stats": stats,
                                 "peak_rss_mb": tree_peak_rss_mb(server.pid),
                                 "drain": server.stop()})
    finally:
        probe.close()
        os.sched_setaffinity(0, everywhere)
    leaked = shm_slabs() - slabs_before
    if leaked:
        raise RuntimeError(f"server left /dev/shm slabs behind: {leaked}")
    return {"launches": launches, "verifier": verifier}


def check_validity(workload, served: dict, layer: dict) -> None:
    drains = [launch["drain"] for launch in served["launches"]]
    hits = sum(d.get("cache_hits", 0) for d in drains)
    if workload.name == "rpc_small" and hits != 0:
        raise InvalidRun("rpc_small must miss the result cache on every "
                         f"request, saw {hits} hits")
    if workload.name == "hot_cache":
        share = hits / max(1, sum(d.get("cache_requests", 0)
                                  for d in drains))
        if share < 0.99:
            raise InvalidRun(f"hot_cache hit ratio {share:.4f} < 0.99")
    if workload.exec_workers and layer["exec.worker_cpu_share"] < 0.5:
        raise InvalidRun(
            f"{workload.name}: exec workers used "
            f"{layer['exec.worker_cpu_share']:.2f} of the server's CPU; "
            "the exec layer is being bypassed")


def served_metrics(workload, served: dict) -> tuple[dict, dict, dict]:
    """``(end-to-end values, their per-launch values, layer values)``."""
    launches, verifier = served["launches"], served["verifier"]
    e2e, per_launch, layer = summarise([launch["rounds"]
                                        for launch in launches])
    per_launch["setup_s"] = [launch["setup_s"] for launch in launches]
    samples = [s for launch in launches for r in launch["rounds"]
               for s in r.solo + r.loaded]
    e2e["setup_s"] = statistics.median(per_launch["setup_s"])
    e2e["peak_rss_mb"] = max(launch["peak_rss_mb"] for launch in launches)
    e2e["ratio"] = (sum(s.bytes_plain for s in samples)
                    / max(1, sum(s.bytes_packed for s in samples)))
    e2e["verified_share"] = 1.0 - verifier.failed / verifier.attempted

    def total(*path: str) -> int:
        values = [launch["stats"] for launch in launches]
        for key in path:
            values = [value[key] for value in values]
        return sum(values)

    layer["service.mean_batch_size"] = (total("completed")
                                        / max(1, total("batches")))
    layer["service.rejected"] = total("rejected")
    layer["service.expired"] = total("expired")
    layer["service.dedup_evictions"] = total("dedup", "evictions")
    check_validity(workload, served, layer)
    return e2e, per_launch, layer


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, nproc: int) -> dict:
    """One workload, one mode; returns its result record."""
    workload = WORKLOADS[name]
    plan = (make_plan(workload, seconds, quick, TRACE_LAUNCHES, TRACE_ROUNDS)
            if trace else make_plan(workload, seconds, quick))
    items = make_items(workload, seed)
    check_items(workload, items)
    served = serve_and_measure(workload, plan, items, nproc)
    e2e, per_launch, layer = served_metrics(workload, served)
    attempted = served["verifier"].attempted
    failed = served["verifier"].failed
    if not trace:
        return {"attempted": attempted, "failed": failed, "values": e2e,
                "launches": per_launch}

    slabs_before = shm_slabs()
    ladder = subprocess.Popen(
        [sys.executable, str(HERE / "ladder.py"), name, str(seed),
         str(nproc), str(RESULTS / f"trace-{name}.json")],
        stdout=subprocess.PIPE, text=True, env=child_env(SRC),
        start_new_session=True)
    try:
        output, _ = ladder.communicate()
    finally:
        sweep_group(ladder)
    leaked = shm_slabs() - slabs_before
    if ladder.returncode != 0 or leaked:
        raise RuntimeError(f"ladder exited with code {ladder.returncode}, "
                           f"left /dev/shm slabs {leaked}")
    walked = json.loads(output.splitlines()[-1])
    rungs = walked["metrics"]
    hit_ratio = rungs["dictsvc.cache_hit_ratio"]
    if name == "rpc_small" and hit_ratio != 0.0:
        raise InvalidRun(f"rpc_small ladder hit the cache ({hit_ratio})")
    if name == "hot_cache" and hit_ratio < 0.99:
        raise InvalidRun(f"hot_cache ladder hit ratio {hit_ratio} < 0.99")
    return {"attempted": attempted + walked["attempted"],
            "failed": failed + walked["failed"],
            "values": {**layer, **rungs}, "launches": {}}


def render(name: str, values: dict, declared: list[dict]) -> dict:
    """Print one workload's metrics by name and unit; returns the
    ``metrics`` object of the result line."""
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{name:13s} {metric['name']:34s} "
              f"{value:14.6g} {metric['unit']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (driver contract); default all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds the request counts are "
                             "sized for (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics instead of end-to-end")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 2 launches of 1 round, quarter "
                             "counts; refused by compare.py")
    parser.add_argument("--out", type=Path, default=None,
                        help="result document (all-workloads mode)")
    args = parser.parse_args(argv)

    # Runs the finally/with clauses, so the served tree is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workload {unknown}; have {list(WORKLOADS)}")

    meta = host_context(args.seed)
    meta.update(seconds=seconds, trace=bool(args.trace), quick=args.quick)
    print(f"host: {json.dumps(meta)}")
    if meta["loadavg_start"][0] > meta["nproc"]:
        print(f"warning: 1-min load {meta['loadavg_start'][0]:.2f} exceeds "
              f"nproc {meta['nproc']}; timings will be noisy",
              file=sys.stderr)

    document = {"meta": meta, "workloads": {}}
    for name in names:
        try:
            record = run_workload(name, args.seed, seconds,
                                  bool(args.trace), args.quick,
                                  meta["nproc"])
        except InvalidRun as exc:
            print(f"error: invalid run: {exc}", file=sys.stderr)
            return 1
        record["metrics"] = render(name, record.pop("values"), declared)
        document["workloads"][name] = record
    meta["loadavg_end"] = os.getloadavg()

    if not args.workload:
        tag = "".join(("-traced" if args.trace else "",
                       "-quick" if args.quick else ""))
        out = args.out or RESULTS / f"stack-seed{args.seed}{tag}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=1))
        print(f"wrote {out}")
        return 0
    record = document["workloads"][args.workload]
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
