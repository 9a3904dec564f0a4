"""Performance regression gate for the hot-path kernels.

Usage::

    PYTHONPATH=src python tools/perf_gate.py --tolerance 0.5 [--quick]

Runs ``benchmarks/bench_hotpath.py`` in-process and compares every
scalar throughput metric against the committed ``BENCH_hotpath.json``
baseline.  A metric fails the gate when::

    fresh < (1 - tolerance) * committed

The default tolerance is generous (0.5, i.e. "no worse than half the
committed rate") because shared CI machines are noisy and ``--quick``
measures a quarter-scale corpus; the gate exists to catch order-of-
magnitude kernel regressions — an accidental fallback to a slow path,
a per-byte loop reappearing — not single-digit drift.

``--fresh FILE`` skips the in-process run and gates a previously
recorded report instead (useful to separate measurement from judgment
in CI pipelines).

The gate also bounds the telemetry layer: a fresh
``benchmarks/bench_obs_overhead.py`` run must show the disabled-tracer
guard costing under ``--max-obs-overhead`` percent (default 2.0, the
documented ceiling) on the deflate/inflate hot paths.  ``--skip-obs``
omits that half; ``--obs-only`` runs nothing else.

A third section holds the serving stack to a floor: a fresh
``benchmarks/bench_e20_service_load.py`` run is gated against the
committed ``BENCH_service.json`` with the same relative-floor rule as
the hot paths (saturation throughput and accepted/s must not collapse).
Latency metrics live outside the gated section — lower is better, so
a floor would read improvements as regressions.  ``--skip-service`` /
``--service-only`` / ``--fresh-service FILE`` mirror the obs flags.

A fourth section gates the process execution layer: the warm-pool
parallel-deflate *and* member-run parallel-inflate sweeps from the
hot-path bench must not collapse against the committed per-worker-count
rates, and on a multi-core host each full-size sweep's warm 2-worker
rate must beat its warm 1-worker rate (on a 1-CPU host, and for
``--quick``'s below-break-even corpus, the speedup check is skipped —
``meta.cpus`` and ``meta.quick`` decide, so a small CI box cannot fake
or mask scaling).  ``--skip-parallel`` / ``--parallel-only`` mirror the other
section flags.

A fifth section gates the dictionary service with absolute checks (the
claims are part of the design, like the obs ceiling): a fresh
``benchmarks/bench_dictsvc.py`` run must show a result-cache hit at
least ``--min-cache-speedup`` (default 10) times cheaper than a miss,
trained canned tables faster than dynamic DHT generation on <=4 KB
buffers, and an aggregate compression-ratio loss no worse than
``--max-ratio-loss`` percent (default 3.0).  ``--skip-dictsvc`` /
``--dictsvc-only`` / ``--fresh-dictsvc FILE`` mirror the other
section flags.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_hotpath.json"
OBS_BASELINE_PATH = REPO_ROOT / "BENCH_obs.json"
SERVICE_BASELINE_PATH = REPO_ROOT / "BENCH_service.json"


def gate(fresh: dict, baseline: dict, tolerance: float) -> list[str]:
    """Return a list of failure messages; empty means the gate passes."""
    failures: list[str] = []
    committed = baseline.get("results", {})
    measured = fresh.get("results", {})
    for key, base in committed.items():
        if not isinstance(base, (int, float)) or base <= 0:
            continue  # worker-scaling dicts and placeholder zeros
        got = measured.get(key)
        if not isinstance(got, (int, float)):
            failures.append(f"{key}: missing from fresh run")
            continue
        floor = (1.0 - tolerance) * base
        if got < floor:
            failures.append(
                f"{key}: {got:.3f} MB/s < floor {floor:.3f} "
                f"(committed {base:.3f}, tolerance {tolerance:.0%})")
    if not committed:
        failures.append("baseline has no results section")
    return failures


def gate_obs(fresh: dict, max_overhead_pct: float) -> list[str]:
    """Ceiling check on the disabled-telemetry guard cost.

    Unlike the throughput gate this is absolute, not relative to a
    committed baseline: the <2 % promise is part of the observability
    design, so the fresh measurement alone decides.
    """
    failures: list[str] = []
    results = fresh.get("results", {})
    checked = 0
    for key, value in results.items():
        if not key.endswith("_off_overhead_pct"):
            continue
        checked += 1
        if not isinstance(value, (int, float)):
            failures.append(f"{key}: not a number ({value!r})")
        elif value > max_overhead_pct:
            failures.append(
                f"{key}: {value:.3f}% > ceiling {max_overhead_pct:.1f}%")
    if not checked:
        failures.append("obs report has no *_off_overhead_pct metrics")
    return failures


def gate_service(fresh: dict, baseline: dict,
                 tolerance: float) -> list[str]:
    """Relative floor on serving throughput, plus the overload bit.

    Reuses the throughput floor rule; additionally a run that never
    shed anything means the flood failed to saturate the admission
    queues, so the measurement (and the shedding path) proved nothing.
    """
    failures = gate(fresh, baseline, tolerance)
    if not fresh.get("shed", 0) > 0:
        failures.append(
            "service bench shed nothing: flood did not reach the "
            "admission limit, shedding path unexercised")
    return failures


def _gate_sweep(fresh: dict, baseline: dict, key: str,
                tolerance: float) -> list[str]:
    """Floor + scaling sanity on one warm-pool worker sweep.

    Per-worker-count warm rates obey the same relative floor as the
    scalar kernels.  The scaling check (warm 2-worker > warm 1-worker)
    only runs when the *fresh* host has at least two CPUs: a 1-CPU box
    cannot scale however good the pool is, and pretending otherwise
    would either always fail there or force the bar so low it gates
    nothing anywhere.  It also only runs on the full-size sweep:
    ``--quick``'s 73 KB corpus sits below the pool's break-even in
    both directions (a round trip through the workers costs more than
    the work), so there is no scaling there to assert.
    """
    failures: list[str] = []
    committed = baseline.get("results", {}).get(key)
    measured = fresh.get("results", {}).get(key)
    if not isinstance(measured, dict) or not measured:
        if isinstance(committed, dict):
            return [f"{key}: missing from fresh run"]
        return []  # neither side has the sweep: nothing to gate
    if isinstance(committed, dict):
        for count, base in committed.items():
            got = measured.get(count)
            if not isinstance(got, (int, float)):
                failures.append(
                    f"{key}[{count}w]: missing from fresh run")
                continue
            floor = (1.0 - tolerance) * base
            if got < floor:
                failures.append(
                    f"{key}[{count}w]: {got:.3f} MB/s "
                    f"< floor {floor:.3f} (committed {base:.3f})")
    cold_key = key.replace("_mbps", "_cold_mbps")
    if not isinstance(fresh.get("results", {}).get(cold_key), dict):
        failures.append(
            f"{cold_key}: missing from fresh run "
            "(cold/warm split not recorded)")
    cpus = fresh.get("meta", {}).get("cpus", 1)
    quick = fresh.get("meta", {}).get("quick", False)
    warm1 = measured.get("1")
    warm2 = measured.get("2")
    if cpus >= 2 and not quick and isinstance(warm1, (int, float)) \
            and isinstance(warm2, (int, float)) and warm1 > 0:
        if warm2 <= warm1:
            failures.append(
                f"{key}: warm pool does not scale on {cpus} CPUs: "
                f"2 workers {warm2:.3f} MB/s <= 1 worker "
                f"{warm1:.3f} MB/s")
    return failures


def gate_parallel(fresh: dict, baseline: dict,
                  tolerance: float) -> list[str]:
    """Gate both directions of the execution layer: the chunked
    parallel-deflate sweep and the member-run parallel-inflate sweep.
    The deflate sweep is mandatory; the inflate sweep is gated whenever
    either side recorded it."""
    failures = _gate_sweep(fresh, baseline, "parallel_deflate_mbps",
                           tolerance)
    if not failures and not isinstance(
            fresh.get("results", {}).get("parallel_deflate_mbps"), dict):
        # Mandatory even when the committed baseline predates the sweep.
        failures.append("parallel_deflate_mbps: missing from fresh run")
    failures += _gate_sweep(fresh, baseline, "parallel_inflate_mbps",
                            tolerance)
    return failures


def gate_dictsvc(fresh: dict, min_cache_speedup: float,
                 max_ratio_loss_pct: float) -> list[str]:
    """Absolute checks on the dictionary-service claims.

    Like the obs ceiling, these are design promises rather than
    drift floors: a cache hit must be at least ``min_cache_speedup``
    times cheaper than a miss, canned tables must beat dynamic DHT
    generation on the small-buffer regime they target, and the
    aggregate ratio give-up must stay within ``max_ratio_loss_pct``.
    """
    failures: list[str] = []
    results = fresh.get("results", {})

    speedup = results.get("cache_hit_speedup")
    if not isinstance(speedup, (int, float)):
        failures.append("cache_hit_speedup: missing from dictsvc report")
    elif speedup < min_cache_speedup:
        failures.append(
            f"cache_hit_speedup: {speedup:.1f}x < floor "
            f"{min_cache_speedup:.1f}x (hit {results.get('cache_hit_us')} "
            f"us vs miss {results.get('cache_miss_us')} us)")

    canned = results.get("canned_latency_speedup")
    if not isinstance(canned, (int, float)):
        failures.append(
            "canned_latency_speedup: missing from dictsvc report")
    elif canned <= 1.0:
        failures.append(
            f"canned_latency_speedup: {canned:.3f}x <= 1 — canned DHTs "
            "no longer beat dynamic generation on small buffers")

    loss = results.get("canned_ratio_loss_pct")
    if not isinstance(loss, (int, float)):
        failures.append(
            "canned_ratio_loss_pct: missing from dictsvc report")
    elif loss > max_ratio_loss_pct:
        failures.append(
            f"canned_ratio_loss_pct: {loss:.3f}% > ceiling "
            f"{max_ratio_loss_pct:.1f}%")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional slowdown vs the committed "
                             "baseline (default 0.5)")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=BASELINE_PATH,
                        help="committed baseline JSON (default repo root)")
    parser.add_argument("--fresh", type=pathlib.Path, default=None,
                        help="gate this report instead of running the bench")
    parser.add_argument("--quick", action="store_true",
                        help="run the bench on the quarter-scale corpus")
    parser.add_argument("--max-obs-overhead", type=float, default=2.0,
                        help="ceiling (percent) on the disabled-telemetry "
                             "guard cost (default 2.0)")
    parser.add_argument("--fresh-obs", type=pathlib.Path, default=None,
                        help="gate this obs report instead of running "
                             "the overhead bench")
    parser.add_argument("--skip-obs", action="store_true",
                        help="skip the telemetry-overhead half")
    parser.add_argument("--obs-only", action="store_true",
                        help="only gate the telemetry overhead")
    parser.add_argument("--service-baseline", type=pathlib.Path,
                        default=SERVICE_BASELINE_PATH,
                        help="committed service baseline JSON "
                             "(default repo root)")
    parser.add_argument("--fresh-service", type=pathlib.Path,
                        default=None,
                        help="gate this service report instead of running "
                             "the load bench")
    parser.add_argument("--skip-service", action="store_true",
                        help="skip the serving-stack section")
    parser.add_argument("--service-only", action="store_true",
                        help="only gate the serving stack")
    parser.add_argument("--skip-parallel", action="store_true",
                        help="skip the execution-layer section")
    parser.add_argument("--parallel-only", action="store_true",
                        help="only gate the execution layer")
    parser.add_argument("--min-cache-speedup", type=float, default=10.0,
                        help="floor on result-cache hit-vs-miss speedup "
                             "(default 10)")
    parser.add_argument("--max-ratio-loss", type=float, default=3.0,
                        help="ceiling (percent) on the canned-DHT "
                             "aggregate ratio loss (default 3.0)")
    parser.add_argument("--fresh-dictsvc", type=pathlib.Path,
                        default=None,
                        help="gate this dictsvc report instead of "
                             "running the dictionary bench")
    parser.add_argument("--skip-dictsvc", action="store_true",
                        help="skip the dictionary-service section")
    parser.add_argument("--dictsvc-only", action="store_true",
                        help="only gate the dictionary service")
    args = parser.parse_args(argv)

    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    if args.skip_obs and args.obs_only:
        parser.error("--skip-obs and --obs-only are mutually exclusive")
    if args.skip_service and args.service_only:
        parser.error("--skip-service and --service-only are "
                     "mutually exclusive")
    if args.skip_parallel and args.parallel_only:
        parser.error("--skip-parallel and --parallel-only are "
                     "mutually exclusive")
    if args.skip_dictsvc and args.dictsvc_only:
        parser.error("--skip-dictsvc and --dictsvc-only are "
                     "mutually exclusive")
    exclusive = [flag for flag, on in
                 (("--obs-only", args.obs_only),
                  ("--service-only", args.service_only),
                  ("--parallel-only", args.parallel_only),
                  ("--dictsvc-only", args.dictsvc_only)) if on]
    if len(exclusive) > 1:
        parser.error(" and ".join(exclusive) + " are mutually exclusive")
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

    failures: list[str] = []
    fresh = None
    only_elsewhere = (args.obs_only or args.service_only
                      or args.parallel_only or args.dictsvc_only)
    need_hotpath = (not only_elsewhere
                    or (args.parallel_only and not args.skip_parallel))
    if need_hotpath and args.baseline.exists():
        if args.fresh is not None:
            fresh = json.loads(args.fresh.read_text())
        else:
            from bench_hotpath import run_bench
            fresh = run_bench(quick=args.quick)
    if not only_elsewhere:
        if fresh is None:
            print(f"perf gate: no baseline at {args.baseline}; "
                  "nothing to gate")
        else:
            baseline = json.loads(args.baseline.read_text())
            failures += gate(fresh, baseline, args.tolerance)
            for key, value in fresh.get("results", {}).items():
                base = baseline.get("results", {}).get(key)
                if isinstance(value, (int, float)) \
                        and isinstance(base, (int, float)):
                    print(f"  {key:24s} {value:10.3f} MB/s  "
                          f"(committed {base:.3f})")

    if not args.skip_parallel and not (args.obs_only or args.service_only
                                       or args.dictsvc_only):
        if fresh is None:
            print(f"perf gate: no baseline at {args.baseline}; "
                  "execution layer not gated")
        else:
            baseline = json.loads(args.baseline.read_text())
            failures += gate_parallel(fresh, baseline, args.tolerance)
            cpus = fresh.get("meta", {}).get("cpus", 1)
            for label, key in (("deflate", "parallel_deflate_mbps"),
                               ("inflate", "parallel_inflate_mbps")):
                warm = fresh.get("results", {}).get(key, {})
                cold = fresh.get("results", {}).get(
                    key.replace("_mbps", "_cold_mbps"), {})
                for count in sorted(warm, key=int):
                    print(f"  parallel {label} {count}w: warm "
                          f"{warm[count]:8.3f} MB/s  cold "
                          f"{cold.get(count, 0.0):8.3f} MB/s"
                          + ("" if count == "1" else
                             f"  ({cpus} CPU host)"))

    if not args.skip_obs and not (args.service_only or args.parallel_only
                                  or args.dictsvc_only):
        if args.fresh_obs is not None:
            fresh_obs = json.loads(args.fresh_obs.read_text())
        else:
            from bench_obs_overhead import run_bench as run_obs_bench
            fresh_obs = run_obs_bench(quick=args.quick)
        failures += gate_obs(fresh_obs, args.max_obs_overhead)
        for key, value in fresh_obs.get("results", {}).items():
            if key.endswith("_off_overhead_pct"):
                print(f"  {key:32s} {value:8.3f} %  "
                      f"(ceiling {args.max_obs_overhead:.1f} %)")

    if not args.skip_service and not (args.obs_only or args.parallel_only
                                      or args.dictsvc_only):
        if not args.service_baseline.exists():
            print(f"perf gate: no service baseline at "
                  f"{args.service_baseline}; nothing to gate")
        else:
            service_baseline = json.loads(
                args.service_baseline.read_text())
            if args.fresh_service is not None:
                fresh_service = json.loads(
                    args.fresh_service.read_text())
            else:
                from bench_e20_service_load import (
                    run_bench as run_service_bench,
                )
                fresh_service = run_service_bench(quick=args.quick)
            failures += gate_service(fresh_service, service_baseline,
                                     args.tolerance)
            for key, value in fresh_service.get("results", {}).items():
                base = service_baseline.get("results", {}).get(key)
                if isinstance(value, (int, float)) \
                        and isinstance(base, (int, float)):
                    print(f"  service {key:20s} {value:10.3f}  "
                          f"(committed {base:.3f})")
            print(f"  service shed {fresh_service.get('shed', 0)} of "
                  f"{fresh_service.get('offered', 0)} offered")

    if not args.skip_dictsvc and not (args.obs_only or args.service_only
                                      or args.parallel_only):
        if args.fresh_dictsvc is not None:
            fresh_dictsvc = json.loads(args.fresh_dictsvc.read_text())
        else:
            from bench_dictsvc import run_bench as run_dictsvc_bench
            fresh_dictsvc = run_dictsvc_bench(quick=args.quick)
        failures += gate_dictsvc(fresh_dictsvc, args.min_cache_speedup,
                                 args.max_ratio_loss)
        res = fresh_dictsvc.get("results", {})
        for key in ("cache_hit_speedup", "canned_latency_speedup",
                    "canned_ratio_loss_pct"):
            value = res.get(key)
            if isinstance(value, (int, float)):
                unit = "%" if key.endswith("_pct") else "x"
                print(f"  dictsvc {key:26s} {value:10.3f}{unit}")

    if failures:
        print("perf gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"perf gate passed (tolerance {args.tolerance:.0%}, "
          f"obs ceiling {args.max_obs_overhead:.1f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
