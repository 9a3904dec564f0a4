"""Hot-path kernel throughput: deflate, inflate, matcher, checksums, NX scan.

Unlike the e-series benches (which report *modelled* accelerator rates),
this bench measures the **wall-clock** throughput of the pure-Python
codec kernels themselves, so kernel regressions show up as numbers, not
vibes.  Results are written to ``BENCH_hotpath.json`` at the repo root;
``tools/perf_gate.py`` compares a fresh run against that committed
baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # write
    PYTHONPATH=src python benchmarks/bench_hotpath.py --no-write # print only

The ``before`` section of the JSON preserves the pre-kernel-rewrite
numbers the speedup claims are made against; ``--keep-before`` (default)
carries it forward from the existing file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics

from _common import StageRecorder, measure
from repro.deflate.checksums import adler32, crc32
from repro.deflate.compress import deflate
from repro.deflate.inflate import inflate
from repro.deflate.matcher import tokenize
from repro.nx.params import POWER9, Z15
from repro.nx.pipeline import NxMatchPipeline
from repro.workloads.corpus import corpus_bytes

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_hotpath.json"

_MB = 1e6

#: Span-timed stages (private tracer; survives across run_bench calls so
#: ``main`` can persist the per-stage breakdown).
_STAGES = StageRecorder()


def _mbps(nbytes: int, seconds: float) -> float:
    return nbytes / _MB / seconds if seconds > 0 else 0.0


def run_bench(level: int = 6) -> dict:
    """Measure every kernel; returns the results dict."""
    repeats = 7  # deep best-of: the box's timing is noisy
    corpus = corpus_bytes("calgary-like")
    payload = deflate(corpus, level=level).data
    probes: list[float] = []

    def mbps(fn, name: str) -> float:
        return _mbps(len(corpus),
                     _STAGES.best_of(fn, repeats, probes, name))

    results: dict = {}
    results["deflate_l6_mbps"] = mbps(lambda: deflate(corpus, level=level),
                                      "deflate_l6")
    results["inflate_mbps"] = mbps(lambda: inflate(payload), "inflate")
    results["tokenize_l6_mbps"] = mbps(lambda: tokenize(corpus, level),
                                       "tokenize_l6")
    results["crc32_mbps"] = mbps(lambda: crc32(corpus), "crc32")
    results["adler32_mbps"] = mbps(lambda: adler32(corpus), "adler32")
    # The NX scan kernel in the served scan sizes: 4 KB on the POWER9
    # engine (rpc_small, hot_cache), 32 KB on the z15 one (bulk_exec).
    for name, machine, size in (("nx_scan_p9", POWER9, 4096),
                                ("nx_scan_z15", Z15, 32768)):
        pipe = NxMatchPipeline(machine.engine)
        scans = [corpus[at:at + size] for at in range(0, len(corpus), size)]
        results[f"{name}_mbps"] = mbps(
            lambda: [pipe.scan(scan) for scan in scans], name)

    meta = {
        "corpus": "calgary-like",
        "scale": 1.0,
        "bytes": len(corpus),
        "compressed_bytes": len(payload),
        "level": level,
        # Every rate is corrected to the probe's reference speed, then
        # stated at the run's median slowdown: the gate corrects by this
        # one number, as it does for a bench probed only before and after.
        "host_slowdown": round(statistics.median(probes), 4),
    }

    def at_host(rate: float) -> float:
        return round(rate / meta["host_slowdown"], 3)

    return {"meta": meta,
            "results": {k: at_host(v) for k, v in results.items()}}


def render(report: dict) -> str:
    lines = [f"hot-path kernels on {report['meta']['bytes']} bytes "
             f"({report['meta']['corpus']}, level {report['meta']['level']})"]
    for key, value in report["results"].items():
        lines.append(f"  {key:24s} {value:10.3f} MB/s")
    before = report.get("before")
    if before:
        lines.append("  vs before:")
        for key, value in report["results"].items():
            old = before.get(key)
            if isinstance(old, (int, float)) and old:
                lines.append(f"  {key:24s} {value / old:10.2f}x")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--no-write", action="store_true",
                        help="print results without updating the JSON")
    parser.add_argument("--record-before", action="store_true",
                        help="store this run as the 'before' reference")
    parser.add_argument("--out", type=pathlib.Path, default=RESULT_PATH,
                        help="output JSON path (default repo root)")
    args = parser.parse_args(argv)

    report = measure(run_bench)

    existing = {}
    if args.out.exists():
        existing = json.loads(args.out.read_text())
    if args.record_before:
        report["before"] = dict(report["results"])
    elif "before" in existing:
        report["before"] = existing["before"]

    print(render(report))
    if not args.no_write:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
        print(f"stages: {_STAGES.write('hotpath')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
