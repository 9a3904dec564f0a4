"""Dictionary service: canned-DHT latency/ratio and result-cache hit cost.

Two claims back the dictionary service, and this bench puts numbers on
both:

* **Canned beats dynamic on small buffers.**  A dynamic DHT inserts a
  table-generation bubble per block — on a <=4 KB buffer that bubble
  dominates the request.  Tenant-trained canned tables skip it for a
  bounded compression-ratio loss.  The bench trains a registry on the
  seeded cloud-like corpus (exactly what ``repro dict train`` does),
  builds its canned library, and compares modelled engine latency and
  output size between ``canned`` and ``dynamic`` across every corpus
  family on 4 KB buffers.  The ``canned_ratio_*`` rows compare the
  trained library with the built-in one on every family's first 4, 16
  and 64 KB: a trained table claims only payloads no longer than the
  samples it was trained on (4 KB here), so above that the rows match.

* **A cache hit is far cheaper than a miss.**  The content-addressed
  result cache serves repeated payloads at hash-plus-lookup cost.  The
  bench measures wall time of a miss (hash + full engine compression)
  against a hit (hash + LRU lookup) for the same payloads.

Results are written to ``BENCH_dictsvc.json`` at the repo root;
``tools/perf_gate.py`` enforces the acceptance floors
(hit >= 10x cheaper than miss, canned faster than dynamic with <= 3 %
aggregate ratio loss).

Usage::

    PYTHONPATH=src python benchmarks/bench_dictsvc.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

from _common import StageRecorder, measure
from repro.dictsvc import DictionaryRegistry, ResultCache, result_key
from repro.nx.compressor import NxCompressor
from repro.nx.dht import BUILTIN, CannedLibrary, DhtStrategy
from repro.nx.params import POWER9
from repro.workloads.corpus import build_corpus

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_dictsvc.json"

#: The small-buffer regime the canned strategy targets (paper: the DHT
#: bubble dominates below a few KB).
SMALL_BUFFER = 4096

#: Payload sizes of the trained-vs-built-in ratio rows.
RATIO_SIZES = (4096, 16384, 65536)

TRAIN_SEED = 7

_STAGES = StageRecorder()


def _train(corpus: dict[str, bytes]) -> DictionaryRegistry:
    """Train one dictionary per corpus family.

    Eight clusters per family: the full-scale corpus mixes enough
    regimes per family (telemetry bursts, page layouts) that four
    leaders blur distinct table shapes together.
    """
    registry = DictionaryRegistry(seed=TRAIN_SEED, max_clusters=8)
    for family, data in corpus.items():
        for offset in range(0, len(data), SMALL_BUFFER):
            registry.observe(family, data[offset:offset + SMALL_BUFFER])
    for family in corpus:
        registry.train(family)
    return registry


def _small_buffers(corpus: dict[str, bytes],
                   per_family: int) -> list[tuple[str, bytes]]:
    buffers = []
    for family, data in corpus.items():
        for i in range(per_family):
            offset = i * SMALL_BUFFER
            if offset + SMALL_BUFFER > len(data):
                break
            buffers.append((family, data[offset:offset + SMALL_BUFFER]))
    return buffers


def _ratio_rows(corpus: dict[str, bytes], library: CannedLibrary,
                engine: NxCompressor) -> dict[str, float]:
    """Canned ratio (input over output bytes, every family's first
    ``size`` bytes) under ``library`` and under the built-ins."""
    rows = {}
    for size in RATIO_SIZES:
        bufs = [data[:size] for data in corpus.values() if len(data) >= size]
        for label, lib in (("trained", library), ("builtin", BUILTIN)):
            out = sum(len(engine.compress(buf, strategy=DhtStrategy.CANNED,
                                          library=lib).data)
                      for buf in bufs)
            rows[f"canned_ratio_{size // 1024}k_{label}"] = round(
                sum(map(len, bufs)) / out, 4)
    return rows


def run_bench() -> dict:
    """Measure canned-vs-dynamic latency/ratio and cache hit/miss cost."""
    repeats = 7
    per_family = 8
    corpus = build_corpus("cloud-like")

    registry = _train(corpus)
    library = registry.library()
    engine = NxCompressor(POWER9.engine)
    buffers = _small_buffers(corpus, per_family)

    # -- canned vs dynamic on <=4 KB buffers (modelled engine time)
    canned_s = dynamic_s = 0.0
    canned_bytes = dynamic_bytes = 0
    per_family_loss: dict[str, float] = {}
    fam_sizes: dict[str, list[int]] = {}
    for family, buf in buffers:
        canned = engine.compress(buf, strategy=DhtStrategy.CANNED,
                                 library=library)
        dynamic = engine.compress(buf, strategy=DhtStrategy.DYNAMIC)
        canned_s += canned.seconds
        dynamic_s += dynamic.seconds
        canned_bytes += len(canned.data)
        dynamic_bytes += len(dynamic.data)
        sizes = fam_sizes.setdefault(family, [0, 0])
        sizes[0] += len(canned.data)
        sizes[1] += len(dynamic.data)
    for family, (c, d) in fam_sizes.items():
        per_family_loss[family] = round((c / d - 1.0) * 100.0, 3)
    ratio_loss_pct = (canned_bytes / dynamic_bytes - 1.0) * 100.0
    canned_us = canned_s / len(buffers) * 1e6
    dynamic_us = dynamic_s / len(buffers) * 1e6

    # -- cache hit vs miss (wall time; miss = hash + engine compress)
    cache = ResultCache(max_bytes=64 << 20)
    payloads = [buf for _family, buf in buffers]

    def _fill(target: ResultCache) -> None:
        for payload in payloads:
            key = result_key(payload, strategy="canned", epoch=library.key)
            target.get_or_compute(
                "bench", key,
                lambda p=payload: engine.compress(
                    p, strategy=DhtStrategy.CANNED, library=library).data)

    def _hits() -> None:
        for payload in payloads:
            key = result_key(payload, strategy="canned", epoch=library.key)
            cache.get_or_compute("bench", key, lambda: b"")

    # Every miss pass fills a fresh cache; the hit passes read the
    # shared one, warmed once.  Best-of across repeats.
    probes: list[float] = []
    miss_s = _STAGES.best_of(
        lambda: _fill(ResultCache(max_bytes=64 << 20)), repeats,
        probes, "cache_miss")
    _fill(cache)
    hit_s = _STAGES.best_of(_hits, max(repeats, 5), probes, "cache_hit")
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == stats["requests"]

    # Stated at the run's median slowdown, as bench_hotpath does.
    slowdown = statistics.median(probes)
    cache_miss_us = miss_s * slowdown / len(payloads) * 1e6
    cache_hit_us = hit_s * slowdown / len(payloads) * 1e6

    results = {
        "canned_small_us": round(canned_us, 3),
        "dynamic_small_us": round(dynamic_us, 3),
        "canned_latency_speedup": round(dynamic_us / canned_us, 3),
        "canned_ratio_loss_pct": round(ratio_loss_pct, 3),
        "per_family_ratio_loss_pct": per_family_loss,
        "cache_miss_us": round(cache_miss_us, 3),
        "cache_hit_us": round(cache_hit_us, 3),
        "cache_hit_speedup": round(cache_miss_us / cache_hit_us, 3),
        "trained_tables": len(registry.trained()),
        **_ratio_rows(corpus, library, engine),
    }
    meta = {
        "corpus": "cloud-like",
        "scale": 1.0,
        "buffer_bytes": SMALL_BUFFER,
        "buffers": len(buffers),
        "repeats": repeats,
        "train_seed": TRAIN_SEED,
        "machine": "POWER9",
        "python": sys.version.split()[0],
        "host_slowdown": round(slowdown, 4),
    }
    return {"meta": meta, "results": results}


def render(report: dict) -> str:
    meta = report["meta"]
    lines = [f"dictionary service on {meta['buffers']} x "
             f"{meta['buffer_bytes']}-byte buffers "
             f"({meta['corpus']}, {meta['machine']}, "
             f"best of {meta['repeats']})"]
    for key, value in report["results"].items():
        if isinstance(value, dict):
            lines.append(f"  {key}:")
            for fam, loss in sorted(value.items()):
                lines.append(f"    {fam:20s} {loss:10.3f}%")
            continue
        unit = "%" if key.endswith("_pct") else (
            " us" if key.endswith("_us") else "")
        lines.append(f"  {key:32s} {value:10.3f}{unit}"
                     if isinstance(value, float)
                     else f"  {key:32s} {value:>10}{unit}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--no-write", action="store_true",
                        help="print results without updating the JSON")
    parser.add_argument("--out", type=pathlib.Path, default=RESULT_PATH,
                        help="output JSON path (default repo root)")
    args = parser.parse_args(argv)

    report = measure(run_bench)
    print(render(report))
    if not args.no_write:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
