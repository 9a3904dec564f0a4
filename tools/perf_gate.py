"""The performance gate: one table of rows, one loop over it.

Usage::

    PYTHONPATH=src python tools/perf_gate.py [SOURCE ...]

A *source* is the ``run_bench()`` of one bench, run full size:
``hotpath`` (``benchmarks/bench_hotpath.py``), ``obs``
(``bench_obs_overhead.py``), ``service`` (``bench_e20_service_load.py``)
and ``dictsvc`` (``bench_dictsvc.py``); with no argument all four run.
Each fresh document is judged against the committed
``BENCH_<source>.json``, row by row.

A row is ``(metric, source, better, limit)``.  Its limit is
either relative (:class:`Rel`: the share by which the fresh value may be
worse than the committed one, by ``worse_by`` from the stack benchmark's
``compare.py``) or absolute (a number the fresh value must not be worse
than).  Relative rows are rates, and both of their sides are corrected
by the host's slowdown: the stack benchmark's speed probe, timed around
every timed region (``benchmarks/_common.StageRecorder.best_of``) and
recorded as ``meta.host_slowdown``, so a slow phase of the host cannot
fail a row and a fast one cannot mask a regression.
Absolute rows are ratios, shares and counts, and are taken as measured.

A metric names a key of the document's ``results`` or of the document
itself.  Exits 1 when a row fails (each failed row is named), 2 on an unknown
source.
"""

from __future__ import annotations

import json
import pathlib
import sys
from importlib import import_module
from typing import NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path += [str(REPO_ROOT / "benchmarks"),
             str(REPO_ROOT / "benchmarks" / "stack")]

from compare import worse_by  # noqa: E402

#: Source name -> the bench module whose ``run_bench()`` measures it.
SOURCES = {"hotpath": "bench_hotpath", "obs": "bench_obs_overhead",
           "service": "bench_e20_service_load", "dictsvc": "bench_dictsvc"}


class Rel(float):
    """A limit relative to the committed baseline, for a rate: the share
    of it by which the speed-corrected fresh rate may be lower."""


class Row(NamedTuple):
    metric: str
    source: str
    better: str        # "higher", or "lower" for an absolute limit
    limit: float       # a Rel, or an absolute bound


#: How much worse than committed a speed-corrected rate may read: on a
#: 2-CPU host one row's corrected rate spreads up to 1.4x from run to
#: run, and a kernel doing three times its work reads 64-74 % worse.
DRIFT = Rel(0.4)

TABLE = (
    Row("deflate_l6_mbps", "hotpath", "higher", DRIFT),
    Row("inflate_mbps", "hotpath", "higher", DRIFT),
    Row("tokenize_l6_mbps", "hotpath", "higher", DRIFT),
    Row("crc32_mbps", "hotpath", "higher", DRIFT),
    Row("adler32_mbps", "hotpath", "higher", DRIFT),
    Row("nx_scan_p9_mbps", "hotpath", "higher", DRIFT),
    Row("nx_scan_z15_mbps", "hotpath", "higher", DRIFT),
    # The disabled tracer's null spans and the flight recorder cost < 2 %.
    Row("deflate_l6_off_overhead_pct", "obs", "lower", 2.0),
    Row("inflate_off_overhead_pct", "obs", "lower", 2.0),
    Row("api_flight_off_overhead_pct", "obs", "lower", 2.0),
    Row("saturation_mbps", "service", "higher", DRIFT),
    # The flood reached the admission limit: shedding was exercised.
    Row("shed", "service", "higher", 1),
    Row("cache_hit_speedup", "dictsvc", "higher", 10.0),
    Row("canned_latency_speedup", "dictsvc", "higher", 1.0),
    Row("canned_ratio_loss_pct", "dictsvc", "lower", 3.0),
)


def lookup(doc: dict, metric: str) -> float | None:
    """The value of ``metric`` in ``doc``, or None when it is absent."""
    value = {**doc, **doc.get("results", {})}.get(metric)
    return value if isinstance(value, (int, float)) else None


def corrected(doc: dict, metric: str) -> float | None:
    """Rate ``metric`` as the host would read it at the probe's
    reference speed: times the slowdown."""
    value = lookup(doc, metric)
    slowdown = doc.get("meta", {}).get("host_slowdown")
    if value is None or not slowdown:
        return None
    return value * slowdown


def judge(row: Row, fresh: dict, committed: dict) -> tuple[str, str]:
    """``(verdict, detail)`` of one row: ok or FAIL."""
    if not isinstance(row.limit, Rel):
        value = lookup(fresh, row.metric)
        if value is None:
            return "FAIL", "missing from the fresh run"
        worse = value < row.limit if row.better == "higher" \
            else value > row.limit
        bound = ">=" if row.better == "higher" else "<="
        return ("FAIL" if worse else "ok"), \
            f"{value:.4g} (limit {bound} {row.limit:g})"
    got = corrected(fresh, row.metric)
    base = corrected(committed, row.metric)
    if got is None:
        return "FAIL", "missing from the fresh run (or its host_slowdown)"
    if base is None:
        return "FAIL", "missing from the baseline (or its host_slowdown)"
    share = worse_by(base, got, row.better)
    return ("FAIL" if share > row.limit else "ok"), \
        (f"{got:.4g} vs committed {base:.4g} corrected, "
         f"{share:+.1%} worse (limit {row.limit:.0%})")


def gate(fresh: dict[str, dict], committed: dict[str, dict],
         table: tuple[Row, ...] = TABLE) -> list[str]:
    """Print one line per row of a measured source; return the names of
    the rows that failed."""
    failed = []
    for row in table:
        if row.source in fresh:
            verdict, detail = judge(row, fresh[row.source],
                                    committed[row.source])
            print(f"  {verdict:7s} {row.source:7s} {row.metric:48s} "
                  f"{detail}")
            if verdict == "FAIL":
                failed.append(f"{row.source}:{row.metric}")
    return failed


def main(argv: list[str] | None = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = [name for name in names if name not in SOURCES]
    if unknown:
        print(f"usage: perf_gate.py [SOURCE ...]; unknown source "
              f"{', '.join(unknown)} (sources: {', '.join(SOURCES)})",
              file=sys.stderr)
        return 2
    from _common import measure
    fresh, committed = {}, {}
    for name in names or SOURCES:
        fresh[name] = measure(import_module(SOURCES[name]).run_bench)
        committed[name] = json.loads(
            (REPO_ROOT / f"BENCH_{name}.json").read_text())
        print(f"{name}: host slowdown "
              f"{fresh[name]['meta']['host_slowdown']}, committed "
              f"{committed[name].get('meta', {}).get('host_slowdown')}")
    failed = gate(fresh, committed)
    if failed:
        print(f"perf gate FAILED: {', '.join(failed)}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
