"""Compare two result documents of the stack benchmark, row by row.

    python3 benchmarks/stack/compare.py A.json B.json

One row per (workload, end-to-end metric): both values, the ratio B/A
with its base, the regression bound from BENCHMARK.json, and a verdict:

* ``ok``         — B is not worse than A by more than the bound;
* ``worse``      — it is;
* ``unresolved`` — the quartile spread of the per-launch values of either
  side is wider than the bound, so the run cannot tell (unless every
  launch of B reads better than every launch of A, which is ``ok``).

Exits 1 when any row is ``worse`` and 2 when the documents cannot be
compared (a ``--quick`` smoke run, a traced run, a missing workload).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Repeat exactly under one seed, so any change at all is reported.
EXACT = ("ratio", "verified_share")


class Incomparable(ValueError):
    """The two documents do not describe comparable runs."""


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(a: float, b: float, better: str) -> float:
    """Share of A by which B is worse (negative when B is better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: float, b: float, launches_a: list[float],
            launches_b: list[float], better: str, bound: float) -> str:
    if max(spread(launches_a), spread(launches_b)) > bound:
        if better == "lower":
            clear_win = max(launches_b) < min(launches_a)
        else:
            clear_win = min(launches_b) > max(launches_a)
        return "ok" if clear_win else "unresolved"
    return "worse" if worse_by(a, b, better) > bound else "ok"


def compare(doc_a: dict, doc_b: dict, end_to_end: list[dict]) -> list[dict]:
    for doc in (doc_a, doc_b):
        if doc["meta"]["quick"]:
            raise Incomparable("a --quick result is a smoke run, "
                               "not a measurement")
        if doc["meta"]["trace"]:
            raise Incomparable("a traced run carries no end-to-end "
                               "metrics")
    if doc_a["workloads"].keys() != doc_b["workloads"].keys():
        raise Incomparable("the documents cover different workloads")
    rows = []
    for name, rec_a in doc_a["workloads"].items():
        rec_b = doc_b["workloads"][name]
        for metric in end_to_end:
            key = metric["name"]
            a = rec_a["metrics"][key]["value"]
            b = rec_b["metrics"][key]["value"]
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "a": a, "b": b, "ratio": b / a, "bound": metric["bound"],
                "changed": key in EXACT and a != b,
                "verdict": verdict(a, b, rec_a["launches"].get(key, []),
                                   rec_b["launches"].get(key, []),
                                   metric["better"], metric["bound"])})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':13s} {'metric':22s} {'A':>12s} {'B':>12s} "
             f"{'B/A (base A)':>24s} {'bound':>6s}  verdict"]
    for row in rows:
        base = f"{row['ratio']:.4f}x of {row['a']:.6g} {row['unit']}"
        lines.append(
            f"{row['workload']:13s} {row['metric']:22s} {row['a']:12.6g} "
            f"{row['b']:12.6g} {base:>24s} {row['bound']:6.3f}  "
            f"{row['verdict']}{' (changed)' if row['changed'] else ''}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(doc_a, doc_b, spec["end_to_end"])
    except Incomparable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
