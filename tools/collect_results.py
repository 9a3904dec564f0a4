"""Collect benchmark result tables into one report.

Usage:  python tools/collect_results.py [output.md]

Reads every table under benchmarks/results/ (written by the benches)
and assembles a single markdown report with the experiment index, so a
fresh `pytest benchmarks/ --benchmark-only` run can be published as one
artefact.
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "benchmarks" / "results"
HOTPATH = REPO_ROOT / "BENCH_hotpath.json"
OBS = REPO_ROOT / "BENCH_obs.json"


def _hotpath_section() -> list[str]:
    """Render BENCH_hotpath.json (the measured kernel rates) as a table."""
    if not HOTPATH.exists():
        return []
    report = json.loads(HOTPATH.read_text())
    meta = report.get("meta", {})
    before = report.get("before", {})
    lines = ["## hotpath kernels (measured wall-clock)", "",
             f"Corpus: {meta.get('corpus', '?')}, "
             f"{meta.get('bytes', '?')} bytes, "
             f"level {meta.get('level', '?')}.  "
             "Regenerate with `python benchmarks/bench_hotpath.py`.", "",
             "| kernel | MB/s | before | speedup |",
             "|---|---|---|---|"]
    for key, value in report.get("results", {}).items():
        if isinstance(value, dict):
            scaled = ", ".join(f"{w}w: {v}" for w, v in value.items())
            lines.append(f"| {key} | {scaled} | — | — |")
            continue
        old = before.get(key)
        if isinstance(old, (int, float)) and old:
            lines.append(f"| {key} | {value} | {old} | "
                         f"{value / old:.2f}x |")
        else:
            lines.append(f"| {key} | {value} | — | — |")
    lines.append("")
    return lines


def _obs_section() -> list[str]:
    """Render BENCH_obs.json (telemetry overhead) as a table."""
    if not OBS.exists():
        return []
    report = json.loads(OBS.read_text())
    meta = report.get("meta", {})
    lines = ["## telemetry overhead (measured wall-clock)", "",
             f"Corpus: {meta.get('corpus', '?')}, "
             f"{meta.get('bytes', '?')} bytes, "
             f"level {meta.get('level', '?')}.  Regenerate with "
             "`python benchmarks/bench_obs_overhead.py`; gated by "
             "`tools/perf_gate.py` (2 % ceiling).", "",
             "| metric | value |",
             "|---|---|"]
    for key, value in report.get("results", {}).items():
        unit = " %" if key.endswith("_pct") else (
            " MB/s" if key.endswith("_mbps") else "")
        lines.append(f"| {key} | {value}{unit} |")
    lines.append("")
    return lines


def _stages_section(path: pathlib.Path) -> list[str]:
    """Per-stage span breakdown recorded next to one result table."""
    stages = json.loads(path.read_text())
    if not stages:
        return []
    lines = ["Per-stage breakdown (span-timed):", "",
             "| stage | runs | best s | total s |",
             "|---|---|---|---|"]
    for name in sorted(stages):
        agg = stages[name]
        lines.append(f"| {name} | {agg.get('count', '?')} | "
                     f"{agg.get('best_s', '?')} | "
                     f"{agg.get('total_s', '?')} |")
    lines.append("")
    return lines


def build_report() -> str:
    lines = ["# Benchmark results", "",
             "Regenerate with `pytest benchmarks/ --benchmark-only`.", ""]
    lines.extend(_hotpath_section())
    lines.extend(_obs_section())
    if not RESULTS.is_dir():
        lines.append("*(no results yet — run the benches first)*")
        return "\n".join(lines) + "\n"
    rendered_stage_files = set()
    for path in sorted(RESULTS.glob("*.txt")):
        lines.append(f"## {path.stem}")
        lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")
        stages_path = path.with_suffix(".stages.json")
        if stages_path.exists():
            rendered_stage_files.add(stages_path)
            lines.extend(_stages_section(stages_path))
    for stages_path in sorted(RESULTS.glob("*.stages.json")):
        if stages_path in rendered_stage_files:
            continue
        lines.append(f"## {stages_path.name.removesuffix('.stages.json')}"
                     " (stages)")
        lines.append("")
        lines.extend(_stages_section(stages_path))
    return "\n".join(lines) + "\n"


def main() -> int:
    report = build_report()
    if len(sys.argv) > 1:
        pathlib.Path(sys.argv[1]).write_text(report)
        print(f"wrote {sys.argv[1]}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
