"""Shared rendering and stage timing for the benches.

Every row of the experiment table (``benchmarks/experiments.py``)
renders its paper-style table with :func:`render` and writes it with
:func:`report` to ``benchmarks/results/<experiment>.txt``, the file
``tests/test_experiments.py`` byte-diffs a fresh render against.
EXPERIMENTS.md is written by hand from these files.

Timing goes through :class:`StageRecorder` — the span API from
:mod:`repro.obs.trace` on a *private* tracer, so benches get the same
nested per-stage attribution the production telemetry produces without
ever touching the process-global ``TRACE`` switch.  ``report`` persists
the recorder's per-stage summary as ``<experiment>.stages.json`` next to
the table.

The wall-clock benches that write a ``BENCH_*.json`` baseline run
through :func:`measure`, which stamps the host on the document; the
ones whose rates ``tools/perf_gate.py`` compares across runs time them
with :meth:`StageRecorder.best_of`, which corrects each run by the
host's speed around it.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys

from repro.backend import create_backend
from repro.core.metrics import Table
from repro.nx.params import POWER9
from repro.obs.trace import Span, Tracer

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
STACK_DIR = pathlib.Path(__file__).parent / "stack"


def host_slowdown(passes: int = 21) -> float:
    """The host's slowdown right now, by the stack benchmark's probe:
    the median time of one ``loadgen.scan_pass`` over the time it is
    defined to take (1.0 = the reference speed, 2.0 = half as fast)."""
    if str(STACK_DIR) not in sys.path:
        sys.path.append(str(STACK_DIR))
    from loadgen import SCAN_REF_S, scan_pass
    return statistics.median(scan_pass() for _ in range(passes)) / SCAN_REF_S


def measure(run_bench) -> dict:
    """``run_bench()``'s document, with ``meta.cpus``, ``meta.python``
    and ``meta.host_slowdown``.

    A bench whose rates the gate compares with a baseline probes the
    host around each timed region (:meth:`StageRecorder.best_of`) and
    records that reading; any other bench gets one probe after its run,
    a record of the host's speed that corrects nothing."""
    doc = run_bench()
    meta = doc.setdefault("meta", {})
    meta.update(cpus=os.cpu_count() or 1, python=sys.version.split()[0])
    if "host_slowdown" not in meta:
        meta["host_slowdown"] = round(host_slowdown(), 4)
    return doc


def resolve_engine(name: str = "nx", machine=POWER9, **kwargs):
    """Acquire a compression backend from the registry.

    Every bench resolves its engine here rather than constructing
    model classes directly — engine-parameter sweeps pass ``engine=``
    (forwarded to the backend factory), and per-request engine metrics
    come back on ``DriverResult.engine_result``.
    """
    return create_backend(name, machine=machine, **kwargs)


class StageRecorder:
    """Span-timed bench stages on a private, always-enabled tracer.

    ``stage`` opens one nested span (use as a context manager);
    ``best_of`` is the repeated, speed-corrected measurement the benches
    used to hand-roll with ``perf_counter`` pairs.  ``summary`` aggregates
    wall-clock per stage name and ``write`` persists it for the
    collector.
    """

    def __init__(self) -> None:
        self._tracer = Tracer()
        self._tracer.enable()

    def stage(self, name: str, **attrs: object) -> Span:
        """Open one timed stage span (nests like any span)."""
        return self._tracer.span(name, **attrs)

    def best_of(self, fn, repeats: int, probes: list[float],
                name: str = "run", **attrs: object) -> float:
        """Best seconds over ``repeats`` runs, each divided by the host's
        slowdown around it (appended to ``probes``).

        The slowdown is the stack benchmark's probe, timed just before
        and just after the run: the host's speed drifts within seconds,
        so one reading per bench run corrects nothing (four runs of the
        hot-path bench spread as widely corrected by it as raw), while
        one per timed run halves the spread of single samples.
        """
        best = float("inf")
        for _ in range(repeats):
            before = host_slowdown(passes=5)
            with self.stage(name, **attrs) as span:
                fn()
            slowdown = (before + host_slowdown(passes=5)) / 2
            probes.append(slowdown)
            best = min(best, span.duration_s / slowdown)
        return best

    def summary(self) -> dict[str, dict]:
        """Per-stage aggregate: run count, total and best seconds."""
        stages: dict[str, dict] = {}
        for span in self._tracer.finished():
            agg = stages.setdefault(span.name, {"count": 0,
                                                "total_s": 0.0,
                                                "best_s": float("inf")})
            agg["count"] += 1
            agg["total_s"] += span.duration_s
            agg["best_s"] = min(agg["best_s"], span.duration_s)
        for agg in stages.values():
            agg["total_s"] = round(agg["total_s"], 6)
            agg["best_s"] = round(agg["best_s"], 6)
        return stages

    def write(self, experiment: str) -> pathlib.Path:
        """Persist the per-stage breakdown next to the result table."""
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{experiment}.stages.json"
        path.write_text(json.dumps(self.summary(), indent=2,
                                   sort_keys=True) + "\n")
        return path


def render(table: Table, title: str, notes: str = "",
           figure: str = "") -> str:
    """One experiment's results text: the titled table, its notes on the
    next line, and its figure after a blank line."""
    text = table.render(title=title)
    if notes:
        text += "\n" + notes
    if figure:
        text += "\n\n" + figure
    return text


def report(experiment: str, text: str,
           stages: StageRecorder | None = None) -> None:
    """Print and persist one experiment's rendered text (+ stages)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(text + "\n")
    if stages is not None:
        stages.write(experiment)
    print()
    print(text)
