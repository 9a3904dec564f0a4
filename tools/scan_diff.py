"""Differential of ``NxMatchPipeline.scan`` between two checkouts.

Usage:  PYTHONPATH=src python tools/scan_diff.py <other-checkout>

Loads ``NxMatchPipeline`` from ``<other-checkout>/src`` next to this
tree's and runs both over the matrix of ``tests/test_scan_kernel.py``:
every generator x the ``_sizes`` list x the three histories on the
POWER9 and z15 engines, and every generator x seven small sizes x two
histories on the five tiny engines.  A case is equal when every field of
``ScanResult`` (tokens, ``MatchStats``, ``scan_cycles``,
``conflict_stalls``, ``candidate_probes``, ``history_cycles``), the
table's ``entries`` and its ``lookups`` / ``insertions`` /
``conflict_stalls`` counters are.  Prints the case count; exits 1 on the
first mismatch.  This is the check a kernel rewrite runs against its
parent commit: the unit tests pin the kernel to the per-access model,
this pins it to what actually shipped.
"""

from __future__ import annotations

import dataclasses
import importlib
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # the matrix lives in tests/

from repro.nx.params import POWER9, Z15  # noqa: E402
from repro.nx.pipeline import NxMatchPipeline  # noqa: E402
from repro.workloads.generators import GENERATORS  # noqa: E402
from tests.test_scan_kernel import (  # noqa: E402
    TINY_ENGINES,
    product_inputs,
    tiny_inputs,
)


def _ours(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def load_other_pipeline(checkout: str) -> type:
    """``NxMatchPipeline`` as the tree at ``checkout`` defines it."""
    src = pathlib.Path(checkout).resolve() / "src"
    mine = {name: mod for name, mod in sys.modules.items() if _ours(name)}
    for name in mine:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        module = importlib.import_module("repro.nx.pipeline")
    finally:
        sys.path.remove(str(src))
        for name in [name for name in sys.modules if _ours(name)]:
            del sys.modules[name]
        sys.modules.update(mine)
    if src not in pathlib.Path(module.__file__).parents:
        raise SystemExit(f"{checkout}: imported {module.__file__}, "
                         "which is not in that checkout")
    return module.NxMatchPipeline


def cases():
    """(engine name, engine, family, data, history) over the matrix."""
    for machine in (POWER9, Z15):
        for family in sorted(GENERATORS):
            for data, history in product_inputs(machine.engine, family):
                yield machine.name, machine.engine, family, data, history
    for name, engine in TINY_ENGINES.items():
        for family in sorted(GENERATORS):
            for data, history in tiny_inputs(family):
                yield name, engine, family, data, history


def observed(pipe, data: bytes, history: bytes) -> dict:
    """Everything a scan leaves behind, as plain comparable values."""
    seen = dataclasses.asdict(pipe.scan(data, history=history))
    table = pipe.table
    seen["table.entries"] = table.entries
    seen["table.counters"] = (table.lookups, table.insertions,
                              table.conflict_stalls)
    return seen


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    other_cls = load_other_pipeline(argv[1])
    pipes: dict[str, tuple] = {}  # one pair an engine, reused like a job's
    count = 0
    for name, engine, family, data, history in cases():
        if name not in pipes:
            pipes[name] = (NxMatchPipeline(engine), other_cls(engine))
        here, there = (observed(pipe, data, history) for pipe in pipes[name])
        count += 1
        if here != there:
            fields = [field for field in here if here[field] != there[field]]
            print(f"MISMATCH in case {count} ({name}, {family}, "
                  f"{len(data)} bytes after {len(history)} of history): "
                  + ", ".join(fields))
            return 1
    print(f"scan_diff: {count} cases, 0 mismatches against {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
