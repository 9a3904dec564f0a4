"""Every deterministic experiment re-renders its committed results file.

Each ``cheap`` row of ``benchmarks/experiments.py`` runs once here: its
claims must hold and its render must equal
``benchmarks/results/<name>.txt`` byte for byte, so a change that moves
one modelled number, one seeded draw or one figure cell fails by
experiment id.  The ``wall`` row (E20) is checked by CI's smoke
``experiments`` entry, claims only.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.append(str(BENCHMARKS))

from experiments import EXPERIMENTS, RESULTS_DIR, check, holds  # noqa: E402

CHEAP = sorted(key for key, row in EXPERIMENTS.items() if row.tier == "cheap")


@pytest.mark.parametrize("key", CHEAP)
def test_row_holds_its_claims_and_re_renders_its_file(key):
    assert check(EXPERIMENTS[key]) == []


def test_every_experiment_results_file_is_a_row():
    committed = {path.name for pattern in ("e[0-9]*_*.txt", "a[0-9]*_*.txt")
                 for path in RESULTS_DIR.glob(pattern)}
    assert committed == {f"{row.name}.txt" for row in EXPERIMENTS.values()}


def test_a_band_is_open_and_covers_every_element():
    assert holds((1, 2), 1.5) and not holds((1, 2), 2)
    assert holds((1, 2), [1.1, 1.9]) and not holds((1, 2), [1.1, 0.9])
    assert holds(True, True) and not holds(True, 1)
