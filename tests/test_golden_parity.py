"""Replay every golden case of ``tools/record_goldens.SECTIONS``.

Each golden file under ``tests/data/`` is one row of that table, mapping
case names to their recorders.  Per file, a grid test holds the file's
case names to the recorder's, and one test per case records it afresh
and compares the whole record with the file.  The hot-path kernels,
framing, queueing model, chaos campaign and telemetry are rewrites of
earlier code paths; this suite is what makes "rewrite" mean "same bytes,
same probe counts, same modelled seconds" rather than "roughly
equivalent".
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro.service.client import ServiceClient
from tools.record_goldens import SECTIONS, recorded

DATA = pathlib.Path(__file__).parent / "data"


def test_every_golden_file_is_one_section() -> None:
    assert {path.name for path in DATA.glob("golden_*.json")} == set(SECTIONS)


def _grid(name: str):
    def test() -> None:
        """A case added to (or dropped from) the recorder needs the
        golden file re-recorded, on the commit *before* the change."""
        assert list(SECTIONS[name]()) == list(recorded(name))
    return test


def _exact(golden):
    return golden


def _replay(name: str, expect=_exact):
    @pytest.mark.parametrize("case", sorted(SECTIONS[name]()))
    def test(case: str) -> None:
        assert SECTIONS[name]()[case]() == expect(recorded(name)[case])
    return test


#: Means are built-in ``sum()`` over float sojourns, whose last bits
#: depend on the Python version (3.12 compensates); the rest is exact.
_SUMMED = {"mean_s"}


def _summed_approx(table: dict) -> dict:
    return {key: (pytest.approx(value, rel=1e-12) if key in _SUMMED
                  else _summed_approx(value) if isinstance(value, dict)
                  else value)
            for key, value in table.items()}


test_deflate_grid_is_the_recorded_one = _grid("golden_deflate.json")
test_golden_case = _replay("golden_deflate.json")
test_dictsvc_grid_is_the_recorded_one = _grid("golden_dictsvc.json")
test_dictsvc_golden = _replay("golden_dictsvc.json")
test_container_grid_is_the_recorded_one = _grid("golden_containers.json")
test_container_golden_case = _replay("golden_containers.json")
test_experiment_grid_is_the_recorded_one = _grid("golden_experiments.json")
test_experiment_golden = _replay("golden_experiments.json", _summed_approx)
test_chaos_grid_is_the_recorded_one = _grid("golden_chaos.json")
test_chaos_golden = _replay("golden_chaos.json")
test_telemetry_grid_is_the_recorded_one = _grid("golden_telemetry.json")
test_telemetry_golden = _replay("golden_telemetry.json")


@pytest.mark.parametrize("case", sorted(SECTIONS["golden_telemetry.json"]()))
def test_telemetry_golden_holds_when_the_accept_is_counted_first(
        case: str, monkeypatch) -> None:
    """The server counts a connection on its handler thread; a client
    that stalls after the dial lets it do so before the request is
    sent.  The recorded case must not depend on which comes first."""
    dial = ServiceClient._connect

    def dial_then_stall(self) -> None:
        dial(self)
        time.sleep(0.2)

    monkeypatch.setattr(ServiceClient, "_connect", dial_then_stall)
    assert SECTIONS["golden_telemetry.json"]()[case]() \
        == recorded("golden_telemetry.json")[case]
