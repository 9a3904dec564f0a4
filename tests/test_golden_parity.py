"""Byte-level parity against recorded golden DEFLATE streams.

``tests/data/golden_deflate.json`` (written by ``tools/record_goldens.py``)
pins the SHA-256 of every emitted bitstream plus every ``MatchStats`` and
``InflateStats`` field for a grid of payloads, levels, strategies, and
streaming modes.  The hot-path kernels (batched bit I/O, flat-table
inflate, slice-based matcher, merged-table emitter) are rewrites of the
reference code paths; this suite is what makes "rewrite" mean "same
bytes, same probe counts" rather than "roughly equivalent".
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.deflate.compress import deflate
from repro.deflate.inflate import inflate_with_stats
from repro.workloads.generators import generate

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_deflate.json"


def _payloads() -> dict[str, bytes]:
    return {
        "empty": b"",
        "one": b"x",
        "tiny": b"abcabcabcabc",
        "zeros": bytes(4096),
        "text": generate("markov_text", 20000, seed=11),
        "json": generate("json_records", 20000, seed=12),
        "random": generate("random_bytes", 8192, seed=13),
        "binary": generate("binary_executable", 20000, seed=14),
        "logs": generate("log_lines", 16384, seed=77),
        "dna": generate("dna_sequence", 8192, seed=78),
    }


_ENTRIES = json.loads(GOLDEN.read_text())
_DATA = _payloads()


def _case_id(entry: dict) -> str:
    parts = [entry["payload"], f"l{entry['level']}"]
    for key in ("strategy", "block_tokens", "final", "history"):
        if key in entry:
            parts.append(f"{key}={entry[key]}")
    return "-".join(parts)


@pytest.mark.parametrize("entry", _ENTRIES, ids=_case_id)
def test_golden_case(entry: dict) -> None:
    kwargs = {k: v for k, v in entry.items()
              if k in ("level", "strategy", "block_tokens", "final",
                       "history")}
    if "history" in kwargs:
        kwargs["history"] = _DATA[kwargs["history"]]
    data = _DATA[entry["payload"]]

    result = deflate(data, **kwargs)

    assert hashlib.sha256(result.data).hexdigest() == entry["sha256"]
    assert len(result.data) == entry["compressed_len"]
    assert result.blocks == entry["blocks"]
    stats = entry["stats"]
    assert result.stats.literals == stats["literals"]
    assert result.stats.matches == stats["matches"]
    assert result.stats.match_bytes == stats["match_bytes"]
    assert result.stats.chain_probes == stats["chain_probes"]

    if "inflate_stats" not in entry:
        return
    history = kwargs.get("history", b"")
    out, istats, bits = inflate_with_stats(result.data, history=history)
    assert out == data
    golden = entry["inflate_stats"]
    assert istats.literals == golden["literals"]
    assert istats.matches == golden["matches"]
    assert istats.match_bytes == golden["match_bytes"]
    assert istats.blocks == golden["blocks"]
    assert bits == golden["bits_consumed"]


# -- dictionary-service goldens: trained tables + canned bitstreams ----------

GOLDEN_DICTSVC = pathlib.Path(__file__).parent / "data" \
    / "golden_dictsvc.json"
_DICTSVC = json.loads(GOLDEN_DICTSVC.read_text())


@pytest.fixture(scope="module")
def dictsvc_setup():
    """Retrain the golden registry and push its tables to the engine."""
    import tools.record_goldens as record_goldens
    from repro.nx.dht import clear_trained_dhts

    assert _DICTSVC["train"] == record_goldens.DICTSVC_TRAIN, \
        "golden file was recorded with a different training grid"
    registry, corpus = record_goldens.train_dictsvc_registry()
    clear_trained_dhts()
    registry.push()
    yield registry, corpus
    clear_trained_dhts()


def test_dictsvc_training_deterministic(dictsvc_setup) -> None:
    """Same seed + traffic → byte-identical tables and priming dicts."""
    import tools.record_goldens as record_goldens

    registry, _corpus = dictsvc_setup
    fresh = record_goldens.dictionary_fingerprints(registry)
    assert fresh == _DICTSVC["dictionaries"]


@pytest.mark.parametrize(
    "stream", _DICTSVC["streams"],
    ids=lambda s: f"{s['tenant']}@{s['offset']}")
def test_dictsvc_canned_bitstream(dictsvc_setup, stream: dict) -> None:
    """Canned-DHT bitstreams replay byte-identically and interop."""
    import zlib

    from repro.nx.compressor import NxCompressor
    from repro.nx.dht import DhtStrategy, select_canned
    from repro.nx.params import POWER9

    _registry, corpus = dictsvc_setup
    data = corpus[stream["tenant"]]
    buf = data[stream["offset"]:stream["offset"] + stream["length"]]
    assert select_canned(buf) == stream["pick"]

    result = NxCompressor(POWER9.engine).compress(
        buf, strategy=DhtStrategy.CANNED)
    assert len(result.data) == stream["compressed_len"]
    assert hashlib.sha256(result.data).hexdigest() == stream["sha256"]
    # The stream is ordinary DEFLATE: stock zlib must inflate it.
    assert zlib.decompress(result.data, wbits=-15) == buf


# -- framed-output goldens: every producer of a wire format ------------------

GOLDEN_CONTAINERS = pathlib.Path(__file__).parent / "data" \
    / "golden_containers.json"
_CONTAINERS = json.loads(GOLDEN_CONTAINERS.read_text())


def test_container_grid_is_the_recorded_one() -> None:
    """A producer added to (or dropped from) the recorder needs the
    golden file re-recorded, on the commit *before* the change."""
    import tools.record_goldens as record_goldens

    grid = {f"{name}/{payload}"
            for name in record_goldens.container_producers()
            for payload in record_goldens.CONTAINER_PAYLOADS}
    assert grid == set(_CONTAINERS)


@pytest.mark.parametrize("case", sorted(_CONTAINERS))
def test_container_golden_case(case: str) -> None:
    """Same framed bytes — header, body, trailer — and the same
    modelled seconds as when the file was recorded."""
    import tools.record_goldens as record_goldens

    name, payload = case.split("/")
    producer = record_goldens.container_producers()[name]
    fresh = record_goldens.record_container_case(producer, _DATA[payload])
    assert fresh == _CONTAINERS[case]


# -- modelled experiments: queueing tables and their event order -------------

GOLDEN_EXPERIMENTS = pathlib.Path(__file__).parent / "data" \
    / "golden_experiments.json"
_EXPERIMENTS = json.loads(GOLDEN_EXPERIMENTS.read_text())


def test_experiment_grid_is_the_recorded_one() -> None:
    import tools.record_goldens as record_goldens

    assert set(record_goldens.experiments()) == set(_EXPERIMENTS)


#: Means are built-in ``sum()`` over float sojourns, whose last bits
#: depend on the Python version (3.12 compensates); the rest is exact.
_SUMMED = {"mean_s"}


def _summed_approx(table: dict) -> dict:
    return {key: (pytest.approx(value, rel=1e-12) if key in _SUMMED
                  else _summed_approx(value) if isinstance(value, dict)
                  else value)
            for key, value in table.items()}


@pytest.mark.parametrize("name", sorted(_EXPERIMENTS))
def test_experiment_golden(name: str) -> None:
    """Same table values, bit for bit (means to 1e-12), and every job
    started and finished at the recorded instant, in the recorded order."""
    import tools.record_goldens as record_goldens

    fresh = record_goldens.experiments()[name]()
    assert fresh == _summed_approx(_EXPERIMENTS[name])


# -- chaos: offline campaign numbers and wire firing traces ------------------

GOLDEN_CHAOS = pathlib.Path(__file__).parent / "data" / "golden_chaos.json"
_CHAOS = json.loads(GOLDEN_CHAOS.read_text())


def test_chaos_grid_is_the_recorded_one() -> None:
    import tools.record_goldens as record_goldens

    assert set(record_goldens.chaos_cases()) == set(_CHAOS)


@pytest.mark.parametrize("name", sorted(_CHAOS))
def test_chaos_golden(name: str) -> None:
    """The offline campaign replays every count, breaker transition and
    modelled second; each wire injector fires the same kinds on the same
    operations."""
    import tools.record_goldens as record_goldens

    assert record_goldens.chaos_cases()[name]() == _CHAOS[name]


# -- telemetry: spans and metric families of one served request ---------------

GOLDEN_TELEMETRY = (pathlib.Path(__file__).parent / "data"
                    / "golden_telemetry.json")
_TELEMETRY = json.loads(GOLDEN_TELEMETRY.read_text())


def test_telemetry_grid_is_the_recorded_one() -> None:
    import tools.record_goldens as record_goldens

    assert set(record_goldens.telemetry_cases()) == set(_TELEMETRY)


@pytest.mark.parametrize("name", sorted(_TELEMETRY))
def test_telemetry_golden(name: str) -> None:
    """One traced, metrics-on request on each served path leaves the
    recorded spans (name, parent, attributes) and metric families (name,
    kind, label sets, counter values) behind, no more and no fewer."""
    import tools.record_goldens as record_goldens

    assert record_goldens.telemetry_cases()[name]() == _TELEMETRY[name]
