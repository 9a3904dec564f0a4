"""Record the golden files under ``tests/data/`` from one table.

Usage:  PYTHONPATH=src python tools/record_goldens.py

:data:`SECTIONS` maps each golden file to ``cases()``, a map from case
name to the recorder of that case.  This script writes every file from
it; ``tests/test_golden_parity.py`` replays every case and compares it
with :func:`recorded`, so a rewrite that changes one emitted byte, one
chain probe or one modelled second fails by case name.  Only re-run this
when an *intentional* change lands, on the commit before it.

``golden_deflate.json`` — SHA-256 of the exact bitstream and every
``MatchStats`` / ``InflateStats`` field for a grid of payloads, levels,
strategies and streaming modes: a list, each case named by
:func:`case_id`.

``golden_dictsvc.json`` — the training grid; fingerprints of every
dictionary the registry trains from the seeded cloud-like corpus (code
lengths: training is byte-identical run to run); and
the canned-DHT bitstreams the engine emits with those tables pushed,
each of which stock zlib must inflate.

``golden_containers.json`` — SHA-256 and length of the *framed* output
(gzip / zlib / raw, plus 842 where a producer has it) of every code path
that writes a wire format — the container helpers, the software
re-encode, the driver's software fallback, the pool's rescue and verify
repair, the four backends, the streaming writers — and the modelled
seconds of those that charge any.  The grid only goes through names that
survive a refactor of the framing code.

``golden_experiments.json`` — the ``pin`` of every row of the experiment
table (``benchmarks/experiments.py``) that has one: the modelled queueing
tables (E5, E6's DES cross-check, E14, E15, E16, E19) at their seeds,
every value at full precision, plus a digest of each configuration's
job-by-job start and finish times: the draw order and the event order
are the contract.

``golden_chaos.json`` — every number of the default offline chaos
campaign at seeds 7 and 3 (faults by kind, breaker opens and log,
rescues, verify failures, shed, fallbacks, wrong payloads, modelled
seconds), and the firing trace of every default wire scenario's client
and server plans on peers 0-3 over a fixed send/recv pattern.  The chip
seed ``seed * 1_000_003 + chip`` and the wire seed ``seed * 9_999_991 +
peer`` are part of that contract.

``golden_telemetry.json`` — the spans (name, parent, attributes) and
metric families (name, kind, label sets, counter values) one traced,
metrics-on request leaves behind on each served workload's path, sent
over loopback through ``ServiceClient``.  Ids, pids and wall-clock times
change run to run and are left out.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import pathlib
import sys
import zlib

from repro.deflate.compress import deflate
from repro.deflate.inflate import inflate_with_stats
from repro.workloads.generators import generate

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
#: The one golden file that is a list: each of its cases names itself.
DEFLATE = "golden_deflate.json"

#: Training grid for the dictsvc goldens (mirrors `repro dict train`).
DICTSVC_TRAIN = {"corpus": "cloud-like", "scale": 0.25, "seed": 7,
                 "sample_bytes": 4096, "max_clusters": 4}


def _sha256(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


@functools.cache
def payloads() -> dict[str, bytes]:
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


def case_id(case: dict) -> str:
    """A deflate case's name: its payload, level and other arguments."""
    parts = [case["payload"], f"l{case['level']}"]
    for key in ("strategy", "block_tokens", "final", "history"):
        if key in case:
            parts.append(f"{key}={case[key]}")
    return "-".join(parts)


def deflate_cases() -> dict:
    """``case id -> recorder()`` over the (payload, deflate-kwargs) grid."""
    grid: list[dict] = []
    for name in payloads():
        for level in (1, 4, 6, 9):
            grid.append({"payload": name, "level": level})
    for strategy in ("rle", "huffman_only"):
        grid.append({"payload": "text", "level": 6, "strategy": strategy})
        grid.append({"payload": "zeros", "level": 6, "strategy": strategy})
    # multi-block, streaming continuation, and preset-dictionary paths
    grid.append({"payload": "text", "level": 6, "block_tokens": 256})
    grid.append({"payload": "text", "level": 6, "final": False})
    grid.append({"payload": "json", "level": 6, "history": "text"})
    grid.append({"payload": "text", "level": 0})
    return {case_id(case): functools.partial(record_case, case)
            for case in grid}


def record_case(case: dict) -> dict:
    data_by_name = payloads()
    kwargs = {k: v for k, v in case.items() if k != "payload"}
    if "history" in kwargs:
        kwargs["history"] = data_by_name[kwargs["history"]]
    data = data_by_name[case["payload"]]
    result = deflate(data, **kwargs)
    stats = result.stats
    entry = {
        **case,
        "sha256": _sha256(result.data),
        "compressed_len": len(result.data),
        "blocks": result.blocks,
        "stats": {
            "literals": stats.literals,
            "matches": stats.matches,
            "match_bytes": stats.match_bytes,
            "chain_probes": stats.chain_probes,
        },
    }
    if case.get("final", True):
        out, istats, bits = inflate_with_stats(
            result.data, history=kwargs.get("history", b""))
        assert out == data, case
        entry["inflate_stats"] = {
            "literals": istats.literals,
            "matches": istats.matches,
            "match_bytes": istats.match_bytes,
            "blocks": istats.blocks,
            "bits_consumed": bits,
        }
    return entry


@functools.cache
def trained_registry():
    """The golden registry and its corpus, trained once a process
    (deterministic under DICTSVC_TRAIN)."""
    from repro.dictsvc import DictionaryRegistry
    from repro.workloads.corpus import build_corpus

    cfg = DICTSVC_TRAIN
    corpus = build_corpus(cfg["corpus"], scale=cfg["scale"])
    registry = DictionaryRegistry(seed=cfg["seed"],
                                  sample_bytes=cfg["sample_bytes"],
                                  max_clusters=cfg["max_clusters"])
    for family, data in corpus.items():
        for offset in range(0, len(data), cfg["sample_bytes"]):
            registry.observe(family,
                             data[offset:offset + cfg["sample_bytes"]])
    for family in corpus:
        registry.train(family)
    return registry, corpus


def dictionary_fingerprints() -> list[dict]:
    """Byte-level fingerprints of every trained dictionary."""
    return [{"name": dictionary.name,
             "tenant": dictionary.tenant,
             "samples": dictionary.samples,
             "litlen_sha256": _sha256(dictionary.litlen_lengths),
             "dist_sha256": _sha256(dictionary.dist_lengths)}
            for dictionary in trained_registry()[0].trained()]


def canned_streams() -> list[dict]:
    """Canned-DHT bitstreams under the trained tables' library."""
    from repro.nx.compressor import NxCompressor
    from repro.nx.dht import DhtStrategy
    from repro.nx.params import POWER9

    registry, corpus = trained_registry()
    library = registry.library()
    engine = NxCompressor(POWER9.engine)
    streams = []
    for family, data in sorted(corpus.items()):
        for offset in (0, 4096):
            buf = data[offset:offset + 4096]
            if len(buf) < 4096:
                continue
            result = engine.compress(buf, strategy=DhtStrategy.CANNED,
                                     library=library)
            # zlib interop is part of the golden contract.
            assert zlib.decompress(result.data, wbits=-15) == buf
            streams.append({
                "tenant": family,
                "offset": offset,
                "length": len(buf),
                "pick": library.select(buf, len(buf)),
                "sha256": _sha256(result.data),
                "compressed_len": len(result.data),
            })
    return streams


def dictsvc_cases() -> dict:
    """The training grid, what it trains, and the canned bitstreams."""
    return {"train": lambda: dict(DICTSVC_TRAIN),
            "dictionaries": dictionary_fingerprints,
            "streams": canned_streams}


# -- framed outputs: every producer of a wire format --------------------------

CONTAINER_PAYLOADS = ("text", "json", "empty")
_WIRE_FORMATS = ("gzip", "zlib", "raw")
_LEVELS = (1, 6, 9)
_WBITS = {"gzip": 31, "zlib": 15, "raw": -15}
_STREAM_CHUNK = 8192
_MTIME = 1_234_567_890


def _zdict() -> bytes:
    return payloads()["json"][:2048]


def _chunks(data: bytes) -> list[bytes]:
    return [data[i:i + _STREAM_CHUNK]
            for i in range(0, len(data), _STREAM_CHUNK)]


def _timed(result) -> tuple[bytes, float]:
    return result.output, result.stats.elapsed_seconds


def _driver_fallback(data: bytes, fmt: str) -> tuple[bytes, float]:
    """Every translation faults, so the retry budget runs out and the
    driver finishes the job in software."""
    from repro.nx.accelerator import NxAccelerator
    from repro.nx.params import POWER9
    from repro.sysstack.crb import Op
    from repro.sysstack.driver import NxDriver
    from repro.sysstack.mmu import AddressSpace, FaultInjector

    driver = NxDriver(NxAccelerator(POWER9),
                      AddressSpace(fault_injector=FaultInjector(1.0)),
                      max_retries=2)
    op, driver_fmt = ((Op.COMPRESS_842, "raw") if fmt == "842"
                      else (Op.COMPRESS, fmt))
    result = driver.run(op, data, fmt=driver_fmt)
    driver.close()
    assert result.stats.fallback_to_software, fmt
    return _timed(result)


def _pool_rescue(data: bytes, fmt: str) -> tuple[bytes, float]:
    """A synchronous job on a chip with an async job pasted is refused
    by the driver and re-run in software by the pool."""
    from repro.backend import AcceleratorPool
    from repro.nx.params import POWER9

    with AcceleratorPool(POWER9, chips=1, backend="nx") as pool:
        pool.submit_compress(b"in flight" * 64, fmt="raw")
        result = pool.compress(data, fmt=fmt)
        pool.wait_all()
        assert pool.stats().rescues == 1, fmt
    return _timed(result)


def _corrupting(accelerator) -> None:
    from repro.resilience.faults import FaultInjector, FaultPlan

    FaultInjector([FaultPlan("corrupt_output", probability=1.0)],
                  seed=3).install(accelerator)


def _pool_verify_repair(data: bytes, fmt: str) -> tuple[bytes, float]:
    from repro.backend import AcceleratorPool
    from repro.nx.params import POWER9

    with AcceleratorPool(POWER9, chips=1, backend="nx",
                         verify=True) as pool:
        _corrupting(pool.backend_for(0).accelerator)
        result = pool.compress(data, fmt=fmt)
        assert pool.stats().verify_failures == 1, fmt
    return _timed(result)


def _api_verify_repair(data: bytes, fmt: str) -> tuple[bytes, float]:
    from repro import NxGzip

    with NxGzip("POWER9", verify=True) as session:
        _corrupting(session.accelerator)
        buf = (session.compress_842(data) if fmt == "842"
               else session.compress(data, fmt=fmt))
        assert session.verify_failures == 1, fmt
    return buf.data, buf.modelled_seconds


def _backend(name: str, data: bytes, fmt: str, **kwargs
             ) -> tuple[bytes, float]:
    from repro.backend import create_backend

    with create_backend(name, **kwargs) as handle:
        return _timed(handle.compress(data, fmt=fmt))


def _nx_stream(data: bytes, fmt: str) -> bytes:
    from repro import NxGzip

    with NxGzip("POWER9") as session:
        stream = session.compress_stream(fmt=fmt)
        return b"".join(stream.write(chunk)
                        for chunk in _chunks(data)) + stream.finish()


def _compressobj(data: bytes, fmt: str) -> bytes:
    from repro.deflate.zlib_like import compressobj

    obj = compressobj(level=6, wbits=_WBITS[fmt])
    return b"".join(obj.compress(chunk)
                    for chunk in _chunks(data)) + obj.flush()


def container_producers() -> dict:
    """``name -> producer(data)``; a producer returns the framed bytes,
    or ``(bytes, modelled_seconds)`` where the path charges time."""
    from repro.deflate import containers, zlib_like
    from repro.nx.params import POWER9
    from repro.resilience.verify import software_compress

    def body(data):
        return deflate(data, level=6).data

    grid = {
        "gzip_compress-mtime": lambda d: containers.gzip_compress(
            d, level=6, mtime=_MTIME),
        "zlib_compress-zdict": lambda d: containers.zlib_compress(
            d, level=6, zdict=_zdict()),
        "wrap_gzip": lambda d: containers.wrap_gzip(body(d), d),
        "wrap_gzip-mtime": lambda d: containers.wrap_gzip(body(d), d,
                                                          mtime=_MTIME),
        "wrap_zlib": lambda d: containers.wrap_zlib(body(d), d),
        "zlib_like-zlib-zdict": lambda d: zlib_like.compress(
            d, wbits=15, zdict=_zdict()),
        "zlib_like-raw-zdict": lambda d: zlib_like.compress(
            d, wbits=-15, zdict=_zdict()),
    }
    for level in _LEVELS:
        grid[f"gzip_compress-l{level}"] = (
            lambda d, level=level: containers.gzip_compress(d, level=level))
        grid[f"zlib_compress-l{level}"] = (
            lambda d, level=level: containers.zlib_compress(d, level=level))
        for fmt in _WIRE_FORMATS:
            grid[f"zlib_like-l{level}-{fmt}"] = (
                lambda d, level=level, fmt=fmt: zlib_like.compress(
                    d, level=level, wbits=_WBITS[fmt]))
            grid[f"software_compress-l{level}-{fmt}"] = (
                lambda d, level=level, fmt=fmt: software_compress(
                    d, fmt=fmt, level=level, machine=POWER9))
            grid[f"software-l{level}-{fmt}"] = (
                lambda d, level=level, fmt=fmt: _backend(
                    "software", d, fmt, level=level))
    grid["software_compress-842"] = lambda d: software_compress(
        d, fmt="842", machine=POWER9)
    for fmt in _WIRE_FORMATS + ("842",):
        grid[f"driver_fallback-{fmt}"] = (
            lambda d, fmt=fmt: _driver_fallback(d, fmt))
        grid[f"api_verify_repair-{fmt}"] = (
            lambda d, fmt=fmt: _api_verify_repair(d, fmt))
        grid[f"nx-{fmt}"] = lambda d, fmt=fmt: _backend("nx", d, fmt)
    for fmt in _WIRE_FORMATS:
        grid[f"pool_rescue-{fmt}"] = lambda d, fmt=fmt: _pool_rescue(d, fmt)
        grid[f"pool_verify_repair-{fmt}"] = (
            lambda d, fmt=fmt: _pool_verify_repair(d, fmt))
        grid[f"dfltcc-{fmt}"] = (
            lambda d, fmt=fmt: _backend("dfltcc", d, fmt, machine="z15"))
        grid[f"nx_stream-{fmt}"] = lambda d, fmt=fmt: _nx_stream(d, fmt)
        grid[f"compressobj-{fmt}"] = (
            lambda d, fmt=fmt: _compressobj(d, fmt))
    return grid


def record_container_case(producer, payload: str) -> dict:
    """Fingerprint of one producer's output on one payload."""
    made = producer(payloads()[payload])
    framed, seconds = made if isinstance(made, tuple) else (made, None)
    entry = {"sha256": _sha256(framed), "length": len(framed)}
    if seconds is not None:
        entry["seconds"] = seconds
    return entry


def container_cases() -> dict:
    """``producer/payload -> recorder()`` of every framed output."""
    return {f"{name}/{payload}": functools.partial(
                record_container_case, producer, payload)
            for name, producer in container_producers().items()
            for payload in CONTAINER_PAYLOADS}


# -- modelled experiments: the pinned rows of the experiment table ---------

def _pin(row) -> dict:
    return row.pin(row.compute())


def experiments() -> dict:
    """``id -> recorder()`` of every row of ``benchmarks/experiments.py``
    that names a ``pin``."""
    if str(ROOT / "benchmarks") not in sys.path:
        sys.path.append(str(ROOT / "benchmarks"))
    from experiments import EXPERIMENTS
    return {key: functools.partial(_pin, row)
            for key, row in EXPERIMENTS.items() if row.pin is not None}


# -- chaos: the offline campaign's numbers and every wire firing trace -------

#: Seeds of the pinned offline campaigns.
CHAOS_SEEDS = (7, 3)
#: Seed, peers and length of every wire trace; every third op is a recv.
_WIRE_SEED = 7
_WIRE_PEERS = range(4)
_WIRE_OPS = 200


def _offline_campaign(seed: int) -> dict:
    """Every number of the default offline campaign at ``seed``."""
    from repro.resilience.chaos import run_campaign

    return {s.name: {
                "faults": dict(sorted(s.faults.items())),
                "opens": s.breaker_opens,
                "rescues": s.rescues,
                "verify_failures": s.verify_failures,
                "shed": s.shed,
                "fallbacks": s.fallbacks,
                "wrong": s.wrong,
                "modelled_seconds": s.modelled_seconds,
                "breaker_log": {str(chip): [list(t) for t in log]
                                for chip, log in sorted(s.breaker_log.items())}}
            for s in run_campaign(seed=seed)}


def _wire_trace(plans, peer: int) -> str:
    """``op:kind`` of every firing of one connection's injector."""
    from repro.resilience.faults import NetFaultInjector

    injector = NetFaultInjector(plans, seed=_WIRE_SEED, peer=peer)
    fired = []
    for op in range(_WIRE_OPS):
        plan = injector.on_op("recv" if op % 3 == 2 else "send")
        if plan is not None:
            fired.append(f"{op}:{plan.kind}")
    return " ".join(fired)


def _wire_scenario(plans) -> dict:
    """Each end's trace: the plans a TCP campaign installs there."""
    return {side: {str(peer): _wire_trace(
                [p for p in plans if p.side in (None, side)], peer)
                   for peer in _WIRE_PEERS}
            for side in ("client", "server")}


def chaos_cases() -> dict:
    """``name -> recorder()`` of every pinned chaos result."""
    from repro.resilience.chaos import default_plans

    cases = {f"offline/seed={seed}": (lambda seed=seed:
                                      _offline_campaign(seed))
             for seed in CHAOS_SEEDS}
    for name, plans in default_plans("tcp").items():
        cases[f"wire/{name}"] = lambda plans=plans: _wire_scenario(plans)
    return cases


# -- telemetry: what one served request records, span by span ---------------

#: ``name -> (service arguments, op, QoS class, payload maker, requests
#: sent)``; the last request of each is the one recorded.  The service
#: arguments and QoS classes are those of the stack benchmark's four
#: workloads (``benchmarks/stack/payloads.py``).
TELEMETRY_CASES = {
    "nx_compress": (
        {"machine": "POWER9", "backend": "nx", "cache_mb": 16},
        "compress", "interactive",
        lambda: generate("markov_text", 4096, seed=21), 1),
    "dfltcc_exec_compress": (
        {"machine": "z15", "backend": "dfltcc", "exec_workers": 2},
        "compress", "bulk",
        lambda: generate("json_records", 32768, seed=22), 1),
    "decompress": (
        {"machine": "POWER9", "backend": "nx"}, "decompress", "batch",
        lambda: gzip.compress(generate("log_lines", 65536, seed=23),
                              mtime=0), 1),
    "cache_hit": (
        {"machine": "POWER9", "backend": "nx", "cache_mb": 16},
        "compress", "interactive",
        lambda: generate("markov_text", 4096, seed=24), 2),
}

#: Span attributes on these paths that differ run to run: ids and pids.
_VOLATILE_ATTRS = {"request_id", "wire_request_id", "pid"}


def _span_record(span, by_id: dict) -> dict:
    parent = by_id.get(span.parent_id)
    return {"name": span.name,
            "parent": parent.name if parent is not None else None,
            "attrs": {key: value for key, value in sorted(span.attrs.items())
                      if key not in _VOLATILE_ATTRS}}


def _family_record(name: str, entry: dict) -> dict:
    values = entry["values"]
    record = {"name": name, "kind": entry["type"],
              "labels": [value["labels"] for value in values]}
    if entry["type"] == "counter":
        record["values"] = [value["value"] for value in values]
    return record


def _telemetry_case(kwargs: dict, op: str, qos: str, payload: bytes,
                    requests: int) -> dict:
    from repro import obs
    from repro.service import ServiceClient
    from repro.service.core import CompressionService
    from repro.service.server import serve

    service = CompressionService(chips=2, **kwargs)
    server = serve(service)
    try:
        # The server counts the accept on its handler thread, whenever
        # that runs: a one-request case traces from before the dial.
        if requests == 1:
            obs.reset()
            obs.enable()
        with ServiceClient(port=server.port) as client:
            for sent in range(requests):
                if 0 < sent == requests - 1:
                    obs.reset()
                    obs.enable()
                client.request(op, payload, qos=qos, fmt="gzip")
    finally:
        # Closed before telemetry goes off: what the server records
        # after its reply is sent belongs to the request too.
        server.shutdown()
        server.server_close()
        service.close()
        obs.disable()
    spans = obs.tracer().finished()
    by_id = {span.span_id: span for span in spans}
    families = obs.registry().snapshot()
    obs.reset()
    return {"spans": sorted((_span_record(span, by_id) for span in spans),
                            key=lambda r: json.dumps(r, sort_keys=True)),
            "metrics": [_family_record(name, entry)
                        for name, entry in sorted(families.items())]}


def telemetry_cases() -> dict:
    """``name -> recorder()`` of every pinned served request."""
    return {name: (lambda case=case: _telemetry_case(
                case[0], case[1], case[2], case[3](), case[4]))
            for name, case in TELEMETRY_CASES.items()}


#: ``golden file -> cases()``: every file under ``tests/data/`` the
#: suite replays, and the recorders of its cases by name.
SECTIONS = {
    DEFLATE: deflate_cases,
    "golden_dictsvc.json": dictsvc_cases,
    "golden_containers.json": container_cases,
    "golden_experiments.json": experiments,
    "golden_chaos.json": chaos_cases,
    "golden_telemetry.json": telemetry_cases,
}


def recorded(name: str) -> dict:
    """The golden file ``name`` as written, keyed by case name."""
    golden = json.loads((DATA / name).read_text())
    return ({case_id(entry): entry for entry in golden} if name == DEFLATE
            else golden)


def main() -> int:
    for name, cases in SECTIONS.items():
        record = {case: recorder() for case, recorder in cases().items()}
        golden = list(record.values()) if name == DEFLATE else record
        (DATA / name).write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote {DATA / name} ({len(record)} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
