"""The traced per-layer ladder: one payload, every layer boundary in turn.

For each of a workload's first K payloads the rungs below are called
*in turn on the same payload*, bottom (codec kernel) to top (client over
a loopback socket).  Every call is wrapped in one of the benchmark's own
in-memory spans; nothing inside the program is instrumented.  A rung's
``*_ms`` is its median span; a layer's ``self_ms`` is the median of the
*paired* difference to the rung below it (same payload, back to back) —
unpaired medians differ by less than the noise at 64 KB.

Kernel rungs (deflate.*, nx.*) run both directions on every workload;
the stack rungs (driver upward) run the workload's own operation on the
workload's machine, backend and service flags.
"""

from __future__ import annotations

import gzip
import json
import socket
import statistics
import threading
import sys
import time
from pathlib import Path

from repro import obs
from repro.backend import AcceleratorPool, create_backend
from repro.core.api import NxGzip
from repro.deflate import crc32, gzip_compress, gzip_decompress
from repro.deflate.compress import token_frequencies
from repro.dictsvc.cache import ResultCache, result_key
from repro.exec.pool import get_default_pool, shutdown_default_pool
from repro.nx.accelerator import NxAccelerator
from repro.nx.compressor import NxCompressor
from repro.nx.decompressor import NxDecompressor
from repro.nx.dht import DhtStrategy, generate_dynamic, select_canned
from repro.nx.params import get_machine
from repro.nx.pipeline import NxMatchPipeline
from repro.service import (CompressionService, ServiceClient, recv_message,
                           send_message, serve)
from repro.sysstack.crb import Op
from repro.sysstack.driver import AsyncNxDriver
from repro.sysstack.mmu import AddressSpace

from payloads import WORKLOADS, Item, Workload, make_items


class Span:
    """One timed call: name, layer, start, end, parent, request id."""

    __slots__ = ("recorder", "name", "layer", "request", "parent", "start",
                 "end")

    def __init__(self, recorder: "SpanRecorder", name: str, layer: str,
                 request: str, parent: "Span | None") -> None:
        self.recorder = recorder
        self.name = name
        self.layer = layer
        self.request = request
        self.parent = parent
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = time.perf_counter()
        self.recorder.spans.append(self)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class SpanRecorder:
    """In-memory span log, written out once when the benchmark ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def span(self, name: str, layer: str, request: str,
             parent: Span | None = None) -> Span:
        return Span(self, name, layer, request, parent)

    def write(self, path: Path) -> None:
        ids = {id(span): n for n, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([
            {"id": ids[id(s)], "name": s.name, "layer": s.layer,
             "request": s.request, "start_s": s.start, "end_s": s.end,
             "parent": ids.get(id(s.parent))}
            for s in self.spans], indent=1))


class _Echo(threading.Thread):
    """Peer of the protocol rung: sends every message straight back."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(daemon=True)
        self.sock = sock

    def run(self) -> None:
        while True:
            message = recv_message(self.sock)
            if message is None:
                return
            send_message(self.sock, *message)


def _median_diff(upper: list[float], lower: list[float]) -> float:
    return statistics.median(u - l for u, l in zip(upper, lower))


def _median_pct(with_: list[float], without: list[float]) -> float:
    return statistics.median((w - b) / b * 100.0
                             for w, b in zip(with_, without))


class Ladder:
    """Every layer's public entry point, built for one workload."""

    def __init__(self, workload: Workload, nproc: int,
                 recorder: SpanRecorder) -> None:
        self.workload = workload
        self.nproc = nproc
        self.rec = recorder
        self.compressing = workload.op == "compress"
        self.attempted = 0
        self.failed = 0
        self.machine = machine = get_machine(workload.machine)
        exec_workers = nproc if workload.exec_workers else None
        self.pipeline = NxMatchPipeline(machine.engine)
        self.compressor = NxCompressor(machine.engine)
        self.decompressor = NxDecompressor(machine.engine)
        # The driver class the ``nx`` backend drives.
        self.driver = AsyncNxDriver(NxAccelerator(machine), AddressSpace())
        self.driver.open()
        self.backend = create_backend(workload.backend, machine=machine)
        self.pool = AcceleratorPool(machine, chips=2,
                                    backend=workload.backend)
        self.batch_pools = {
            "backend.pool_batch": AcceleratorPool(
                machine, chips=2, backend=workload.backend,
                exec_workers=exec_workers),
            "exec.batch_inline": AcceleratorPool(
                "z15", chips=2, backend="dfltcc"),
            "exec.batch_workers": AcceleratorPool(
                "z15", chips=2, backend="dfltcc", exec_workers=nproc),
        }
        self.exec_pool = get_default_pool(nproc)
        self.session = NxGzip(machine, backend=workload.backend)
        self.cache = ResultCache(max_bytes=16 << 20)
        # Four services with the served flags: each sees a payload for
        # the first time, so none answers from a cache a lower rung
        # filled.  In-process, over a socket, with the program's own
        # telemetry on, and over a socket with this recorder off.
        self.services = [CompressionService(
            machine=machine, chips=2, backend=workload.backend,
            exec_workers=exec_workers, cache_mb=workload.cache_mb)
            for _ in range(4)]
        self.svc, wire_svc, self.obs_svc, bare_svc = self.services
        self.servers = [serve(wire_svc), serve(bare_svc)]
        self.wire_client, self.bare_client = (
            ServiceClient(port=server.port) for server in self.servers)
        self.near, far = socket.socketpair()
        self.echo = _Echo(far)
        self.echo.start()

    def close(self) -> None:
        self.near.close()
        self.echo.join(5.0)
        self.echo.sock.close()
        for client in (self.wire_client, self.bare_client):
            client.close()
        for server in self.servers:
            server.shutdown()
            server.server_close()
        for service in self.services:
            service.close()
        for pool in (self.pool, *self.batch_pools.values()):
            pool.close()
        self.session.close()
        self.backend.close()
        self.driver.close()
        shutdown_default_pool()

    # -- verification (stdlib only) ------------------------------------------

    def _check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def _check_packed(self, packed: bytes, plain: bytes) -> None:
        try:
            self._check(gzip.decompress(packed) == plain)
        except (OSError, EOFError, ValueError):
            self._check(False)

    def _check_reply(self, output: bytes, item: Item) -> None:
        if self.compressing:
            self._check_packed(output, item.plain)
        else:
            self._check(output == item.plain)

    # -- the rungs -----------------------------------------------------------

    def _requests(self, item: Item) -> dict:
        """The four service calls of one payload, as ``name -> thunk``."""
        w = self.workload

        def inproc(service):
            return lambda: service.request(w.op, item.wire, qos=w.qos,
                                           fmt="gzip").output

        def wire(client):
            return lambda: client.request(w.op, item.wire, qos=w.qos,
                                          fmt="gzip").output

        return {"service": inproc(self.svc), "obs": inproc(self.obs_svc),
                "wire": wire(self.wire_client),
                "bare": wire(self.bare_client)}

    def warm(self, items: list[Item], pooled: list[Item]) -> None:
        """Lazy set-up off the clock: one unmeasured walk, and — when
        the served run repeats payloads against a cache — every service
        already holding the pooled payloads, as it does after the
        served run's warm-up round."""
        recorder, self.rec = self.rec, SpanRecorder()
        try:
            self.walk(items, {})
        finally:
            self.rec = recorder
        for item in pooled:
            for call in self._requests(item).values():
                self._check_reply(call(), item)

    def walk(self, items: list[Item], ms: dict[str, list[float]]) -> dict:
        """Climb the ladder once per item; fills ``ms[rung]`` in item
        order and returns the deterministic model counters."""
        w, rec = self.workload, self.rec
        model = {"modelled_s": 0.0, "submissions": 0, "overflows": 0}

        def note(name: str, value: float) -> None:
            ms.setdefault(name, []).append(value)

        for i, item in enumerate(items):
            rid = f"{w.name}-{i}"
            with rec.span("ladder.request", "bench", rid) as root:
                def timed(name: str, layer: str):
                    return rec.span(name, layer, rid, root)

                plain, sent = item.plain, item.wire
                with timed("deflate.crc32", "deflate") as s:
                    crc32(plain)
                note("deflate.crc32", s.ms)
                with timed("deflate.compress", "deflate") as s:
                    packed = gzip_compress(plain)
                note("deflate.compress", s.ms)
                self._check_packed(packed, plain)
                with timed("deflate.inflate", "deflate") as s:
                    out = gzip_decompress(packed)
                note("deflate.inflate", s.ms)
                self._check(out == plain)

                with timed("nx.scan", "nx") as s:
                    scan = self.pipeline.scan(plain)
                note("nx.scan", s.ms)
                with timed("nx.dht", "nx") as s:
                    select_canned(plain)
                    generate_dynamic(*token_frequencies(scan.tokens),
                                     self.machine.engine)
                note("nx.dht", s.ms)
                with timed("nx.compress", "nx") as s:
                    engine = self.compressor.compress(
                        plain, DhtStrategy.AUTO, fmt="gzip")
                note("nx.compress", s.ms)
                self._check_packed(engine.data, plain)
                member = engine.data if self.compressing else sent
                with timed("nx.decompress", "nx") as s:
                    out = self.decompressor.decompress(member,
                                                       fmt="gzip").data
                note("nx.decompress", s.ms)
                self._check(out == plain)

                if self.compressing:
                    stack = {
                        "sysstack.driver": lambda: self.driver.run(
                            Op.COMPRESS, sent, strategy="auto", fmt="gzip"),
                        "backend.backend": lambda: self.backend.compress(
                            sent, strategy="auto", fmt="gzip"),
                        "backend.pool": lambda: self.pool.compress(
                            sent, strategy="auto", fmt="gzip"),
                        "core.session": lambda: self.session.compress(
                            sent, fmt="gzip").driver,
                    }
                else:
                    stack = {
                        "sysstack.driver": lambda: self.driver.run(
                            Op.DECOMPRESS, sent, fmt="gzip"),
                        "backend.backend": lambda: self.backend.decompress(
                            sent, fmt="gzip"),
                        "backend.pool": lambda: self.pool.decompress(
                            sent, fmt="gzip"),
                        "core.session": lambda: self.session.decompress(
                            sent, fmt="gzip").driver,
                    }
                for name, call in stack.items():
                    with timed(name, name.split(".")[0]) as s:
                        result = call()
                    note(name, s.ms)
                    self._check_reply(result.output, item)
                    if name == "backend.backend":
                        model["modelled_s"] += result.stats.elapsed_seconds
                        model["submissions"] += result.stats.submissions
                        model["overflows"] += result.stats.target_overflows

                with timed("exec.echo", "exec") as s:
                    echoed = self.exec_pool.run_batch(
                        [("echo", {"value": sent})])
                note("exec.echo", s.ms)
                self._check(echoed == [sent])

                # A tenant per step keeps the key fresh when the
                # workload repeats payloads.
                with timed("dictsvc.key", "dictsvc") as s:
                    key = result_key(sent, op=w.op, fmt="gzip",
                                     strategy="auto", epoch=0)
                note("dictsvc.key", s.ms)
                with timed("dictsvc.miss", "dictsvc") as s:
                    self.cache.begin(rid, key)
                    self.cache.commit(rid, key, result.output)
                note("dictsvc.miss", s.ms)
                with timed("dictsvc.hit", "dictsvc") as s:
                    state, _blob = self.cache.begin(rid, key)
                note("dictsvc.hit", s.ms)
                self._check(state == "hit")

                with timed("service.protocol", "service") as s:
                    send_message(self.near, {"op": w.op}, sent)
                    _header, body = recv_message(self.near)
                note("service.protocol", s.ms)
                self._check(body == sent)

                calls = self._requests(item)
                hits = self.svc.cache.hits if self.svc.cache is not None else 0
                with timed("service.request", "service") as s:
                    out = calls["service"]()
                note("service.request", s.ms)
                self._check_reply(out, item)
                # A hit never reaches the pool: no child time to remove.
                hit = (self.svc.cache is not None
                       and self.svc.cache.hits > hits)
                note("service.child", 0.0 if hit else ms["backend.pool"][-1])

                obs.enable(trace=True, metrics=True)
                try:
                    with timed("obs.request", "obs") as s:
                        out = calls["obs"]()
                finally:
                    obs.disable()
                note("obs.request", s.ms)
                self._check_reply(out, item)

                # The top rung, timed from outside with and without the
                # recorder around it; whichever goes second finds the
                # sockets and caches warm, so the order alternates.
                def with_span():
                    t0 = time.perf_counter()
                    with timed("service.wire", "service") as s:
                        out = calls["wire"]()
                    note("trace.with", (time.perf_counter() - t0) * 1e3)
                    note("service.wire", s.ms)
                    return out

                def without_span():
                    t0 = time.perf_counter()
                    out = calls["bare"]()
                    note("trace.without", (time.perf_counter() - t0) * 1e3)
                    return out

                for call in ((with_span, without_span) if i % 2 == 0
                             else (without_span, with_span)):
                    self._check_reply(call(), item)

            if i % self.nproc == self.nproc - 1:
                self._batches(items[i + 1 - self.nproc:i + 1],
                              f"{w.name}-batch{i // self.nproc}", note)
        return model

    def _batches(self, batch: list[Item], rid: str, note) -> None:
        """``nproc`` payloads through submit xN + wait_all, per request."""
        for name, pool in self.batch_pools.items():
            with self.rec.span(name, name.split(".")[0], rid) as s:
                for item in batch:
                    if self.compressing:
                        pool.submit_compress(item.wire, strategy="auto",
                                             fmt="gzip")
                    else:
                        pool.submit_decompress(item.wire, fmt="gzip")
                results = pool.wait_all()
            note(name, s.ms / len(batch))
            for result, item in zip(results, batch):
                self._check_reply(result.output if result else b"", item)


def run_ladder(workload: Workload, seed: int, nproc: int,
               trace_path: Path) -> dict:
    """Walk the ladder over the workload's first K payloads; returns the
    metrics plus ``attempted``/``failed`` and writes the spans."""
    # Where the served run stamps its requests so that none repeats,
    # the ladder walks payloads that are distinct to begin with.
    pool = make_items(workload, seed, workload.ladder_k + nproc
                      if workload.stamped else None)
    items = [pool[j % len(pool)] for j in range(workload.ladder_k + nproc)]
    # The served run repeats payloads against a cache only here.
    pooled = pool if workload.cache_mb and not workload.stamped else []
    recorder = SpanRecorder()
    ladder = Ladder(workload, nproc, recorder)
    ms: dict[str, list[float]] = {}
    try:
        ladder.warm(items[-nproc:], pooled)
        cache = ladder.svc.cache
        before = cache.stats() if cache else None
        model = ladder.walk(items[:-nproc], ms)
        after = cache.stats() if cache else None
    finally:
        ladder.close()
        recorder.write(trace_path)
    n = len(items) - nproc
    med = {name: statistics.median(values) for name, values in ms.items()}
    engine = ms["nx.compress" if ladder.compressing else "nx.decompress"]
    below_backend = (ms["sysstack.driver"] if workload.backend == "nx"
                     else engine)
    hit_ratio = 0.0
    if cache:
        hit_ratio = ((after["hits"] - before["hits"])
                     / (after["requests"] - before["requests"]))
    metrics = {
        "deflate.compress_ms": med["deflate.compress"],
        "deflate.inflate_ms": med["deflate.inflate"],
        "deflate.crc32_ms": med["deflate.crc32"],
        "nx.scan_ms": med["nx.scan"],
        "nx.dht_ms": med["nx.dht"],
        "nx.compress_ms": med["nx.compress"],
        "nx.encode_self_ms": statistics.median(
            c - s - d for c, s, d in zip(ms["nx.compress"], ms["nx.scan"],
                                         ms["nx.dht"])),
        "nx.decompress_ms": med["nx.decompress"],
        "nx.modelled_us_per_req": model["modelled_s"] * 1e6 / n,
        "sysstack.self_ms": _median_diff(ms["sysstack.driver"], engine),
        "sysstack.submissions_per_req": model["submissions"] / n,
        "sysstack.target_overflows_per_req": model["overflows"] / n,
        "backend.self_ms": _median_diff(ms["backend.backend"],
                                        below_backend),
        "backend.pool_self_ms": _median_diff(ms["backend.pool"],
                                             ms["backend.backend"]),
        "backend.pool_batch_ms": med["backend.pool_batch"],
        "exec.batch_speedup": statistics.median(
            a / b for a, b in zip(ms["exec.batch_inline"],
                                  ms["exec.batch_workers"])),
        "exec.echo_roundtrip_ms": med["exec.echo"],
        "core.self_ms": _median_diff(ms["core.session"],
                                     ms["backend.backend"]),
        "dictsvc.key_us": med["dictsvc.key"] * 1e3,
        "dictsvc.hit_us": med["dictsvc.hit"] * 1e3,
        "dictsvc.miss_overhead_us": med["dictsvc.miss"] * 1e3,
        "dictsvc.cache_hit_ratio": hit_ratio,
        "service.self_ms": _median_diff(ms["service.request"],
                                        ms["service.child"]),
        "service.wire_self_ms": _median_diff(ms["service.wire"],
                                             ms["service.request"]),
        "service.protocol_roundtrip_us": med["service.protocol"] * 1e3,
        "obs.service_overhead_pct": _median_pct(ms["obs.request"],
                                                ms["service.request"]),
        "trace.overhead_pct": _median_pct(ms["trace.with"],
                                          ms["trace.without"]),
    }
    return {"metrics": metrics, "attempted": ladder.attempted,
            "failed": ladder.failed}


if __name__ == "__main__":
    # Its own process (run.py starts it): the exec workers, the
    # multiprocessing tracker and the program's global telemetry state
    # all end with it, and the parent can sweep whatever is left.
    name, seed, nproc, trace_path = sys.argv[1:]
    print(json.dumps(run_ladder(WORKLOADS[name], int(seed), int(nproc),
                                Path(trace_path))))
