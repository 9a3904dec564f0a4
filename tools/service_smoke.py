"""CI smoke test for the compression-as-a-service layer.

Starts a :class:`CompressionServer` on an ephemeral port, drives
concurrent round trips across every default QoS class through the wire
protocol, exercises a structured rejection against a tiny queue, and
finishes with a clean drain, then serves two concurrent clients from a
server with two exec workers and checks that their jobs overlapped.
Both live servers are also sent a corrupt gzip member between two good
requests: it must fail alone, by name, and leave the server serving.
Functional coverage lives in ``tests/test_service.py``; this script is
the end-to-end "does the server actually serve over a socket" bit for
CI.

Usage::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import gzip
import os
import threading
import time

from repro.errors import ServiceOverloaded
from repro.service import (
    CompressionService,
    QosClass,
    QosPolicy,
    ServiceClient,
    serve,
)
from repro.workloads.generators import generate

CLIENTS = 6
ROUND_TRIPS = 4


def _round_trips(port: int, failures: list[str]) -> None:
    classes = ("interactive", "batch", "bulk")
    try:
        with ServiceClient("127.0.0.1", port) as client:
            if not client.ping():
                failures.append("ping did not return ok")
                return
            for i in range(ROUND_TRIPS):
                qos = classes[i % len(classes)]
                payload = generate("json_records", 4096, seed=100 + i)
                result = client.request("compress", payload, qos=qos)
                if gzip.decompress(result.output) != payload:
                    failures.append(f"wrong bytes for qos={qos}")
                if result.qos != qos:
                    failures.append(
                        f"qos echo mismatch: {result.qos} != {qos}")
                back = client.request("decompress", result.output,
                                      qos=qos)
                if back.output != payload:
                    failures.append(f"decompress mismatch for {qos}")
    except Exception as exc:  # noqa: BLE001 - smoke reports, not raises
        failures.append(f"client crashed: {exc!r}")


def hostile_payload_step(port: int) -> str | None:
    """A corrupt member between two good requests, from two clients.

    Returns a failure message, or None: the corrupt request is answered
    with a non-retryable ``ChecksumError``, its neighbours with the
    right bytes, and the ``stats`` op shows exactly one more failure on
    a server that is still running.
    """
    plain = [generate("log_lines", 20000, seed=s) for s in (31, 32)]
    corrupt = bytearray(gzip.compress(plain[0]))
    corrupt[-6] ^= 0xFF  # inside the CRC-32
    replies: dict[str, tuple[dict, bytes]] = {}

    def send(**payloads: bytes) -> None:
        with ServiceClient("127.0.0.1", port, timeout_s=30.0) as conn:
            for name, payload in payloads.items():
                replies[name] = conn.call(
                    {"op": "decompress", "fmt": "gzip"}, payload)

    with ServiceClient("127.0.0.1", port) as conn:
        before = conn.stats()
    threads = [
        threading.Thread(target=send, kwargs={
            "first": gzip.compress(plain[0]),
            "last": gzip.compress(plain[1])}),
        threading.Thread(target=send, kwargs={"corrupt": bytes(corrupt)})]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    with ServiceClient("127.0.0.1", port) as conn:
        after = conn.stats()
    if len(replies) != 3:
        return f"hostile step: only {sorted(replies)} were answered"
    header = replies["corrupt"][0]
    if (header.get("status"), header.get("retryable"),
            header.get("error_type")) != ("error", False, "ChecksumError"):
        return f"hostile step: corrupt member answered with {header}"
    for name, want in zip(("first", "last"), plain):
        header, body = replies[name]
        if header.get("status") != "ok" or body != want:
            return f"hostile step: good request {name!r} answered {header}"
    moved = {key: after[key] - before[key]
             for key in ("completed", "failed")}
    if moved != {"completed": 2, "failed": 1} or after["state"] != "running":
        return (f"hostile step: stats moved by {moved}, "
                f"state {after['state']!r}")
    return None


def exec_overlap_phase() -> str | None:
    """Two clients against ``exec_workers=2``: their jobs must overlap.

    Returns a failure message, or None.  Jobs dwell in their workers
    (the exec pool's ``default_delay_s`` hook), so overlap is read off
    the workers' assigned jobs while both are held, then cross-checked
    against the ``batch_size`` reply header and the ``stats`` op.
    """
    payloads = [generate("json_records", 32768, seed=s) for s in (1, 2)]
    replies: dict[int, object] = {}
    with CompressionService(machine="z15", chips=2, backend="dfltcc",
                            exec_workers=2) as service:
        server = serve(service, port=0)
        exec_pool = service.pool._exec()
        exec_pool.warm()
        exec_pool.default_delay_s = 0.5

        def client(i: int) -> None:
            with ServiceClient("127.0.0.1", server.port) as conn:
                replies[i] = conn.request("compress", payloads[i],
                                          qos="bulk")

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(2)]
        try:
            for thread in threads:
                thread.start()
            claimed: set[int] = set()
            deadline = time.monotonic() + 60.0
            while len(claimed) < 2 and time.monotonic() < deadline \
                    and any(thread.is_alive() for thread in threads):
                claimed = {worker.worker_id for worker
                           in list(exec_pool._workers.values())
                           if worker.job is not None}
                time.sleep(0.005)
            for thread in threads:
                thread.join(60.0)
            with ServiceClient("127.0.0.1", server.port) as conn:
                stats = conn.stats()
            hostile = hostile_payload_step(server.port)
        finally:
            exec_pool.default_delay_s = 0.0
            server.shutdown()
    if hostile is not None:
        return f"exec phase, {hostile}"
    if len(claimed) < 2:
        return (f"exec workers never held two jobs at once "
                f"(saw workers {sorted(claimed)})")
    if len(replies) != 2 or any(
            gzip.decompress(replies[i].output) != payloads[i]
            for i in range(2)):
        return "exec phase: missing or wrong reply bytes"
    if sorted(reply.batch_size for reply in replies.values()) != [1, 2]:
        return ("exec phase: replies do not show one job dispatched "
                "beside the other (batch_size "
                f"{[r.batch_size for r in replies.values()]})")
    if stats["completed"] != 2 or stats["failed"] != 0:
        return f"exec phase: stats op reports {stats}"
    return None


def main() -> int:
    # Part 1: concurrent round trips across all default QoS classes.
    with CompressionService(chips=2) as service:
        server = serve(service, port=0)
        try:
            failures: list[str] = []
            threads = [
                threading.Thread(target=_round_trips,
                                 args=(server.port, failures))
                for _ in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if failures:
                print("service smoke FAILED:")
                for failure in failures[:10]:
                    print(f"  {failure}")
                return 1
            stats = service.stats()
            expected = CLIENTS * ROUND_TRIPS * 2  # compress + decompress
            if stats.completed != expected:
                print(f"service smoke FAILED: completed "
                      f"{stats.completed} != {expected}")
                return 1
            hostile = hostile_payload_step(server.port)
            if hostile is not None:
                print(f"service smoke FAILED: {hostile}")
                return 1
        finally:
            server.shutdown()

    # Part 2: a tiny queue sheds with a structured, retryable rejection.
    tight = QosPolicy((
        QosClass("interactive", fifo="high", rank=0, queue_limit=1,
                 max_batch=1),
    ))
    payload = generate("json_records", 4096, seed=7)
    with CompressionService(chips=1, qos=tight) as service:
        tickets = []
        shed = 0
        for _ in range(24):
            try:
                tickets.append(service.submit("compress", payload,
                                              qos="interactive"))
            except ServiceOverloaded as exc:
                if not exc.retryable or exc.retry_after_s <= 0:
                    print("service smoke FAILED: rejection not "
                          "retryable with a retry-after hint")
                    return 1
                shed += 1
        for ticket in tickets:
            out = ticket.wait(60)
            if gzip.decompress(out.output) != payload:
                print("service smoke FAILED: wrong bytes post-shed")
                return 1
        if shed == 0:
            print("service smoke FAILED: tiny queue never shed")
            return 1
        # Part 3: clean drain — backlog empty, then closed for business.
        service.drain(timeout_s=30)
        if service.stats().in_service != 0:
            print("service smoke FAILED: drain left work in service")
            return 1

    # Part 4: the dispatch window puts two callers on two workers.
    if (os.cpu_count() or 1) < 2:
        overlap = "skipped (needs 2 CPUs)"
        print("exec overlap phase skipped: os.cpu_count() < 2")
    else:
        failure = exec_overlap_phase()
        if failure is not None:
            print(f"service smoke FAILED: {failure}")
            return 1
        overlap = "two exec jobs overlapped"

    print(f"service smoke passed: {expected} round trips over the "
          f"wire across {CLIENTS} clients, {shed} retryable "
          f"rejections, clean drain, {overlap}; a corrupt member "
          f"failed alone on every live server")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
