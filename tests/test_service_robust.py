"""Network robustness end to end: frame abuse, resends, reconnects.

The server side of the wire hardening — typed ``bad_frame`` answers
for garbage instead of silent hangups, idle deadlines, request-id
dedup over real sockets — and the headline acceptance scenario: a
reconnecting client whose first attempt's connection is killed
mid-response still completes the request, exactly once, via the
server's idempotency cache, and the acknowledgements that let the
server free a reply once its client has read it.  Ends with a seeded
slice of the ``repro chaos --network`` campaign.
"""

from __future__ import annotations

import gzip
import socket
import struct
import sys
import threading
import time

import pytest

from repro import obs
from repro.errors import RetryBudgetExhausted, ServiceUnreachable
from repro.resilience import FaultPlan, fault_factory
from repro.service import (CompressionService, IdempotencyCache,
                           RetryBudget, ServiceClient, serve)
from repro.service.protocol import (ProtocolError, recv_message,
                                    send_message)

_LEN = struct.Struct(">I")


@pytest.fixture()
def stack():
    """A served software-backend service; yields (service, server)."""
    service = CompressionService(chips=1, backend="software")
    server = serve(service, port=0)
    yield service, server
    server.shutdown()
    service.close()


def _dial(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _assert_healthy(server) -> None:
    """The dispatcher still serves fresh connections."""
    with ServiceClient(port=server.port) as client:
        assert client.ping()


class TestFrameAbuse:
    def test_garbage_header_answered_with_bad_frame(self, stack):
        _, server = stack
        sock = _dial(server.port)
        garbage = b"\x00\xffnot json at all"
        sock.sendall(_LEN.pack(len(garbage)) + garbage)
        header, _ = recv_message(sock)
        assert header["status"] == "error"
        assert header["error_type"] == "bad_frame"
        assert header["kind"] == "bad_header"
        assert header["retryable"] is False
        # The connection closes after the typed answer.
        assert sock.recv(1) == b""
        sock.close()
        _assert_healthy(server)

    def test_oversized_header_answered_with_bad_frame(self, stack):
        _, server = stack
        sock = _dial(server.port)
        sock.sendall(_LEN.pack(1 << 30))
        header, _ = recv_message(sock)
        assert header["error_type"] == "bad_frame"
        assert header["kind"] == "oversized_header"
        sock.close()
        _assert_healthy(server)

    def test_oversized_payload_answered_with_bad_frame(self, stack):
        _, server = stack
        sock = _dial(server.port)
        head = b'{"op":"compress"}'
        sock.sendall(_LEN.pack(len(head)) + head + _LEN.pack(1 << 31))
        header, _ = recv_message(sock)
        assert header["error_type"] == "bad_frame"
        assert header["kind"] == "oversized_payload"
        sock.close()
        _assert_healthy(server)

    def test_disconnect_mid_frame_leaves_server_healthy(self, stack):
        _, server = stack
        sock = _dial(server.port)
        # Declare a 64-byte header, deliver 3 bytes, vanish.
        sock.sendall(_LEN.pack(64) + b"abc")
        sock.close()
        _assert_healthy(server)

    def test_non_object_header_rejected(self, stack):
        _, server = stack
        sock = _dial(server.port)
        head = b'[1,2,3]'
        sock.sendall(_LEN.pack(len(head)) + head)
        header, _ = recv_message(sock)
        assert header["error_type"] == "bad_frame"
        assert header["kind"] == "bad_header"
        sock.close()
        _assert_healthy(server)


class TestIdleTimeout:
    def test_silent_connection_is_closed(self):
        service = CompressionService(chips=1, backend="software")
        server = serve(service, port=0, idle_timeout_s=0.2)
        try:
            sock = _dial(server.port)
            # Say nothing; the server hangs up at the idle deadline.
            deadline = time.monotonic() + 5.0
            closed = False
            while time.monotonic() < deadline:
                try:
                    if sock.recv(1) == b"":
                        closed = True
                        break
                except TimeoutError:
                    break
            assert closed
            sock.close()
            _assert_healthy(server)
        finally:
            server.shutdown()
            service.close()


class TestHostilePayload:
    """A corrupt stream fails its own request, at once and by name; the
    requests around it are served, the dispatcher lives, no breaker
    moves — on every backend the service fronts."""

    @pytest.mark.parametrize("backend", [
        {"backend": "nx"},
        {"machine": "z15", "backend": "dfltcc"},
        {"machine": "z15", "backend": "dfltcc", "exec_workers": 2},
    ], ids=["nx", "dfltcc", "dfltcc-exec"])
    def test_corrupt_member_between_good_requests(self, backend, text_20k,
                                                  json_20k):
        members = [gzip.compress(text_20k), gzip.compress(json_20k)]
        corrupt = bytearray(members[0])
        corrupt[-6] ^= 0xFF  # inside the CRC-32
        replies: dict[str, tuple[dict, bytes, float]] = {}

        def send(port: int, **payloads: bytes) -> None:
            sock = _dial(port)
            for name, payload in payloads.items():
                sent = time.monotonic()
                send_message(sock, {"op": "decompress", "fmt": "gzip"},
                             payload)
                header, body = recv_message(sock)
                replies[name] = header, body, time.monotonic() - sent
            sock.close()

        service = CompressionService(chips=1, **backend)
        server = serve(service, port=0, request_timeout_s=5.0)
        try:
            send(server.port, warmup=members[0])  # exec workers are up
            clients = [
                threading.Thread(target=send, args=(server.port,), kwargs={
                    "first": members[0], "last": members[1]}),
                threading.Thread(target=send, args=(server.port,), kwargs={
                    "corrupt": bytes(corrupt)})]
            for client in clients:
                client.start()
            for client in clients:
                client.join(30)
            header, _, took = replies["corrupt"]
            assert (header["status"], header["retryable"],
                    header["error_type"]) == ("error", False,
                                              "ChecksumError")
            assert took < 1.0
            for name, plain in (("first", text_20k), ("last", json_20k)):
                header, body, _ = replies[name]
                assert header["status"] == "ok" and body == plain
            with ServiceClient(port=server.port) as client:
                stats = client.stats()
            assert (stats["completed"], stats["failed"],
                    stats["state"]) == (3, 1, "running")
            assert service._dispatcher.is_alive()
            pool = service.pool.stats()
            assert set(pool.breaker_states) == {"CLOSED"}
            assert (pool.in_flight, pool.rescues) == (0, 0)
            assert service.pool.health.breakers[0].consecutive_failures == 0
        finally:
            server.shutdown()
            service.close()


class TestDedupOnTheWire:
    def test_resend_replays_cached_result(self, stack, text_20k):
        _, server = stack
        sock = _dial(server.port)
        header = {"op": "compress", "fmt": "gzip", "tenant": "acme",
                  "request_id": "req-42"}
        send_message(sock, header, text_20k)
        first, body_first = recv_message(sock)
        assert first["status"] == "ok"
        assert first["request_id"] == "req-42"
        assert "deduped" not in first
        # Same idempotency key again: replay, not re-execution.
        send_message(sock, header, text_20k)
        second, body_second = recv_message(sock)
        assert second["deduped"] is True
        assert body_second == body_first
        assert gzip.decompress(body_second) == text_20k
        sock.close()
        stats = server.dedup.stats()
        assert stats == {**stats, "hits": 1, "stores": 1,
                         "duplicate_stores": 0}

    def test_requests_without_id_never_dedup(self, stack, text_20k):
        service, server = stack
        sock = _dial(server.port)
        for _ in range(2):
            send_message(sock, {"op": "compress", "fmt": "gzip"},
                         text_20k)
            header, _ = recv_message(sock)
            assert header["status"] == "ok"
        sock.close()
        assert server.dedup.stats()["stores"] == 0
        assert service.stats().completed == 2

    def test_failed_execution_does_not_poison_the_key(self, stack):
        _, server = stack
        sock = _dial(server.port)
        header = {"op": "decompress", "fmt": "gzip",
                  "request_id": "req-bad"}
        send_message(sock, header, b"this is not gzip")
        first, _ = recv_message(sock)
        assert first["status"] == "error"
        # The key was aborted, not cached: a retry executes again
        # (and fails again) rather than replaying the error.
        send_message(sock, header, b"this is not gzip")
        second, _ = recv_message(sock)
        assert second["status"] == "error"
        assert "deduped" not in second
        sock.close()
        assert server.dedup.stats()["stores"] == 0


class TestNetCounters:
    def test_bad_frame_and_dedup_hit_are_counted_by_label(self, stack,
                                                          text_20k):
        """``repro_service_net_bad_frames_total`` by ``kind`` and
        ``repro_service_net_dedup_hits_total`` by ``op``, one each."""
        _, server = stack
        obs.reset()
        obs.enable(trace=False, metrics=True)
        try:
            sock = _dial(server.port)
            garbage = b"\x00\xffnot json at all"
            sock.sendall(_LEN.pack(len(garbage)) + garbage)
            assert recv_message(sock)[0]["kind"] == "bad_header"
            sock.close()
            sock = _dial(server.port)
            header = {"op": "compress", "fmt": "gzip", "request_id": "r-1"}
            for _ in range(2):
                send_message(sock, header, text_20k)
                reply, _body = recv_message(sock)
            assert reply["deduped"] is True
            sock.close()
            samples = {name: obs.registry().get(name).snapshot_values()
                       for name in ("repro_service_net_bad_frames_total",
                                    "repro_service_net_dedup_hits_total")}
        finally:
            obs.disable()
            obs.reset()
        assert samples == {
            "repro_service_net_bad_frames_total": [
                {"labels": {"kind": "bad_header"}, "value": 1}],
            "repro_service_net_dedup_hits_total": [
                {"labels": {"op": "compress"}, "value": 1}]}


class TestReconnectingClient:
    def test_first_response_killed_midframe_still_completes(self,
                                                            text_20k):
        """The acceptance scenario: kill attempt one's response."""
        service = CompressionService(chips=1, backend="software")
        # Exactly the first connection truncates its first response
        # mid-frame; every reconnect gets a clean socket.
        wrapper = fault_factory(
            [FaultPlan("truncate", at=1, magnitude=5.0)],
            seed=11, max_connections=1)
        server = serve(service, port=0, socket_wrapper=wrapper)
        try:
            with ServiceClient(port=server.port, reconnect=True) as client:
                out = client.request("compress", text_20k, fmt="gzip")
            assert gzip.decompress(out.output) == text_20k
            assert out.reconnects >= 1
            assert out.deduped is True  # replay, not re-execution
            assert service.stats().completed == 1
            stats = server.dedup.stats()
            assert stats["stores"] == 1
            assert stats["duplicate_stores"] == 0
        finally:
            server.shutdown()
            service.close()

    def test_duplicated_responses_are_filtered(self, stack, text_20k):
        service, server = stack
        # The client's view: every server response frame is doubled;
        # the request_id echo lets it drop the strays.
        wrapper = fault_factory(
            [FaultPlan("duplicate", probability=1.0)], seed=5)
        server.socket_wrapper = wrapper
        try:
            with ServiceClient(port=server.port) as client:
                for _ in range(3):
                    out = client.request("compress", text_20k, fmt="gzip")
                    assert gzip.decompress(out.output) == text_20k
            assert service.stats().completed == 3
        finally:
            server.socket_wrapper = None

    def test_reconnect_off_surfaces_the_failure(self, text_20k):
        service = CompressionService(chips=1, backend="software")
        wrapper = fault_factory(
            [FaultPlan("truncate", at=1)], seed=11,
            max_connections=1)
        server = serve(service, port=0, socket_wrapper=wrapper)
        try:
            with ServiceClient(port=server.port) as client, \
                    pytest.raises((ProtocolError, OSError)):
                client.request("compress", text_20k, fmt="gzip")
        finally:
            server.shutdown()
            service.close()

    def test_retry_budget_exhaustion_stops_the_hammering(self, text_20k):
        service = CompressionService(chips=1, backend="software")
        # Every connection resets on its first operation — the wire is
        # simply dead, and the budget decides when to stop dialling.
        wrapper = fault_factory([FaultPlan("reset", at=1)], seed=2)
        server = serve(service, port=0, socket_wrapper=wrapper)
        budget = RetryBudget(capacity=4.0, deposit=0.0, initial=2.0)
        try:
            with ServiceClient(port=server.port, reconnect=True,
                               max_reconnects=50,
                               retry_budget=budget) as client, \
                    pytest.raises(RetryBudgetExhausted):
                client.request("compress", text_20k, fmt="gzip")
            assert budget.denied >= 1
        finally:
            server.shutdown()
            service.close()

    def test_unreachable_is_a_one_line_typed_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ServiceUnreachable) as excinfo:
            ServiceClient(port=free_port)
        assert "unreachable" in str(excinfo.value)
        assert "\n" not in str(excinfo.value)
        assert excinfo.value.retryable


def _ok(sock, header: dict, payload: bytes) -> tuple[dict, bytes]:
    send_message(sock, header, payload)
    reply, body = recv_message(sock)
    assert reply["status"] == "ok", reply
    return reply, body


class TestAckTombstones:
    """The table's side of an ack: a tombstone keeps the key, frees the
    bytes, and an ack naming nothing stored changes nothing."""

    def test_ack_leaves_a_tombstone(self):
        cache = IdempotencyCache()
        _, key = cache.begin("t", "r1")
        cache.commit(key, {"status": "ok"}, b"x" * 80)
        assert cache.begin("t", "r2", ack="r1")[0] == "owner"
        stats = cache.stats()
        assert (stats["acks"], stats["bytes"], stats["entries"]) == (1, 0, 1)
        # A stale frame of r1: a hit with nothing to replay.
        assert cache.begin("t", "r1") == ("acked", None)
        assert cache.stats()["hits"] == 1
        # Acking it again changes nothing.
        cache.begin("t", "r3", ack="r1")
        assert cache.stats()["acks"] == 1

    def test_hostile_acks_change_nothing(self):
        cache = IdempotencyCache()
        _, key = cache.begin("t", "r1")
        cache.commit(key, {"status": "ok"}, b"body")
        state, busy = cache.begin("t", "busy")
        assert state == "owner"
        for tenant, request_id, ack in (("t", "a", "unknown"),
                                        ("u", "b", "r1"),   # other tenant
                                        ("t", "c", "busy")):  # executing
            assert cache.begin(tenant, request_id, ack=ack)[0] == "owner"
        # A resend naming itself is still a replay.
        assert cache.begin("t", "r1", ack="r1") == (
            "hit", ({"status": "ok"}, b"body"))
        cache.commit(busy, {"status": "ok"}, b"late")
        assert cache.begin("t", "busy")[0] == "hit"
        stats = cache.stats()
        assert (stats["acks"], stats["bytes"]) == (0, len(b"body" b"late"))

    def test_acking_clients_race_to_one_reply_each(self):
        """Eight threads, each a client acking its previous request on
        one tenant: every reply is stored once, and what is retained is
        exactly each client's last reply."""
        cache = IdempotencyCache(max_entries=4096)
        n, rounds = 8, 200
        barrier = threading.Barrier(n)

        def client(c: int) -> None:
            barrier.wait(10.0)
            ack = None
            for r in range(rounds):
                request_id = f"c{c}r{r}"
                state, key = cache.begin("t", request_id, ack)
                assert state == "owner"
                cache.commit(key, {"status": "ok"}, bytes(c + 1))
                ack = request_id

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert (stats["stores"], stats["duplicate_stores"]) == (n * rounds, 0)
        assert stats["acks"] == n * (rounds - 1)
        assert stats["bytes"] == sum(c + 1 for c in range(n))
        assert cache.begin("t", "c3r0") == ("acked", None)


class TestReplyAcks:
    """A client's next request acknowledges the reply it read, and the
    server keeps only a tombstone of an acknowledged reply."""

    def test_acked_replies_leave_one_reply_retained(self, stack):
        _, server = stack
        plain = (b"the quick brown fox jumps over the lazy dog " * 1600)[
            :65536]
        member = gzip.compress(plain, compresslevel=6, mtime=0)
        with ServiceClient(port=server.port) as client:
            for _ in range(300):
                assert client.decompress(member).output == plain
        stats = server.dedup.stats()
        assert stats["bytes"] <= len(plain)
        assert stats["acks"] == 299
        assert stats["entries"] == 256 and stats["evictions"] == 44

    def test_stale_frame_of_acked_request_gets_typed_error(self, stack,
                                                           text_20k):
        service, server = stack
        sock = _dial(server.port)
        first = {"op": "compress", "fmt": "gzip", "request_id": "a"}
        _ok(sock, first, text_20k)
        _ok(sock, {"op": "compress", "fmt": "gzip", "request_id": "b",
                   "ack": "a"}, text_20k)
        send_message(sock, first, text_20k)  # a stale copy of "a"
        reply, body = recv_message(sock)
        sock.close()
        assert (reply["status"], reply["error_type"], reply["retryable"],
                reply["request_id"], body) == (
            "error", "ServiceError", False, "a", b"")
        assert service.stats().completed == 2
        stats = server.dedup.stats()
        assert stats == {**stats, "hits": 1, "stores": 2, "acks": 1,
                         "duplicate_stores": 0}

    def test_client_side_stale_frames_run_nothing(self, stack, text_20k):
        """Every frame the client sends is preceded by the one two
        before it, which the frame between has acknowledged."""
        service, server = stack
        wrapper = fault_factory([FaultPlan("stale", probability=1.0)],
                                seed=3)
        with ServiceClient(port=server.port,
                           socket_wrapper=wrapper) as client:
            for _ in range(4):
                out = client.compress(text_20k, fmt="gzip")
                assert gzip.decompress(out.output) == text_20k
                assert not out.deduped
        assert service.stats().completed == 4
        stats = server.dedup.stats()
        assert stats == {**stats, "hits": 2, "stores": 4, "acks": 3,
                         "duplicate_stores": 0}

    def test_client_without_acks_still_replays(self, stack, text_20k):
        service, server = stack
        sock = _dial(server.port)
        first = {"op": "compress", "fmt": "gzip", "request_id": "a"}
        _, body = _ok(sock, first, text_20k)
        _ok(sock, {"op": "compress", "fmt": "gzip", "request_id": "b"},
            text_20k)
        reply, replayed = _ok(sock, first, text_20k)
        sock.close()
        assert reply["deduped"] is True and replayed == body
        assert service.stats().completed == 2
        assert server.dedup.stats()["acks"] == 0

    def test_hostile_ack_values_are_ignored(self, stack, text_20k):
        service, server = stack
        sock = _dial(server.port)
        owned = {"op": "compress", "fmt": "gzip", "tenant": "acme",
                 "request_id": "mine"}
        _ok(sock, owned, text_20k)
        acks = (["mine"], {"id": "mine"}, 7, None, "unknown",
                "mine")  # the last one from another tenant
        for i, ack in enumerate(acks):
            _ok(sock, {"op": "compress", "fmt": "gzip", "ack": ack,
                       "request_id": f"r{i}"}, text_20k)
        # The request's own id as its ack: still a replay.
        reply, _ = _ok(sock, {**owned, "ack": "mine"}, text_20k)
        assert reply["deduped"] is True
        sock.close()
        assert server.dedup.stats()["acks"] == 0
        assert service.stats().failed == 0
        assert service.pool.stats().breaker_opens == 0
        _assert_healthy(server)

    def test_ack_survives_a_reconnect(self, stack, text_20k):
        service, server = stack
        with ServiceClient(port=server.port) as client:
            first = client.compress(text_20k, fmt="gzip", tenant="acme")
            client.close()
            client.compress(text_20k, fmt="gzip", tenant="acme")
        assert server.dedup.stats()["acks"] == 1
        sock = _dial(server.port)
        send_message(sock, {"op": "compress", "fmt": "gzip",
                            "tenant": "acme",
                            "request_id": first.request_id}, text_20k)
        reply, _ = recv_message(sock)
        sock.close()
        assert reply["error_type"] == "ServiceError"
        assert service.stats().completed == 2


class TestDedupRace:
    def test_resend_while_executing_waits_not_reexecutes(self, stack,
                                                         text_20k):
        """Two connections, same request_id, racing: one execution."""
        service, server = stack
        results = []

        def call(delay_s: float) -> None:
            time.sleep(delay_s)
            sock = _dial(server.port)
            send_message(sock, {"op": "compress", "fmt": "gzip",
                                "request_id": "race-1"}, text_20k)
            header, body = recv_message(sock)
            results.append((header, body))
            sock.close()

        threads = [threading.Thread(target=call, args=(d,))
                   for d in (0.0, 0.01)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert len(results) == 2
        bodies = {body for _, body in results}
        assert len(bodies) == 1
        assert gzip.decompress(bodies.pop()) == text_20k
        assert service.stats().completed == 1
        assert server.dedup.stats()["duplicate_stores"] == 0


class TestNetworkCampaign:
    def test_seeded_scenario_survives(self):
        from repro.resilience.chaos import run_scenario

        result = run_scenario("net_combined", stack="tcp", seed=7, jobs=16,
                              clients=4)
        assert result.survived
        assert result.wrong == 0
        assert result.duplicate_stores == 0
        assert result.lost == 0
        assert result.executions == result.stores == result.served == 16

    def test_unknown_scenario_rejected(self):
        from repro.errors import ReproError
        from repro.resilience.chaos import run_campaign

        with pytest.raises(ReproError):
            run_campaign("tcp", "net_bogus")
