"""The fixed work of one message: framing, malformed fields, keyed caches.

Three layers a served request crosses whatever it asks for — the
per-connection :class:`~repro.service.protocol.FrameReader`, the
handler's field normalisation, and the LRU + claim table under both
:class:`~repro.service.idempotency.IdempotencyCache` and
:class:`~repro.dictsvc.cache.ResultCache` — each held to the contract
the cheaper implementation must still keep: the same frames refused
the same way, no header a client can send that stops the service (on
the software and the DFLTCC stack), the same counters, one leader per
key under a thread storm, and no ``threading.Event`` built for a
request nobody waits on.
"""

from __future__ import annotations

import gzip
import json
import random
import socket
import struct
import threading

import pytest

from repro.dictsvc import ResultCache
from repro.errors import ConfigError
from repro.resilience import FaultPlan, FaultySocket, NetFaultInjector
from repro.service import (CompressionService, IdempotencyCache,
                           ServiceClient, serve)
from repro.service.protocol import (MAX_HEADER_BYTES, MAX_PAYLOAD_BYTES,
                                    READ_AHEAD_BYTES, FrameReader,
                                    ProtocolError, recv_message,
                                    send_message)

_LEN = struct.Struct(">I")


def frame(header: dict, payload: bytes = b"") -> bytes:
    class Capture:
        def sendall(self, data: bytes) -> None:
            self.data = data

    capture = Capture()
    send_message(capture, header, payload)
    return capture.data


class ScriptedSock:
    """A peer that has sent ``data`` and then closed (or, with ``hangs``,
    then gone silent: a ``recv`` with nothing left to deliver is the
    reader waiting for bytes that will never come, and fails the test).

    ``chunk`` caps what one ``recv`` returns; ``recvs`` counts the calls.
    """

    def __init__(self, data: bytes, chunk: int | None = None,
                 hangs: bool = False) -> None:
        self.data = data
        self.pos = 0
        self.chunk = chunk
        self.hangs = hangs
        self.recvs = 0

    def recv(self, nbytes: int) -> bytes:
        self.recvs += 1
        if self.hangs and self.pos >= len(self.data):
            raise AssertionError("reader waits on a silent peer")
        take = nbytes if self.chunk is None else min(nbytes, self.chunk)
        out = self.data[self.pos:self.pos + take]
        self.pos += len(out)
        return out


def read_all(sock, one_shot: bool) -> list:
    """Every message up to the clean EOF; a refused frame ends the list
    as ``(kind, answerable)``."""
    read = ((lambda: recv_message(sock)) if one_shot
            else FrameReader(sock).read)
    out = []
    while True:
        try:
            message = read()
        except ProtocolError as exc:
            return out + [(exc.kind, exc.answerable)]
        if message is None:
            return out
        out.append(message)


HOSTILE = {
    "garbage_header": (_LEN.pack(17) + b"\x00\xffnot json at all",
                       "bad_header"),
    "non_object_header": (_LEN.pack(7) + b"[1,2,3]", "bad_header"),
    "not_utf8_header": (_LEN.pack(4) + b'{"\xff"', "bad_header"),
    "oversized_header": (_LEN.pack(MAX_HEADER_BYTES + 1),
                         "oversized_header"),
    "oversized_payload": (_LEN.pack(2) + b"{}"
                          + _LEN.pack(MAX_PAYLOAD_BYTES + 1),
                          "oversized_payload"),
}


class TestFrameReader:
    MESSAGES = [({"op": "ping", "n": 1}, b""),
                ({"op": "compress", "tenant": "té"}, bytes(range(256))),
                ({"n": 3}, b"x" * 5000)]

    def stream(self) -> bytes:
        return b"".join(frame(h, p) for h, p in self.MESSAGES)

    def test_messages_written_together_arrive_in_order(self):
        near, far = socket.socketpair()
        try:
            near.sendall(self.stream())
            reader = FrameReader(far)
            assert [reader.read() for _ in self.MESSAGES] == self.MESSAGES
            near.close()
            assert reader.read() is None
        finally:
            near.close()
            far.close()

    def test_a_dribbled_message_is_the_same_message(self):
        sock = ScriptedSock(self.stream(), chunk=1)
        assert read_all(sock, one_shot=False) == self.MESSAGES

    def test_one_recv_for_a_4k_message(self):
        data = frame({"op": "compress", "fmt": "gzip"}, bytes(4096))
        sock = ScriptedSock(data, hangs=True)
        assert FrameReader(sock).read()[1] == bytes(4096)
        assert sock.recvs == 1
        sock = ScriptedSock(data, hangs=True)
        assert recv_message(sock)[1] == bytes(4096)
        assert sock.recvs == 4  # length, header, length, payload

    def test_one_shot_reads_one_message_and_no_more(self):
        sock = ScriptedSock(self.stream())
        assert recv_message(sock) == self.MESSAGES[0]
        assert sock.pos == len(frame(*self.MESSAGES[0]))
        assert recv_message(sock) == self.MESSAGES[1]

    @pytest.mark.parametrize("one_shot", [False, True],
                             ids=["reader", "one-shot"])
    def test_eof_inside_a_message_is_truncated(self, one_shot):
        whole = frame({"op": "compress"}, b"payload")
        assert read_all(ScriptedSock(whole), one_shot) == [
            ({"op": "compress"}, b"payload")]
        for lead in (b"", whole):
            for cut in range(1, len(whole)):
                got = read_all(ScriptedSock(lead + whole[:cut]), one_shot)
                assert got[-1] == ("truncated", False), cut
                assert len(got) == (2 if lead else 1)

    @pytest.mark.parametrize("one_shot", [False, True],
                             ids=["reader", "one-shot"])
    @pytest.mark.parametrize("name", HOSTILE)
    def test_hostile_frame_refused_on_its_own_bytes(self, name, one_shot):
        data, kind = HOSTILE[name]
        for lead in (b"", frame({"op": "ping"})):
            sock = ScriptedSock(lead + data, hangs=True)
            got = read_all(sock, one_shot)
            assert got[-1] == (kind, True)

    def test_a_large_payload_is_gathered_across_recvs(self):
        payload = random.Random(5).randbytes(3 * READ_AHEAD_BYTES + 17)
        data = frame({"op": "compress"}, payload) + frame({"op": "ping"})
        sock = ScriptedSock(data, chunk=50_000)
        assert read_all(sock, one_shot=False) == [
            ({"op": "compress"}, payload), ({"op": "ping"}, b"")]

    def test_an_injected_reset_reaches_the_caller(self):
        near, far = socket.socketpair()
        try:
            near.sendall(self.stream())
            faulty = FaultySocket(far, NetFaultInjector(
                [FaultPlan("reset", at=2)], seed=1))
            reader = FrameReader(faulty)
            assert reader.read() == self.MESSAGES[0]
            assert reader.read() == self.MESSAGES[1]  # read ahead
            assert reader.read() == self.MESSAGES[2]
            with pytest.raises(ConnectionResetError):
                reader.read()  # the second recv on this socket
        finally:
            near.close()
            far.close()

    @pytest.mark.parametrize("seed", range(8))
    def test_reader_equals_one_shot_on_random_streams(self, seed):
        rng = random.Random(seed)
        stream = b""
        for _ in range(rng.randrange(1, 12)):
            header = {f"k{i}": rng.choice([rng.random(), "vü" * i, i,
                                           None, [i], {"n": i}])
                      for i in range(rng.randrange(4))}
            size = rng.choice([0, 1, 700, 4096, READ_AHEAD_BYTES - 8,
                               READ_AHEAD_BYTES + 1, 150_000])
            stream += frame(header, rng.randbytes(size))
        tail = rng.choice(["clean", "cut", *HOSTILE])
        if tail == "cut":
            stream = stream[:rng.randrange(max(1, len(stream) - 200),
                                           len(stream))]
        elif tail != "clean":
            stream += HOSTILE[tail][0]
        chunk = rng.choice([None, 1_000, 70_000])
        expected = read_all(ScriptedSock(stream), one_shot=True)
        assert read_all(ScriptedSock(stream, chunk), False) == expected
        if tail not in ("clean", "cut"):
            assert expected[-1] == (HOSTILE[tail][1], True)


@pytest.fixture(scope="module")
def cached_stack():
    """One served service with a result cache, for the whole module: the
    point of several tests is that *the same* server is still serving."""
    service = CompressionService(chips=1, backend="software", cache_mb=4)
    server = serve(service, port=0, request_timeout_s=10.0)
    yield service, server
    server.shutdown()
    service.close()


@pytest.fixture(scope="module")
def dfltcc_stack():
    """z15's DFLTCC runs on the dispatcher: an escaped error kills it."""
    service = CompressionService(chips=1, machine="z15", cache_mb=4)
    server = serve(service, port=0, request_timeout_s=10.0)
    yield service, server
    server.shutdown()
    service.close()


def _dial(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.settimeout(10.0)
    return sock


class TestPipelining:
    def test_live_server_answers_pipelined_requests_in_order(
            self, cached_stack, text_20k):
        _, server = cached_stack
        sock = _dial(server.port)
        try:
            wanted = [f"pipe-{i}" for i in range(6)]
            sock.sendall(b"".join(
                frame({"op": "compress", "fmt": "gzip", "request_id": rid},
                      text_20k[:2000 + i]) for i, rid in enumerate(wanted)))
            reader = FrameReader(sock)
            for i, rid in enumerate(wanted):
                header, body = reader.read()
                assert (header["status"], header["request_id"]) == ("ok", rid)
                assert gzip.decompress(body) == text_20k[:2000 + i]
        finally:
            sock.close()

    def test_reconnect_leaves_the_old_carry_over_behind(self):
        """The first connection delivers a reply *and* the start of a
        stale frame in one segment, then dies.  The resend's reply must
        be parsed from the new connection's first byte."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10.0)

        def fake_server() -> None:
            conn, _ = listener.accept()
            recv_message(conn)
            conn.sendall(frame({"status": "ok", "op": "ping"})
                         + frame({"status": "ok", "stale": True},
                                 b"old bytes")[:-3])
            conn.close()
            conn, _ = listener.accept()
            header, _ = recv_message(conn)
            send_message(conn, {"status": "ok", "op": "compress",
                                "request_id": header["request_id"]},
                         b"fresh")
            conn.close()

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        try:
            with ServiceClient(port=listener.getsockname()[1],
                               timeout_s=10.0, reconnect=True) as client:
                assert client.ping()
                first_reader = client._reader
                result = client.request("compress", b"payload")
                assert (result.output, result.reconnects) == (b"fresh", 1)
                assert client._reader is not first_reader
        finally:
            thread.join(10.0)
            listener.close()
        assert not thread.is_alive()


MALFORMED = [
    {"tenant": ["x"]}, {"tenant": 5},
    {"qos": ["x"]}, {"qos": 5},
    {"deadline_s": "soon"}, {"deadline_s": [1]}, {"deadline_s": True},
    {"deadline_s": "NaN"}, {"deadline_s": float("nan")},
    {"deadline_s": float("inf")}, {"deadline_s": 10 ** 400},
    {"deadline_s": -1},
    {"fmt": 5}, {"fmt": ["gzip"]}, {"fmt": "bogus"}, {"strategy": 5},
    {"strategy": ["gzip"]}, {"strategy": "bogus"},
    {"traceparent": 7}, {"request_id": 7},
]


class TestMalformedFields:
    """``protocol.py``: "malformed header fields are ignored, never
    fatal".  Before the handler normalised them, a string deadline
    killed the dispatcher (every later client: "service is stopped") and
    a list tenant killed the handler thread with the reply unsent."""

    @pytest.mark.parametrize("keyed", [False, True],
                             ids=["no-id", "with-id"])
    @pytest.mark.parametrize("fields", MALFORMED,
                             ids=lambda f: json.dumps(f)[:40])
    def test_answered_and_the_service_lives(self, cached_stack, fields,
                                            keyed, text_20k):
        service, server = cached_stack
        header = {"op": "compress", **fields}
        if keyed:
            header.setdefault("request_id", f"malformed-{id(fields)}")
        payload = text_20k[:3000]
        sock = _dial(server.port)
        try:
            sock.sendall(frame(header, payload))
            message = FrameReader(sock).read()
        finally:
            sock.close()
        assert message is not None, "connection closed unanswered"
        reply, body = message
        if reply["status"] == "ok":
            assert gzip.decompress(body) == payload
        else:
            assert reply["status"] == "error"
            assert reply["retryable"] is False and reply["error_type"]
        assert service._dispatcher.is_alive()
        with ServiceClient(port=server.port, timeout_s=10.0) as client:
            good = client.compress(text_20k[:1000], fmt="gzip")
            assert gzip.decompress(good.output) == text_20k[:1000]

    @pytest.mark.parametrize("keyed", [False, True],
                             ids=["no-id", "with-id"])
    @pytest.mark.parametrize("fields", MALFORMED,
                             ids=lambda f: json.dumps(f)[:40])
    def test_answered_on_dfltcc_and_the_service_lives(
            self, dfltcc_stack, fields, keyed, text_20k):
        self.test_answered_and_the_service_lives(dfltcc_stack, fields,
                                                 keyed, text_20k)

    @pytest.mark.parametrize("deadline", ["soon", [1], True])
    def test_submit_refuses_a_deadline_it_cannot_compare(self, cached_stack,
                                                         deadline):
        service, _ = cached_stack
        with pytest.raises(ConfigError, match="deadline_s"):
            service.submit("compress", b"payload", deadline_s=deadline)
        assert service._dispatcher.is_alive()
        assert service.compress(b"payload", deadline_s=5).output


@pytest.mark.parametrize("make", [IdempotencyCache, ResultCache],
                         ids=["idempotency", "result-cache"])
class TestKeyedCaches:
    @pytest.mark.parametrize("seed", [2, 23])
    def test_sequence_keeps_counters_and_bounds(self, make, seed):
        rng = random.Random(seed)
        keyed = make is IdempotencyCache  # its value is (header, reply)
        bound = "max_entries" if keyed else "tenant_max_entries"
        cache = make(**{bound: 5}, max_bytes=600, max_tenants=3)
        if keyed:
            def commit(tenant, key, blob):
                cache.commit((tenant, key), {"status": "ok"}, blob)

            def abort(tenant, key):
                cache.abort((tenant, key))
        else:
            commit, abort = cache.commit, cache.abort
        lead = "owner" if keyed else "leader"
        blobs = {f"k{i}": bytes([i]) * rng.randrange(1, 250)
                 for i in range(14)}
        led = hit = commits = 0
        for _ in range(1500):
            tenant, key = f"t{rng.randrange(5)}", f"k{rng.randrange(14)}"
            state, value = cache.begin(tenant, key)
            if state == "hit":
                hit += 1
                assert (value[1] if keyed else value) == blobs[key]
                continue
            assert state == lead
            led += 1
            if rng.random() < 0.2:
                # A failed leader never poisons its key.
                abort(tenant, key)
                assert cache.begin(tenant, key)[0] == lead
                led += 1
            commit(tenant, key, blobs[key])
            commits += 1
            stats = cache.stats()
            assert stats["entries"] == commits - stats["evictions"]
            assert stats["tenants"] <= 3
            assert stats["entries"] <= 5 * stats["tenants"]
            assert stats["bytes"] <= 600 * stats["tenants"]
        stats = cache.stats()
        assert stats["hits"] == hit and stats["waits"] == 0
        assert stats["evictions"] > 0
        if keyed:
            assert (stats["stores"], stats["duplicate_stores"]) == (commits,
                                                                    0)
        else:
            assert stats["hits"] + stats["misses"] == stats["requests"]
            assert stats["misses"] == stats["executions"] == led

    def test_one_leader_and_every_waiter_woken_once(self, make):
        cache = make()
        keyed = make is IdempotencyCache  # its value is (header, reply)
        n = 8
        barrier = threading.Barrier(n)
        lock = threading.Lock()
        leaders, claims, finals = [], [], []

        def worker() -> None:
            barrier.wait(10.0)
            state, value = cache.begin("t", "k")
            if state in ("owner", "leader"):
                with lock:
                    leaders.append(value)
                barrier.wait(10.0)  # every follower has joined the claim
                if keyed:
                    cache.commit(value, {"status": "ok"}, b"blob")
                else:
                    cache.commit("t", "k", b"blob")
                return
            assert state == "wait"
            with lock:
                claims.append(value)
            barrier.wait(10.0)
            woken = value.event.wait(10.0)
            with lock:
                finals.append((woken, cache.begin("t", "k")))

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(leaders) == 1 and len(claims) == n - 1
        # One claim, one Event — built by the first waiter, set once.
        assert len({id(claim) for claim in claims}) == 1
        assert len({id(claim.event) for claim in claims}) == 1
        assert [(woken, state) for woken, (state, _) in finals] \
            == [(True, "hit")] * (n - 1)
        assert {value[1] if keyed else value
                for _, (_, value) in finals} == {b"blob"}
        stats = cache.stats()
        assert (stats["waits"], stats["hits"]) == (n - 1, n - 1)


class TestNoEventNobodyWaitsOn:
    def test_a_served_hit_builds_none_and_a_miss_its_tickets(
            self, cached_stack, text_20k, monkeypatch):
        service, server = cached_stack
        built = []
        real_event = threading.Event

        def counting_event():
            event = real_event()
            built.append(event)
            return event

        payload = text_20k[:4096]
        with ServiceClient(port=server.port, timeout_s=10.0) as client:
            client.compress(payload, fmt="gzip")  # connected, cache warm
            hits = service.stats().cache["hits"]
            monkeypatch.setattr(threading, "Event", counting_event)
            for _ in range(3):
                assert gzip.decompress(
                    client.compress(payload, fmt="gzip").output) == payload
            assert service.stats().cache["hits"] == hits + 3
            assert built == []
            fresh = b"never seen before " + payload
            assert gzip.decompress(
                client.compress(fresh, fmt="gzip").output) == fresh
            assert len(built) == 1
