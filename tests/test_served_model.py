"""One state machine over the served tier: a software-backend
``CompressionService`` with a few-KB result cache, behind a small
``IdempotencyCache``, sent raw frames — keyed and unkeyed compresses,
acks (hostile ones too), resends, library pushes and retires, failing
requests, every malformed header field.  After each step the reply and
both caches' exact counters must be what one model of
``BoundedTenantLRU`` (:class:`ModelLRU`) predicts; the library key is in
its result key, so a blob served under another library is a hit it did
not predict.  The profiles are in ``tests/conftest.py``."""

from __future__ import annotations

import collections
import socket
import zlib

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from repro.dictsvc import DictionaryRegistry
from repro.errors import BY_WIRE_NAME, RETRYABLE
from repro.nx.dht import BUILTIN
from repro.service import CompressionService, IdempotencyCache, serve
from repro.service.protocol import FrameReader, send_message
from repro.workloads.generators import generate

from .test_dictsvc import _feed
from .test_message_floor import MALFORMED

TENANTS = ("", "acme", "zeta")
PAYLOADS = (b"",) + tuple(generate(kind, size, seed=size) for kind, size in (
    ("markov_text", 300), ("json_records", 900), ("markov_text", 1500),
    ("random_bytes", 4200)))  # the last one uncacheable
CACHE_BYTES = 8192
DEDUP = {"max_tenants": 2, "max_entries": 3, "max_bytes": 3000}
#: A plain compress, a decompress of garbage, or one malformed field
#: (among them a bogus fmt or strategy, refused, and an expired deadline).
SHAPES = ({},) * 8 + ({"op": "decompress"},) * 2 + tuple(MALFORMED)
#: The tenant's last reply read ok, another tenant's, or hostile values.
LAST, OTHERS = "<last read>", "<another tenant's last read>"
ACKS = (LAST, LAST, OTHERS, None, ["x"], {"id": "x"}, 7, "unknown")
RESULT_BOOKS = "requests hits misses executions uncacheable aborts".split()
TOMBSTONE = "<acked>"

#: What the runs of one test reached, summed over its examples.
REACHED: collections.Counter = collections.Counter()


class ModelLRU:
    """``(tenant, key) -> value`` under tenant, entry and byte bounds:
    one list of rows, least recently used first.  A tenant's recency is
    its newest row's; a put never evicts the row it stores."""

    def __init__(self, tenants, tenant_entries, tenant_bytes,
                 max_bytes=float("inf")) -> None:
        self.bounds = tenants, tenant_entries, tenant_bytes, max_bytes
        self.rows: list[list] = []  # [tenant, key, value, nbytes]
        self.evictions = 0

    def find(self, tenant, key):
        return next((r for r in self.rows if r[:2] == [tenant, key]), None)

    def get(self, tenant, key):
        row = self.find(tenant, key)
        if row is not None:  # now the most recently used
            self.rows.remove(row)
            self.rows.append(row)
            return row[2]

    def put(self, tenant, key, value, nbytes) -> None:
        tenants, tenant_entries, tenant_bytes, max_bytes = self.bounds
        assert self.find(tenant, key) is None, "stored twice"
        newest = {row[0]: i for i, row in enumerate(self.rows)}
        if tenant not in newest and len(newest) >= tenants:
            REACHED["tenant dropped"] += 1
            oldest = min(newest, key=newest.get)
            self._drop(*[row for row in self.rows if row[0] == oldest])
        self.rows.append([tenant, key, value, nbytes])
        mine = [row for row in self.rows if row[0] == tenant]
        while len(mine) > tenant_entries or (
                len(mine) > 1 and sum(row[3] for row in mine) > tenant_bytes):
            self._drop(mine.pop(0))
        while len(self.rows) > 1 and self.books()["bytes"] > max_bytes:
            self._drop(self.rows[0])

    def shrink(self, tenant, key) -> bool:
        row = self.find(tenant, key)
        if row is None or row[2] == TOMBSTONE:
            return False
        row[2:] = [TOMBSTONE, 0]
        return True

    def _drop(self, *rows) -> None:
        for row in rows:
            self.rows.remove(row)
        self.evictions += len(rows)
        REACHED["eviction"] += len(rows)

    def books(self) -> dict:
        return {"evictions": self.evictions, "entries": len(self.rows),
                "bytes": sum(row[3] for row in self.rows),
                "tenants": len({row[0] for row in self.rows})}


def _kept(name: str, value: object) -> bool:
    if name == "deadline_s":  # the server reads a finite number (no bool)
        return type(value) in (int, float) and -1e300 < value < 1e300
    return isinstance(value, str)  # and any other field as a string


class ServedTier(RuleBasedStateMachine):
    trained = DictionaryRegistry(seed=11)
    _feed(trained, "acme", seed=5)
    trained.train("acme")

    def __init__(self) -> None:
        super().__init__()
        self.service = CompressionService(
            backend="software", chips=1, cache_mb=CACHE_BYTES / (1 << 20))
        self.dedup = IdempotencyCache(**DEDUP)
        self.server = serve(self.service, port=0, request_timeout_s=10.0,
                            dedup=self.dedup)
        self.sock = socket.create_connection(
            ("127.0.0.1", self.server.port), timeout=10.0)
        self.reader = FrameReader(self.sock)
        self.results = ModelLRU(64, 4096, CACHE_BYTES, CACHE_BYTES)
        self.replies = ModelLRU(*DEDUP.values())
        self.books: collections.Counter = collections.Counter()
        self.library_key = BUILTIN.key
        #: Each keyed frame by (tenant, request_id), first sends in order.
        self.frames: dict[tuple, tuple[dict, bytes]] = {}
        self.acked = None  # (tenant, request_id) the latest ack named
        self.last_read: dict[str, str] = {}
        self.ever_stored: set[tuple] = set()
        self.issued: collections.Counter = collections.Counter()

    def teardown(self) -> None:
        self.sock.close()
        self.server.shutdown()
        self.server.server_close()
        self.service.close()

    @rule(tenant=st.sampled_from(TENANTS), keyed=st.booleans(),
          payload=st.sampled_from(range(len(PAYLOADS))),
          fmt=st.sampled_from(("gzip", "raw")), ack=st.sampled_from(ACKS),
          strategy=st.sampled_from(("auto", "fixed")),
          shape=st.sampled_from(SHAPES))
    def request(self, tenant, payload, fmt, strategy, shape, keyed, ack):
        header = {"op": "compress", "fmt": fmt, "strategy": strategy,
                  "tenant": tenant, **shape}
        if keyed:
            # Ids repeat across tenants, which must not share them.
            owner = header["tenant"] if _kept("", header["tenant"]) else ""
            header.setdefault("request_id", f"r{self.issued[owner]}")
            self.issued[owner] += 1
            if ack in (LAST, OTHERS):
                ack = next((read for who, read in self.last_read.items()
                            if (who == tenant) == (ack == LAST)), None)
            header["ack"] = ack
        self._step(header, b"this is not gzip" if header["op"]
                   == "decompress" else PAYLOADS[payload])

    @precondition(lambda self: self.frames)
    @rule(back=st.one_of(st.integers(0, 2), st.integers(min_value=0)),
          stale=st.booleans(), own_ack=st.booleans())
    def resend(self, back, stale, own_ack) -> None:
        """The keyed frame the latest ack named, or the one ``back`` from
        the latest: a replay, a stale frame, an evicted key or a failure."""
        frame = self.frames.get(self.acked) if stale else None
        header, payload = frame or list(self.frames.values())[
            -1 - back % len(self.frames)]
        if own_ack:
            header = {**header, "ack": header["request_id"]}
        self._step(header, payload)

    @rule(trained=st.booleans())
    def push(self, trained) -> None:
        """Push the trained library, or retire it: push no tables."""
        registry = self.trained if trained else DictionaryRegistry()
        self.library_key = registry.library().key if trained else BUILTIN.key
        registry.push(self.service)

    def _count(self, *books: str) -> None:
        self.books.update(books)
        REACHED.update(books)

    def _step(self, header: dict, payload: bytes) -> None:
        fields = {k: v for k, v in header.items() if _kept(k, v)}
        tenant, request_id = fields.get("tenant", ""), fields.get("request_id")
        stored = None
        if request_id is not None:
            self.frames.setdefault((tenant, request_id), (header, payload))
            ack = fields.get("ack")
            if ack not in (None, request_id):
                self.acked = tenant, ack
                if self.replies.shrink(tenant, ack):
                    self._count("acks")
            stored = self.replies.get(tenant, request_id)
        send_message(self.sock, header, payload)
        reply, body = self.reader.read()
        assert reply.get("request_id") == request_id
        if request_id is not None and reply["status"] == "ok":
            self.last_read[tenant] = request_id  # what a client acks next
        if stored is not None:
            self._count("dedup hits")
            if stored == TOMBSTONE:  # a stale frame of an acked reply
                return self._failed(reply, "refused", "ServiceError")
            REACHED["replay"] += 1
            assert (reply, body) == ({**stored[0], "deduped": True},
                                     stored[1])
            return
        if (tenant, request_id) in self.ever_stored:
            REACHED["rerun after eviction"] += 1
        if header["op"] == "decompress":
            self._failed(reply, "refused")
        else:
            self._compressed(fields, payload, tenant, reply, body)
        if request_id is not None and reply["status"] == "ok":
            self.replies.put(tenant, request_id, (reply, body), len(body))
            self._count("stores")
            self.ever_stored.add((tenant, request_id))

    def _compressed(self, fields, payload, tenant, reply, body) -> None:
        fmt = fields.get("fmt", "gzip")
        strategy = fields.get("strategy", "auto")
        key = (fmt, strategy, self.library_key, payload)
        self._count("requests")
        cached = self.results.get(tenant, key)
        if cached is not None:
            self._count("hits", "completed")
            assert reply["status"] == "ok" and body == cached
            return
        self._count("misses", "executions")
        if "bogus" in (fmt, strategy):
            self._count("aborts")
            return self._failed(reply, "refused", "ConfigError")
        if fields.get("deadline_s", 0) < 0:  # expired in the queue
            self._count("aborts")
            return self._failed(reply, "deadline", "DeadlineExceeded")
        assert (reply["status"], "deduped" in reply) == ("ok", False)
        assert zlib.decompress(body, 31 if fmt == "gzip" else -15) == payload
        self._count("completed")
        charge = len(body) + len(payload)
        if charge > CACHE_BYTES:
            self._count("uncacheable")
        else:
            self.results.put(tenant, key, body, charge)

    def _failed(self, reply: dict, failure: str, error_type=None) -> None:
        """An error reply naming a class of ``failure`` (errors.py)."""
        assert reply["status"] == "error" and "deduped" not in reply, reply
        assert BY_WIRE_NAME[reply["error_type"]].failure == failure
        assert reply["retryable"] is (failure in RETRYABLE)
        assert error_type in (None, reply["error_type"])
        if reply["error_type"] != "ServiceError":  # a tombstone runs nothing
            self._count("expired" if failure == "deadline" else "failed")
        REACHED[reply["error_type"]] += 1

    @invariant()
    def books_balance(self) -> None:
        books = self.books
        assert self.service.cache.stats() == {
            **{book: books[book] for book in RESULT_BOOKS},
            **self.results.books(), "waits": 0}
        assert self.dedup.stats() == {
            "hits": books["dedup hits"], "stores": books["stores"],
            "acks": books["acks"], **self.replies.books(), "waits": 0,
            "duplicate_stores": 0}
        stats = self.service.stats()
        endings = books["completed"], books["failed"], books["expired"]
        assert (stats.completed, stats.failed, stats.expired) == endings
        assert (stats.accepted, stats.rejected) == (sum(endings), 0)
        assert self.service.library.key == self.library_key
        assert self.service.pool.stats().breaker_opens == 0


def test_served_tier_keeps_its_contract() -> None:
    name = settings.get_current_profile_name()
    REACHED.clear()
    run_state_machine_as_test(ServedTier, settings=settings.get_profile(
        name if name.startswith("served-") else "served-model"))
    # A machine that never reaches a branch checks nothing there.
    assert set(REACHED) >= {
        "hits", "eviction", "uncacheable", "replay", "ServiceError",
        "rerun after eviction", "tenant dropped", "acks", "ConfigError",
        "DeadlineExceeded", "failed"}, REACHED
