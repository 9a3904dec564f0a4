"""Wire-fault injection, idempotency, and retry-budget units.

The network robustness tier in isolation: wire :class:`FaultPlan`
validation and the deterministic per-connection injector, each
:class:`FaultySocket` fault acted out over a real socketpair, the
:class:`IdempotencyCache` race protocol (hit / owner / wait / abort)
and its LRU bounds, and the :class:`RetryBudget` token arithmetic.
The end-to-end behaviour these compose into lives in
``test_service_robust.py``, ``test_served_model.py`` and the
``repro chaos --network`` campaign.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.errors import ConfigError
from repro.resilience import (FAULT_KINDS, FaultPlan, FaultySocket,
                              NetFaultInjector, fault_factory)
from repro.service import IdempotencyCache, RetryBudget


class TestNetFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan("gremlins", probability=0.5)
        with pytest.raises(ConfigError):
            FaultPlan("reset", probability=0.5, side="middle")
        with pytest.raises(ConfigError):
            NetFaultInjector([FaultPlan("engine_hang", probability=0.5)])

    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            FaultPlan("reset", probability=1.5)

    def test_unfireable_plan_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan("reset")

    def test_at_op_defaults_to_one_fire(self):
        assert FaultPlan("reset", at=3).fire_cap == 1
        assert FaultPlan("reset", at=3, max_fires=2).fire_cap == 2
        assert FaultPlan("reset", probability=0.5).fire_cap \
            == float("inf")

    def test_every_kind_constructs(self):
        for kind in FAULT_KINDS["wire"]:
            for side in (None, "client", "server"):
                plan = FaultPlan(kind, probability=0.1, side=side)
                assert plan.source == "wire"
            NetFaultInjector([FaultPlan(kind, probability=0.1)])


class TestNetFaultInjector:
    def test_same_seed_same_timeline(self):
        plans = [FaultPlan("reset", probability=0.3)]

        def timeline(seed, peer):
            injector = NetFaultInjector(plans, seed=seed, peer=peer)
            return [injector.on_op("send") is not None
                    for _ in range(50)]

        assert timeline(7, 0) == timeline(7, 0)
        assert timeline(7, 0) != timeline(7, 1) or \
            timeline(7, 0) != timeline(8, 0)

    def test_at_op_counts_per_direction(self):
        # truncate is send-only; interleaved recvs must not consume
        # the target op, so "the 2nd send" stays aimable.
        plans = [FaultPlan("truncate", at=2)]
        injector = NetFaultInjector(plans, seed=1)
        assert injector.on_op("send") is None
        for _ in range(5):
            assert injector.on_op("recv") is None
        fired = injector.on_op("send")
        assert fired is not None and fired.kind == "truncate"

    def test_send_only_kinds_skip_recv(self):
        plans = [FaultPlan("duplicate", probability=1.0)]
        injector = NetFaultInjector(plans, seed=1)
        assert injector.on_op("recv") is None
        assert injector.on_op("send").kind == "duplicate"

    def test_max_fires_caps(self):
        plans = [FaultPlan("latency", probability=1.0, max_fires=2)]
        injector = NetFaultInjector(plans, seed=1)
        fires = sum(injector.on_op("send") is not None for _ in range(10))
        assert fires == 2
        assert injector.fired == {"latency": 2}
        assert sum(injector.fired.values()) == 2


def _pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


def _drain(sock, nbytes):
    chunks = []
    remaining = nbytes
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class TestFaultySocket:
    def wrap(self, plans, seed=1):
        left, right = _pair()
        injector = NetFaultInjector(plans, seed=seed)
        return FaultySocket(left, injector), right

    def test_clean_passthrough(self):
        faulty, peer = self.wrap([FaultPlan("reset", at=99)])
        faulty.sendall(b"hello")
        assert peer.recv(16) == b"hello"
        peer.sendall(b"world")
        assert faulty.recv(16) == b"world"
        faulty.close()
        peer.close()

    def test_reset_on_send(self):
        faulty, peer = self.wrap([FaultPlan("reset", at=1)])
        with pytest.raises(ConnectionResetError):
            faulty.sendall(b"doomed")
        peer.close()

    def test_truncate_delivers_prefix_then_dies(self):
        faulty, peer = self.wrap([FaultPlan("truncate", at=1,
                                               magnitude=5.0)])
        frame = b"x" * 100
        with pytest.raises(ConnectionResetError):
            faulty.sendall(frame)
        got = _drain(peer, 100)
        assert 0 < len(got) < len(frame)
        assert frame.startswith(got)
        peer.close()

    def test_duplicate_sends_frame_twice(self):
        faulty, peer = self.wrap([FaultPlan("duplicate", at=1)])
        faulty.sendall(b"frame")
        assert _drain(peer, 10) == b"frameframe"
        faulty.close()
        peer.close()

    def test_stale_replays_older_frame(self):
        faulty, peer = self.wrap([FaultPlan("stale", at=3)])
        faulty.sendall(b"AAAA")
        faulty.sendall(b"BBBB")
        faulty.sendall(b"CCCC")  # fires: replays AAAA before CCCC
        assert _drain(peer, 16) == b"AAAABBBBAAAACCCC"
        faulty.close()
        peer.close()

    def test_slow_send_still_delivers_everything(self):
        faulty, peer = self.wrap([FaultPlan("slow_send", at=1,
                                               magnitude=4.0)])
        frame = bytes(range(256)) * 4
        done = threading.Event()
        got = []

        def reader():
            got.append(_drain(peer, len(frame)))
            done.set()

        thread = threading.Thread(target=reader)
        thread.start()
        faulty.sendall(frame)
        assert done.wait(5.0)
        thread.join()
        assert got[0] == frame
        faulty.close()
        peer.close()

    def test_latency_delays_but_delivers(self):
        faulty, peer = self.wrap([FaultPlan("latency", at=1,
                                               magnitude=1.0)])
        faulty.sendall(b"late")
        assert peer.recv(8) == b"late"
        faulty.close()
        peer.close()

    def test_passthrough_attributes_delegate(self):
        faulty, peer = self.wrap([FaultPlan("reset", at=99)])
        faulty.settimeout(1.25)
        assert faulty.gettimeout() == 1.25
        faulty.close()
        peer.close()


class TestFaultFactory:
    def test_fresh_injector_per_connection(self):
        factory = fault_factory([FaultPlan("reset", at=1)], seed=3)
        socks = [socket.socketpair() for _ in range(3)]
        wrapped = [factory(left) for left, _ in socks]
        assert len(factory.injectors) == 3
        assert [inj.peer for inj in factory.injectors] == [0, 1, 2]
        assert all(isinstance(w, FaultySocket) for w in wrapped)
        for left, right in socks:
            left.close()
            right.close()

    def test_max_connections_passes_rest_through(self):
        factory = fault_factory([FaultPlan("reset", at=1)],
                                seed=3, max_connections=1)
        (l1, r1), (l2, r2) = socket.socketpair(), socket.socketpair()
        assert isinstance(factory(l1), FaultySocket)
        assert factory(l2) is l2
        assert len(factory.injectors) == 1
        for sock in (l1, r1, l2, r2):
            sock.close()


class TestIdempotencyCache:
    def test_owner_then_hit(self):
        cache = IdempotencyCache()
        state, key = cache.begin("t", "r1")
        assert state == "owner"
        assert cache.commit(key, {"status": "ok"}, b"body")
        state, token = cache.begin("t", "r1")
        assert state == "hit"
        assert token == ({"status": "ok"}, b"body")
        assert cache.stats()["hits"] == 1
        assert cache.stats()["stores"] == 1

    def test_tenants_do_not_share_keys(self):
        cache = IdempotencyCache()
        _, key = cache.begin("alice", "r1")
        cache.commit(key, {"status": "ok"}, b"a")
        state, _ = cache.begin("bob", "r1")
        assert state == "owner"

    def test_concurrent_resend_waits_for_owner(self):
        cache = IdempotencyCache()
        state, key = cache.begin("t", "r1")
        assert state == "owner"
        state, claim = cache.begin("t", "r1")
        assert state == "wait"
        results = []

        def waiter():
            claim.event.wait(5.0)
            results.append(cache.begin("t", "r1"))

        thread = threading.Thread(target=waiter)
        thread.start()
        cache.commit(key, {"status": "ok"}, b"done")
        thread.join(5.0)
        assert results and results[0][0] == "hit"
        assert cache.stats()["waits"] == 1

    def test_abort_frees_the_key(self):
        cache = IdempotencyCache()
        _, key = cache.begin("t", "r1")
        cache.abort(key)
        state, _ = cache.begin("t", "r1")
        assert state == "owner"
        assert cache.stats()["stores"] == 0

    def test_double_commit_counts_duplicate_store(self):
        cache = IdempotencyCache()
        _, key = cache.begin("t", "r1")
        assert cache.commit(key, {"status": "ok"}, b"x")
        assert not cache.commit(key, {"status": "ok"}, b"x")
        assert cache.stats()["duplicate_stores"] == 1

    def test_entry_bound_evicts_lru(self):
        cache = IdempotencyCache(max_entries=2)
        for i in range(3):
            _, key = cache.begin("t", f"r{i}")
            cache.commit(key, {"status": "ok"}, b"x")
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        # r0 was evicted, r2 is still cached.
        assert cache.begin("t", "r0")[0] == "owner"
        assert cache.begin("t", "r2")[0] == "hit"

    def test_byte_bound_evicts_oldest(self):
        cache = IdempotencyCache(max_bytes=100)
        _, key = cache.begin("t", "big0")
        cache.commit(key, {"status": "ok"}, b"x" * 80)
        _, key = cache.begin("t", "big1")
        cache.commit(key, {"status": "ok"}, b"y" * 80)
        assert cache.begin("t", "big0")[0] == "owner"
        assert cache.begin("t", "big1")[0] == "hit"
        assert cache.stats()["bytes"] <= 100

    def test_tenant_bound_evicts_lru_tenant(self):
        cache = IdempotencyCache(max_tenants=2)
        for tenant in ("a", "b", "c"):
            _, key = cache.begin(tenant, "r")
            cache.commit(key, {"status": "ok"}, b"x")
        stats = cache.stats()
        assert stats["tenants"] == 2
        assert cache.begin("a", "r")[0] == "owner"
        assert cache.begin("c", "r")[0] == "hit"


class TestRetryBudget:
    def test_starts_full_and_spends_down(self):
        budget = RetryBudget(capacity=2.0, deposit=0.0)
        assert budget.try_withdraw()
        assert budget.try_withdraw()
        assert not budget.try_withdraw()
        assert budget.granted == 2
        assert budget.denied == 1

    def test_requests_earn_fractional_credit(self):
        budget = RetryBudget(capacity=10.0, deposit=0.5, initial=0.0)
        assert not budget.try_withdraw()
        for _ in range(2):
            budget.on_request()
        assert budget.tokens == 1.0
        assert budget.try_withdraw()
        assert budget.tokens == 0.0

    def test_deposit_caps_at_capacity(self):
        budget = RetryBudget(capacity=1.0, deposit=5.0)
        budget.on_request()
        assert budget.tokens == 1.0
