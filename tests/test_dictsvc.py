"""Property and concurrency suite for the dictionary service.

The result cache makes three exact promises — singleflight
(``executions == unique keys``), partition (``hits + misses ==
requests``), and bounded LRU residency — and the registry promises
deterministic training plus versioned push/retire.  This suite proves
them the hard way: seeded thread storms racing one key, a randomized
op sequence checked against the served-tier model
(``tests/test_served_model.py``), leader-failure injection, and a
storm through the full ``CompressionService`` with the cache mounted.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import signal
import threading
import time
import zlib

import pytest

from repro.backend.pool import AcceleratorPool
from repro.dictsvc import DictionaryRegistry, ResultCache, result_key
from repro.dictsvc.cache import _Claim
from repro.errors import ConfigError, DeadlineExceeded
from repro.nx.compressor import NxCompressor
from repro.nx.dht import BUILTIN, CannedLibrary, DhtStrategy, canned_dht
from repro.nx.params import POWER9, Z15
from repro.service import CompressionService
from repro.workloads.generators import generate

from .test_dht import fresh_header_bits
from .test_service import gate_submits

DATA = pathlib.Path(__file__).parent / "data"


def _trained_library():
    """One table trained on 4 KB slices of a json_records payload."""
    data = generate("json_records", 65536, seed=5)
    registry = DictionaryRegistry(seed=11)
    for offset in range(0, len(data), 4096):
        registry.observe("t", data[offset:offset + 4096])
    registry.train("t")
    return registry.library()


# -- result_key ---------------------------------------------------------------


class TestResultKey:
    def test_distinct_per_parameter(self) -> None:
        base = result_key(b"payload")
        assert result_key(b"payload2") != base
        assert result_key(b"payload", op="decompress") != base
        assert result_key(b"payload", fmt="gzip") != base
        assert result_key(b"payload", strategy="canned") != base
        assert result_key(b"payload", epoch=1) != base

    def test_deterministic(self) -> None:
        assert result_key(b"x", epoch=3) == result_key(b"x", epoch=3)

    def test_no_field_payload_confusion(self) -> None:
        # The separator keeps (params, payload) framing unambiguous.
        assert result_key(b"|x", fmt="raw") != result_key(b"x", fmt="raw|")

    def test_a_buffer_is_frozen_to_bytes(self) -> None:
        buffer = bytearray(b"payload")
        key = result_key(memoryview(buffer))
        buffer[0] = ord("P")
        assert key == result_key(b"payload") != result_key(buffer)
        assert type(key[-1]) is bytes

    def test_builtin_library_key_is_the_digest_of_no_tables(self) -> None:
        # A constant, so a server with no pushed tables never loads
        # hashlib; it must still be the digest a computed key would be.
        assert CannedLibrary().key == BUILTIN.key \
            == hashlib.sha256(b"()").hexdigest()
        assert _trained_library().key != BUILTIN.key


# -- singleflight storms ------------------------------------------------------


class TestSingleflight:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_storm_one_execution_per_key(self, seed: int) -> None:
        """N threads x M requests over K keys: executions == K exactly."""
        payloads = {f"key-{i}": generate("json_records", 2048, seed=i)
                    for i in range(6)}
        keys = sorted(payloads)
        cache = ResultCache()
        executions: list[str] = []
        exec_lock = threading.Lock()
        wrong: list[str] = []
        barrier = threading.Barrier(12)

        def compute(name: str) -> bytes:
            with exec_lock:
                executions.append(name)
            return zlib.compress(payloads[name])

        def worker(widx: int) -> None:
            wrng = random.Random(f"{seed}:{widx}")
            barrier.wait()
            for _ in range(25):
                name = keys[wrng.randrange(len(keys))]
                blob = cache.get_or_compute(
                    "tenant", name, lambda n=name: compute(n))
                if zlib.decompress(blob) != payloads[name]:
                    wrong.append(name)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not wrong, "a request observed another key's bytes"
        stats = cache.stats()
        # Exactly one execution per unique key, ever.
        assert sorted(executions) == keys
        assert stats["executions"] == len(keys)
        assert stats["misses"] == len(keys)
        assert stats["hits"] + stats["misses"] == stats["requests"]
        assert stats["requests"] == 12 * 25

    def test_failed_leader_releases_key(self) -> None:
        """A raising compute frees the claim; the key stays usable."""
        cache = ResultCache()

        with pytest.raises(RuntimeError):
            cache.get_or_compute(
                "t", "k", lambda: (_ for _ in ()).throw(RuntimeError()))
        assert cache.stats()["aborts"] == 1
        assert cache.get_or_compute("t", "k", lambda: b"ok") == b"ok"
        stats = cache.stats()
        # Both attempts were misses; at most one *successful* execution.
        assert stats["executions"] == 2
        assert stats["hits"] + stats["misses"] == stats["requests"]

    def test_follower_reclaims_after_leader_failure(self) -> None:
        """Parked followers wake on failure and one re-executes."""
        cache = ResultCache()
        leader_in = threading.Event()
        release_leader = threading.Event()
        results: list[bytes] = []

        def leader() -> None:
            def compute() -> bytes:
                leader_in.set()
                release_leader.wait(5)
                raise RuntimeError("leader dies")
            try:
                cache.get_or_compute("t", "k", compute)
            except RuntimeError:
                pass

        def follower() -> None:
            leader_in.wait(5)
            results.append(cache.get_or_compute("t", "k", lambda: b"F"))

        lt = threading.Thread(target=leader)
        ft = threading.Thread(target=follower)
        lt.start()
        ft.start()
        leader_in.wait(5)
        release_leader.set()
        lt.join(5)
        ft.join(5)
        assert results == [b"F"]

    def test_wait_state_exposes_claim(self) -> None:
        cache = ResultCache()
        state, claim = cache.begin("t", "k")
        assert state == "leader" and isinstance(claim, _Claim)
        state, follower_claim = cache.begin("t", "k")
        assert state == "wait" and follower_claim is claim
        cache.commit("t", "k", b"blob")
        assert claim.event.is_set()
        state, blob = cache.begin("t", "k")
        assert state == "hit" and blob == b"blob"


# -- LRU bounds vs the served-tier model --------------------------------------


class TestLruBounds:
    @pytest.mark.parametrize("seed", [3, 17, 99])
    def test_random_ops_match_reference(self, seed: int) -> None:
        """Seeded op sequence: cache == model in hits, count, bytes."""
        from .test_served_model import ModelLRU  # it imports this module

        rng = random.Random(seed)
        cache = ResultCache(tenant_max_entries=8, max_bytes=4096)
        model = ModelLRU(1, 8, 4096, 4096)
        blobs = {f"k{i}": bytes(rng.randrange(1, 1200))
                 for i in range(24)}

        for _ in range(500):
            key = f"k{rng.randrange(24)}"
            state, value = cache.begin("t", key)
            cached = model.get("t", key)
            if state == "hit":
                assert cached is not None, f"{key}: cache hit, model miss"
                assert value == cached == blobs[key]
            else:
                assert state == "leader"
                assert cached is None, f"{key}: cache miss, model hit"
                cache.commit("t", key, blobs[key])
                model.put("t", key, blobs[key], len(blobs[key]))

            # Residency invariants hold after every single operation.
            stats = cache.stats()
            assert {book: stats[book] for book in model.books()} \
                == model.books()
            assert stats["bytes"] <= 4096 and stats["entries"] <= 8

        assert stats["hits"] + stats["misses"] == stats["requests"]

    def test_byte_bound_evicts_oldest(self) -> None:
        cache = ResultCache(max_bytes=1000)
        for i in range(4):
            _state, _ = cache.begin("t", f"k{i}")
            cache.commit("t", f"k{i}", bytes(400))
        # 4 x 400 > 1000: the two oldest must be gone.
        assert cache.stats()["entries"] == 2
        assert [cache.begin("t", f"k{i}")[0] for i in range(4)] \
            == ["leader", "leader", "hit", "hit"]
        cache.abort("t", "k0")
        cache.abort("t", "k1")

    def test_oversized_blob_is_uncacheable(self) -> None:
        cache = ResultCache(max_bytes=100)
        state, _ = cache.begin("t", "big")
        assert state == "leader"
        cache.commit("t", "big", bytes(101))
        stats = cache.stats()
        assert (stats["entries"], stats["uncacheable"]) == (0, 1)
        # The claim was still released: next begin leads again.
        state, _ = cache.begin("t", "big")
        assert state == "leader"
        cache.abort("t", "big")

    def test_key_payload_is_charged_to_the_byte_bound(self) -> None:
        cache = ResultCache(max_bytes=100)
        key = result_key(bytes(60))
        assert cache.begin("t", key)[0] == "leader"
        cache.commit("t", key, bytes(41))
        assert cache.stats()["uncacheable"] == 1
        assert cache.begin("t", key)[0] == "leader"
        cache.commit("t", key, bytes(40))
        stats = cache.stats()
        assert (stats["uncacheable"], stats["bytes"]) == (1, 100)

    def test_payloads_one_byte_apart_are_two_entries(self) -> None:
        cache = ResultCache()
        payload = bytearray(generate("markov_text", 4096, seed=2))
        keys = []
        for blob in (b"first", b"second"):
            keys.append(result_key(payload))
            cache.get_or_compute("t", keys[-1], lambda blob=blob: blob)
            payload[-1] ^= 1
        assert cache.stats()["entries"] == 2
        assert [cache.begin("t", key) for key in keys] \
            == [("hit", b"first"), ("hit", b"second")]

    def test_tenant_quota_shields_other_tenants(self) -> None:
        cache = ResultCache(tenant_max_entries=2)
        for tenant in ("a", "b"):
            for i in range(5):
                cache.begin(tenant, f"k{i}")
                cache.commit(tenant, f"k{i}", b"x" * 10)
        # Each tenant holds exactly its quota; neither washed out.
        for tenant in ("a", "b"):
            assert [cache.begin(tenant, f"k{i}")[0] for i in (3, 4, 2)] \
                == ["hit", "hit", "leader"]
            cache.abort(tenant, "k2")

    def test_tenant_cap_drops_lru_tenant(self) -> None:
        cache = ResultCache(max_tenants=2)
        for tenant in ("a", "b", "c"):
            cache.begin(tenant, "k")
            cache.commit(tenant, "k", b"x")
        assert [cache.begin(tenant, "k")[0] for tenant in "bca"] \
            == ["hit", "hit", "leader"]


# -- registry: determinism, versioning, bundles -------------------------------


class Holder:
    """What :meth:`DictionaryRegistry.push` needs of a service."""

    library = BUILTIN


def _feed(registry: DictionaryRegistry, tenant: str, seed: int) -> None:
    data = generate("json_records", 65536, seed=seed)
    for offset in range(0, len(data), 4096):
        registry.observe(tenant, data[offset:offset + 4096])


class TestRegistry:
    def test_training_deterministic(self) -> None:
        dicts = []
        for _run in range(2):
            registry = DictionaryRegistry(seed=11)
            _feed(registry, "tenant-a", seed=5)
            dicts.append(registry.train("tenant-a"))
        first, second = dicts
        assert [d.name for d in first] == [d.name for d in second]
        for a, b in zip(first, second):
            assert a.litlen_lengths == b.litlen_lengths
            assert a.dist_lengths == b.dist_lengths

    def test_observe_order_between_tenants_irrelevant(self) -> None:
        r1 = DictionaryRegistry(seed=11)
        _feed(r1, "a", seed=5)
        _feed(r1, "b", seed=6)
        r2 = DictionaryRegistry(seed=11)
        _feed(r2, "b", seed=6)
        _feed(r2, "a", seed=5)
        assert [(d.name, d.litlen_lengths, d.dist_lengths, d.centroid)
                for d in r1.train("a")] \
            == [(d.name, d.litlen_lengths, d.dist_lengths, d.centroid)
                for d in r2.train("a")]

    def test_epoch_bump_and_push_retire(self) -> None:
        registry = DictionaryRegistry(seed=1)
        _feed(registry, "t", seed=9)
        first = registry.train("t")
        assert {d.epoch for d in first} == {1}
        service = Holder()
        v1_names = set(registry.push(service))
        v1 = service.library
        assert {d.name for d in first} == v1_names
        assert all(name.endswith(".v1") for name in v1_names)

        second = registry.train("t")
        assert {d.epoch for d in second} == {2}
        v2_names = set(registry.push(service))
        assert {d.name for d in second} == v2_names
        assert not (v1_names & v2_names), "old epoch names must retire"
        for name in v1_names:
            v1.dht(name)
            with pytest.raises(ConfigError):
                service.library.dht(name)
        assert service.library.key != v1.key

    def test_pushed_tables_visible_to_engine(self) -> None:
        registry = DictionaryRegistry(seed=1)
        _feed(registry, "t", seed=9)
        trained = registry.train("t")
        service = Holder()
        registry.push(service)
        library = service.library
        for dictionary in trained:
            dht = library.dht(dictionary.name)
            assert tuple(dht.litlen_lengths) == dictionary.litlen_lengths
        # Built-in tables unchanged and still first-class.
        for name in ("text", "flat"):
            assert library.dht(name) is canned_dht(name) is BUILTIN.dht(name)
        # ... and a job carrying the library compresses with it.
        payload = generate("json_records", 4096, seed=9)
        result = NxCompressor(POWER9.engine).compress(
            payload, strategy=DhtStrategy.CANNED, library=library)
        assert result.dht_sources[0] in {d.name for d in trained}

    def test_push_leaves_no_stale_header_cost(self) -> None:
        registry = DictionaryRegistry(seed=1)
        _feed(registry, "t", seed=9)
        for _epoch in range(2):
            registry.train("t")
            service = Holder()
            for name in registry.push(service):
                dht = service.library.dht(name)
                assert dht.header_bits == fresh_header_bits(dht)
            _feed(registry, "t", seed=10)  # next epoch trains differently

    def test_bundle_roundtrip(self, tmp_path) -> None:
        registry = DictionaryRegistry(seed=2)
        _feed(registry, "t", seed=9)
        registry.train("t")
        bundle = tmp_path / "dicts.json"
        registry.save_bundle(bundle)
        loaded = DictionaryRegistry(seed=2)
        loaded.load_bundle(bundle)
        assert [(d.name, d.litlen_lengths, d.dist_lengths)
                for d in loaded.trained()] \
            == [(d.name, d.litlen_lengths, d.dist_lengths)
                for d in registry.trained()]

    def test_bundle_with_priming_still_loads(self) -> None:
        """A bundle from before priming dictionaries were dropped (each
        row still carries ``priming_b64``) loads, and holds what the same
        training gives now."""
        loaded = DictionaryRegistry().load_bundle(
            str(DATA / "bundle_with_priming.json"))
        registry = DictionaryRegistry(seed=3, sample_bytes=256,
                                      max_clusters=2)
        for family in ("json_records", "markov_text"):
            data = generate(family, 1024, seed=5)
            for offset in range(0, len(data), 256):
                registry.observe("mixed", data[offset:offset + 256])
        registry.train("mixed")
        trained = registry.train("mixed")
        assert [(d.name, d.epoch, d.litlen_lengths, d.dist_lengths)
                for d in loaded] \
            == [(d.name, d.epoch, d.litlen_lengths, d.dist_lengths)
                for d in trained] != []

    def test_bad_bundle_is_a_typed_error(self, tmp_path) -> None:
        # A missing or garbage bundle file must surface as ConfigError
        # (one-line `error: ...` at the CLI), never a raw traceback.
        registry = DictionaryRegistry()
        with pytest.raises(ConfigError):
            registry.load_bundle(str(tmp_path / "missing.json"))
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json {")
        with pytest.raises(ConfigError):
            registry.load_bundle(str(garbage))
        wrong = tmp_path / "wrong.json"
        wrong.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            registry.load_bundle(str(wrong))

    def test_serve_dicts_pushes_the_bundle(self, tmp_path, capsys,
                                           monkeypatch) -> None:
        """``repro serve --dicts`` gives the server's service the bundle's
        library, and the process no tables of its own."""
        from repro import cli, service as service_pkg

        registry = DictionaryRegistry(seed=1)
        _feed(registry, "t", seed=9)
        names = {d.name for d in registry.train("t")}
        bundle = tmp_path / "dicts.json"
        registry.save_bundle(bundle)
        served = []
        real_serve = service_pkg.serve

        def serve(service, **kwargs):
            served.append(service)
            return real_serve(service, **kwargs)

        monkeypatch.setattr(service_pkg, "serve", serve)
        sigterm = signal.getsignal(signal.SIGTERM)
        try:
            assert cli.main(["serve", "--dicts", str(bundle), "--port", "0",
                             "--duration-s", "0.2"]) == 0
        finally:
            signal.signal(signal.SIGTERM, sigterm)
        assert (f"dictionaries: pushed {len(names)} trained canned tables "
                f"from {bundle}") in capsys.readouterr().out
        [service] = served
        assert service.library.key == registry.library().key != BUILTIN.key
        for name in names:
            service.library.dht(name)


# -- the cache mounted in the service -----------------------------------------


class TestServiceIntegration:
    def test_storm_exact_reconciliation(self) -> None:
        """32 racing submits over 4 payloads: 4 executions, 28 hits."""
        payloads = [generate("json_records", 4096, seed=s)
                    for s in range(4)]
        with CompressionService(machine="POWER9", chips=1,
                                cache_mb=8) as svc:
            barrier = threading.Barrier(8)
            outputs: dict[int, list[bytes]] = {i: [] for i in range(4)}
            out_lock = threading.Lock()

            def client(widx: int) -> None:
                barrier.wait()
                for i in range(4):
                    ticket = svc.submit("compress", payloads[i],
                                        fmt="gzip", tenant="acme")
                    result = ticket.wait(timeout_s=30)
                    with out_lock:
                        outputs[i].append(result.output)

            threads = [threading.Thread(target=client, args=(w,))
                       for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            stats = svc.stats()
            cache = stats.cache
            assert cache is not None
            assert cache["executions"] == 4
            assert cache["hits"] + cache["misses"] == cache["requests"]
            assert cache["requests"] == 32
            assert stats.completed == 32

        for i, blobs in outputs.items():
            assert len(blobs) == 8
            assert len(set(blobs)) == 1, "cache served divergent bytes"
            import gzip
            assert gzip.decompress(blobs[0]) == payloads[i]

    def test_push_rekeys_cached_results(self) -> None:
        """A result cached before a push is not served after it: the
        request runs again, under the pushed table."""
        payload = generate("json_records", 4096, seed=21)
        with CompressionService(machine="POWER9", chips=1,
                                cache_mb=4) as svc:
            def compress() -> bytes:
                return svc.submit("compress", payload, strategy="canned",
                                  tenant="acme").wait(10).output

            before = compress()
            assert compress() == before
            assert svc.stats().cache["executions"] == 1

            registry = DictionaryRegistry(seed=1)
            registry.observe("acme", payload)
            registry.train("acme")
            pushed = registry.push(svc)
            assert svc.library.select(payload, len(payload)) in pushed

            after = compress()
            cache = svc.stats().cache
            assert cache["executions"] == 2
            assert (cache["hits"], cache["misses"]) == (1, 2)
        with CompressionService(machine="POWER9", chips=1) as uncached:
            fresh = uncached.submit("compress", payload, strategy="canned",
                                    tenant="acme").wait(10).output
            assert fresh == before
            registry.push(uncached)
            fresh = uncached.submit("compress", payload, strategy="canned",
                                    tenant="acme").wait(10).output
        assert after == fresh != before

    def test_exec_worker_compresses_with_the_pushed_library(self) -> None:
        """With a table pushed, a z15 service's canned bytes are the same
        in process and on an exec worker, and both are the engine's
        output under that library: the table travels with the job, not
        with the process."""
        from repro.exec.pool import shutdown_default_pool

        data = generate("json_records", 65536, seed=5)
        registry = DictionaryRegistry(seed=11)
        for offset in range(0, len(data), 4096):
            registry.observe("t", data[offset:offset + 4096])
        registry.train("t")
        library = registry.library()
        payloads = [data[:4096], data]
        outputs = {}
        try:
            for exec_workers in (None, 1):
                with CompressionService(machine="z15", backend="dfltcc",
                                        exec_workers=exec_workers) as svc:
                    registry.push(svc)
                    jobs = [svc.submit("compress", p, strategy="canned",
                                       fmt="raw").wait(120)
                            for p in payloads]
                assert all(job.on_exec == bool(exec_workers)
                           for job in jobs)
                outputs[exec_workers] = [job.output for job in jobs]
        finally:
            shutdown_default_pool()
        engine = NxCompressor(Z15.engine)
        expected = [engine.compress(p, strategy=DhtStrategy.CANNED,
                                    library=library).data
                    for p in payloads]
        assert outputs[None] == outputs[1] == expected
        builtin = engine.compress(payloads[0], strategy=DhtStrategy.CANNED)
        assert len(expected[0]) < len(builtin.data)

    def test_exec_task_names_the_library_by_key(self, monkeypatch) -> None:
        """A worker is sent the library's content once, before its first
        task naming it; every task carries only the key, so it is at
        most 100 B larger than a built-in one."""
        from repro.exec import pool as exec_pool

        library = _trained_library()
        writes = []
        write_frame = exec_pool.write_frame
        monkeypatch.setattr(exec_pool, "write_frame", lambda fd, data: (
            writes.append(len(data)), write_frame(fd, data)))
        kwargs = dict(backend="dfltcc", machine="z15", backend_kwargs={},
                      kind="compress", fmt="raw", data=bytes(4096),
                      strategy="canned")
        with exec_pool.ProcessWorkerPool(1) as pool:
            jobs = [pool.submit("backend_job", library=lib, **kwargs)
                    for lib in (None, library, library)]
            pool.wait(jobs, timeout_s=120)
        assert all(job.error is None for job in jobs)
        builtin, first, later = (len(job.task) for job in jobs)
        assert later == first <= builtin + 100
        assert writes == [builtin, writes[1], later]
        assert writes[1] > first + 500  # the content rode once, here

    def test_respawned_worker_is_sent_the_library_again(self) -> None:
        """A killed worker's replacement holds no library: its first task
        naming one brings the content, and the output is the engine's
        under the pushed tables."""
        from repro.exec.pool import ProcessWorkerPool

        library = _trained_library()
        payload = generate("json_records", 65536, seed=5)[:4096]
        expected = NxCompressor(Z15.engine).compress(
            payload, strategy=DhtStrategy.CANNED, library=library).data
        kwargs = dict(backend="dfltcc", machine="z15", backend_kwargs={},
                      kind="compress", fmt="raw", data=payload,
                      strategy="canned", library=library)
        with ProcessWorkerPool(1) as pool:
            before = pool.run_batch([("backend_job", kwargs)], timeout_s=120)
            (worker,) = pool._workers.values()
            worker.proc.kill()
            worker.proc.wait()
            pool.poll()  # reaps the death, spawns the replacement
            assert pool.worker_restarts == 1
            after = pool.run_batch([("backend_job", kwargs)], timeout_s=120)
        assert before[0].output == after[0].output == expected

    def test_same_bundle_same_key(self, tmp_path) -> None:
        """Two services given one bundle file the same request under one
        key: the key names the library's content, not a process's
        history of pushes."""
        registry = DictionaryRegistry(seed=1)
        _feed(registry, "t", seed=9)
        registry.train("t")
        bundle = tmp_path / "dicts.json"
        registry.save_bundle(bundle)
        payload = generate("json_records", 4096, seed=9)
        keys = []
        for pushes in (1, 3):
            with CompressionService(machine="POWER9", chips=1,
                                    cache_mb=1) as svc:
                for _ in range(pushes):
                    loaded = DictionaryRegistry()
                    loaded.load_bundle(str(bundle))
                    loaded.push(svc)
                svc.submit("compress", payload, tenant="t").wait(10)
                keys.append(svc.library.key)
                assert svc.cache.begin("t", result_key(
                    payload, fmt="gzip", epoch=keys[-1]))[0] == "hit"
        assert keys[0] == keys[1] != BUILTIN.key

    def test_job_keeps_the_library_it_was_admitted_with(self) -> None:
        """A job admitted before a push is compressed, and cached, under
        the library it was admitted with; the next one under the new."""
        payload = generate("json_records", 4096, seed=21)
        registry = DictionaryRegistry(seed=1)
        registry.observe("acme", payload)
        registry.train("acme")
        library = registry.library()
        engine = NxCompressor(POWER9.engine)

        def expected(library) -> bytes:
            return engine.compress(payload, strategy=DhtStrategy.CANNED,
                                   fmt="gzip", library=library).data

        pool = AcceleratorPool(machine="POWER9", chips=1)
        started, release = gate_submits(pool)
        try:
            with CompressionService(pool, cache_mb=4) as svc:
                held = svc.submit("compress", b"held", tenant="acme")
                assert started.wait(30)  # dispatcher held at the pool
                before = svc.submit("compress", payload, strategy="canned",
                                    tenant="acme")
                registry.push(svc)
                release.set()
                held.wait(30)
                assert before.wait(30).output == expected(BUILTIN)
                after = svc.submit("compress", payload, strategy="canned",
                                   tenant="acme").wait(30)
                assert after.output == expected(library) != before.output
                cache = svc.stats().cache
                assert (cache["executions"], cache["hits"]) == (3, 0)
                assert svc.cache.begin("acme", result_key(
                    payload, fmt="gzip", strategy="canned",
                    epoch=BUILTIN.key)) == ("hit", before.output)
        finally:
            release.set()
            pool.close()

    @pytest.mark.parametrize("ok", [True, False], ids=["commit", "abort"])
    def test_the_caller_wakes_after_the_cache_settles(self, ok,
                                                      monkeypatch) -> None:
        """A settle slowed by 50 ms still ends before its caller wakes: a
        repeat sent at once never parks on the finished claim."""
        name = "_cache_settle_ok" if ok else "_cache_settle_fail"
        real = getattr(CompressionService, name)
        monkeypatch.setattr(CompressionService, name,
                            lambda *args: (time.sleep(0.05), real(*args)))
        payload = generate("markov_text", 2048, seed=8)
        with CompressionService(chips=1, backend="software",
                                cache_mb=1) as svc:
            first = svc.submit("compress", payload,
                               deadline_s=None if ok else 1e-9)
            assert first.event.wait(10)
            assert (first.error is None if ok
                    else isinstance(first.error, DeadlineExceeded))
            again = svc.submit("compress", payload).wait(10)
            assert zlib.decompress(again.output, 31) == payload
            cache = svc.stats().cache
            assert (cache["executions"], cache["waits"]) == (2 - ok, 0)

    def test_decompress_bypasses_cache(self) -> None:
        payload = generate("markov_text", 2048, seed=4)
        blob = zlib.compress(payload)
        with CompressionService(machine="POWER9", chips=1,
                                cache_mb=4) as svc:
            for _ in range(2):
                out = svc.submit("decompress", blob,
                                 fmt="zlib").wait(10).output
                assert out == payload
            assert svc.stats().cache["requests"] == 0

    def test_cache_disabled_without_cache_mb(self) -> None:
        with CompressionService(machine="POWER9", chips=1) as svc:
            svc.submit("compress", b"hello world").wait(10)
            assert svc.stats().cache is None
