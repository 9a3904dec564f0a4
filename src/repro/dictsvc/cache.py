"""Content-addressed compressed-result cache with singleflight.

A million-user service sees heavy key skew: the same hot objects are
compressed over and over.  This cache addresses results by the request
itself — ``(op, fmt, strategy, canned library, payload)``, compared byte
for byte, so no digest collision can serve another payload's result —
and serves identical requests from memory instead of the accelerator,
regardless of which client sent them.  It is
:mod:`repro.dictsvc.keyed`'s LRU and claim table behind three
guarantees, each carried by an exact counter:

* **singleflight** — N concurrent misses on one key run exactly one
  compression (``executions == unique keys``);
* **partition** — every request is exactly a hit or a miss
  (``hits + misses == requests``); waits are counted separately and
  resolve into one of the two;
* **bounds** — a global LRU capped by entries *and* bytes, plus
  per-tenant quotas so one chatty tenant cannot wash out the others.
  An entry (result plus the payload its key holds) larger than any
  applicable byte bound is simply not cached (``uncacheable``) rather
  than evicting the world.
"""

from __future__ import annotations

from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import REGISTRY as _REGISTRY
from .keyed import Claim as _Claim, KeyedCache  # noqa: F401 (begin's claim)

#: Default bounds: a useful working set, bounded for a fleet.
DEFAULT_MAX_ENTRIES = 4096
DEFAULT_MAX_BYTES = 64 << 20
DEFAULT_MAX_TENANTS = 64


def result_key(payload: bytes, *, op: str = "compress", fmt: str = "raw",
               strategy: str = "auto", epoch: int | str = 0) -> tuple:
    """Content address of one codec result: the request itself.

    Every parameter that changes the output bytes must be part of the
    key; the service passes the key of the canned library the job
    carries to the engine (:attr:`repro.nx.dht.CannedLibrary.key`) as
    ``epoch``, so a push re-keys every result, without a flush.
    """
    return op, fmt, strategy, epoch, bytes(payload)


class ResultCache(KeyedCache):
    """Bounded content-addressed LRU + singleflight claim table."""

    def __init__(self, *, max_bytes: int = DEFAULT_MAX_BYTES,
                 tenant_max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_tenants: int = DEFAULT_MAX_TENANTS) -> None:
        super().__init__(
            max_entries=DEFAULT_MAX_ENTRIES, max_bytes=max_bytes,
            tenant_max_entries=tenant_max_entries,
            tenant_max_bytes=max_bytes, max_tenants=max_tenants)
        self.requests = 0
        self.misses = 0
        self.executions = 0
        self.uncacheable = 0
        self.aborts = 0

    # -- the dispatch-facing protocol -----------------------------------------

    def begin(self, tenant: str, key: tuple | str, park=None):
        """Start (or join) one keyed compression.

        Returns one of::

            ("hit", blob)       # cached result; do not execute
            ("leader", claim)   # execute, then commit() or abort()
            ("wait", claim)     # a leader is executing; wait on
                                # claim.event, then call begin() again

        A caller that must not block passes ``park`` and gets
        ``("wait", park())``, parked with the claim (see
        :meth:`~repro.dictsvc.keyed.ClaimTable.enter`) for the leader to
        resolve after its commit or abort.  Exactly one of ``hits`` /
        ``misses`` is counted per request at its *resolution* (a wait
        resolves on the retry, a parked follower at the leader's
        commit), keeping ``hits + misses == requests`` exact.
        """
        with self._lock:
            blob = self._lru.get(tenant, key)
            if blob is not None:
                self.requests += 1
                self.hits += 1
                self._count("hit")
                return "hit", blob
            leader, claim = self._claims.enter((tenant, key), park)
            if not leader:
                self.waits += 1
                self._count("wait")
                return "wait", claim
            self.requests += 1
            self.misses += 1
            self.executions += 1
            self._count("miss")
            return "leader", claim

    def commit(self, tenant: str, key: tuple | str, blob: bytes) -> None:
        """Store the leader's result and serve parked followers; an entry
        (blob plus key payload) past the byte bound is not cached."""
        with self._lock:
            # A result_key holds its payload: charged beside the blob.
            nbytes = len(blob) + (len(key[-1]) if isinstance(key, tuple)
                                  else 0)
            if nbytes <= self._lru.max_bytes:
                before = self._lru.evictions
                self._lru.put(tenant, key, blob, nbytes)
                if self._lru.evictions > before:
                    _REGISTRY.counter(
                        "repro_cache_evictions_total",
                        "result-cache entries evicted by LRU bounds").inc(
                        self._lru.evictions - before)
            else:
                self.uncacheable += 1
                _FLIGHT.record("cache.uncacheable", tenant=tenant,
                               nbytes=nbytes)
            # The leader hands each parked follower its own result: for
            # the accounting every one of them is a hit.
            for _ in self._claims.release((tenant, key)):
                self.requests += 1
                self.hits += 1
                self._count("hit")

    def abort(self, tenant: str, key: tuple | str) -> None:
        """The leader failed: free the key so a follower can re-claim."""
        with self._lock:
            self.aborts += 1
            self._claims.release((tenant, key))

    def get_or_compute(self, tenant: str, key: tuple | str, compute):
        """Blocking convenience: resolve one request to result bytes.

        ``compute()`` runs at most once across all concurrent callers
        of the same key while it succeeds; if it raises, the exception
        propagates to the leader and followers re-claim.
        """
        while True:
            state, value = self.begin(tenant, key)
            if state == "hit":
                return value
            if state == "wait":
                value.event.wait()
                continue
            try:
                blob = compute()
            except BaseException:
                self.abort(tenant, key)
                raise
            self.commit(tenant, key, blob)
            return blob

    # -- internals ------------------------------------------------------------

    def _count(self, outcome: str) -> None:
        _REGISTRY.counter(
            "repro_cache_requests_total",
            "result-cache lookups by outcome").inc(outcome=outcome)

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            _REGISTRY.gauge(
                "repro_cache_entries",
                "live result-cache entries").set(len(self._lru.order))
            _REGISTRY.gauge(
                "repro_cache_bytes",
                "live result-cache payload bytes").set(self._lru.bytes)
            return {
                "requests": self.requests,
                "hits": self.hits,
                "misses": self.misses,
                "executions": self.executions,
                "waits": self.waits,
                "evictions": self._lru.evictions,
                "uncacheable": self.uncacheable,
                "aborts": self.aborts,
                "entries": len(self._lru.order),
                "bytes": self._lru.bytes,
                "tenants": len(self._lru.tenants),
            }
