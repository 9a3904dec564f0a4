"""Per-tenant dictionary training: sample → cluster → canned DHT.

The registry ingests traffic samples per tenant (or workload family),
clusters them on the 20-dimension :func:`repro.nx.dht.sample_signature`
(byte histogram + match-density probe), and trains one **canned DHT**
per cluster: length-limited canonical code lengths built from the
cluster's pooled LZ token statistics, covering every literal so any
input stays encodable.

Training is fully deterministic under a fixed seed: reservoir sampling
and cluster assignment derive from the registry seed, so two runs over
the same traffic produce byte-identical tables — the property the
golden-parity suite pins.

Versioning: every :meth:`DictionaryRegistry.train` call for a tenant
bumps that tenant's epoch, and dictionary names embed it
(``tenant.c0.v2``).  :meth:`DictionaryRegistry.push` swaps a service's
canned library (an immutable :class:`~repro.nx.dht.CannedLibrary`) for
the current tables; a job takes it at admission and carries it to the
engine, in process or in an exec worker, and the result cache keys on
its content hash, so a push re-keys every result without a flush.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

from ..deflate.compress import token_frequencies
from ..deflate.constants import (
    MAX_CODE_LENGTH,
    NUM_DIST_SYMBOLS,
    NUM_LITLEN_SYMBOLS,
)
from ..deflate.huffman import limited_code_lengths
from ..errors import ConfigError
from ..nx.dht import CannedLibrary, sample_signature, signature_distance
from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import REGISTRY as _REGISTRY

#: Default per-tenant reservoir size; large enough for stable cluster
#: statistics, small enough that train() stays sub-second.
DEFAULT_MAX_SAMPLES = 128

#: Bytes of each sample the signature/training pipeline looks at.
DEFAULT_SAMPLE_BYTES = 4096

#: Greedy leader clustering: a sample starts a new cluster when its
#: signature is farther than this (squared distance) from every leader.
CLUSTER_RADIUS = 0.02


@dataclass(frozen=True)
class TrainedDictionary:
    """One versioned, shippable canned DHT for one traffic cluster."""

    name: str                         # "<tenant>.c<idx>.v<epoch>"
    tenant: str
    cluster: int
    epoch: int
    centroid: tuple[float, ...]
    litlen_lengths: tuple[int, ...]
    dist_lengths: tuple[int, ...]
    samples: int                      # reservoir samples in the cluster
    sample_bytes: int                 # the longest sample trained on

    @classmethod
    def from_json(cls, obj: dict) -> "TrainedDictionary":
        return cls(
            name=obj["name"],
            tenant=obj["tenant"],
            cluster=int(obj["cluster"]),
            epoch=int(obj["epoch"]),
            centroid=tuple(float(x) for x in obj["centroid"]),
            litlen_lengths=tuple(int(x) for x in obj["litlen_lengths"]),
            dist_lengths=tuple(int(x) for x in obj["dist_lengths"]),
            samples=int(obj["samples"]),
            sample_bytes=int(obj.get("sample_bytes", DEFAULT_SAMPLE_BYTES)),
        )


@dataclass
class _Reservoir:
    """Seeded reservoir of one tenant's observed samples."""

    rng: random.Random
    capacity: int
    seen: int = 0
    samples: list[bytes] = field(default_factory=list)

    def offer(self, sample: bytes) -> None:
        self.seen += 1
        if len(self.samples) < self.capacity:
            self.samples.append(sample)
            return
        slot = self.rng.randrange(self.seen)
        if slot < self.capacity:
            self.samples[slot] = sample


class DictionaryRegistry:
    """Samples traffic, trains clustered dictionaries, ships them."""

    def __init__(self, *, sample_bytes: int = DEFAULT_SAMPLE_BYTES,
                 max_clusters: int = 4, seed: int = 0) -> None:
        self.sample_bytes = sample_bytes
        self.max_clusters = max_clusters
        self.seed = seed
        # Tokenize training samples with the POWER9 engine's own match
        # pipeline (GDHT-on-sample runs on the accelerator), so the
        # trained tables see the same length/distance code mix the
        # engine will emit at compress time.
        from ..nx.params import POWER9
        from ..nx.pipeline import NxMatchPipeline
        self._pipeline = NxMatchPipeline(POWER9.engine)
        self._reservoirs: dict[str, _Reservoir] = {}
        self._epochs: dict[str, int] = {}
        self._trained: dict[str, list[TrainedDictionary]] = {}

    # -- ingest ---------------------------------------------------------------

    def observe(self, tenant: str, payload: bytes) -> None:
        """Feed one request payload into the tenant's sample reservoir."""
        if not payload:
            return
        res = self._reservoirs.get(tenant)
        if res is None:
            # Tenant-keyed seed: observation order across tenants does
            # not perturb any one tenant's reservoir.
            rng = random.Random(f"{self.seed}:{tenant}")
            res = self._reservoirs[tenant] = _Reservoir(
                rng=rng, capacity=DEFAULT_MAX_SAMPLES)
        res.offer(bytes(payload[:self.sample_bytes]))
        _REGISTRY.counter(
            "repro_dictsvc_samples_total",
            "payload samples offered to dictionary reservoirs").inc(
                tenant=tenant)

    # -- train ----------------------------------------------------------------

    def train(self, tenant: str) -> list[TrainedDictionary]:
        """Cluster the tenant's reservoir and train one dict per cluster."""
        res = self._reservoirs.get(tenant)
        if res is None or not res.samples:
            raise ConfigError(f"no samples observed for tenant {tenant!r}")
        epoch = self._epochs.get(tenant, 0) + 1
        self._epochs[tenant] = epoch

        clusters = self._cluster(res.samples)
        trained: list[TrainedDictionary] = []
        for idx, members in enumerate(clusters):
            centroid = _mean_signature([sample_signature(m) for m in members])
            lit, dist = self._train_dht(members)
            trained.append(TrainedDictionary(
                name=f"{tenant}.c{idx}.v{epoch}",
                tenant=tenant, cluster=idx, epoch=epoch,
                centroid=centroid, litlen_lengths=lit, dist_lengths=dist,
                samples=len(members), sample_bytes=self.sample_bytes))
        self._trained[tenant] = trained
        _REGISTRY.counter(
            "repro_dictsvc_train_runs_total",
            "dictionary training runs").inc(tenant=tenant)
        _REGISTRY.gauge(
            "repro_dictsvc_clusters",
            "clusters trained in the latest epoch").set(
                len(trained), tenant=tenant)
        _FLIGHT.record("dictsvc.train", tenant=tenant, epoch=epoch,
                       clusters=len(trained), samples=len(res.samples))
        return trained

    def _cluster(self, samples: list[bytes]) -> list[list[bytes]]:
        """Greedy leader clustering on signatures (deterministic order)."""
        leaders: list[tuple[float, ...]] = []
        clusters: list[list[bytes]] = []
        for sample in samples:
            sig = sample_signature(sample)
            best, best_dist = -1, float("inf")
            for i, leader in enumerate(leaders):
                d = signature_distance(sig, leader)
                if d < best_dist:
                    best, best_dist = i, d
            if best >= 0 and (best_dist <= CLUSTER_RADIUS
                              or len(leaders) >= self.max_clusters):
                clusters[best].append(sample)
            else:
                leaders.append(sig)
                clusters.append([sample])
        return clusters

    def _train_dht(self, members: list[bytes]) -> tuple[tuple[int, ...],
                                                        tuple[int, ...]]:
        """Pooled LZ statistics → length-limited canonical code lengths."""
        lit_freq = [0] * NUM_LITLEN_SYMBOLS
        dist_freq = [0] * NUM_DIST_SYMBOLS
        for member in members:
            tokens = self._pipeline.scan(member).tokens
            lit, dist = token_frequencies(tokens)
            for i, f in enumerate(lit):
                lit_freq[i] += f
            for i, f in enumerate(dist):
                dist_freq[i] += f
        # Floor the literals + EOB: those must stay encodable for the
        # engine's literal fallback.  Length/distance codes get a
        # contiguous floor up to the highest code the cluster used —
        # codes inside that span sit inside the HLIT/HDIST range
        # anyway, and flooring them keeps near-miss matches encodable
        # instead of demoted.  Codes beyond the span stay at zero so
        # the per-block table header trims them.
        for i in range(257):
            lit_freq[i] = max(1, lit_freq[i])
        max_len = max((i for i in range(257, 286) if lit_freq[i]),
                      default=256)
        for i in range(257, max_len + 1):
            lit_freq[i] = max(1, lit_freq[i])
        max_dist = max((i for i in range(NUM_DIST_SYMBOLS) if dist_freq[i]),
                       default=-1)
        for i in range(max_dist + 1):
            dist_freq[i] = max(1, dist_freq[i])
        lit_freq[286] = 0   # reserved symbols stay uncoded
        lit_freq[287] = 0
        lit = tuple(limited_code_lengths(lit_freq, MAX_CODE_LENGTH))
        dist = tuple(limited_code_lengths(dist_freq, MAX_CODE_LENGTH))
        return lit, dist

    # -- ship -----------------------------------------------------------------

    def library(self) -> CannedLibrary:
        """Every tenant's current tables as one canned library."""
        return CannedLibrary({
            d.name: (d.litlen_lengths, d.dist_lengths, d.centroid,
                     d.sample_bytes) for d in self.trained()})

    def push(self, service) -> list[str]:
        """Swap ``service``'s canned library for :meth:`library`, whose
        table names it returns: jobs admitted from now on carry exactly
        the current epoch's tables."""
        pushed = sorted(d.name for d in self.trained())
        service.library = self.library()
        _REGISTRY.gauge(
            "repro_dictsvc_pushed_tables",
            "trained canned tables live in the engine").set(len(pushed))
        _FLIGHT.record("dictsvc.push", tables=len(pushed))
        return pushed

    # -- introspection / persistence ------------------------------------------

    def trained(self) -> list[TrainedDictionary]:
        """Every tenant's trained dictionaries, tenants in name order."""
        out: list[TrainedDictionary] = []
        for t in sorted(self._trained):
            out.extend(self._trained[t])
        return out

    def save_bundle(self, path: str) -> None:
        """Serialize every trained dictionary to a JSON bundle."""
        bundle = {
            "version": 1,
            "seed": self.seed,
            "dictionaries": [asdict(d) for d in self.trained()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, indent=1, sort_keys=True)
            fh.write("\n")

    def load_bundle(self, path: str) -> list[TrainedDictionary]:
        """Load a bundle, replacing this registry's trained state."""
        try:
            with open(path, encoding="utf-8") as fh:
                bundle = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read bundle {path!r}: "
                              f"{exc.strerror or exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bundle {path!r} is not valid JSON: "
                              f"{exc}") from exc
        if not isinstance(bundle, dict) or bundle.get("version") != 1:
            raise ConfigError(f"unsupported bundle version in {path!r}")
        self._trained.clear()
        for obj in bundle["dictionaries"]:
            d = TrainedDictionary.from_json(obj)
            self._trained.setdefault(d.tenant, []).append(d)
            self._epochs[d.tenant] = max(self._epochs.get(d.tenant, 0),
                                         d.epoch)
        return self.trained()


def _mean_signature(signatures: list[tuple[float, ...]]
                    ) -> tuple[float, ...]:
    dims = len(signatures[0])
    total = [0.0] * dims
    for sig in signatures:
        for i, x in enumerate(sig):
            total[i] += x
    return tuple(x / len(signatures) for x in total)
