"""Request traces for queueing experiments: sizes and arrival gaps.

The shared-accelerator experiments need realistic request mixes: many
small latency-sensitive buffers (RPC payloads, shuffle blocks) plus a
tail of large bulk jobs (spills, backups).  Samplers are plain callables
``rng -> value`` so they plug directly into the queueing simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

SizeSampler = Callable[[random.Random], int]


def fixed_size(nbytes: int) -> SizeSampler:
    """Every request is exactly ``nbytes``."""
    def sample(_rng: random.Random) -> int:
        return nbytes
    return sample


def lognormal_size(median_bytes: float, sigma: float = 1.0,
                   min_bytes: int = 512,
                   max_bytes: int = 1 << 26) -> SizeSampler:
    """Heavy-tailed sizes, the common shape of storage/shuffle blocks."""
    import math

    mu = math.log(median_bytes)

    def sample(rng: random.Random) -> int:
        value = int(rng.lognormvariate(mu, sigma))
        return max(min_bytes, min(max_bytes, value))
    return sample


def bimodal_size(small_bytes: int = 8192, large_bytes: int = 4 << 20,
                 small_fraction: float = 0.9) -> SizeSampler:
    """RPC-vs-bulk mix: mostly small requests, occasional huge ones."""
    def sample(rng: random.Random) -> int:
        if rng.random() < small_fraction:
            return small_bytes
        return large_bytes
    return sample


@dataclass(frozen=True)
class TraceSpec:
    """A named (size sampler, description) pair for reports."""

    name: str
    sampler: SizeSampler
    description: str


def standard_traces() -> list[TraceSpec]:
    """The request mixes the queueing benches sweep."""
    return [
        TraceSpec("uniform-64k", fixed_size(65536),
                  "fixed 64 KB blocks (storage pages)"),
        TraceSpec("lognormal-128k", lognormal_size(131072, sigma=1.2),
                  "heavy-tailed shuffle blocks, median 128 KB"),
        TraceSpec("rpc-bulk-mix", bimodal_size(),
                  "90% 8 KB RPCs + 10% 4 MB bulk jobs"),
    ]
