"""Synthetic file sets: what a backup/archive workload hands the engine.

A file set is a dict of path → bytes drawn from the byte generators with
a realistic size distribution (many small files, a long tail of large
ones) and a type mix.  Deterministic per seed, like everything in
:mod:`repro.workloads`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .generators import generate

_TYPE_MIX: list[tuple[str, str, float]] = [
    # (extension, generator, weight)
    (".txt", "markov_text", 0.22),
    (".log", "log_lines", 0.18),
    (".json", "json_records", 0.18),
    (".c", "source_code", 0.14),
    (".db", "database_pages", 0.10),
    (".bin", "binary_executable", 0.10),
    (".jpg", "random_bytes", 0.08),  # already-compressed media
]


#: File sizes: lognormal around the median, clamped to the bounds.
MEDIAN_BYTES = 32768
SIGMA = 1.1
MIN_BYTES = 256
MAX_BYTES = 1 << 22


@dataclass(frozen=True)
class FileSetSpec:
    """Shape of a synthetic file set."""

    files: int = 50
    seed: int = 0


def make_fileset(spec: FileSetSpec = FileSetSpec()) -> dict[str, bytes]:
    """Materialize a file set per the spec."""
    import math

    rng = random.Random(spec.seed)
    mu = math.log(MEDIAN_BYTES)
    extensions = [t[0] for t in _TYPE_MIX]
    generators = {t[0]: t[1] for t in _TYPE_MIX}
    weights = [t[2] for t in _TYPE_MIX]

    out: dict[str, bytes] = {}
    for idx in range(spec.files):
        ext = rng.choices(extensions, weights=weights)[0]
        size = int(rng.lognormvariate(mu, SIGMA))
        size = max(MIN_BYTES, min(MAX_BYTES, size))
        name = f"data/{idx:04d}{ext}"
        out[name] = generate(generators[ext], size,
                             seed=spec.seed * 1000 + idx)
    return out


def total_bytes(fileset: dict[str, bytes]) -> int:
    return sum(len(v) for v in fileset.values())


