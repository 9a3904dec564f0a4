"""Named synthetic corpora standing in for Calgary/Canterbury/Silesia.

Each corpus is a dict of component name → bytes, sized so a full ratio
table runs in reasonable time under the pure-Python codec.  Components
are chosen to span the redundancy range of the originals: text, source,
structured records, database pages, binaries, DNA, and incompressible
data.
"""

from __future__ import annotations

from functools import lru_cache

from .generators import generate

_CORPORA: dict[str, list[tuple[str, str, int]]] = {
    # (component name, generator, size)
    "calgary-like": [
        ("book", "markov_text", 98304),
        ("paper", "markov_text", 49152),
        ("prog", "source_code", 49152),
        ("obj", "binary_executable", 49152),
        ("trans", "log_lines", 49152),
    ],
    "silesia-like": [
        ("dickens", "markov_text", 131072),
        ("webster", "markov_text", 98304),
        ("samba", "source_code", 98304),
        ("nci", "database_pages", 98304),
        ("x-ray", "random_bytes", 65536),
        ("dna", "dna_sequence", 65536),
        ("mozilla", "binary_executable", 98304),
        ("logs", "log_lines", 65536),
    ],
    "cloud-like": [
        ("json-events", "json_records", 131072),
        ("service-logs", "log_lines", 131072),
        ("db-pages", "database_pages", 131072),
        ("mixed", "mixed_stream", 131072),
        ("xml-export", "xml_documents", 131072),
        ("csv-table", "csv_table", 131072),
        ("telemetry", "sensor_samples", 131072),
    ],
    "quick": [  # small corpus for unit tests
        ("text", "markov_text", 16384),
        ("json", "json_records", 16384),
        ("random", "random_bytes", 8192),
    ],
}


def corpus_names() -> list[str]:
    return sorted(_CORPORA)


@lru_cache(maxsize=None)
def build_corpus(name: str, scale: float = 1.0,
                 seed: int = 1234) -> dict[str, bytes]:
    """Materialize a corpus; ``scale`` shrinks/grows every component."""
    if name not in _CORPORA:
        raise ValueError(f"unknown corpus {name!r}; have {corpus_names()}")
    out = {}
    for idx, (component, generator, size) in enumerate(_CORPORA[name]):
        out[component] = generate(generator, max(1024, int(size * scale)),
                                  seed=seed + idx * 101)
    return out


def corpus_bytes(name: str) -> bytes:
    """All components of a corpus concatenated (for throughput runs)."""
    return b"".join(build_corpus(name).values())
