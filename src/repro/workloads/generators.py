"""Deterministic synthetic data generators with controlled redundancy.

The paper evaluates on standard corpora and customer data we cannot
redistribute; these generators produce byte streams whose *compression-
relevant structure* (literal entropy, match length/distance profile)
spans the same range, so ratio orderings and throughput effects carry
over.  Every generator is seeded and reproducible.
"""

from __future__ import annotations

import math
import random
import string

_WORD_ALPHABET = string.ascii_lowercase


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_bytes(size: int, seed: int = 0) -> bytes:
    """Incompressible: uniform random bytes."""
    rng = _rng(seed)
    return bytes(rng.randrange(256) for _ in range(size))


def zero_bytes(size: int) -> bytes:
    """Maximally compressible: all zero."""
    return bytes(size)


def markov_text(size: int, seed: int = 0) -> bytes:
    """English-like text: Zipf-distributed words, sentence structure.

    Matches the statistics that make natural text compress ~2.5-3.5x:
    skewed literal distribution plus frequent short-to-medium matches.
    """
    rng = _rng(seed)
    vocabulary, zipf_s = 2000, 1.3
    words = []
    for _ in range(vocabulary):
        length = max(2, min(12, int(rng.gauss(5.2, 2.2))))
        words.append("".join(rng.choice(_WORD_ALPHABET)
                             for _ in range(length)))
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(vocabulary)]
    out = []
    length = 0
    sentence = 0
    while length < size:
        word = rng.choices(words, weights=weights)[0]
        if sentence == 0:
            word = word.capitalize()
        out.append(word)
        length += len(word) + 1
        sentence += 1
        if sentence >= rng.randrange(6, 18):
            out[-1] += "."
            sentence = 0
    return (" ".join(out)).encode("ascii")[:size]


def log_lines(size: int, seed: int = 0) -> bytes:
    """Server-log-like: highly templated lines with varying fields."""
    rng = _rng(seed)
    hosts = [f"10.0.{rng.randrange(256)}.{rng.randrange(256)}"
             for _ in range(32)]
    paths = [f"/api/v1/{name}" for name in
             ("users", "items", "orders", "search", "metrics", "health")]
    out = []
    length = 0
    t = 1_500_000_000
    while length < size:
        t += rng.randrange(1, 30)
        line = (f"{t} {rng.choice(hosts)} GET {rng.choice(paths)}"
                f"?id={rng.randrange(100000)} 200 {rng.randrange(40, 9000)}"
                f" {rng.random():.4f}\n")
        out.append(line)
        length += len(line)
    return ("".join(out)).encode("ascii")[:size]


def json_records(size: int, seed: int = 0) -> bytes:
    """JSON-ish records: repeated schema keys, varying values."""
    rng = _rng(seed)
    out = []
    length = 0
    while length < size:
        rec = ('{"user_id":%d,"session":"%08x","event":"%s",'
               '"ts":%d,"value":%.3f,"flags":[%s]}\n' % (
                   rng.randrange(10 ** 6), rng.getrandbits(32),
                   rng.choice(("click", "view", "purchase", "scroll")),
                   1_600_000_000 + rng.randrange(10 ** 6),
                   rng.random() * 100,
                   ",".join(str(rng.randrange(2)) for _ in range(4))))
        out.append(rec)
        length += len(rec)
    return ("".join(out)).encode("ascii")[:size]


def database_pages(size: int, seed: int = 0) -> bytes:
    """DB-page-like: fixed-layout rows, low-cardinality columns, padding."""
    rng = _rng(seed)
    page_size, row_bytes = 8192, 120
    cities = [b"ROCHESTER", b"POUGHKEEPSIE", b"AUSTIN", b"YORKTOWN",
              b"BOEBLINGEN", b"TOKYO", b"HAIFA", b"ZURICH"]
    out = bytearray()
    while len(out) < size:
        page = bytearray()
        page += (12345).to_bytes(4, "big") + bytes(12)  # header
        while len(page) + row_bytes <= page_size - 64:
            row = bytearray()
            row += rng.randrange(2 ** 31).to_bytes(4, "big")
            row += rng.choice(cities).ljust(24, b" ")
            row += rng.randrange(100).to_bytes(1, "big") * 8
            row += bytes(row_bytes - len(row))
            page += row
        page += bytes(page_size - len(page))  # page slack
        out += page
    return bytes(out[:size])


def source_code(size: int, seed: int = 0) -> bytes:
    """C-like source: heavy keyword/identifier reuse, indentation runs."""
    rng = _rng(seed)
    idents = [f"var_{rng.randrange(400):03d}" for _ in range(200)]
    out = []
    length = 0
    while length < size:
        depth = rng.randrange(1, 5)
        indent = "    " * depth
        a, b, c = rng.choice(idents), rng.choice(idents), rng.choice(idents)
        line = rng.choice((
            f"{indent}if ({a} != NULL && {b} > 0) {{\n",
            f"{indent}{a} = {b} + {c} * {rng.randrange(16)};\n",
            f"{indent}return status_{rng.randrange(8)};\n",
            f"{indent}}}\n",
            f"{indent}for (int i = 0; i < {a}_count; i++) {{\n",
            f"{indent}memset(&{a}, 0, sizeof({a}));\n",
        ))
        out.append(line)
        length += len(line)
    return ("".join(out)).encode("ascii")[:size]


def dna_sequence(size: int, seed: int = 0) -> bytes:
    """Genomic: 4-symbol alphabet, 2 bits/byte entropy, few long matches."""
    rng = _rng(seed)
    return bytes(rng.choice(b"ACGT") for _ in range(size))


def binary_executable(size: int, seed: int = 0) -> bytes:
    """Object-code-like: opcode clusters, zero runs, address entropy."""
    rng = _rng(seed)
    out = bytearray()
    opcodes = [0x48, 0x89, 0x8B, 0xE8, 0x0F, 0xC3, 0x55, 0x5D]
    while len(out) < size:
        choice = rng.random()
        if choice < 0.15:
            out += bytes(rng.randrange(16, 200))  # zero padding
        elif choice < 0.75:
            out.append(rng.choice(opcodes))
            out += rng.getrandbits(16).to_bytes(2, "little")
        else:
            out += rng.getrandbits(32).to_bytes(4, "little")
    return bytes(out[:size])


#: A mixed-entropy stream's components: (generator, weight).
_MIX = (("markov_text", 0.4), ("json_records", 0.3),
        ("binary_executable", 0.2), ("random_bytes", 0.1))


def mixed_stream(size: int, seed: int = 0) -> bytes:
    """Interleave generator outputs in 16 KB extents by weight."""
    rng = _rng(seed)
    extent = 16384
    total_weight = sum(weight for _, weight in _MIX)
    out = bytearray()
    idx = 0
    while len(out) < size:
        pick = rng.random() * total_weight
        acc = 0.0
        chosen = _MIX[-1][0]
        for generator, weight in _MIX:
            acc += weight
            if pick <= acc:
                chosen = generator
                break
        chunk = generate(chosen, extent, seed=seed + idx)
        out += chunk
        idx += 1
    return bytes(out[:size])


def xml_documents(size: int, seed: int = 0) -> bytes:
    """XML-like markup: deeply repeated tags, attribute patterns."""
    rng = _rng(seed)
    tags = ["record", "customer", "order", "item", "address", "total"]
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<export>\n']
    length = len(out[0])
    while length < size:
        tag = rng.choice(tags)
        fragment = (f'  <{tag} id="{rng.randrange(10 ** 6)}" '
                    f'ts="{1_600_000_000 + rng.randrange(10 ** 6)}">'
                    f'{rng.randrange(10 ** 4)}</{tag}>\n')
        out.append(fragment)
        length += len(fragment)
    out.append("</export>\n")
    return ("".join(out)).encode("ascii")[:size]


def csv_table(size: int, seed: int = 0) -> bytes:
    """CSV rows: low-cardinality columns, repeated separators."""
    rng = _rng(seed)
    columns = 8
    categories = ["alpha", "beta", "gamma", "delta"]
    header = ",".join(f"col{i}" for i in range(columns)) + "\n"
    out = [header]
    length = len(header)
    while length < size:
        row = ",".join(
            rng.choice(categories) if i % 3 == 0
            else str(rng.randrange(10 ** (1 + i % 4)))
            for i in range(columns)) + "\n"
        out.append(row)
        length += len(row)
    return ("".join(out)).encode("ascii")[:size]


def sensor_samples(size: int, seed: int = 0) -> bytes:
    """Time-series telemetry: slowly varying 16-bit samples.

    Neighbouring samples differ by small deltas, the structure that
    makes scientific/telemetry data compress despite high byte entropy.
    """
    rng = _rng(seed)
    out = bytearray()
    value = 2 ** 15
    while len(out) < size:
        value = max(0, min(2 ** 16 - 1, value + rng.randrange(-64, 65)))
        out += value.to_bytes(2, "big")
    return bytes(out[:size])


GENERATORS = {
    "random_bytes": random_bytes,
    "zero_bytes": lambda size, seed=0: zero_bytes(size),
    "markov_text": markov_text,
    "log_lines": log_lines,
    "json_records": json_records,
    "database_pages": database_pages,
    "source_code": source_code,
    "dna_sequence": dna_sequence,
    "binary_executable": binary_executable,
    "mixed_stream": mixed_stream,
    "xml_documents": xml_documents,
    "csv_table": csv_table,
    "sensor_samples": sensor_samples,
}


def generate(name: str, size: int, seed: int = 0) -> bytes:
    """Dispatch to a named generator."""
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}; "
                         f"have {sorted(GENERATORS)}")
    return GENERATORS[name](size, seed=seed)


def shannon_entropy_bits_per_byte(data: bytes) -> float:
    """Order-0 entropy, used to sanity-check generator targets."""
    if not data:
        return 0.0
    counts = [0] * 256
    for byte in data:
        counts[byte] += 1
    n = len(data)
    return -sum((c / n) * math.log2(c / n) for c in counts if c)
