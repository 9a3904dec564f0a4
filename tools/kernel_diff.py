"""Differential of the codec kernels against the parent commit.

Usage:  PYTHONPATH=src python tools/kernel_diff.py <parent-checkout>

Loads ``NxMatchPipeline``, ``inflate_core``, ``InflateStream`` and
``NxCompressor`` from ``<parent-checkout>/src`` next to this tree's and
runs both over three matrices.  The unit tests pin a kernel to its
reference model; this pins it to what its parent shipped.  Prints a
case count per matrix; any difference is a mismatch: the first one is
printed with its case, and the exit status is 1.

*Scan* — the matrix of ``tests/test_scan_kernel.py``: every generator
x the ``_sizes`` list x the three histories on the POWER9 and z15
engines, and every generator x seven small sizes x two histories on
the six tiny engines.  A case is equal when every field of
``ScanResult`` (tokens, ``MatchStats``, ``scan_cycles``,
``conflict_stalls``, ``candidate_probes``, ``history_cycles``), the
table's ``entries`` and its ``lookups`` / ``insertions`` /
``conflict_stalls`` counters are.

*Inflate* — every generator x 4 KB / 64 KB / 300 KB x the stdlib's
levels 1, 6 and 9 and this repo's ``nx`` and ``software`` output, with
and without a 32 KB history; each stream decoded whole and under three
``max_output`` caps (exact, one short, 64 KiB short), and three of them
cut at every 64th byte.  A case is equal on ``(output, literals,
matches, match_bytes, blocks, bits_consumed)`` or on ``(type(exc)
.__name__, str(exc))``.  The malformed headers of
``tests/test_inflate_kernel.header_fix_cases`` and
``repeat_first_stream`` close the matrix.  Every inflate case is also
decoded *streamed*, through each tree's ``InflateStream`` 16 KB a
``feed``, and is equal there on the output bytes or on the error.  And
every inflate case is decoded *resumed* here, the way a request goes on
from a full target, with targets that end one, two and every block's
continuation; equal to the other tree's one-shot decode on ``(output,
literals, matches, match_bytes, bits_consumed)`` or on the error.

*Encode* — ``NxCompressor.compress`` under the FIXED, CANNED, DYNAMIC
and AUTO strategies x every generator x 0 / 100 / 4 KB / 32 KB / 70 KB
(two blocks) x the scan matrix's three histories, on the POWER9 and z15
engines.  A case is equal on the output bytes, ``CycleBreakdown``,
``block_types``, ``dht_sources`` and ``MatchStats``.  The other tree's
compressor runs with its own modules swapped in, so an import it makes
inside a function finds its own tree, not this one.
"""

from __future__ import annotations

import dataclasses
import importlib
import pathlib
import sys
from contextlib import contextmanager
from types import ModuleType

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # the matrices live in tests/

from repro.deflate.bitio import BitReader, reader_at  # noqa: E402
from repro.deflate.constants import WINDOW_SIZE  # noqa: E402
from repro.deflate.inflate import (  # noqa: E402
    InflateStats,
    inflate_blocks,
    inflate_core,
)
from repro.errors import OutputOverflow  # noqa: E402
from repro.deflate.inflate_stream import InflateStream  # noqa: E402
from repro.nx.compressor import NxCompressor  # noqa: E402
from repro.nx.dht import DhtStrategy  # noqa: E402
from repro.nx.params import POWER9, Z15  # noqa: E402
from repro.nx.pipeline import NxMatchPipeline  # noqa: E402
from repro.workloads.generators import GENERATORS, generate  # noqa: E402
from tests.test_inflate_kernel import (  # noqa: E402
    header_fix_cases,
    make_stream,
    repeat_first_stream,
    stream_inflate,
)
from tests.test_scan_kernel import (  # noqa: E402
    HISTORIES,
    TINY_ENGINES,
    product_inputs,
    tiny_inputs,
)

_INFLATE_SIZES = (4096, 65536, 300_000)
_INFLATE_PRODUCERS = ([("stdlib", level, "default") for level in (1, 6, 9)]
                      + [("nx", 6, "default"), ("software", 6, "default")])
_TRUNCATED_FAMILIES = ("binary_executable", "json_records", "source_code")
_FEED = 16384
_ENCODE_SIZES = (0, 100, 4096, 32768, 70000)
_ENCODE_STRATEGIES = ("fixed", "canned", "dynamic", "auto")


def _ours(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


class OtherTree:
    """The ``repro`` package of another checkout, in this process.

    Its modules sit in ``sys.modules`` (and its ``src`` on ``sys.path``)
    only inside :meth:`active`; outside, this tree's are there.
    """

    def __init__(self, checkout: str) -> None:
        self.checkout = checkout
        self.src = pathlib.Path(checkout).resolve() / "src"
        self.modules: dict[str, ModuleType] = {}

    @contextmanager
    def active(self):
        mine = {name: mod for name, mod in sys.modules.items() if _ours(name)}
        for name in mine:
            del sys.modules[name]
        sys.modules.update(self.modules)
        sys.path.insert(0, str(self.src))
        try:
            yield
        finally:
            sys.path.remove(str(self.src))
            self.modules = {name: mod for name, mod in sys.modules.items()
                            if _ours(name)}
            for name in self.modules:
                del sys.modules[name]
            sys.modules.update(mine)

    def load(self, module: str) -> ModuleType:
        """``module`` as the other tree defines it."""
        with self.active():
            loaded = importlib.import_module(module)
        if self.src not in pathlib.Path(loaded.__file__).parents:
            raise SystemExit(f"{self.checkout}: imported {loaded.__file__}, "
                             "which is not in that checkout")
        return loaded


def load_other(checkout: str, module: str) -> ModuleType:
    """``module`` as the tree at ``checkout`` defines it."""
    return OtherTree(checkout).load(module)


# -- scan ----------------------------------------------------------------------

def scan_cases():
    """(engine name, engine, family, data, history) over the matrix."""
    for machine in (POWER9, Z15):
        for family in sorted(GENERATORS):
            for data, history in product_inputs(machine.engine, family):
                yield machine.name, machine.engine, family, data, history
    for name, engine in TINY_ENGINES.items():
        for family in sorted(GENERATORS):
            for data, history in tiny_inputs(family):
                yield name, engine, family, data, history


def observed_scan(pipe, data: bytes, history: bytes) -> dict:
    """Everything a scan leaves behind, as plain comparable values."""
    seen = dataclasses.asdict(pipe.scan(data, history=history))
    table = pipe.table
    seen["table.entries"] = table.entries
    seen["table.counters"] = (table.lookups, table.insertions,
                              table.conflict_stalls)
    return seen


def diff_scan(checkout: str) -> bool:
    other_cls = load_other(checkout, "repro.nx.pipeline").NxMatchPipeline
    pipes: dict[str, tuple] = {}  # one pair an engine, reused like a job's
    count = 0
    for name, engine, family, data, history in scan_cases():
        if name not in pipes:
            pipes[name] = (NxMatchPipeline(engine), other_cls(engine))
        here, there = (observed_scan(pipe, data, history)
                       for pipe in pipes[name])
        count += 1
        if here != there:
            fields = [field for field in here if here[field] != there[field]]
            print(f"MISMATCH in scan case {count} ({name}, {family}, "
                  f"{len(data)} bytes after {len(history)} of history): "
                  + ", ".join(fields))
            return False
    print(f"kernel_diff: scan: {count} cases, 0 mismatches "
          f"against {checkout}")
    return True


# -- inflate -------------------------------------------------------------------

def inflate_cases():
    """(label, stream, ``inflate_core`` keyword arguments)."""
    for family in sorted(GENERATORS):
        for size in _INFLATE_SIZES:
            data = generate(family, size, seed=size % 5)
            # The same family under another seed shares its vocabulary,
            # so matches of the primed streams reach into the history.
            for history in (b"", generate(family, WINDOW_SIZE, seed=9)):
                for producer in _INFLATE_PRODUCERS:
                    stream = make_stream(producer, data, history)
                    label = (f"{family}, {size} bytes after {len(history)} "
                             f"of history, by {producer[0]} -{producer[1]}")
                    yield label, stream, {"history": history}
                    for cap in sorted({size, size - 1, max(0, size - 65536)}):
                        yield (f"{label}, max_output {cap}", stream,
                               {"history": history, "max_output": cap})
    for family in _TRUNCATED_FAMILIES:
        stream = make_stream(("stdlib", 6, "default"),
                             generate(family, 65536, seed=1), b"")
        for cut in range(0, len(stream), 64):
            yield f"{family}, 65536 bytes, cut at byte {cut}", stream[:cut], {}
    for name, raw, _plain in header_fix_cases():
        yield name, raw, {}
    yield "repeat code first", repeat_first_stream(), {}


def one_shot(core):
    """An ``inflate_core`` as a decode returning comparable values."""
    def decode(stream: bytes, **kwargs) -> tuple:
        out, stats, bits = core(stream, **kwargs)
        return (out, stats.literals, stats.matches, stats.match_bytes,
                stats.blocks, bits)
    return decode


def block_ends(stream: bytes, history: bytes) -> list[int]:
    """Output bytes at each block boundary of a one-shot decode, up to
    its end or the block that fails."""
    reader, out, ends = BitReader(stream), bytearray(history), []
    try:
        while not inflate_blocks(reader, out, 1 << 62, InflateStats(),
                                 want_bytes=0):
            ends.append(len(out) - len(history))
    except Exception:  # noqa: BLE001 - the failing block ends the list
        pass
    return ends


def _cuts(ends: list[int], parts: int) -> list[int]:
    """Targets that end ``parts`` continuations at block boundaries."""
    marks = sorted({ends[len(ends) * k // parts - 1]
                    for k in range(1, parts) if len(ends) * k >= parts})
    return [b - a for a, b in zip([0] + marks, marks)]


RESUMED_SPLITS = {
    "one continuation": lambda ends: _cuts(ends, 2),
    "two continuations": lambda ends: _cuts(ends, 3),
    "every block": lambda ends: [b - a for a, b in zip([0] + ends, ends)],
}


def resumed(split):
    """A decode that goes on from every full target, as a request does:
    each target holds the blocks ``split`` sizes it for (the block that
    would pass it is rolled back), the next starts at the state's bit
    with the last 32 KB as its window.  Equal to a one-shot decode on
    ``(output, literals, matches, match_bytes, bits_consumed)``."""
    def decode(stream: bytes, history: bytes = b"",
               max_output: int = 1 << 31) -> tuple:
        stats, output = InflateStats(), bytearray()
        reader, window = BitReader(stream), history[-WINDOW_SIZE:]
        for target in split(block_ends(stream, history)) + [None]:
            room = max_output - len(output)
            cap = room if target is None else min(target, room)
            out = bytearray(window)
            final = inflate_blocks(reader, out, cap, stats, resumable=True)
            output += out[len(window):]
            if final:
                return (bytes(output), stats.literals, stats.matches,
                        stats.match_bytes, reader.bits_consumed)
            if final is None and cap == room:
                raise OutputOverflow("output exceeds allowed size")
            window = bytes(out[-WINDOW_SIZE:])
            reader = reader_at(stream, reader.bits_consumed)
        raise AssertionError("unreachable")
    return decode


def streamed(stream_cls):
    """An ``InflateStream`` class, fed ``_FEED`` bytes a call, likewise:
    a stream reports its output bytes alone."""
    def decode(stream: bytes, **kwargs) -> tuple:
        return stream_inflate(stream, _FEED, cls=stream_cls, **kwargs)[:1]
    return decode


def observed_inflate(decode, stream: bytes, kwargs: dict) -> tuple:
    """A decode's result, or whatever it raised as ``(class name,
    message)``: the two trees' exception classes are distinct objects.

    *Any* exception is a result here, so that a kernel that crashes on
    a case is reported as a mismatch with its label instead of ending
    the run.
    """
    try:
        return decode(stream, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the error is the datum
        return type(exc).__name__, str(exc)


def _brief(seen: tuple) -> str:
    if len(seen) == 2:
        return f"{seen[0]}: {seen[1]}"
    if len(seen) == 1:
        return f"{len(seen[0])} bytes"
    return f"{len(seen[0])} bytes, {seen[-1]} bits"


def diff_inflate(checkout: str) -> bool:
    other_core = load_other(checkout, "repro.deflate.inflate").inflate_core
    other_stream = load_other(checkout,
                              "repro.deflate.inflate_stream").InflateStream
    pairs = (("", one_shot(inflate_core), one_shot(other_core)),
             ("streamed ", streamed(InflateStream), streamed(other_stream)))
    there_one_shot = pairs[0][2]
    count = 0
    for label, stream, kwargs in inflate_cases():
        count += 1
        for kind, *decoders in pairs:
            here, there = (observed_inflate(decode, stream, kwargs)
                           for decode in decoders)
            if here != there:
                print(f"MISMATCH in {kind}inflate case {count} ({label}): "
                      f"here {_brief(here)}; there {_brief(there)}")
                return False
        there = observed_inflate(there_one_shot, stream, kwargs)
        if len(there) > 2:
            there = there[:4] + there[5:]  # no block list: see resumed()
        for kind, split in RESUMED_SPLITS.items():
            here = observed_inflate(resumed(split), stream, kwargs)
            if here != there:
                print(f"MISMATCH in inflate case {count} resumed at "
                      f"{kind} ({label}): here {_brief(here)}; "
                      f"there {_brief(there)}")
                return False
    print(f"kernel_diff: inflate: {count} cases, one-shot, streamed and "
          f"resumed ({len(RESUMED_SPLITS)} ways), 0 mismatches against "
          f"{checkout}")
    return True


# -- encode --------------------------------------------------------------------

def encode_cases():
    """(engine name, engine, strategy, family, data, history)."""
    for machine in (POWER9, Z15):
        for family in sorted(GENERATORS):
            for size in _ENCODE_SIZES:
                data = generate(family, size, seed=size % 5)
                for history in HISTORIES.values():
                    for strategy in _ENCODE_STRATEGIES:
                        yield (machine.name, machine.engine, strategy,
                               family, data, history)


def observed_encode(compressor, strategy, data: bytes,
                    history: bytes) -> dict:
    """A compress request's output and accounting, as plain values."""
    result = compressor.compress(data, strategy=strategy, history=history)
    return {"bytes": result.data,
            "cycles": dataclasses.astuple(result.cycles),
            "block_types": result.block_types,
            "dht_sources": result.dht_sources,
            "stats": dataclasses.astuple(result.stats)}


def diff_encode(checkout: str) -> bool:
    other = OtherTree(checkout)
    other_module = other.load("repro.nx.compressor")
    compressors: dict[str, tuple] = {}  # one pair an engine, as a chip's
    count = 0
    for name, engine, strategy, family, data, history in encode_cases():
        if name not in compressors:
            with other.active():
                there_comp = other_module.NxCompressor(engine)
            compressors[name] = (NxCompressor(engine), there_comp)
        here_comp, there_comp = compressors[name]
        here = observed_encode(here_comp, DhtStrategy(strategy), data,
                               history)
        with other.active():
            there = observed_encode(
                there_comp, other_module.DhtStrategy(strategy), data,
                history)
        count += 1
        if here != there:
            fields = [field for field in here if here[field] != there[field]]
            print(f"MISMATCH in encode case {count} ({name}, {strategy}, "
                  f"{family}, {len(data)} bytes after {len(history)} of "
                  "history): " + ", ".join(fields))
            return False
    print(f"kernel_diff: encode: {count} cases, 0 mismatches "
          f"against {checkout}")
    return True


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return 0 if all(diff(argv[1]) for diff in (diff_scan, diff_inflate,
                                                diff_encode)) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
