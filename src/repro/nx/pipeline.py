"""The NX compression scan pipeline: hardware-policy LZ77 + cycle model.

Differences from the software matcher that shape the accelerator's
ratio/throughput trade-off (all documented properties of the product):

* the pipeline scans ``scan_bytes_per_cycle`` input positions per cycle
  and hashes *every* position into a banked table (bank conflicts stall);
* match candidates come from a small set-associative table
  (``hash_ways`` most-recent positions), not an unbounded chain;
* match selection is greedy — there is no lazy one-byte deferral;
* candidate comparison is ``compare_window`` bytes wide per cycle, which
  is at least twice the scan width, so match extension never becomes the
  bottleneck and costs no extra cycles.

The functional output is a real DEFLATE token stream; the timing output
is a cycle count for the scan phase.

The model does that per-position work in bulk (see
:meth:`NxMatchPipeline.scan`): a slab of positions is hashed by one
big-int multiply, the bank-conflict stalls of all its scan groups are
counted at once in lanes of a few big ints, and the interpreter only
steps where a token starts.  The per-access methods of
:class:`~.hashbank.BankedHashTable` stay the reference it is held equal
to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..deflate.constants import MAX_MATCH, MIN_MATCH
from ..deflate.matcher import MatchStats, Token
from .hashbank import BankedHashTable
from .params import EngineParams

#: Positions hashed per bulk step (a quarter window; rounded down to whole
#: scan groups).  Everything a scan builds and drops -- lanes, the hash
#: product, set names, stall columns -- is this long whatever the input,
#: so transient memory does not grow with the job.  8 K reads the same
#: speed as 32 K and keeps the served ``peak_rss_mb`` where it was.
SCAN_SLAB = 8192


@dataclass
class ScanResult:
    """Functional and timing outcome of one scan pass."""

    tokens: list[Token]
    stats: MatchStats
    scan_cycles: int
    conflict_stalls: int
    candidate_probes: int
    history_cycles: int = 0  # loading a preset history through the pipe


@dataclass
class NxMatchPipeline:
    """Greedy, candidate-limited LZ77 scanner with cycle accounting."""

    params: EngineParams
    table: BankedHashTable = field(init=False)

    def __post_init__(self) -> None:
        self.table = BankedHashTable(self.params)

    def scan(self, data: bytes, history: bytes = b"") -> ScanResult:
        """Tokenize ``data`` with the hardware match policy.

        ``history`` models the NX history DDE: up to one window of prior
        plaintext is streamed through the hash pipe before the source so
        back-references can reach into it.  The load is charged at scan
        width, which is how the hardware brings history in.

        The input is walked in slabs of :data:`SCAN_SLAB` positions, and
        a slab in two phases.  *Bulk*: one hash product gives the set
        names (:meth:`~.hashbank.BankedHashTable.slab_columns`), and
        :meth:`~.hashbank.BankedHashTable.slab_stalls` charges the
        stalls of every scan group at once, a lane per group.  *Token
        stepping*: candidates are searched only where a token starts;
        the positions a committed match covers (and the history) only
        append themselves to their set.  Sets are cut back to ``ways``
        when a token start reads them, in an amortised sweep as the scan
        goes, and at the end.  A match that runs past the end of its
        slab leaves ``next_emit`` beyond it, and the next slab starts by
        inserting that tail.

        This is :meth:`BankedHashTable.lookup_insert` and
        :meth:`~BankedHashTable.charge_group_conflicts` in bulk, and
        must stay equal to them field for field.  Three things decide
        golden-pinned numbers: every in-window candidate is counted as a
        probe *before* the scan-end byte may reject it; only a strictly
        longer match replaces the best, so the most recent candidate
        wins ties; and accesses of one group merge per distinct hash
        before banks are charged.
        """
        table = self.table
        table.reset()
        entries = table.entries
        lookup = entries.get
        ways = table.ways
        width = self.params.scan_bytes_per_cycle
        window = self.params.window_bytes
        history = history[-window:]
        start = len(history)
        data = bytes(history) + data  # one immutable buffer, any input type
        n = len(data)
        windowed = n > window  # else every resident position is in reach
        hash_limit = max(0, n - MIN_MATCH + 1)
        # Whole scan groups only, so no group straddles a slab seam.
        slab = max(width, SCAN_SLAB - SCAN_SLAB % width)
        tokens: list[Token] = []
        emit = tokens.append
        matches = match_bytes = candidate_probes = unswept = 0
        # Where the last match ends, or the history does: positions below
        # it only hash-and-insert.  A literal leaves it behind.
        next_emit = start
        no_match, max_match = MIN_MATCH - 1, MAX_MATCH
        full_reach = n - max_match  # a match from here on is cut by the end

        for lo in range(0, hash_limit, slab):
            hi = min(lo + slab, hash_limit)
            keys = table.slab_columns(data, lo, hi)
            table.slab_stalls(data, lo, hi)

            i = lo
            while i < hi:
                if i < next_emit:
                    # History, or the rest of a committed match: insert only.
                    stop = next_emit if next_emit < hi else hi
                    for key in keys[i - lo:stop - lo]:
                        entry = lookup(key)
                        if entry is None:
                            entries[key] = [i]
                        else:
                            entry.append(i)
                        i += 1
                    continue
                # A token starts at i.
                key = keys[i - lo]
                entry = lookup(key)
                if entry is None:
                    entries[key] = [i]
                    emit(data[i])
                    i += 1
                    continue
                if len(entry) > ways:
                    del entry[:-ways]
                if windowed:
                    low_limit = i - window
                    reach = [pos for pos in entry if pos > low_limit]
                else:
                    reach = entry
                candidate_probes += len(reach)
                max_len = max_match if i < full_reach else n - i
                best_len = no_match
                best_dist = 0
                scan_end = data[i + best_len]
                for cand in reversed(reach):
                    # zlib's scan-end filter: only a candidate that also
                    # matches just past the best can beat it.
                    if data[cand + best_len] != scan_end:
                        continue
                    length = best_len + 1
                    if not data.startswith(data[i:i + length], cand):
                        continue
                    while (length < max_len
                           and data[cand + length] == data[i + length]):
                        length += 1
                    best_len = length
                    best_dist = i - cand
                    if length == max_len:
                        break
                    scan_end = data[i + length]
                entry.append(i)
                if best_dist:
                    emit((best_len, best_dist))
                    matches += 1
                    match_bytes += best_len
                    next_emit = i + best_len
                else:
                    emit(data[i])
                i += 1

            # The insert-only runs let their sets grow.  Cut them back to
            # the FIFO's capacity once as many positions have gone in as
            # there are live sets (so a sweep costs at most one step per
            # position, and the overhang stays below the table's own
            # size), and at the end, so ``entries`` is the model's.
            unswept += hi - lo
            if unswept >= len(entries) or hi == hash_limit:
                for entry in entries.values():
                    if len(entry) > ways:
                        del entry[:-ways]
                unswept = 0

        table.lookups = table.insertions = hash_limit

        # The last MIN_MATCH - 1 positions cannot start a match.
        tokens.extend(data[max(next_emit, hash_limit):])
        stats = MatchStats(literals=n - start - match_bytes, matches=matches,
                           match_bytes=match_bytes,
                           chain_probes=candidate_probes)
        return ScanResult(tokens=tokens, stats=stats,
                          scan_cycles=(n - start + width - 1) // width,
                          conflict_stalls=table.conflict_stalls,
                          candidate_probes=candidate_probes,
                          history_cycles=(start + width - 1) // width)
