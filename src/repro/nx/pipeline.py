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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..deflate.constants import MAX_MATCH, MIN_MATCH
from ..deflate.matcher import MatchStats, Token
from .hashbank import HASH_MULT, BankedHashTable
from .params import EngineParams


@dataclass
class ScanResult:
    """Functional and timing outcome of one scan pass."""

    tokens: list[Token]
    stats: MatchStats
    scan_cycles: int
    conflict_stalls: int
    candidate_probes: int
    history_cycles: int = 0  # loading a preset history through the pipe

    @property
    def total_cycles(self) -> int:
        return self.scan_cycles + self.conflict_stalls + self.history_cycles


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

        One flat loop drives the table's sparse ``entries`` inline; it is
        :meth:`BankedHashTable.lookup_insert` and
        :meth:`~BankedHashTable.charge_group_conflicts` unrolled, and
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
        slots, banks, ports, ways = (table.slots, table.banks, table.ports,
                                     table.ways)
        width = self.params.scan_bytes_per_cycle
        window = self.params.window_bytes
        history = history[-window:]
        start = len(history)
        if history:
            data = history + data
        n = len(data)
        windowed = n > window  # else every resident position is in reach
        hash_limit = max(0, n - MIN_MATCH + 1)
        tokens: list[Token] = []
        emit = tokens.append
        matches = match_bytes = candidate_probes = 0
        next_emit = start  # history positions only hash-and-insert
        group: list[int] = []  # hashes of the scan group in flight
        group_end = width
        prefix = (data[0] << 8) | (data[1] << 16) if hash_limit else 0

        for i in range(hash_limit):
            if i == group_end:
                # A bank can only hold more accesses than ports when the
                # group maps onto few enough distinct banks.
                if len(group) - len({h % banks for h in group}) >= ports:
                    table.charge_group_conflicts(
                        [(h % banks, h) for h in group])
                group.clear()
                group_end += width
            prefix = (prefix >> 8) | (data[i + 2] << 16)
            h = (prefix * HASH_MULT) & 0xFFFFFFFF
            group.append(h)
            key = h % slots
            entry = lookup(key)
            if i >= next_emit:
                best_len = MIN_MATCH - 1
                best_dist = 0
                if entry:
                    if windowed:
                        low_limit = i - window
                        reach = [pos for pos in entry if pos > low_limit]
                    else:
                        reach = entry
                    candidate_probes += len(reach)
                    max_len = n - i if n - i < MAX_MATCH else MAX_MATCH
                    for cand in reversed(reach):
                        # zlib's scan-end filter: only a candidate that
                        # also matches just past the best can beat it.
                        if data[cand + best_len] != data[i + best_len]:
                            continue
                        if data[cand:cand + max_len] == data[i:i + max_len]:
                            best_len = max_len
                            best_dist = i - cand
                            break
                        length = 0  # the slices differ, so this stops
                        while data[cand + length] == data[i + length]:
                            length += 1
                        if length > best_len:
                            best_len = length
                            best_dist = i - cand
                if best_dist:
                    emit((best_len, best_dist))
                    matches += 1
                    match_bytes += best_len
                    next_emit = i + best_len
                else:
                    emit(data[i])
                    next_emit = i + 1
            if entry is None:
                entries[key] = [i]
            else:
                entry.append(i)
                if len(entry) > ways:
                    del entry[0]
        if group:
            table.charge_group_conflicts([(h % banks, h) for h in group])
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
