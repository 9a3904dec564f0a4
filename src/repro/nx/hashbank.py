"""Banked, set-associative hash table model for the NX match pipeline.

The hardware scans W bytes per cycle and must perform W hash lookups and
W insertions in that cycle.  The table is therefore split into B banks;
positions whose hashes collide on a bank in the same cycle serialize,
costing stall cycles.  Capacity is limited: each set keeps the most
recent ``ways`` positions (FIFO), which is what bounds match-candidate
quality versus software's unbounded hash chains.

Storage is sparse: the silicon has ``banks x sets`` sets, but a job only
ever touches as many as it hashes positions, so the model keeps a dict of
the *live* sets and pays nothing for the rest.  The per-access methods
here (:meth:`~BankedHashTable.hash3`, :meth:`~BankedHashTable.lookup_insert`,
:meth:`~BankedHashTable.charge_group_conflicts`) are the reference model,
one call per access as the hardware makes them; :meth:`NxMatchPipeline.scan
<repro.nx.pipeline.NxMatchPipeline.scan>` is the kernel: it takes a
slab's set names from :meth:`~BankedHashTable.slab_columns` and its
stalls from :meth:`~BankedHashTable.slab_stalls`, drives the same
``entries`` dict inline, and the tests hold the two equal.
"""

from __future__ import annotations

import itertools
import sys

from .params import EngineParams

HASH_MULT = 0x9E3779B1  # Fibonacci hashing of the 3-byte prefix

#: Where a prefix's bytes 0/1/2 sit in its native-endian 8-byte lane
#: (``memoryview.cast`` only reads native order, so ``slab_columns`` lays
#: the lanes out natively).
_B0, _B1, _B2 = (0, 1, 2) if sys.byteorder == "little" else (7, 6, 5)


class BankedHashTable:
    """Functional + conflict-accounting model of the match hash table."""

    def __init__(self, params: EngineParams) -> None:
        self.banks = params.hash_banks
        self.ports = params.hash_ports
        self.width = params.scan_bytes_per_cycle
        self.ways = params.hash_ways
        self.sets = 1 << params.hash_sets_log2
        self.window = params.window_bytes
        #: ``hash % slots`` names one set: it is ``set * banks + bank``
        #: for ``bank = hash % banks`` and ``set = hash // banks % sets``.
        self.slots = self.banks * self.sets
        #: Live sets only: set name -> resident positions, oldest first.
        self.entries: dict[int, list[int]] = {}
        self.lookups = 0
        self.insertions = 0
        self.conflict_stalls = 0
        # ``% slots`` is a mask: it is a power of two.
        self._name_lane = ((self.slots - 1) & 0xFFFFFFFF).to_bytes(
            8, sys.byteorder)

    def reset(self) -> None:
        """Clear table contents and statistics (new job, new history)."""
        self.entries.clear()
        self.lookups = 0
        self.insertions = 0
        self.conflict_stalls = 0

    @staticmethod
    def hash3(data: bytes, i: int) -> int:
        """Hash the 3-byte prefix at ``i`` into a 32-bit value."""
        prefix = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16)
        return (prefix * HASH_MULT) & 0xFFFFFFFF

    def slab_columns(self, data: bytes, lo: int, hi: int) -> list[int]:
        """The set name, ``hash3 % slots``, of every position in ``[lo, hi)``.

        One big-int multiply instead of one :meth:`hash3` per position:
        each 3-byte prefix is written into the low bytes of its own
        8-byte lane, and the whole buffer, read as one integer, is
        multiplied by :data:`HASH_MULT`.  A 24-bit prefix times a 32-bit
        multiplier is below 2**56, so no lane's product carries into its
        neighbour, and the low 32 bits of lane ``k`` are exactly
        ``hash3(data, lo + k)``.  Masked lane-wise, the product is the
        set names.  ``data`` must be readable through ``hi + 1``.
        """
        size = 8 * (hi - lo)
        lanes = bytearray(size)
        lanes[_B0::8] = data[lo:hi]
        lanes[_B1::8] = data[lo + 1:hi + 1]
        lanes[_B2::8] = data[lo + 2:hi + 2]
        product = int.from_bytes(lanes, sys.byteorder) * HASH_MULT
        mask = int.from_bytes(self._name_lane * (hi - lo), sys.byteorder)
        names = (product & mask).to_bytes(size, sys.byteorder)
        return memoryview(names).cast("Q").tolist()

    def slab_stalls(self, data: bytes, lo: int, hi: int) -> int:
        """:meth:`charge_group_conflicts` for every scan group of ``[lo, hi)``.

        One 16-bit lane a whole group; column ``m`` holds the groups'
        bytes at offset ``m``.  Positions share a prefix (so a hash:
        ``HASH_MULT`` is odd) where three columns XOR to zero, and a bank
        where their first bytes do under ``banks - 1``.  ``flag - x``
        (``flag`` = 0x100 a lane, ``x`` <= 0xFF) keeps bit 8 where ``x``
        is 0.  A position not preceded by its prefix is *new*; its bank
        holds one more distinct hash than ``count``, the sum of <= 255
        flags of the other new ones on it (<= 0xFF00, so no lane carries
        at any width).  A count plus ``0x8000 - t * ports`` sets bit 15
        where the group stalls a ``t``-th cycle.  The partial group left
        goes to the model itself.  ``data`` is read through ``hi + 1``.
        """
        width, ports = self.width, self.ports
        groups = (hi - lo) // width
        whole = groups * width
        lanes = bytearray(2 * groups)
        columns = []
        for m in range(width + 2):
            lanes[::2] = data[lo + m:lo + m + whole:width]
            columns.append(int.from_bytes(lanes, "little"))
        flag = int.from_bytes(b"\0\1" * groups, "little")
        bank_mask = (flag >> 8) * (self.banks - 1)
        pairs = list(itertools.combinations(range(width), 2))
        repeated = [0] * width
        for k, j in pairs:
            repeated[j] |= flag - (columns[j] ^ columns[k]
                                 | columns[j + 1] ^ columns[k + 1]
                                 | columns[j + 2] ^ columns[k + 2])
        new = [r & flag ^ flag for r in repeated]
        counts = [0] * width
        for k, j in pairs:
            same = flag - ((columns[j] ^ columns[k]) & bank_mask) & flag
            counts[j] += same & new[k]
            counts[k] += same & new[j]
        counts = [(c & n * 255) >> 8 for c, n in zip(counts, new)]
        stalls = 0
        for t in range(1, (width - 1) // ports + 1):
            bias = (flag >> 8) * (0x8000 - t * ports)
            over = 0
            for count in counts:
                over |= count + bias
            stalls += (over & flag << 7).bit_count()
        self.conflict_stalls += stalls
        tail = [self.hash3(data, i) for i in range(lo + whole, hi)]
        return stalls + self.charge_group_conflicts(
            [(h % self.banks, h) for h in tail])

    def lookup_insert(self, data: bytes, i: int) -> tuple[list[int],
                                                          tuple[int, int]]:
        """Return (candidate positions, access) and insert position ``i``.

        Candidates are returned most-recent first and filtered to the
        sliding window; the caller still validates the actual bytes (hash
        aliasing is allowed, exactly as in hardware).  ``access`` is the
        ``(bank, hash)`` pair :meth:`charge_group_conflicts` takes.
        """
        h = self.hash3(data, i)
        entry = self.entries.setdefault(h % self.slots, [])
        low_limit = i - self.window
        candidates = [pos for pos in reversed(entry) if pos > low_limit]
        entry.append(i)
        if len(entry) > self.ways:
            entry.pop(0)
        self.lookups += 1
        self.insertions += 1
        return candidates, (h % self.banks, h)

    def charge_group_conflicts(self, accesses: list[tuple[int, int]]) -> int:
        """Account bank-conflict stalls for one scan group.

        ``accesses`` holds (bank, hash) pairs for the group.  Each bank
        serves ``ports`` accesses per cycle; accesses with the same hash
        hit the same set and are merged by the combining network, so only
        *distinct* hashes contend.  The group stalls until the worst bank
        has drained all its distinct accesses.
        """
        if not accesses:
            return 0
        per_bank: dict[int, int] = {}
        for bank, _h in set(accesses):
            per_bank[bank] = per_bank.get(bank, 0) + 1
        worst = max(per_bank.values())
        stalls = max(0, -(-worst // self.ports) - 1)
        self.conflict_stalls += stalls
        return stalls
