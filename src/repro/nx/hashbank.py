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
slab's columns from :meth:`~BankedHashTable.slab_columns`, drives the
same ``entries`` dict inline, and the tests hold the two equal.
"""

from __future__ import annotations

import sys

from .params import EngineParams

HASH_MULT = 0x9E3779B1  # Fibonacci hashing of the 3-byte prefix

#: Where a prefix's bytes 0/1/2 sit in its native-endian 8-byte lane, and
#: which 32-bit half of the lane is the low one (``memoryview.cast`` only
#: reads native order, so ``slab_columns`` lays the lanes out natively).
_B0, _B1, _B2, _LOW_WORD = ((0, 1, 2, 0) if sys.byteorder == "little"
                            else (7, 6, 5, 1))


class BankedHashTable:
    """Functional + conflict-accounting model of the match hash table."""

    def __init__(self, params: EngineParams) -> None:
        self.banks = params.hash_banks
        self.ports = params.hash_ports
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
        # ``% slots`` and ``% banks`` are masks: both are powers of two.
        self._name_lane = ((self.slots - 1) & 0xFFFFFFFF).to_bytes(
            8, sys.byteorder)
        self._bank_of_byte = bytes(b & (self.banks - 1) for b in range(256))

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

    def slab_columns(self, data: bytes, lo: int,
                     hi: int) -> tuple[list[int], bytes, memoryview]:
        """Set names, bank ids and hashes of every position in ``[lo, hi)``.

        One big-int multiply instead of one :meth:`hash3` per position:
        each 3-byte prefix is written into the low bytes of its own
        8-byte lane, and the whole buffer, read as one integer, is
        multiplied by :data:`HASH_MULT`.  A 24-bit prefix times a 32-bit
        multiplier is below 2**56, so no lane's product carries into its
        neighbour, and the low 32 bits of lane ``k`` are exactly
        ``hash3(data, lo + k)``.  Masked lane-wise, the product is the
        set names, and the low byte of each lane, masked again, the bank
        ids; the unmasked low words stay a view of the hashes.  ``data``
        must be readable through ``hi + 1``.
        """
        size = 8 * (hi - lo)
        lanes = bytearray(size)
        lanes[_B0::8] = data[lo:hi]
        lanes[_B1::8] = data[lo + 1:hi + 1]
        lanes[_B2::8] = data[lo + 2:hi + 2]
        product = int.from_bytes(lanes, sys.byteorder) * HASH_MULT
        mask = int.from_bytes(self._name_lane * (hi - lo), sys.byteorder)
        names = (product & mask).to_bytes(size, sys.byteorder)
        hashes = memoryview(product.to_bytes(size, sys.byteorder)).cast("I")
        return (memoryview(names).cast("Q").tolist(),
                names[_B0::8].translate(self._bank_of_byte),
                hashes[_LOW_WORD::2])

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
