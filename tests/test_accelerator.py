"""Chip-level accelerator: paste FIFO drain, engine routing, hydration."""

import zlib as stdzlib

from repro.nx.accelerator import NxAccelerator
from repro.nx.params import POWER9
from repro.sysstack.crb import CcCode, Crb, FunctionCode, Op
from repro.sysstack.dde import Dde
from repro.sysstack.mmu import AddressSpace


def place_job(space, data, op=Op.COMPRESS):
    src = space.alloc(max(1, len(data)))
    space.write(src, data)
    dst_len = max(4096, len(data) * 3)
    dst = space.alloc(dst_len)
    csb = space.alloc(64)
    return Crb(function=FunctionCode(op=op),
               source=Dde.direct(src, len(data)),
               target=Dde.direct(dst, dst_len), csb_address=csb)


class TestDrain:
    def test_drains_in_order_and_returns_credits(self, text_20k):
        space = AddressSpace()
        accel = NxAccelerator(POWER9)
        window = accel.vas.open_window()
        for _ in range(3):
            crb = place_job(space, text_20k)
            assert accel.vas.paste(window.window_id, crb)
        completed = accel.drain(space)
        assert len(completed) == 3
        assert window.outstanding == 0
        for job in completed:
            assert job.outcome.csb.cc is CcCode.SUCCESS

    def test_empty_drain(self):
        accel = NxAccelerator(POWER9)
        assert accel.drain(AddressSpace()) == []

    def test_compress_and_decompress_use_separate_engines(self, text_20k):
        space = AddressSpace()
        accel = NxAccelerator(POWER9)
        c_crb = place_job(space, text_20k, op=Op.COMPRESS)
        outcome = accel.execute(c_crb, space)
        payload = space.read(c_crb.target.address,
                             outcome.csb.target_written)
        d_crb = place_job(space, payload, op=Op.DECOMPRESS)
        accel.execute(d_crb, space)
        assert accel.compress_engine.counters.jobs == 1
        assert accel.decompress_engine.counters.jobs == 1

    def test_indirect_dde_hydrated_from_memory(self, text_20k):
        space = AddressSpace()
        accel = NxAccelerator(POWER9)
        window = accel.vas.open_window()

        half = len(text_20k) // 2
        a = space.alloc(half)
        b = space.alloc(len(text_20k) - half)
        space.write(a, text_20k[:half])
        space.write(b, text_20k[half:])
        gather = Dde.gather([(a, half), (b, len(text_20k) - half)])
        list_va = space.alloc(len(gather.pack_entries()))
        space.write(list_va, gather.pack_entries())
        gather.address = list_va

        dst = space.alloc(len(text_20k) * 2)
        csb = space.alloc(64)
        crb = Crb(function=FunctionCode(op=Op.COMPRESS), source=gather,
                  target=Dde.direct(dst, len(text_20k) * 2),
                  csb_address=csb)
        assert accel.vas.paste(window.window_id, crb)
        completed = accel.drain(space)
        written = completed[0].outcome.csb.target_written
        assert stdzlib.decompress(space.read(dst, written), -15) == text_20k

    def test_busy_seconds_accumulate(self, text_20k):
        space = AddressSpace()
        accel = NxAccelerator(POWER9)
        accel.execute(place_job(space, text_20k), space)
        assert accel.compress_engine.counters.busy_seconds > 0
