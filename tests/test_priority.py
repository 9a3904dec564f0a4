"""VAS priority FIFOs, and the queueing model's two-class discipline."""

import pytest

from repro.errors import VasError
from repro.nx.params import POWER9
from repro.perf.queueing import AcceleratorQueue, Source
from repro.sysstack.vas import RX_FIFO_DEPTH, STARVATION_BOUND, Vas

from .test_vas import make_crb


class TestVasPriority:
    def test_high_window_routes_to_high_fifo(self):
        vas = Vas()
        high = vas.open_window(priority="high")
        normal = vas.open_window()
        vas.paste(normal.window_id, make_crb(0))
        vas.paste(high.window_id, make_crb(1))
        assert len(vas.rx_fifo_high) == 1
        assert len(vas.rx_fifo) == 1

    def test_high_served_first(self):
        vas = Vas()
        high = vas.open_window(priority="high")
        normal = vas.open_window()
        vas.paste(normal.window_id, make_crb(0))
        vas.paste(high.window_id, make_crb(1))
        assert vas.pop_request().window_id == high.window_id
        assert vas.pop_request().window_id == normal.window_id

    def test_anti_starvation(self):
        vas = Vas()
        high = vas.open_window(priority="high", credits=64)
        normal = vas.open_window(credits=64)
        vas.paste(normal.window_id, make_crb(99))
        for seq in range(STARVATION_BOUND + 2):
            vas.paste(high.window_id, make_crb(seq))
        # STARVATION_BOUND high grants, then the normal one gets through.
        order = [vas.pop_request().window_id
                 for _ in range(STARVATION_BOUND + 2)]
        assert order == [high.window_id] * STARVATION_BOUND \
            + [normal.window_id, high.window_id]

    def test_bad_priority_rejected(self):
        with pytest.raises(VasError):
            Vas().open_window(priority="urgent")

    def test_fifo_depths_independent(self):
        vas = Vas()
        high = vas.open_window(priority="high")
        normal = vas.open_window(credits=RX_FIFO_DEPTH + 1)
        for seq in range(RX_FIFO_DEPTH):
            assert vas.paste(normal.window_id, make_crb(seq))
        assert vas.paste(high.window_id, make_crb(1))  # own FIFO
        assert not vas.paste(normal.window_id, make_crb(2))

    def test_drain_still_returns_credits(self, text_20k):
        from repro.nx.accelerator import NxAccelerator
        from repro.sysstack.mmu import AddressSpace

        from .test_accelerator import place_job

        space = AddressSpace()
        accel = NxAccelerator(POWER9)
        high = accel.vas.open_window(priority="high")
        normal = accel.vas.open_window()
        accel.vas.paste(normal.window_id, place_job(space, text_20k))
        accel.vas.paste(high.window_id, place_job(space, text_20k))
        completed = accel.drain(space)
        assert [c.window_id for c in completed] == [high.window_id,
                                                    normal.window_id]
        assert high.outstanding == 0
        assert normal.outstanding == 0


class TestPriorityQueueSim:
    """8 KB high-priority RPCs and 4 MB bulk on one engine, under one
    FIFO (``starvation_bound=None``) and under the two VAS FIFOs."""

    def _run(self, use_priority: bool):
        model = AcceleratorQueue(
            POWER9, starvation_bound=8 if use_priority else None, seed=4)
        return model.run_open([Source(3000, 8192, high_priority=True),
                               Source(1400, 4 << 20)],
                              duration_s=0.15).by_class()

    def test_both_classes_complete(self):
        results = self._run(True)
        assert results["high"].completed > 100
        assert results["bulk"].completed >= 1

    def test_priority_improves_high_class_tail(self):
        fifo = self._run(False)
        prio = self._run(True)
        assert prio["high"].percentile(95) < fifo["high"].percentile(95)

    def test_bulk_not_starved(self):
        prio = self._run(True)
        fifo = self._run(False)
        assert prio["bulk"].completed >= fifo["bulk"].completed * 0.8

    def test_deterministic(self):
        a = self._run(True)
        b = self._run(True)
        assert a["high"].mean_latency == pytest.approx(
            b["high"].mean_latency)
