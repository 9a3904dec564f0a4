"""VAS switchboard: windows, credits, paste flow control."""

import pytest

from repro.errors import VasError
from repro.sysstack.crb import Crb, FunctionCode, Op
from repro.sysstack.dde import Dde
from repro.sysstack.vas import RX_FIFO_DEPTH, Vas


def make_crb(seq: int = 0) -> Crb:
    return Crb(function=FunctionCode(op=Op.COMPRESS),
               source=Dde.direct(0x1000, 100),
               target=Dde.direct(0x2000, 200),
               csb_address=0x3000, sequence=seq)


class TestWindows:
    def test_open_assigns_ids(self):
        vas = Vas()
        w1 = vas.open_window()
        w2 = vas.open_window()
        assert w1.window_id != w2.window_id

    def test_close_removes(self):
        vas = Vas()
        w = vas.open_window()
        vas.close_window(w.window_id)
        with pytest.raises(VasError):
            vas.paste(w.window_id, make_crb())

    def test_close_with_outstanding_rejected(self):
        vas = Vas()
        w = vas.open_window()
        vas.paste(w.window_id, make_crb())
        with pytest.raises(VasError):
            vas.close_window(w.window_id)

    def test_unknown_window_rejected(self):
        with pytest.raises(VasError):
            Vas().paste(99, make_crb())


class TestCredits:
    def test_paste_consumes_credit(self):
        vas = Vas()
        w = vas.open_window(credits=2)
        assert vas.paste(w.window_id, make_crb(0))
        assert vas.paste(w.window_id, make_crb(1))
        assert not vas.paste(w.window_id, make_crb(2))  # out of credits
        assert w.pastes_rejected == 1

    def test_return_credit_allows_more(self):
        vas = Vas()
        w = vas.open_window(credits=1)
        assert vas.paste(w.window_id, make_crb())
        vas.pop_request()
        vas.return_credit(w.window_id)
        assert vas.paste(w.window_id, make_crb())

    def test_over_return_rejected(self):
        vas = Vas()
        w = vas.open_window()
        with pytest.raises(VasError):
            vas.return_credit(w.window_id)

    def test_custom_credit_allocation(self):
        vas = Vas()
        w = vas.open_window(credits=3)
        assert w.credits == 3


class TestFifo:
    def test_fifo_order(self):
        vas = Vas()
        w = vas.open_window()
        for seq in range(4):
            vas.paste(w.window_id, make_crb(seq))
        seqs = []
        while True:
            record = vas.pop_request()
            if record is None:
                break
            seqs.append(record.crb().sequence)
        assert seqs == [0, 1, 2, 3]

    def test_fifo_depth_backpressure(self):
        vas = Vas()
        w = vas.open_window(credits=RX_FIFO_DEPTH + 1)
        for seq in range(RX_FIFO_DEPTH):
            assert vas.paste(w.window_id, make_crb(seq))
        assert not vas.paste(w.window_id, make_crb())  # FIFO full

    def test_pop_empty_returns_none(self):
        assert Vas().pop_request() is None

    def test_paste_payload_is_raw_crb(self):
        vas = Vas()
        w = vas.open_window()
        crb = make_crb(9)
        vas.paste(w.window_id, crb)
        record = vas.pop_request()
        assert record.raw_crb == crb.pack()
        assert record.window_id == w.window_id

    def test_multiple_windows_share_fifo(self):
        vas = Vas()
        w1 = vas.open_window()
        w2 = vas.open_window()
        vas.paste(w1.window_id, make_crb(0))
        vas.paste(w2.window_id, make_crb(1))
        assert vas.pop_request().window_id == w1.window_id
        assert vas.pop_request().window_id == w2.window_id
