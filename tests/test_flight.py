"""Flight recorder: bounded ring, throttled dumps, fault-path capture."""

from __future__ import annotations

import importlib
import json

import pytest

from repro.nx.accelerator import NxAccelerator
from repro.nx.params import POWER9
from repro.obs.flight import DEFAULT_CAPACITY, FLIGHT, FlightRecorder
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.sysstack.crb import Op
from repro.sysstack.driver import NxDriver
from repro.sysstack.mmu import AddressSpace
from repro.workloads.generators import generate

# The module itself: ``repro.obs.flight`` the attribute is its accessor.
flight = importlib.import_module("repro.obs.flight")


class TestRing:
    def test_record_and_snapshot(self):
        rec = FlightRecorder()
        rec.record("api.compress", nbytes=100)
        rec.record("pool.rescue", kind="retry")
        snap = rec.snapshot()
        assert [r["kind"] for r in snap] == ["api.compress", "pool.rescue"]
        assert snap[0]["nbytes"] == 100
        assert snap[0]["t_s"] > 0
        # A field named "kind" survives under a prefix, not clobbering
        # the record kind (the pool rescue path records one).
        assert snap[1]["f_kind"] == "retry"

    def test_ring_is_bounded_at_capacity(self):
        rec = FlightRecorder()
        for i in range(DEFAULT_CAPACITY + 92):
            rec.record("tick", i=i)
        assert len(rec) == DEFAULT_CAPACITY
        assert [r["i"] for r in rec.snapshot()][-8:] == \
            list(range(DEFAULT_CAPACITY + 84, DEFAULT_CAPACITY + 92))
        assert rec.snapshot()[0]["i"] == 92

    def test_disable_stops_recording(self):
        rec = FlightRecorder()
        rec.disable()
        rec.record("tick")
        assert len(rec) == 0
        rec.enable()
        rec.record("tick")
        assert len(rec) == 1

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT", "0")
        rec = FlightRecorder()
        assert not rec.enabled
        rec.record("tick")
        assert len(rec) == 0


class TestDump:
    def test_dump_writes_ring_and_detail(self, tmp_path):
        rec = FlightRecorder()
        rec.record("engine.run", chip=0)
        path = rec.dump("verify_failure", path=tmp_path / "d.json",
                        chip=0, err=ValueError("boom"))
        doc = json.loads(open(path).read())
        assert doc["reason"] == "verify_failure"
        assert doc["capacity"] == DEFAULT_CAPACITY
        assert [r["kind"] for r in doc["records"]] == ["engine.run"]
        assert doc["detail"]["chip"] == 0
        assert "boom" in doc["detail"]["err"]  # repr'd, stays JSON-able
        assert rec.dumps_written == 1

    def test_auto_dump_throttles_interval_and_cap(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        monkeypatch.setattr(flight, "MIN_DUMP_INTERVAL_S", 3600.0)
        rec = FlightRecorder()
        assert rec.auto_dump("breaker_open", chip=1) is not None
        # Second dump inside the interval is suppressed but still
        # recorded in the ring for a later dump to pick up.
        assert rec.auto_dump("breaker_open", chip=1) is None
        assert rec.dumps_written == 1
        assert rec.dumps_suppressed == 1
        kinds = [r["kind"] for r in rec.snapshot()]
        assert kinds.count("dump.breaker_open") == 2

    def test_auto_dump_per_process_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        monkeypatch.setattr(flight, "MIN_DUMP_INTERVAL_S", 0.0)
        monkeypatch.setattr(flight, "MAX_DUMPS_PER_PROCESS", 2)
        rec = FlightRecorder()
        written = [rec.auto_dump("fault_x_y", i=i) for i in range(5)]
        assert sum(1 for p in written if p) == 2
        assert rec.dumps_suppressed == 3

    def test_dump_never_raises_on_bad_dir(self, tmp_path):
        rec = FlightRecorder()
        path = rec.dump("x", path=tmp_path / "no" / "such" / "dir.json")
        assert path is None
        assert rec.dumps_suppressed == 1


class TestFaultCapture:
    """A chaos-injected fault dumps the ring with the job's events."""

    def test_corrupt_output_fault_produces_dump(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        FLIGHT.reset()
        FLIGHT.enable()
        try:
            FLIGHT.record("api.compress", nbytes=20000,
                          backend="model:POWER9")
            accel = NxAccelerator(POWER9)
            FaultInjector(
                [FaultPlan("corrupt_output", at=1)],
                seed=3).install(accel)
            driver = NxDriver(accel, AddressSpace())
            driver.open()
            driver.run(Op.COMPRESS, generate("markov_text", 20000,
                                             seed=5))
            dumps = sorted(tmp_path.glob("repro-flight-*.json"))
            assert dumps, "fault fired but no flight dump written"
            doc = json.loads(dumps[0].read_text())
            assert doc["reason"] == "fault_corrupt_output"
            kinds = [r["kind"] for r in doc["records"]]
            # The dump holds the job's preceding events and the trigger.
            assert "api.compress" in kinds
            assert "dump.fault_corrupt_output" in kinds
            trigger = [r for r in doc["records"]
                       if r["kind"] == "dump.fault_corrupt_output"]
            assert trigger[0]["chip"] == 0
        finally:
            FLIGHT.reset()

    def test_global_recorder_default_on(self):
        assert isinstance(FLIGHT, FlightRecorder)
        assert DEFAULT_CAPACITY >= 1024


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
