"""Trace generation and replay."""

import pytest

from repro.nx.params import POWER9
from repro.workloads.replay import (
    BULK_BYTES,
    BULK_END_FRAC,
    BULK_START_FRAC,
    REQUEST_BYTES,
    DiurnalSpec,
    TracePoint,
    diurnal_trace,
    replay,
)


@pytest.fixture(scope="module")
def small_spec():
    return DiurnalSpec(duration_s=0.5, base_rate_per_s=5000.0,
                       bulk_rate_per_s=200.0, seed=1)


class TestDiurnalTrace:
    def test_sorted_and_bounded(self, small_spec):
        trace = diurnal_trace(small_spec)
        times = [p.time_s for p in trace]
        assert times == sorted(times)
        assert all(0 <= t <= small_spec.duration_s for t in times)

    def test_deterministic(self, small_spec):
        assert diurnal_trace(small_spec) == diurnal_trace(small_spec)

    def test_bulk_window_present(self, small_spec):
        trace = diurnal_trace(small_spec)
        bulk = [p for p in trace if p.size_bytes == BULK_BYTES]
        assert bulk
        lo = BULK_START_FRAC * small_spec.duration_s
        hi = BULK_END_FRAC * small_spec.duration_s
        assert all(lo <= p.time_s <= hi for p in bulk)

    def test_sinusoidal_modulation(self, small_spec):
        """First half (rising sine) carries more RPCs than second half."""
        trace = [p for p in diurnal_trace(small_spec)
                 if p.size_bytes == REQUEST_BYTES]
        half = small_spec.duration_s / 2
        first = sum(1 for p in trace if p.time_s < half)
        second = len(trace) - first
        assert first > second


class TestReplay:
    def test_all_requests_served(self, small_spec):
        trace = diurnal_trace(small_spec)
        result = replay(trace, POWER9, engines=1,
                        duration_s=small_spec.duration_s)
        assert result.total_requests == len(trace)

    def test_bucket_counts_sum(self, small_spec):
        trace = diurnal_trace(small_spec)
        result = replay(trace, POWER9, engines=1, buckets=5,
                        duration_s=small_spec.duration_s)
        assert sum(b.count for b in result.buckets) == len(trace)
        assert len(result.buckets) == 5

    def test_more_engines_never_worse(self, small_spec):
        trace = diurnal_trace(small_spec)
        one = replay(trace, POWER9, engines=1,
                     duration_s=small_spec.duration_s)
        four = replay(trace, POWER9, engines=4,
                      duration_s=small_spec.duration_s)
        assert (four.worst_bucket.p99_latency_s
                <= one.worst_bucket.p99_latency_s * 1.001)

    def test_empty_trace(self):
        result = replay([], POWER9, engines=1, duration_s=1.0)
        assert result.total_requests == 0
        assert all(b.count == 0 for b in result.buckets)

    def test_queue_depth_tracked(self, small_spec):
        trace = diurnal_trace(small_spec)
        result = replay(trace, POWER9, engines=1,
                        duration_s=small_spec.duration_s)
        assert result.max_queue_depth >= 1

    def test_single_point(self):
        result = replay([TracePoint(0.1, 65536)], POWER9, duration_s=1.0)
        assert result.total_requests == 1
        latency = result.worst_bucket.p99_latency_s
        assert 5e-6 < latency < 50e-6
