"""Unit + validation tests for the event-driven timing simulator.

The model tests run the production engine
(:func:`repro.sim.batch.replay_timing_batch`, one config);
``test_replay_fast_matches_scalar_oracle`` pins it and the line-run
oracle to the per-access oracle (``tests/sim/oracle.py``).
"""

import pytest

from repro.sim.batch import replay_timing_batch
from repro.sim.cpu import CpuModel
from repro.sim.profile import KernelProfile
from repro.sim.timing import TimingParameters, TimingSimulator
from repro.sim.trace import TraceRecorder
from tests.sim import oracle

MB = 1024 * 1024


def replay(trace, params=None, instructions_per_access=2.0):
    """The Table 1 SoC's timing through the production engine."""
    return replay_timing_batch(
        trace, [TimingSimulator(params=params)], instructions_per_access
    )[0]


def streaming_trace(size_bytes, granularity=64):
    rec = TraceRecorder(granularity=granularity)
    rec.read(0, size_bytes)
    return rec.trace()


def resident_trace(size_bytes, passes=8):
    rec = TraceRecorder(granularity=64)
    for _ in range(passes):
        rec.read(0, size_bytes)
    return rec.trace()


class TestBasics:
    def test_empty_trace(self):
        rec = TraceRecorder()
        result = replay(rec.trace())
        assert result.cycles == 0.0
        assert result.accesses == 0

    def test_cached_trace_is_compute_bound(self):
        trace = resident_trace(16 * 1024, passes=64)
        result = replay(trace, instructions_per_access=4.0)
        # Only the 256 compulsory misses stall; the other 63 passes hit.
        assert result.stall_fraction < 0.2

    def test_streaming_trace_is_memory_bound(self):
        trace = streaming_trace(8 * MB)
        result = replay(trace, instructions_per_access=1.0)
        assert result.stall_fraction > 0.5
        assert result.dram_misses == 8 * MB // 64

    def test_more_mshrs_is_faster_on_streams(self):
        trace = streaming_trace(2 * MB)
        narrow = replay(trace, TimingParameters(mshrs=1))
        wide = replay(trace, TimingParameters(mshrs=8))
        assert wide.cycles < narrow.cycles

    def test_bandwidth_floor(self):
        """Even with unlimited MSHRs, DRAM issue spacing enforces the
        channel bandwidth.

        With every access missing to DRAM and 10k MSHRs, the per-access
        oracle's O(mshrs) in-flight filtering would be ~100x slower on
        this trace; the engine's in-flight window, a list read from a
        head index, is bit-identical to it (see
        test_replay_fast_matches_scalar_oracle).
        """
        trace = streaming_trace(2 * MB)
        result = replay(
            trace, TimingParameters(mshrs=10_000), instructions_per_access=0.1
        )
        lines = 2 * MB // 64
        assert result.cycles >= lines * 5.0 * 0.99

    def test_replay_fast_matches_scalar_oracle(self, rng):
        """The per-access oracle, the line-run oracle and the production
        engine return bit-identical TimingResults on a small trace mixing
        hits, LLC hits, and MSHR-limited misses."""
        rec = TraceRecorder(granularity=8)
        rec.read(0, 64 * 1024)
        rec.read(0, 64 * 1024)  # L1/LLC reuse
        for a in rng.integers(0, 1 << 26, size=2000):
            rec.read(int(a) * 64, 8)
        rec.write(0, 16 * 1024)
        trace = rec.trace()
        for params in (
            TimingParameters(),
            TimingParameters(mshrs=1),
            TimingParameters(mshrs=10_000),
        ):
            scalar = oracle.TimingSimulator(params=params).replay(trace)
            fast = oracle.TimingSimulator(params=params).replay_fast(trace)
            assert scalar == fast == replay(trace, params)


class TestRooflineValidation:
    def test_agrees_with_analytic_model_on_streaming_kernel(self):
        """The event-driven replay and the analytic roofline must agree
        within 2x on a streaming kernel (they share no code path)."""
        size = 8 * MB
        trace = streaming_trace(size)
        profile = KernelProfile.streaming(
            "k", size, 0, ops_per_byte=0.1, instruction_overhead=0.05
        )
        analytic = CpuModel().run(profile).time_s
        instructions_per_access = profile.instructions / len(trace)
        event = replay(
            trace, instructions_per_access=instructions_per_access
        ).time_s()
        assert event == pytest.approx(analytic, rel=1.0)

    def test_agrees_on_cache_resident_kernel(self):
        size = 256 * 1024
        passes = 8
        trace = resident_trace(size, passes)
        profile = KernelProfile.cache_resident(
            "k", bytes_touched=size, reuse_factor=passes, ops_per_byte=1.0
        )
        analytic = CpuModel().run(profile).time_s
        instructions_per_access = profile.instructions / len(trace)
        event = replay(
            trace, instructions_per_access=instructions_per_access
        ).time_s()
        assert event == pytest.approx(analytic, rel=1.0)

    def test_scattered_costs_more_per_useful_byte(self, rng):
        """Random 8-byte touches fetch a whole 64 B line each: the cost
        per *useful* byte is ~8x that of a sequential stream."""
        stream = streaming_trace(1 * MB)
        n_touches = len(stream)
        rec = TraceRecorder(granularity=8)
        addresses = rng.integers(0, 64 * MB // 64, size=n_touches) * 64
        for a in addresses:
            rec.read(int(a), 8)
        scattered = rec.trace()
        stream_per_byte = replay(stream).cycles / (1 * MB)
        scatter_per_byte = replay(scattered).cycles / (n_touches * 8)
        assert scatter_per_byte > 4 * stream_per_byte
