"""Integration: trace-driven cache simulation validates the analytic
locality classes used by the profiles (stand-in for the paper's
performance-counter cross-checks)."""

import pytest

from repro.config import CACHE_LINE_BYTES
from repro.sim.cache import replay_trace
from repro.sim.trace import AddressSpace, TraceRecorder
from repro.sim.profile import KernelProfile

MB = 1024 * 1024


class TestStreamingClass:
    def test_streaming_profile_matches_simulated_stream(self):
        """A memcopy-style kernel: analytic streaming profile and the
        simulated trace agree on DRAM traffic within write-allocate
        effects."""
        size = 8 * MB
        space = AddressSpace()
        src, dst = space.alloc(size), space.alloc(size)
        rec = TraceRecorder(granularity=64)
        for offset in range(0, size, 4096):
            rec.read(src + offset, 4096)
            rec.write(dst + offset, 4096)
        stats = replay_trace(rec.trace())
        profile = KernelProfile.streaming("copy", size, size, ops_per_byte=0.0)
        # Reads: src + dst RFO; writes: dst writeback.
        assert stats.dram_line_writes * CACHE_LINE_BYTES == size
        assert profile.dram_bytes == 2 * size
        assert profile.llc_misses == pytest.approx(
            stats.dram_line_writes + stats.dram_line_reads / 2
        )


class TestCacheResidentClass:
    def test_reuse_does_not_add_traffic(self):
        size = 256 * 1024  # LLC-resident
        rec = TraceRecorder(granularity=64)
        for _ in range(6):
            rec.read(0, size)
        stats = replay_trace(rec.trace())
        profile = KernelProfile.cache_resident(
            "hot", bytes_touched=size, reuse_factor=6, ops_per_byte=1.0
        )
        assert stats.dram_line_reads * CACHE_LINE_BYTES == size
        assert profile.dram_bytes == size


class TestScatteredClass:
    def test_random_touches_miss(self, rng):
        """Random 64 B touches over a 64 MB region: virtually every touch
        is a DRAM access, as the scattered profile assumes."""
        touches = 20_000
        region = 64 * MB
        addresses = rng.integers(0, region // 64, size=touches) * 64
        rec = TraceRecorder(granularity=64)
        for a in addresses:
            rec.read(int(a), 64)
        stats = replay_trace(rec.trace())
        profile = KernelProfile.scattered(
            "rand", touches=touches, bytes_per_touch=64, ops_per_byte=0.5,
        )
        measured_miss_rate = stats.llc.misses / touches
        assert measured_miss_rate > 0.95
        assert profile.dram_bytes >= touches * 64


class TestMpkiCriterion:
    def test_streaming_kernel_passes_paper_threshold_in_simulation(self):
        """MPKI > 10 measured by simulation, not just asserted by the
        analytic profile."""
        size = 4 * MB
        rec = TraceRecorder(granularity=64)
        rec.read(0, size)
        profile = KernelProfile.streaming("k", size, 0, ops_per_byte=0.3,
                                          instruction_overhead=0.1)
        stats = replay_trace(rec.trace())
        assert stats.mpki(profile.instructions) > 10
