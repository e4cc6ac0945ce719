"""Why the data-reorganization kernels exist.

Texture tiling and gemmlowp packing are pure data movement -- the paper
offloads them because they are expensive, but they exist because they
make *later* accesses cache-friendly.  These tests verify that rationale
with the cache simulator: the reorganized layouts must measurably cut
misses for the consumer (the GPU compositor / the GEMM kernel).
"""

import numpy as np
import pytest

from repro.config import CacheConfig, SocConfig
from repro.sim.cache import replay_trace
from repro.sim.trace import AddressSpace
from repro.workloads.chrome.texture import compositing_trace
from repro.workloads.tensorflow.access_patterns import (
    gemm_lhs_trace,
    pack_then_kernel_traffic,
)

KB = 1024


def gpu_like_soc():
    """A GPU-texture-cache-sized hierarchy (8 kB L1, 16 kB L2)."""
    return SocConfig(
        l1=CacheConfig(size_bytes=8 * KB, associativity=4),
        l2=CacheConfig(size_bytes=16 * KB, associativity=8),
    )


class TestTextureTilingRationale:
    def test_tiled_layout_cuts_compositing_misses(self):
        """Vertical sampling of a 512x512 texture through a small GPU
        cache: the tiled layout must fetch each byte ~once while the
        linear layout thrashes (Section 4.2.2's motivation)."""
        linear = replay_trace(
            compositing_trace(512, 512, tiled=False), gpu_like_soc()
        )
        tiled = replay_trace(
            compositing_trace(512, 512, tiled=True), gpu_like_soc()
        )
        assert tiled.dram_bytes < linear.dram_bytes / 2
        texture_bytes = 512 * 512 * 4
        # Tiled: compulsory traffic only (within 15%).
        assert tiled.dram_bytes <= texture_bytes * 1.15

    def test_layouts_equal_on_huge_cache(self):
        """With a cache bigger than the texture the layouts tie --
        the benefit is purely about capturing reuse, not total bytes."""
        big = SocConfig()  # 2 MB LLC > 1 MB texture
        linear = replay_trace(compositing_trace(512, 512, False), big)
        tiled = replay_trace(compositing_trace(512, 512, True), big)
        assert linear.dram_bytes == pytest.approx(tiled.dram_bytes, rel=0.1)


class TestPackingRationale:
    def test_wide_microkernel_thrashes_unpacked_l1(self):
        """A 16-row micro-kernel over a k=8192 (power-of-two leading
        dimension) operand: the 16 rows map onto the same L1 sets and
        exceed the 4-way associativity -- every access conflicts.  The
        packed layout streams with the normal 25% miss rate (one miss
        per 64 B line at 16 B granules)."""
        m, k = 256, 8192
        unpacked = replay_trace(
            gemm_lhs_trace(m, k, 1, packed=False, panel_rows=16)
        )
        packed = replay_trace(
            gemm_lhs_trace(m, k, 1, packed=True, panel_rows=16)
        )
        assert unpacked.l1.miss_rate > 0.9
        assert packed.l1.miss_rate < 0.3

    def test_narrow_microkernel_has_no_conflicts(self):
        """Within the associativity (4 rows, 4 ways) the layouts tie --
        the conflict effect is specifically about wide kernels."""
        unpacked = replay_trace(
            gemm_lhs_trace(256, 8192, 1, packed=False, panel_rows=4)
        )
        packed = replay_trace(
            gemm_lhs_trace(256, 8192, 1, packed=True, panel_rows=4)
        )
        assert unpacked.l1.misses == packed.l1.misses

    def test_packing_pays_for_itself(self):
        """The paper's trade: one streaming reorganization pass buys
        conflict-free kernel traversals; totals (pack pass included)
        must favour packing."""
        result = pack_then_kernel_traffic(m=256, k=8192, n_blocks=2)
        assert result["packed_total_misses"] < result["unpacked_l1_misses"]

    @pytest.mark.parametrize("m, panel_rows", [(7, 4), (5, 16), (130, 4)])
    def test_packed_walk_reads_only_the_operand(self, m, panel_rows):
        """A partial last panel holds only the operand's remaining rows:
        each block reads m*k bytes, the same bytes the unpacked walk
        reads, and no access starts at or past the operand's end."""
        k, n_blocks, granularity = 64, 2, 16
        base = AddressSpace().alloc(m * k)
        packed = gemm_lhs_trace(m, k, n_blocks, True, panel_rows, granularity)
        unpacked = gemm_lhs_trace(m, k, n_blocks, False, panel_rows, granularity)
        assert len(packed) * granularity == n_blocks * m * k
        assert int(packed.addresses.min()) == base
        assert int(packed.addresses.max()) < base + m * k
        assert np.array_equal(
            np.sort(packed.addresses), np.sort(unpacked.addresses)
        )

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            gemm_lhs_trace(0, 10, 1, packed=True)
        with pytest.raises(ValueError):
            gemm_lhs_trace(10, 10, 1, packed=True, panel_rows=0)
