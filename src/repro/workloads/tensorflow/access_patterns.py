"""Why packing exists: the GEMM kernel's memory access patterns.

gemmlowp packs matrices "to minimize cache misses during matrix
multiplication" (paper Section 5.2).  This module generates the GEMM
inner kernel's actual access streams over packed vs. unpacked operands
so the cache simulator can verify the claim quantitatively.  Two
effects make the row-major (unpacked) walk expensive:

* the micro-kernel consumes ``panel_rows`` operands per depth step that
  sit a full leading dimension apart -- with the power-of-two leading
  dimensions neural layers produce (k = 4096, 8192, ...), those rows map
  to the *same cache set* and thrash a set-associative L1 once the
  micro-kernel is wider than the associativity (conflict misses);
* each depth step needs ``panel_rows`` scattered loads instead of one
  contiguous vector load.

The packed panel-major layout makes the same walk unit-stride, removing
both.

Each walk is computed with array arithmetic and recorded as one
:meth:`~repro.sim.trace.TraceRecorder.record_ranges` batch, so its
Python work is constant however many loads it makes; the
one-read-per-load loop it replaced is the test oracle
(``tests/sim/oracle.py``).
"""

from __future__ import annotations

from repro.sim.trace import AddressSpace, MemoryTrace, TraceRecorder


def gemm_lhs_trace(
    m: int,
    k: int,
    n_blocks: int,
    packed: bool,
    panel_rows: int = 4,
    granularity: int = 16,
) -> MemoryTrace:
    """The kernel's LHS access stream for an (m x k) operand.

    The kernel walks the shared dimension ``k`` once per RHS block,
    consuming ``panel_rows`` LHS rows at a time:

    * **unpacked** (row-major): the ``panel_rows`` operands at depth
      ``d`` live ``k`` bytes apart -- every step touches ``panel_rows``
      distinct cache lines spread over the matrix;
    * **packed** (panel-major): the same operands are adjacent -- the
      kernel streams one contiguous buffer with unit stride.

    The whole walk is computed with array arithmetic and emitted as one
    :meth:`TraceRecorder.record_ranges` batch, in the kernel's (block,
    panel, depth step, row) order, so the trace is byte-identical to
    issuing one read per operand load.

    Args:
        n_blocks: how many RHS column blocks traverse the LHS (each
            traversal re-reads the whole operand).
    """
    import numpy as np

    if m <= 0 or k <= 0 or n_blocks <= 0:
        raise ValueError("dimensions must be positive")
    if panel_rows <= 0:
        raise ValueError("panel_rows must be positive")
    space = AddressSpace()
    base = space.alloc(m * k)
    rec = TraceRecorder(granularity=granularity)
    num_panels = (m + panel_rows - 1) // panel_rows
    if packed:
        # Panel-major: the whole panel is one contiguous run; the last
        # panel holds only the rows left below m.
        first_rows = np.arange(num_panels, dtype=np.int64) * panel_rows
        bases = base + first_rows * k
        sizes = np.minimum(panel_rows, m - first_rows) * k
    else:
        # Row-major: a [panel, depth, row] grid in the order the kernel
        # consumes it -- panel_rows operands per depth step, k bytes
        # apart -- minus the last panel's rows past m.
        rows = np.arange(num_panels * panel_rows, dtype=np.int64)
        rows = rows.reshape(num_panels, 1, panel_rows)
        depths = np.arange(0, k, granularity, dtype=np.int64).reshape(1, -1, 1)
        grid = base + rows * k + depths
        bases = grid[np.broadcast_to(rows < m, grid.shape)]
        sizes = np.full(bases.shape, granularity)
    bases = np.tile(bases, n_blocks)
    rec.record_ranges(
        bases, np.tile(sizes, n_blocks), np.zeros(bases.shape, dtype=bool)
    )
    return rec.trace()


def pack_then_kernel_traffic(
    m: int, k: int, n_blocks: int, panel_rows: int = 16
) -> dict:
    """Cache behaviour of both strategies, via the cache simulator.

    Returns L1 miss counts for the unpacked kernel and for the packed
    strategy *including* the one-time packing pass (read + write of the
    operand, ~one miss per line) -- the true trade the paper describes:
    pay a streaming reorganization once, save the kernel's conflict
    misses on every traversal.
    """
    from repro.sim.cache import replay_trace

    unpacked = replay_trace(
        gemm_lhs_trace(m, k, n_blocks, packed=False, panel_rows=panel_rows)
    )
    packed = replay_trace(
        gemm_lhs_trace(m, k, n_blocks, packed=True, panel_rows=panel_rows)
    )
    pack_pass_misses = 2 * m * k / 64.0  # stream in + stream out, once
    return {
        "unpacked_l1_misses": unpacked.l1.misses,
        "packed_kernel_l1_misses": packed.l1.misses,
        "packing_pass_misses": pack_pass_misses,
        "packed_total_misses": packed.l1.misses + pack_pass_misses,
        "unpacked_dram_bytes": unpacked.dram_bytes,
        "packed_kernel_dram_bytes": packed.dram_bytes,
    }
