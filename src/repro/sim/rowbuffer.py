"""DRAM row-buffer locality (Table 1's FR-FCFS scheduler, grounded).

The analytic DRAM models fold row-buffer behaviour into two constants:
the sustained-bandwidth efficiency (0.8) and the average access latency
(100 ns off-chip).  This module makes those constants inspectable: it
replays a line-address stream against a banked open-row DRAM model with
FR-FCFS-style reordering (row hits within a small queue window are
served first) and reports the row-hit rate and the implied average
latency -- the tests check that streaming kernels land near the
"efficient" constants and random kernels near the "latency" ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CACHE_LINE_BYTES
from repro.sim.trace import MemoryTrace


@dataclass(frozen=True)
class DramGeometry:
    """LPDDR3-class bank/row geometry."""

    num_banks: int = 8
    row_bytes: int = 2048  # 2 kB row buffer per bank
    #: Latencies (ns): column access on a row hit; precharge+activate+
    #: column on a row miss (conflict).
    row_hit_ns: float = 20.0
    row_miss_ns: float = 45.0

    def bank_and_row(self, line_addr: int) -> tuple[int, int]:
        """Map a cache-line address to (bank, row).

        Lines interleave across banks (consecutive lines hit different
        banks, the standard mapping for streaming bandwidth).
        """
        byte_addr = line_addr * CACHE_LINE_BYTES
        bank = line_addr % self.num_banks
        row = byte_addr // (self.row_bytes * self.num_banks)
        return bank, row


@dataclass
class RowBufferStats:
    """Outcome of replaying an address stream."""

    accesses: int = 0
    row_hits: int = 0

    @property
    def hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0

    def average_latency_ns(self, geometry: DramGeometry) -> float:
        if self.accesses == 0:
            return 0.0
        misses = self.accesses - self.row_hits
        return (
            self.row_hits * geometry.row_hit_ns + misses * geometry.row_miss_ns
        ) / self.accesses


class RowBufferModel:
    """Open-row, per-bank row buffers with FR-FCFS-style reordering."""

    def __init__(self, geometry: DramGeometry | None = None, queue_window: int = 16):
        if queue_window < 1:
            raise ValueError("queue_window must be >= 1")
        self.geometry = geometry or DramGeometry()
        self.queue_window = queue_window

    def replay_lines(self, line_addresses) -> RowBufferStats:
        """Replay line-granularity addresses through the banks.

        FR-FCFS is approximated by draining each ``queue_window``-sized
        chunk row-hits-first: requests to currently-open rows are served
        before requests that would close them.
        """
        geometry = self.geometry
        open_rows: dict[int, int] = {}
        stats = RowBufferStats()
        pending = list(line_addresses)
        for start in range(0, len(pending), self.queue_window):
            window = [
                geometry.bank_and_row(int(a))
                for a in pending[start : start + self.queue_window]
            ]
            # First ready: serve row hits in the window first.
            hits = [ba for ba in window if open_rows.get(ba[0]) == ba[1]]
            misses = [ba for ba in window if open_rows.get(ba[0]) != ba[1]]
            for bank, row in hits + misses:
                stats.accesses += 1
                if open_rows.get(bank) == row:
                    stats.row_hits += 1
                else:
                    open_rows[bank] = row
        return stats

    def replay_in_order(self, trace: MemoryTrace) -> RowBufferStats:
        """Replay preserving the trace's order (no dedup)."""
        return self.replay_lines(trace.line_addresses())
