"""Memory access traces.

A ``MemoryTrace`` is a flat sequence of (address, is_write) pairs at byte
granularity, stored as numpy arrays.  Workload kernels can record their
actual access patterns through a ``TraceRecorder`` while executing; the
cache simulator (:func:`repro.sim.cache.replay_trace`) then replays the
trace to measure hit rates, MPKI, and off-chip traffic.  This is how the test suite checks
that the analytic locality classes in :mod:`repro.sim.profile` (streaming,
cache-resident, scattered) match what the kernels really do.

The recorder stores compact (base, count, is_write) range records and only
materializes per-access addresses when :meth:`TraceRecorder.trace` is
called, so instrumenting a kernel costs O(ranges), not O(accesses).  The
replay (:mod:`repro.sim.batch`) consumes :meth:`MemoryTrace.line_runs`,
which run-length-compresses consecutive same-line accesses; that method
states why a run replays exactly as one access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CACHE_LINE_BYTES


@dataclass
class MemoryTrace:
    """A sequence of memory accesses.

    Attributes:
        addresses: byte addresses, uint64.
        is_write: boolean flags, same length as ``addresses``.
    """

    addresses: np.ndarray
    is_write: np.ndarray

    def __post_init__(self):
        self.addresses = np.asarray(self.addresses, dtype=np.uint64)
        self.is_write = np.asarray(self.is_write, dtype=bool)
        if self.addresses.shape != self.is_write.shape:
            raise ValueError("addresses and is_write must have equal length")
        # line_bytes -> (run_lines, run_counts, run_writes); see line_runs().
        self._line_runs_cache: dict = {}

    def __len__(self) -> int:
        return int(self.addresses.shape[0])

    @property
    def num_reads(self) -> int:
        return int((~self.is_write).sum())

    @property
    def num_writes(self) -> int:
        return int(self.is_write.sum())

    def line_addresses(self, line_bytes: int = CACHE_LINE_BYTES) -> np.ndarray:
        """Cache-line indices touched, in access order."""
        return self.addresses // np.uint64(line_bytes)

    def unique_lines(self, line_bytes: int = CACHE_LINE_BYTES) -> int:
        return int(np.unique(self.line_addresses(line_bytes)).shape[0])

    def footprint_bytes(self, line_bytes: int = CACHE_LINE_BYTES) -> int:
        return self.unique_lines(line_bytes) * line_bytes

    def concatenated(self, other: "MemoryTrace") -> "MemoryTrace":
        return MemoryTrace(
            addresses=np.concatenate([self.addresses, other.addresses]),
            is_write=np.concatenate([self.is_write, other.is_write]),
        )

    def line_runs(
        self, line_bytes: int = CACHE_LINE_BYTES
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run-length-compress consecutive accesses to the same cache line.

        Returns ``(lines, counts, writes)`` where ``lines[i]`` is the cache
        line of run *i* (in first-access order), ``counts[i]`` how many
        consecutive accesses hit that line, and ``writes[i]`` the OR-fold
        of their write flags.

        A run is *exactly* replayable as one access: after the first access
        of a run the line is resident and most-recently-used, and no other
        line is touched before the run ends, so accesses 2..n of a run are
        guaranteed cache hits that cannot change LRU order, hit/miss
        outcomes, or evictions.  The only state they carry is the dirty
        bit, which is the OR of the run's write flags.

        The result is memoized per ``line_bytes`` on the trace object:
        replaying the same trace many times (a config sweep, or the
        cache and timing simulators back to back) computes the RLE once.
        Traces are treated as immutable once replayed — mutating
        ``addresses``/``is_write`` in place after a replay would leave a
        stale cache.  The memo travels with the trace through pickling,
        so pool workers receive the precomputed runs for free.
        """
        cached = self._line_runs_cache.get(line_bytes)
        if cached is not None:
            return cached
        result = self._compute_line_runs(line_bytes)
        self._line_runs_cache[line_bytes] = result
        return result

    def _compute_line_runs(
        self, line_bytes: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lines = self.addresses // np.uint64(line_bytes)
        n = int(lines.shape[0])
        if n == 0:
            return (
                np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
            )
        boundaries = np.empty(n, dtype=bool)
        boundaries[0] = True
        np.not_equal(lines[1:], lines[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        run_lines = lines[starts]
        counts = np.diff(np.append(starts, n))
        writes = np.logical_or.reduceat(self.is_write, starts)
        return run_lines, counts, writes


#: Internal op kinds for TraceRecorder's compact record list.
_RANGE = 0
_ARRAY = 1
_BATCH = 2


def _expand_ranges(
    bases: np.ndarray, counts: np.ndarray, granularity: int
) -> np.ndarray:
    """Per-access addresses for many (base, count) ranges, in order.

    Equivalent to concatenating ``base + arange(count) * granularity``
    for every range, without a Python loop.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.uint64)
    starts = np.repeat(bases, counts)
    range_origin = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.uint64) - np.repeat(
        range_origin, counts
    ).astype(np.uint64)
    return starts + offsets * np.uint64(granularity)


class TraceRecorder:
    """Records memory accesses made by an instrumented kernel.

    Kernels call :meth:`read` / :meth:`write` with (base address, size)
    ranges; the recorder stores one compact record per range and expands
    it into one access per ``granularity`` bytes only when :meth:`trace`
    is called.  Ranges are cheap to record, so kernels can be instrumented
    at their natural operation granularity (a pixel row, a matrix tile)
    without distorting the implementation, and recording a multi-megabyte
    stream costs a constant amount of work per range.
    """

    def __init__(self, granularity: int = 8):
        if granularity <= 0:
            raise ValueError("granularity must be positive")
        self.granularity = granularity
        # (kind, payload, is_write): payload is (base, count) for _RANGE
        # records and a uint64 address array for _ARRAY records.
        self._ops: list[tuple[int, object, bool]] = []

    def read(self, base: int, size: int) -> None:
        self._record(base, size, is_write=False)

    def write(self, base: int, size: int) -> None:
        self._record(base, size, is_write=True)

    def read_indices(self, base: int, indices: np.ndarray, element_size: int) -> None:
        """Record scattered element reads at ``base + indices*element_size``."""
        self._ops.append((_ARRAY, self._index_addrs(base, indices, element_size), False))

    def write_indices(self, base: int, indices: np.ndarray, element_size: int) -> None:
        self._ops.append((_ARRAY, self._index_addrs(base, indices, element_size), True))

    @staticmethod
    def _index_addrs(base: int, indices, element_size: int) -> np.ndarray:
        if base < 0:
            raise ValueError("base address must be non-negative, got %d" % base)
        if element_size <= 0:
            raise ValueError("element size must be positive, got %d" % element_size)
        return np.uint64(base) + np.asarray(indices, dtype=np.uint64) * np.uint64(
            element_size
        )

    def record_ranges(self, bases, sizes, writes) -> None:
        """Record many (base, size, is_write) ranges in one call.

        Equivalent to issuing :meth:`read`/:meth:`write` once per range
        in array order, but with constant Python work per *batch*: the
        arrays are stored as one compact record and expanded together at
        :meth:`trace` time.  Vectorized kernels (e.g. the texture
        tiling path) use this to emit a whole frame's worth of range
        records at once; the materialized trace is byte-identical to the
        per-call recording, including read/write interleaving.
        """
        bases = np.asarray(bases)
        if bases.size and bases.dtype.kind != "u" and int(bases.min()) < 0:
            raise ValueError("base addresses must be non-negative")
        bases = np.ascontiguousarray(bases, dtype=np.uint64)
        sizes = np.ascontiguousarray(sizes, dtype=np.int64)
        writes = np.ascontiguousarray(writes, dtype=bool)
        if not (bases.shape == sizes.shape == writes.shape) or bases.ndim != 1:
            raise ValueError("bases, sizes, writes must be equal-length 1-D arrays")
        if sizes.size == 0:
            return
        if int(sizes.min()) < 0:
            raise ValueError("size must be non-negative")
        nonzero = sizes > 0
        if not nonzero.all():
            bases, sizes, writes = bases[nonzero], sizes[nonzero], writes[nonzero]
            if sizes.size == 0:
                return
        counts = (sizes + self.granularity - 1) // self.granularity
        self._ops.append((_BATCH, (bases, counts, writes), None))

    def _record(self, base: int, size: int, is_write: bool) -> None:
        if base < 0:
            # Caught here so the error points at the recording kernel, not
            # at an OverflowError during uint64 materialization much later.
            raise ValueError("base address must be non-negative, got %d" % base)
        if size < 0:
            raise ValueError("size must be non-negative")
        if size == 0:
            return
        count = (size + self.granularity - 1) // self.granularity
        self._ops.append((_RANGE, (base, count), is_write))

    @property
    def num_accesses(self) -> int:
        total = 0
        for kind, payload, _ in self._ops:
            if kind == _RANGE:
                total += payload[1]
            elif kind == _ARRAY:
                total += int(payload.shape[0])
            else:
                total += int(payload[1].sum())
        return total

    def range_records(self) -> list:
        """All recorded accesses as normalized (base, count, is_write)
        tuples in recording order.

        Batch records unfold into their per-range tuples and index
        records into one tuple per element, so two recorders that
        recorded the same access stream through different APIs compare
        equal.  Used by the scalar-vs-fast differential tests.
        """
        records: list = []
        for kind, payload, w in self._ops:
            if kind == _RANGE:
                records.append((int(payload[0]), int(payload[1]), w))
            elif kind == _ARRAY:
                records.extend((int(a), 1, w) for a in payload.tolist())
            else:
                bases, counts, writes = payload
                records.extend(
                    zip(bases.tolist(), counts.tolist(), writes.tolist())
                )
        return records

    def trace(self) -> MemoryTrace:
        if not self._ops:
            return MemoryTrace(
                addresses=np.empty(0, dtype=np.uint64), is_write=np.empty(0, dtype=bool)
            )
        addr_chunks = []
        flag_chunks = []
        for kind, payload, w in self._ops:
            if kind == _RANGE:
                base, count = payload
                addr_chunks.append(
                    np.uint64(base)
                    + np.arange(count, dtype=np.uint64) * np.uint64(self.granularity)
                )
                flag_chunks.append(np.full(count, w, dtype=bool))
            elif kind == _ARRAY:
                addr_chunks.append(payload)
                flag_chunks.append(np.full(payload.shape[0], w, dtype=bool))
            else:
                bases, counts, writes = payload
                addr_chunks.append(_expand_ranges(bases, counts, self.granularity))
                flag_chunks.append(np.repeat(writes, counts))
        return MemoryTrace(
            addresses=np.concatenate(addr_chunks),
            is_write=np.concatenate(flag_chunks),
        )


class AddressSpace:
    """A trivial bump allocator handing out disjoint address ranges.

    Instrumented kernels use this to place their buffers at
    non-overlapping addresses so recorded traces reflect distinct objects.
    """

    def __init__(self, base: int = 0x1000_0000, alignment: int = 4096):
        self._next = base
        self._alignment = alignment

    def alloc(self, size: int) -> int:
        addr = self._next
        aligned = (size + self._alignment - 1) // self._alignment * self._alignment
        self._next += aligned
        return addr
