"""Kernel execution profiles.

A ``KernelProfile`` captures everything the timing and energy models need
to know about one kernel execution: dynamic instruction counts, data-
processing operation counts, and memory-hierarchy traffic.  The workload
packages construct profiles from *exact* analytic counts (every kernel
knows precisely how many bytes it touches and how many operations it
performs); the trace-driven cache simulator in :mod:`repro.sim.cache` is
used by the test suite to validate the locality classes assumed here.

This plays the role of the paper's hardware performance counters
(Section 3.1).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.config import CACHE_LINE_BYTES
from repro.validate.errors import ConfigError
from repro.validate.fields import require_fraction, require_non_negative


@dataclass(frozen=True)
class KernelProfile:
    """Dynamic execution statistics for one kernel invocation.

    Attributes:
        name: Kernel identifier (e.g. ``"texture_tiling"``).
        instructions: Dynamic instruction count on the CPU (including
            loads/stores and address arithmetic).
        mem_instructions: Dynamic load/store count (each is one L1 access).
        alu_ops: Data-processing operations (the work a fixed-function
            accelerator must perform).
        simd_fraction: Fraction of ``alu_ops`` that vectorizes onto a
            SIMD unit (0..1).
        l1_misses: L1 data-cache misses (each is one LLC access).
        llc_misses: Last-level-cache misses (each is one DRAM line fetch).
        dram_bytes: Total off-chip traffic in bytes, reads plus writebacks.
        working_set_bytes: Size of the kernel's live data.
        pim_bytes: Bytes the kernel moves when executed *in memory*.
            Defaults to ``dram_bytes`` (PIM still reads/writes the data,
            just without crossing the off-chip channel); kernels where PIM
            additionally avoids redundant transfers (e.g. decompression
            output that the CPU never reads) override this.
    """

    name: str
    instructions: float
    mem_instructions: float
    alu_ops: float
    simd_fraction: float = 0.0
    l1_misses: float = 0.0
    llc_misses: float = 0.0
    dram_bytes: float = 0.0
    working_set_bytes: float = 0.0
    pim_bytes: float = -1.0
    notes: str = ""

    #: Numeric fields that must be finite and >= 0 (``pim_bytes`` is
    #: excluded: any negative value is the "default to dram_bytes" flag).
    _NON_NEGATIVE_FIELDS = (
        "instructions",
        "mem_instructions",
        "alu_ops",
        "l1_misses",
        "llc_misses",
        "dram_bytes",
        "working_set_bytes",
    )

    def __post_init__(self):
        for name in self._NON_NEGATIVE_FIELDS:
            require_non_negative(self, name, getattr(self, name))
        require_fraction(self, "simd_fraction", self.simd_fraction)
        if self.mem_instructions > self.instructions:
            raise ConfigError(
                type(self).__name__,
                "mem_instructions",
                self.mem_instructions,
                "cannot exceed instructions (%r)" % self.instructions,
            )
        pim_bytes = self.pim_bytes
        if (
            isinstance(pim_bytes, bool)
            or not isinstance(pim_bytes, (int, float))
            or pim_bytes != pim_bytes  # NaN is not a valid sentinel
        ):
            require_non_negative(self, "pim_bytes", pim_bytes)
        if pim_bytes < 0:
            object.__setattr__(self, "pim_bytes", float(self.dram_bytes))
        else:
            require_non_negative(self, "pim_bytes", pim_bytes)  # rejects +inf

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    @property
    def mpki(self) -> float:
        """LLC misses per kilo-instruction (the paper's memory-intensity
        criterion: a PIM candidate needs MPKI > 10, Section 3.2)."""
        if self.instructions <= 0:
            return 0.0
        return self.llc_misses / (self.instructions / 1000.0)

    @property
    def bytes_per_instruction(self) -> float:
        if self.instructions <= 0:
            return 0.0
        return self.dram_bytes / self.instructions

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def scaled(self, factor: float, name: str | None = None) -> "KernelProfile":
        """Profile for ``factor`` back-to-back invocations of this kernel.

        Raises :class:`ConfigError` unless ``factor`` is finite and >= 0.
        """
        require_non_negative(self, "factor", factor)
        return self._combined(
            name=name or self.name,
            instructions=self.instructions * factor,
            mem_instructions=self.mem_instructions * factor,
            alu_ops=self.alu_ops * factor,
            simd_fraction=self.simd_fraction,
            l1_misses=self.l1_misses * factor,
            llc_misses=self.llc_misses * factor,
            dram_bytes=self.dram_bytes * factor,
            working_set_bytes=self.working_set_bytes,
            pim_bytes=self.pim_bytes * factor,
            notes=self.notes,
        )

    def merged(self, other: "KernelProfile", name: str | None = None) -> "KernelProfile":
        """Profile for this kernel followed by ``other``.

        The two-profile case of :meth:`folded`; ``name`` defaults to
        ``"<self.name>+<other.name>"``.
        """
        return self.folded((self, other), name)

    @classmethod
    def folded(
        cls, profiles: Sequence["KernelProfile"], name: str | None = None
    ) -> "KernelProfile":
        """Profile for ``profiles`` run back to back, in order.

        The left fold of :meth:`merged`: ``folded([a, b, c], name)`` is
        ``a.merged(b, name).merged(c, name)`` bit for bit, because each
        step runs the same float operations in the same order (the
        op-weighted ``simd_fraction`` on the running ``alu_ops`` before
        it grows, then the sums, the larger working set, ``notes=""``),
        but in local variables, so no intermediate profile is built.
        ``name`` defaults to the names joined by ``+``.  A one-profile
        sequence comes back as is, name and notes included, since the
        chain never merges it.  Raises :class:`ConfigError` when a
        total overflows to ``inf``, as the chain does; which field it
        names can differ, since the chain stops at its first
        overflowing step.
        """
        first = profiles[0]
        if len(profiles) == 1:
            return first
        instructions = first.instructions
        mem_instructions = first.mem_instructions
        alu_ops = first.alu_ops
        simd_fraction = first.simd_fraction
        l1_misses = first.l1_misses
        llc_misses = first.llc_misses
        dram_bytes = first.dram_bytes
        working_set_bytes = first.working_set_bytes
        pim_bytes = first.pim_bytes
        for p in profiles[1:]:
            ops = alu_ops + p.alu_ops
            simd_fraction = (
                0.0
                if ops <= 0
                else (simd_fraction * alu_ops + p.simd_fraction * p.alu_ops) / ops
            )
            alu_ops = ops
            instructions += p.instructions
            mem_instructions += p.mem_instructions
            l1_misses += p.l1_misses
            llc_misses += p.llc_misses
            dram_bytes += p.dram_bytes
            if p.working_set_bytes > working_set_bytes:  # max(), which keeps a tie's first
                working_set_bytes = p.working_set_bytes
            pim_bytes += p.pim_bytes
        return cls._combined(
            name=name or "+".join(p.name for p in profiles),
            instructions=instructions,
            mem_instructions=mem_instructions,
            alu_ops=alu_ops,
            simd_fraction=simd_fraction,
            l1_misses=l1_misses,
            llc_misses=llc_misses,
            dram_bytes=dram_bytes,
            working_set_bytes=working_set_bytes,
            pim_bytes=pim_bytes,
            notes="",
        )

    @classmethod
    def _combined(cls, **fields) -> "KernelProfile":
        """A combinator's result, built without ``__post_init__``.

        Sums and non-negative scalings of valid profiles keep every
        field non-negative, ``simd_fraction`` within [0, 1] and
        ``mem_instructions <= instructions`` (float rounding is
        monotonic), so re-validating them only costs time.  The one way
        out is overflow to ``inf``: a non-finite total of the summed or
        scaled counts sends the fields through the validating
        constructor, which names the field.  (``mem_instructions`` is
        bounded by ``instructions``, so the total can leave it out.)
        """
        total = (
            fields["instructions"]
            + fields["alu_ops"]
            + fields["l1_misses"]
            + fields["llc_misses"]
            + fields["dram_bytes"]
            + fields["pim_bytes"]
        )
        if not math.isfinite(total):
            return cls(**fields)
        profile = object.__new__(cls)
        profile.__dict__.update(fields)
        return profile

    # ------------------------------------------------------------------
    # Analytic constructors for the common locality classes
    # ------------------------------------------------------------------
    @staticmethod
    def streaming(
        name: str,
        bytes_read: float,
        bytes_written: float,
        ops_per_byte: float,
        simd_fraction: float = 0.75,
        instruction_overhead: float = 0.5,
        access_bytes: float = 8.0,
        notes: str = "",
    ) -> "KernelProfile":
        """A kernel that streams over its input/output exactly once.

        Streaming kernels (memcopy-like: texture tiling, blitting, packing)
        touch every cache line once, so every line is a compulsory miss at
        every level: ``llc_misses = lines touched`` and ``dram_bytes =
        bytes_read + bytes_written`` (written lines are fetched for
        ownership and written back; we charge each written byte once, as a
        writeback, matching the paper's traffic accounting).

        Args:
            ops_per_byte: ALU operations per byte processed.
            instruction_overhead: extra non-memory, non-ALU instructions
                (address generation, branches) per byte.
            access_bytes: average load/store width (8 = 64-bit accesses).
        """
        total_bytes = bytes_read + bytes_written
        mem_instructions = total_bytes / access_bytes
        alu_ops = total_bytes * ops_per_byte
        instructions = mem_instructions + alu_ops + total_bytes * instruction_overhead
        lines = total_bytes / CACHE_LINE_BYTES
        return KernelProfile(
            name=name,
            instructions=instructions,
            mem_instructions=mem_instructions,
            alu_ops=alu_ops,
            simd_fraction=simd_fraction,
            l1_misses=lines,
            llc_misses=lines,
            dram_bytes=total_bytes,
            working_set_bytes=total_bytes,
            notes=notes or "streaming",
        )

    @staticmethod
    def cache_resident(
        name: str,
        bytes_touched: float,
        reuse_factor: float,
        ops_per_byte: float,
        simd_fraction: float = 0.5,
        instruction_overhead: float = 0.5,
        access_bytes: float = 8.0,
        notes: str = "",
    ) -> "KernelProfile":
        """A kernel whose working set fits in the LLC.

        Data is fetched from DRAM once (compulsory misses only) and then
        reused ``reuse_factor`` times from the caches (e.g. the entropy
        decoder or inverse transform in VP9, Section 6.2.1).
        """
        lines = bytes_touched / CACHE_LINE_BYTES
        accessed_bytes = bytes_touched * max(reuse_factor, 1.0)
        mem_instructions = accessed_bytes / access_bytes
        alu_ops = accessed_bytes * ops_per_byte
        instructions = (
            mem_instructions + alu_ops + accessed_bytes * instruction_overhead
        )
        return KernelProfile(
            name=name,
            instructions=instructions,
            mem_instructions=mem_instructions,
            alu_ops=alu_ops,
            simd_fraction=simd_fraction,
            l1_misses=lines * max(reuse_factor / 4.0, 1.0),
            llc_misses=lines,
            dram_bytes=bytes_touched,
            working_set_bytes=bytes_touched,
            notes=notes or "cache-resident",
        )

    @staticmethod
    def scattered(
        name: str,
        touches: float,
        bytes_per_touch: float,
        ops_per_byte: float,
        simd_fraction: float = 0.5,
        locality_fraction: float = 0.0,
        instruction_overhead: float = 0.5,
        access_bytes: float = 8.0,
        notes: str = "",
    ) -> "KernelProfile":
        """A kernel making scattered accesses with poor cache locality.

        Each of the ``touches`` accesses lands on a region of
        ``bytes_per_touch`` bytes at an effectively random location in a
        working set larger than the LLC (e.g. VP9 sub-pixel interpolation
        fetching reference-frame blocks, Section 6.2.2).
        ``locality_fraction`` is the fraction of touches that hit in the
        cache anyway (spatial overlap between neighbouring blocks).
        """
        total_bytes = touches * bytes_per_touch
        mem_instructions = total_bytes / access_bytes
        alu_ops = total_bytes * ops_per_byte
        instructions = mem_instructions + alu_ops + total_bytes * instruction_overhead
        miss_bytes = total_bytes * (1.0 - locality_fraction)
        # Scattered lines are partially used: a touch of N bytes spanning
        # lines still fetches whole lines.
        lines = miss_bytes / CACHE_LINE_BYTES
        line_fetch_overhead = touches * (1.0 - locality_fraction)
        llc_misses = lines + line_fetch_overhead
        return KernelProfile(
            name=name,
            instructions=instructions,
            mem_instructions=mem_instructions,
            alu_ops=alu_ops,
            simd_fraction=simd_fraction,
            l1_misses=llc_misses * 1.1,
            llc_misses=llc_misses,
            dram_bytes=llc_misses * CACHE_LINE_BYTES,
            working_set_bytes=total_bytes,
            notes=notes or "scattered",
        )
