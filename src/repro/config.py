"""System configurations for the reproduction (paper Table 1).

The paper evaluates a consumer-device SoC (modeled after an Intel Celeron
N3060-class Chromebook part, simulated in gem5 with 4 out-of-order cores)
against the same SoC augmented with processing-in-memory (PIM) logic in the
logic layer of 3D-stacked DRAM.  Every experiment in this repository is
parameterized by the dataclasses below; ``default_system()`` reproduces the
configuration of Table 1.

Units used throughout the code base:
    * sizes      -- bytes
    * bandwidth  -- bytes / second
    * frequency  -- Hz
    * energy     -- joules
    * time       -- seconds
    * area       -- mm^2
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.validate.errors import ConfigError
from repro.validate.fields import (
    require_at_least,
    require_positive,
    require_positive_int,
    require_power_of_two,
)

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

CACHE_LINE_BYTES = 64


@dataclass(frozen=True)
class CacheConfig:
    """A single set-associative cache level."""

    size_bytes: int
    associativity: int
    line_bytes: int = CACHE_LINE_BYTES
    hit_latency_cycles: int = 2

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    def __post_init__(self) -> None:
        require_positive_int(self, "size_bytes", self.size_bytes)
        require_positive_int(self, "associativity", self.associativity)
        require_power_of_two(self, "line_bytes", self.line_bytes)
        require_positive_int(self, "hit_latency_cycles", self.hit_latency_cycles)
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ConfigError(
                type(self).__name__,
                "size_bytes",
                self.size_bytes,
                "must be divisible by line_bytes*associativity (%d*%d)"
                % (self.line_bytes, self.associativity),
            )


@dataclass(frozen=True)
class SocConfig:
    """The consumer-device SoC (paper Table 1, first row).

    4 out-of-order cores, 8-wide issue; 64 kB private L1 I/D caches (4-way);
    2 MB shared L2 (8-way); MESI coherence.  The effective sustained IPC is a
    model parameter (OoO cores do not sustain their issue width on these
    memory-bound kernels).
    """

    num_cores: int = 4
    issue_width: int = 8
    frequency_hz: float = 2.0e9
    sustained_ipc: float = 2.0
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=64 * KB, associativity=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=2 * MB, associativity=8, hit_latency_cycles=20
        )
    )

    def __post_init__(self) -> None:
        require_positive_int(self, "num_cores", self.num_cores)
        require_positive_int(self, "issue_width", self.issue_width)
        require_positive(self, "frequency_hz", self.frequency_hz)
        require_positive(self, "sustained_ipc", self.sustained_ipc)


@dataclass(frozen=True)
class PimCoreConfig:
    """The general-purpose PIM core (paper Table 1, second row).

    One core per vault; 1-wide in-order issue with a 4-wide SIMD unit
    (width chosen empirically in the paper, Section 3.3); 32 kB private L1
    I/D caches.  Modeled on the ARM Cortex-R8.
    """

    cores_per_vault: int = 1
    issue_width: int = 1
    simd_width: int = 4
    frequency_hz: float = 1.5e9
    sustained_ipc: float = 1.0
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * KB, associativity=4)
    )
    area_mm2: float = 0.33  # Cortex-R8 footprint bound (Section 3.3)

    def __post_init__(self) -> None:
        require_positive_int(self, "cores_per_vault", self.cores_per_vault)
        require_positive_int(self, "issue_width", self.issue_width)
        require_positive_int(self, "simd_width", self.simd_width)
        require_positive(self, "frequency_hz", self.frequency_hz)
        require_positive(self, "sustained_ipc", self.sustained_ipc)
        require_positive(self, "area_mm2", self.area_mm2)


@dataclass(frozen=True)
class PimAcceleratorConfig:
    """A fixed-function PIM accelerator (paper Section 3.3).

    Each accelerator consists of several in-memory logic units (four, chosen
    empirically for texture tiling and reused for the other targets), each a
    simple ALU working on an independent chunk of data.  The paper assumes
    accelerator computation is 20x more energy-efficient than the CPU cores.
    """

    logic_units: int = 4
    ops_per_unit_per_cycle: float = 4.0
    frequency_hz: float = 1.0e9
    energy_efficiency_vs_cpu: float = 20.0
    buffer_bytes: int = 32 * KB

    def __post_init__(self) -> None:
        require_positive_int(self, "logic_units", self.logic_units)
        require_positive(self, "ops_per_unit_per_cycle", self.ops_per_unit_per_cycle)
        require_positive(self, "frequency_hz", self.frequency_hz)
        require_positive(self, "energy_efficiency_vs_cpu", self.energy_efficiency_vs_cpu)
        require_positive_int(self, "buffer_bytes", self.buffer_bytes)


@dataclass(frozen=True)
class StackedMemoryConfig:
    """3D-stacked DRAM (paper Table 1, third row).

    A 2 GB HBM/HMC-like cube with 16 vaults.  The logic layer sees the full
    internal bandwidth (256 GB/s); the SoC sees the off-chip channel
    bandwidth (32 GB/s), an 8x difference.
    """

    capacity_bytes: int = 2 * GB
    num_vaults: int = 16
    internal_bandwidth: float = 256 * GB
    offchip_bandwidth: float = 32 * GB
    logic_layer_area_mm2: float = 55.0  # 50-60 mm^2 available (Section 3.3)

    def __post_init__(self) -> None:
        require_positive_int(self, "capacity_bytes", self.capacity_bytes)
        require_positive_int(self, "num_vaults", self.num_vaults)
        require_positive(self, "internal_bandwidth", self.internal_bandwidth)
        require_positive(self, "offchip_bandwidth", self.offchip_bandwidth)
        require_positive(self, "logic_layer_area_mm2", self.logic_layer_area_mm2)
        # The logic layer sits *inside* the stack: it cannot see less
        # bandwidth than the off-chip channel it feeds.
        require_at_least(
            self,
            "internal_bandwidth",
            self.internal_bandwidth,
            self.offchip_bandwidth,
            "offchip_bandwidth",
        )

    @property
    def area_per_vault_mm2(self) -> float:
        """Area available for PIM logic in each vault (~3.5-4.4 mm^2)."""
        return self.logic_layer_area_mm2 / self.num_vaults


@dataclass(frozen=True)
class BaselineMemoryConfig:
    """Baseline (non-stacked) memory: LPDDR3, 2 GB, FR-FCFS scheduling."""

    capacity_bytes: int = 2 * GB
    bandwidth: float = 32 * GB
    scheduler: str = "FR-FCFS"

    def __post_init__(self) -> None:
        require_positive_int(self, "capacity_bytes", self.capacity_bytes)
        require_positive(self, "bandwidth", self.bandwidth)
        if not isinstance(self.scheduler, str) or not self.scheduler:
            raise ConfigError(
                type(self).__name__,
                "scheduler",
                self.scheduler,
                "must be a non-empty scheduler name",
            )


@dataclass(frozen=True)
class SystemConfig:
    """The full evaluated system (paper Table 1)."""

    soc: SocConfig = field(default_factory=SocConfig)
    pim_core: PimCoreConfig = field(default_factory=PimCoreConfig)
    pim_accelerator: PimAcceleratorConfig = field(default_factory=PimAcceleratorConfig)
    stacked_memory: StackedMemoryConfig = field(default_factory=StackedMemoryConfig)
    baseline_memory: BaselineMemoryConfig = field(default_factory=BaselineMemoryConfig)

    _FIELD_TYPES = (
        ("soc", SocConfig),
        ("pim_core", PimCoreConfig),
        ("pim_accelerator", PimAcceleratorConfig),
        ("stacked_memory", StackedMemoryConfig),
        ("baseline_memory", BaselineMemoryConfig),
    )

    def __post_init__(self) -> None:
        for name, expected in self._FIELD_TYPES:
            value = getattr(self, name)
            if not isinstance(value, expected):
                raise ConfigError(
                    type(self).__name__,
                    name,
                    value,
                    "must be a %s instance" % expected.__name__,
                )

    @property
    def bandwidth_ratio(self) -> float:
        """Internal-to-off-chip bandwidth ratio (8x in the paper)."""
        return self.stacked_memory.internal_bandwidth / self.stacked_memory.offchip_bandwidth


def default_system() -> SystemConfig:
    """The Table 1 configuration used by every experiment unless overridden."""
    return SystemConfig()


def cache_label(cache: CacheConfig) -> str:
    """Compact human label for one cache level, e.g. ``64kB/4w``."""
    if cache.size_bytes % MB == 0:
        size = "%dMB" % (cache.size_bytes // MB)
    elif cache.size_bytes % KB == 0:
        size = "%dkB" % (cache.size_bytes // KB)
    else:
        size = "%dB" % cache.size_bytes
    return "%s/%dw" % (size, cache.associativity)


def soc_cache_label(soc: SocConfig) -> str:
    """Stable identity of an SoC's cache geometry, e.g.
    ``l1=64kB/4w,llc=2MB/8w`` — used as the sweep-point name in
    counters and report rows."""
    return "l1=%s,llc=%s" % (cache_label(soc.l1), cache_label(soc.l2))


def table1_rows(config: SystemConfig | None = None) -> list[tuple[str, str]]:
    """Render Table 1 as (component, description) rows for reports."""
    cfg = config or default_system()
    soc, pim, mem, base = cfg.soc, cfg.pim_core, cfg.stacked_memory, cfg.baseline_memory
    return [
        (
            "SoC",
            "%d OoO cores, %d-wide issue; L1 I/D Caches: %d kB private, "
            "%d-way assoc.; L2 Cache: %d MB shared, %d-way assoc.; Coherence: MESI"
            % (
                soc.num_cores,
                soc.issue_width,
                soc.l1.size_bytes // KB,
                soc.l1.associativity,
                soc.l2.size_bytes // MB,
                soc.l2.associativity,
            ),
        ),
        (
            "PIM Core",
            "%d core per vault, %d-wide issue, %d-wide SIMD unit, "
            "L1 I/D Caches: %d kB private, %d-way assoc."
            % (
                pim.cores_per_vault,
                pim.issue_width,
                pim.simd_width,
                pim.l1.size_bytes // KB,
                pim.l1.associativity,
            ),
        ),
        (
            "3D-Stacked Memory",
            "%d GB cube, %d vaults per cube; Internal Bandwidth: %d GB/s; "
            "Off-Chip Channel Bandwidth: %d GB/s"
            % (
                mem.capacity_bytes // GB,
                mem.num_vaults,
                int(mem.internal_bandwidth // GB),
                int(mem.offchip_bandwidth // GB),
            ),
        ),
        (
            "Baseline Memory",
            "LPDDR3, %d GB, %s scheduler" % (base.capacity_bytes // GB, base.scheduler),
        ),
    ]
