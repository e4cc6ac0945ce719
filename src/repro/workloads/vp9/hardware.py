"""Hardware VP9 codec models (paper Sections 6.3 and 7.3; Figures 12, 16, 21).

The hardware decoder/encoder hide memory *latency* (prefetching, batched
motion vectors, large SRAM reference buffers) but still move every
reference/reconstructed pixel over the off-chip channel.  These models
account for that traffic per frame, by component, and evaluate the
paper's three configurations:

* ``VP9``      -- the baseline on-SoC hardware codec;
* ``PIM-Core`` -- MC (+ deblocking) / ME moved to a general-purpose PIM
  core in memory (in-memory traffic becomes cheap, but the computation
  is now an order of magnitude less efficient than fixed-function RTL);
* ``PIM-Acc``  -- the same hardware units relocated into the logic
  layer (Figures 13 and 17): RTL-efficient compute *and* in-memory
  traffic.

Each configuration can additionally enable lossless frame compression,
which scales the pixel streams by a per-codec factor (0.62 for the
decoder, paper Figure 12; 0.40 for the encoder, paper Section 7.3.1)
at the cost of small compression-metadata streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro._sum import left_sum
from repro.energy.components import EnergyParameters, default_energy_parameters

MB = 1024 * 1024

#: 4:2:0 chroma adds half the luma bytes again.
YUV_FACTOR = 1.5


class PimPlacement(str, enum.Enum):
    """Where the codec's MC/ME + deblocking units execute."""

    NONE = "VP9"  # baseline: everything on the SoC
    PIM_CORE = "VP9 + PIM-Core"
    PIM_ACC = "VP9 + PIM-Acc"


@dataclass
class CodecTraffic:
    """Per-frame off-chip traffic by component (bytes)."""

    components: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return float(left_sum(self.components.values()))

    def share(self, component: str) -> float:
        total = self.total
        if total <= 0:
            return 0.0
        return self.components.get(component, 0.0) / total

    def megabytes(self) -> dict:
        return {k: v / MB for k, v in self.components.items()}


@dataclass(frozen=True)
class HardwareEnergy:
    """Per-frame energy (joules) split into the Figure 21 components."""

    dram: float
    memctrl: float
    interconnect: float
    computation: float

    @property
    def total(self) -> float:
        return self.dram + self.memctrl + self.interconnect + self.computation


class _HardwareCodecModel:
    """Shared machinery for the decoder and encoder models."""

    #: Pixel-traffic coefficients (bytes per YUV byte of one frame), set
    #: by subclasses.  Components marked pixel-data are reduced by frame
    #: compression and absorbed by PIM placement.
    PIXEL_COMPONENTS: dict = {}
    CONTROL_COMPONENTS: dict = {}
    #: Pixel-traffic multiplier under lossless frame compression, set
    #: by subclasses from the paper's per-codec traffic reductions.
    COMPRESSION_FACTOR: float
    #: Hardware computation energy per YUV byte processed: the RTL
    #: datapath plus the large on-SoC SRAM reference buffers (875 kB in
    #: the decoder, Section 6.3.1).
    HW_COMPUTE_PER_BYTE = 430e-12
    #: Fraction of the computation energy spent in the SRAM reference
    #: buffers; PIM placement eliminates these buffers (the reference
    #: data never reaches the SoC).
    BUFFER_COMPUTE_FRACTION = 0.25
    #: Fraction of the *datapath* computation that belongs to the
    #: offloaded units (MC + deblocking for the decoder; ME + MC +
    #: deblocking for the encoder); entropy coding dominates the rest.
    OFFLOADED_COMPUTE_FRACTION = 0.35
    #: Energy-efficiency penalty of running the offloaded units on a
    #: general-purpose PIM core instead of RTL ("an order of magnitude",
    #: Section 10.3.2).
    PIM_CORE_PENALTY = 10.0

    def __init__(
        self,
        width: int,
        height: int,
        energy_params: EnergyParameters | None = None,
    ):
        if width <= 0 or height <= 0:
            raise ValueError("invalid resolution")
        self.width = width
        self.height = height
        self.params = energy_params or default_energy_parameters()

    @property
    def frame_bytes(self) -> float:
        """Decoded YUV bytes of one frame."""
        return self.width * self.height * YUV_FACTOR

    # ------------------------------------------------------------------
    def traffic(self, compression: bool = False) -> CodecTraffic:
        """Per-frame off-chip traffic breakdown (Figures 12 and 16)."""
        fb = self.frame_bytes
        comps: dict = {}
        factor = self.COMPRESSION_FACTOR if compression else 1.0
        for name, coeff in self.PIXEL_COMPONENTS.items():
            comps[name] = coeff * fb * factor
        for name, coeff in self.CONTROL_COMPONENTS.items():
            comps[name] = coeff * fb
        if compression:
            pixel_total = left_sum(self.PIXEL_COMPONENTS.values()) * fb
            comps["Compression Info"] = pixel_total * 0.05
        return CodecTraffic(components=comps)

    # ------------------------------------------------------------------
    def pim_traffic_split(
        self, compression: bool, placement: PimPlacement
    ) -> tuple[float, float]:
        """(off-chip bytes, in-memory bytes) for a PIM configuration.

        With MC/ME and the deblocking filter in memory, the pixel-data
        components (reference fetches, reconstructed frame) never cross
        the off-chip channel; only the control streams (bitstream, motion
        vectors, residual data, metadata) still do.
        """
        t = self.traffic(compression)
        if placement is PimPlacement.NONE:
            return t.total, 0.0
        pixel_names = set(self.PIXEL_COMPONENTS) | {"Compression Info"}
        off_chip = left_sum(v for k, v in t.components.items() if k not in pixel_names)
        in_memory = left_sum(v for k, v in t.components.items() if k in pixel_names)
        return off_chip, in_memory

    # ------------------------------------------------------------------
    def energy(
        self, compression: bool = False, placement: PimPlacement = PimPlacement.NONE
    ) -> HardwareEnergy:
        """Per-frame energy for one configuration (Figure 21)."""
        p = self.params
        off_chip, in_memory = self.pim_traffic_split(compression, placement)
        dram = off_chip * 8 * p.dram_energy_per_bit + in_memory * p.internal_energy_per_byte
        memctrl = off_chip * 8 * p.memctrl_energy_per_bit
        interconnect = off_chip * 8 * p.interconnect_energy_per_bit
        base_compute = self.frame_bytes * self.HW_COMPUTE_PER_BYTE
        if compression:
            # The (de)compression units add ~10% datapath work.
            base_compute *= 1.10
        buffers = base_compute * self.BUFFER_COMPUTE_FRACTION
        datapath = base_compute - buffers
        if placement is PimPlacement.NONE:
            computation = datapath + buffers
        elif placement is PimPlacement.PIM_CORE:
            offloaded = datapath * self.OFFLOADED_COMPUTE_FRACTION
            computation = datapath - offloaded + offloaded * self.PIM_CORE_PENALTY
        else:  # PIM-Acc: same RTL, relocated; SRAM buffers disappear.
            computation = datapath
        return HardwareEnergy(
            dram=dram,
            memctrl=memctrl,
            interconnect=interconnect,
            computation=computation,
        )

    def configurations(self) -> list[tuple[str, bool, PimPlacement]]:
        """The six Figure 21 bars: {VP9, PIM-Core, PIM-Acc} x {no comp, comp}."""
        out = []
        for compression in (False, True):
            for placement in PimPlacement:
                label = "%s%s" % (
                    placement.value,
                    " + compression" if compression else "",
                )
                out.append((label, compression, placement))
        return out


class HardwareDecoderModel(_HardwareCodecModel):
    """The hardware VP9 decoder (Figure 12 traffic, Figure 21 energy).

    Traffic coefficients reproduce the paper's breakdown: the reference
    frame dominates (the decoder reads ~2.9 reference pixels per decoded
    pixel during MC), the reconstructed frame is the second contributor,
    and control streams are small.  HD frames spend a *larger share* on
    reference data than 4K (75.5% vs 59.6%) because the fixed-size SRAM
    reference caches cover a smaller fraction of a 4K frame's working
    set -- modeled by the resolution-dependent coefficient below.
    """

    CONTROL_COMPONENTS = {
        "Decoder Data": 0.22,
        "Reconst. Frame Metadata": 0.07,
        "Deblocking Filter": 0.10,
    }

    COMPRESSION_FACTOR = 0.62  # paper Fig. 12: ref share 59.6% -> 48.8%

    def __init__(self, width, height, energy_params=None):
        super().__init__(width, height, energy_params)
        is_hd = width * height <= 1280 * 720
        ref = 3.4 if is_hd else 2.0
        self.PIXEL_COMPONENTS = {
            "Reference Frame": ref,
            "Reconstructed Frame": 0.75,
        }


class HardwareEncoderModel(_HardwareCodecModel):
    """The hardware VP9 encoder (Figure 16 traffic, Figure 21 energy).

    ME's reference fetches dominate (65.1% for HD); the current (input)
    frame and the reconstructed frame are the other main pixel streams.
    The current frame's *input* side cannot be frame-compressed (it
    arrives raw from the camera pipeline), so its share grows when
    compression is enabled, as the paper observes.
    """

    CONTROL_COMPONENTS = {
        "Current Frame": 0.85,  # raw camera input: never compressed
        "Encoded Bitstream": 0.06,
        "Other": 0.10,
    }
    OFFLOADED_COMPUTE_FRACTION = 0.33

    COMPRESSION_FACTOR = 0.40  # paper Sec. 7.3.1: traffic -59.7%
    #: The encoder's datapath (ME SAD arrays + transforms) works harder
    #: per byte than the decoder's.
    HW_COMPUTE_PER_BYTE = 790e-12

    def __init__(self, width, height, energy_params=None):
        super().__init__(width, height, energy_params)
        is_hd = width * height <= 1280 * 720
        ref = 4.3 if is_hd else 3.3
        self.PIXEL_COMPONENTS = {
            "Reference Frame": ref,
            "Reconstructed Frame": 0.75,
            "Deblocking Filter": 0.10,
        }
