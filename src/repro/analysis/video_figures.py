"""VP9 figure harnesses (paper Figures 10, 11, 12, 15, 16, 20, 21)."""

from __future__ import annotations

from repro.analysis.base import FigureResult
from repro.core.runner import ExperimentRunner
from repro.core.workload import characterize
from repro.workloads.vp9.frame import RESOLUTIONS
from repro.workloads.vp9.hardware import (
    HardwareDecoderModel,
    HardwareEncoderModel,
    PimPlacement,
)
from repro.workloads.vp9.profiles import decoder_functions, encoder_functions
from repro.workloads.vp9.targets import video_pim_targets

MB = 1024.0**2

#: Frame counts used by the paper's software-codec evaluation (Section 9).
DECODE_FRAMES_4K = 100
ENCODE_FRAMES_HD = 10


def _decode_characterization():
    w, h = RESOLUTIONS["4K"]
    return characterize("vp9_decode_4k", decoder_functions(w, h, DECODE_FRAMES_4K))


def _encode_characterization():
    w, h = RESOLUTIONS["HD"]
    return characterize("vp9_encode_hd", encoder_functions(w, h, ENCODE_FRAMES_HD))


def fig10_sw_decoder_energy() -> FigureResult:
    """Figure 10: software decoder energy by function (4K)."""
    ch = _decode_characterization()
    shares = ch.energy_shares()
    rows = [{"function": name, "energy_share": share} for name, share in shares.items()]
    mc_total = shares["sub_pixel_interpolation"] + shares["other_mc"]
    return FigureResult(
        figure_id="Figure 10",
        title="VP9 software decoder energy by function (4K)",
        rows=rows,
        anchors={
            "motion compensation total share": (0.534, mc_total),
            "sub-pixel interpolation share": (
                0.375,
                shares["sub_pixel_interpolation"],
            ),
            "deblocking filter share": (0.297, shares["deblocking_filter"]),
        },
    )


def fig11_sw_decoder_components() -> FigureResult:
    """Figure 11: software decoder energy by hardware component."""
    ch = _decode_characterization()
    total = ch.total_energy_j
    matrix = ch.component_energy_by_function()
    rows = []
    for component in ("cpu", "l1", "llc", "interconnect", "memctrl", "dram"):
        row = {"component": component}
        row.update(
            {fn: energy / total for fn, energy in matrix[component].items()}
        )
        rows.append(row)
    movement = ch.data_movement_fraction
    subpel_move = ch.movement_share_of_workload("sub_pixel_interpolation")
    mc_deblock_move = (
        subpel_move
        + ch.movement_share_of_workload("other_mc")
        + ch.movement_share_of_workload("deblocking_filter")
    )
    return FigureResult(
        figure_id="Figure 11",
        title="VP9 software decoder energy by component x function",
        rows=rows,
        anchors={
            "data-movement fraction of decoder energy": (0.635, movement),
            "sub-pel interpolation share of total movement": (
                0.426,
                subpel_move / movement if movement else 0.0,
            ),
            "MC+deblocking share of total movement": (
                0.804,
                mc_deblock_move / movement if movement else 0.0,
            ),
            "movement fraction within sub-pel interpolation": (
                0.653,
                ch.movement_fraction_of_function("sub_pixel_interpolation"),
            ),
        },
    )


def fig12_hw_decoder_traffic() -> FigureResult:
    """Figure 12: hardware decoder off-chip traffic, HD + 4K."""
    rows = []
    anchors = {}
    for res in ("HD", "4K"):
        w, h = RESOLUTIONS[res]
        model = HardwareDecoderModel(w, h)
        for compression in (False, True):
            t = model.traffic(compression)
            row = {"resolution": res, "compression": compression}
            row.update({k: v / MB for k, v in t.components.items()})
            row["total_MB"] = t.total / MB
            rows.append(row)
            key = "%s %s ref-frame traffic share" % (
                res,
                "comp" if compression else "nocomp",
            )
            anchors[key] = (
                {"HD": (0.755, 0.622), "4K": (0.596, 0.488)}[res][int(compression)],
                t.share("Reference Frame"),
            )
    ratio = (
        HardwareDecoderModel(*RESOLUTIONS["4K"]).traffic(False).total
        / HardwareDecoderModel(*RESOLUTIONS["HD"]).traffic(False).total
    )
    anchors["4K/HD traffic ratio"] = (4.6, ratio)
    return FigureResult(
        figure_id="Figure 12",
        title="VP9 hardware decoder off-chip traffic breakdown",
        rows=rows,
        anchors=anchors,
        notes=(
            "The 4K/HD ratio runs above the paper's 4.6x because our "
            "control-stream overheads scale with resolution; the paper's "
            "decoder has fixed-size overheads that favour HD."
        ),
    )


def fig15_sw_encoder_energy() -> FigureResult:
    """Figure 15: software encoder energy by function (HD)."""
    ch = _encode_characterization()
    shares = ch.energy_shares()
    rows = [{"function": name, "energy_share": share} for name, share in shares.items()]
    return FigureResult(
        figure_id="Figure 15",
        title="VP9 software encoder energy by function (HD)",
        rows=rows,
        anchors={
            "motion estimation share": (0.396, shares["motion_estimation"]),
            "data-movement fraction of encoder energy": (
                0.591,
                ch.data_movement_fraction,
            ),
            "ME movement share of total": (
                0.213,
                ch.movement_share_of_workload("motion_estimation"),
            ),
            "movement fraction within ME": (
                0.547,
                ch.movement_fraction_of_function("motion_estimation"),
            ),
        },
    )


def fig16_hw_encoder_traffic() -> FigureResult:
    """Figure 16: hardware encoder off-chip traffic, HD + 4K."""
    rows = []
    anchors = {}
    for res in ("HD", "4K"):
        w, h = RESOLUTIONS[res]
        model = HardwareEncoderModel(w, h)
        for compression in (False, True):
            t = model.traffic(compression)
            row = {"resolution": res, "compression": compression}
            row.update({k: v / MB for k, v in t.components.items()})
            row["total_MB"] = t.total / MB
            rows.append(row)
    hd = HardwareEncoderModel(*RESOLUTIONS["HD"])
    anchors["HD nocomp reference-frame share"] = (
        0.651,
        hd.traffic(False).share("Reference Frame"),
    )
    anchors["HD current-frame share, nocomp"] = (
        0.142,
        hd.traffic(False).share("Current Frame"),
    )
    anchors["HD current-frame share, comp"] = (
        0.319,
        hd.traffic(True).share("Current Frame"),
    )
    return FigureResult(
        figure_id="Figure 16",
        title="VP9 hardware encoder off-chip traffic breakdown",
        rows=rows,
        anchors=anchors,
    )


def fig20_video_pim() -> FigureResult:
    """Figure 20: video kernels on CPU-Only / PIM-Core / PIM-Acc."""
    result = ExperimentRunner().evaluate(video_pim_targets())
    me = result.by_name("motion_estimation")
    return FigureResult(
        figure_id="Figure 20",
        title="Video kernels: normalized energy and runtime",
        rows=result.rows(),
        anchors={
            "mean PIM-Core energy reduction": (
                0.468,
                result.mean_pim_core_energy_reduction,
            ),
            "mean PIM-Acc energy reduction": (
                0.666,
                result.mean_pim_acc_energy_reduction,
            ),
            "mean PIM-Core speedup": (1.236, result.mean_pim_core_speedup),
            "mean PIM-Acc speedup": (1.702, result.mean_pim_acc_speedup),
            "motion estimation PIM-Acc speedup": (2.1, me.pim_acc_speedup),
            "motion estimation PIM-Core speedup": (1.126, me.pim_core_speedup),
        },
    )


def fig21_hw_codec_pim() -> FigureResult:
    """Figure 21: hardware codec energy, VP9 vs PIM-Core vs PIM-Acc."""
    rows = []
    anchors = {}
    for label, model in (
        ("decoder", HardwareDecoderModel(*RESOLUTIONS["4K"])),
        ("encoder", HardwareEncoderModel(*RESOLUTIONS["HD"])),
    ):
        for name, compression, placement in model.configurations():
            e = model.energy(compression, placement)
            rows.append(
                {
                    "codec": label,
                    "config": name,
                    "dram_mJ": e.dram * 1e3,
                    "memctrl_mJ": e.memctrl * 1e3,
                    "interconnect_mJ": e.interconnect * 1e3,
                    "computation_mJ": e.computation * 1e3,
                    "total_mJ": e.total * 1e3,
                }
            )
        base = model.energy(False, PimPlacement.NONE)
        base_comp = model.energy(True, PimPlacement.NONE)
        acc = model.energy(False, PimPlacement.PIM_ACC)
        acc_comp = model.energy(True, PimPlacement.PIM_ACC)
        core_comp = model.energy(True, PimPlacement.PIM_CORE)
        movement = (base.dram + base.memctrl + base.interconnect) / base.total
        paper_move = 0.692 if label == "decoder" else 0.715
        anchors["%s baseline movement share" % label] = (paper_move, movement)
        paper_red = 0.751 if label == "decoder" else 0.698
        anchors["%s PIM-Acc energy reduction (w/ comp)" % label] = (
            paper_red,
            1.0 - acc_comp.total / base_comp.total,
        )
        # DESIGN §4 gives one "+63.4% w/ compression" PIM-Core overhead
        # for Figure 21, so both codecs are held to it.
        anchors["%s PIM-Core overhead vs baseline (w/ comp)" % label] = (
            0.634,
            core_comp.total / base_comp.total - 1.0,
        )
        anchors["%s PIM-Acc nocomp beats baseline comp" % label] = (
            1.0,
            1.0 if acc.total < base_comp.total else 0.0,
        )
    return FigureResult(
        figure_id="Figure 21",
        title="Hardware codec energy: VP9 / +PIM-Core / +PIM-Acc",
        rows=rows,
        anchors=anchors,
        notes=(
            "PIM-Acc reductions are smaller than the paper's (-35% vs "
            "-75%): we charge internal 3D-stacked accesses half the "
            "off-chip per-bit energy (conservative), while the paper's "
            "HMC-derived estimates make in-memory traffic nearly free. "
            "All qualitative orderings match, including PIM-Core losing "
            "to the compression-enabled baseline and PIM-Acc without "
            "compression beating the baseline with compression."
        ),
    )
