"""Figure/table harnesses: regenerate every experiment in the paper.

Each ``fig*``/``table*`` function recomputes one paper figure or table
from the models in this repository and returns a :class:`FigureResult`
holding the printed rows, the paper's reported anchor values, and our
measured values.  ``python -m repro.analysis.report`` renders all of
them into EXPERIMENTS.md.
"""

from repro._lazy import lazy_exports

#: Public name table: defining module -> the names it exports.
_EXPORTS = {
    ".base": ("FigureResult",),
    ".chrome_figures": (
        "fig01_scrolling_energy",
        "fig02_docs_breakdown",
        "fig04_zram_traffic",
        "fig18_browser_pim",
    ),
    ".tensorflow_figures": (
        "fig06_tf_energy",
        "fig07_tf_time",
        "fig19_tf_pim",
    ),
    ".video_figures": (
        "fig10_sw_decoder_energy",
        "fig11_sw_decoder_components",
        "fig12_hw_decoder_traffic",
        "fig15_sw_encoder_energy",
        "fig16_hw_encoder_traffic",
        "fig20_video_pim",
        "fig21_hw_codec_pim",
    ),
    ".headline": ("headline_summary", "table1_configuration"),
    ".report": ("all_results", "write_experiments_md"),
    ".export": ("export_all", "figure_to_dict"),
    ".sensitivity": (
        "breakeven_internal_ratio",
        "cache_geometry_sweep",
        "evaluate_point",
        "locality_robust_across_geometries",
        "sweep",
    ),
    ".cachesweep": (
        "default_geometry_grid",
        "run_sweep",
        "sweep_all",
        "workload_names",
    ),
    ".scorecard": ("Scorecard", "full_scorecard", "score_figures"),
    ".ascii": ("render_chart", "render_all_charts"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
