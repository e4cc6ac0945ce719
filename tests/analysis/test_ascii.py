"""Unit tests for ASCII chart rendering."""

import pytest

from repro.analysis.ascii import BAR_WIDTH, render_all_charts, render_chart
from repro.analysis.base import FigureResult


def figure(rows):
    return FigureResult("Figure A", "ascii test", rows=rows)


class TestRenderChart:
    def test_stacked_bars_with_legend(self):
        text = render_chart(
            figure([
                {"page": "Docs", "a": 0.5, "b": 0.5},
                {"page": "Mail", "a": 0.25, "b": 0.25},
            ])
        )
        lines = text.splitlines()
        assert "legend" in lines[1]
        assert "Docs" in lines[2]
        # Mail's total is half of Docs': its bar is ~half the width.
        docs_len = lines[2].split("|")[1].rstrip()
        mail_len = lines[3].split("|")[1].rstrip()
        assert len(mail_len) == pytest.approx(len(docs_len) / 2, abs=2)

    def test_full_scale_row_spans_bar_width(self):
        text = render_chart(figure([{"k": "x", "v": 1.0}]))
        bar = text.splitlines()[-1].split("|")[1].rstrip()
        assert len(bar) == BAR_WIDTH

    def test_no_numeric_columns_falls_back(self):
        text = render_chart(figure([{"component": "SoC", "desc": "stuff"}]))
        assert "component=SoC" in text

    def test_empty_rows_fall_back(self):
        text = render_chart(FigureResult("F", "t"))
        assert "F" in text

    def test_booleans_not_charted(self):
        text = render_chart(figure([{"name": "x", "flag": True, "v": 0.5}]))
        assert "flag" not in text.splitlines()[1]

    def test_render_all(self):
        text = render_all_charts([figure([{"v": 1.0}]), figure([{"v": 0.5}])])
        assert text.count("Figure A") == 2

    def test_one_legend_per_key_tuple(self):
        text = render_chart(
            figure([
                {"page": "Docs", "a": 0.5},
                {"target": "tiling", "b": 2.0, "c": 1.0},
                {"page": "Mail", "a": 0.25},
            ])
        )
        lines = text.splitlines()
        assert [line for line in lines if "legend" in line] == [
            "  legend: #=a",
            "  legend: #=b  ==c",
        ]
        # Groups keep first-appearance order; Mail joins Docs' block.
        assert [line.split("|")[0].strip() for line in lines if "|" in line] == [
            "Docs", "Mail", "tiling",
        ]

    def test_integer_columns_label_rows(self):
        text = render_chart(figure([{"num_gemms": 4, "speedup": 1.5}]))
        assert "num_gemms" not in text.splitlines()[1]
        assert "num_gemms=4" in text

    def test_total_column_sets_bar_length_not_a_segment(self):
        text = render_chart(
            figure([
                {"cfg": "big", "x": 3.0, "y": 1.0, "total_MB": 4.0},
                {"cfg": "small", "x": 1.0, "y": 1.0, "total_MB": 2.0},
            ])
        )
        lines = text.splitlines()
        assert lines[1] == "  legend: #=x  ==y  (bar length: total_MB)"
        assert lines[2].split("|")[1] == "#" * 36 + "=" * 12
        assert lines[3].split("|")[1] == "#" * 12 + "=" * 12


def bar_lengths(text: str) -> dict[str, int]:
    """Chart bar lengths keyed by row label."""
    return {
        line.split("|")[0].strip(): len(line.split("|")[1])
        for line in text.splitlines()
        if "|" in line
    }


class TestRealFigures:
    def test_fig01_charts(self):
        from repro.analysis.chrome_figures import fig01_scrolling_energy

        text = render_chart(fig01_scrolling_energy())
        assert "Google Docs" in text
        assert "#" in text

    def test_headline_charts_every_pim_target(self):
        from repro.analysis.headline import headline_summary

        result = headline_summary()
        text = render_chart(result)
        targets = [row["target"] for row in result.rows if "target" in row]
        assert len(targets) == 9
        for target in targets:
            assert target in text

    def test_fig12_compressed_legend_names_compression_info(self):
        from repro.analysis.video_figures import fig12_hw_decoder_traffic

        legends = [
            line
            for line in render_chart(fig12_hw_decoder_traffic()).splitlines()
            if "legend" in line
        ]
        assert any("Compression Info" in line for line in legends)

    def test_fig12_bar_length_follows_total_mb(self):
        from repro.analysis.video_figures import fig12_hw_decoder_traffic

        result = fig12_hw_decoder_traffic()
        bars = bar_lengths(render_chart(result))
        longest = max(row["total_MB"] for row in result.rows)
        assert len(bars) == len(result.rows) == 4
        for row in result.rows:
            (length,) = [
                n
                for label, n in bars.items()
                if label.startswith(row["resolution"])
                and label.endswith(str(row["compression"]))
            ]
            assert length == round(BAR_WIDTH * row["total_MB"] / longest)
