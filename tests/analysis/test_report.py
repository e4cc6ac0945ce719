"""Unit tests for the EXPERIMENTS.md report generator."""

from pathlib import Path

import pytest

from repro.analysis.base import FigureResult
from repro.analysis.report import (
    EXPERIMENTS,
    all_results,
    render_markdown,
    write_experiments_md,
)
from repro.core.memo import MemoCache

COMMITTED_EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


class TestFigureResult:
    def test_render_text_contains_rows_and_anchors(self):
        r = FigureResult(
            figure_id="Figure X",
            title="test",
            rows=[{"a": 1, "b": 0.5}],
            anchors={"thing": (0.5, 0.52)},
            notes="a note",
        )
        text = r.render_text()
        assert "Figure X" in text
        assert "a=1" in text
        assert "thing" in text
        assert "a note" in text

    def test_anchor_within_absolute_for_fractions(self):
        r = FigureResult("f", "t", anchors={"x": (0.5, 0.58)})
        assert r.anchor_within("x", 0.10)
        assert not r.anchor_within("x", 0.05)

    def test_anchor_within_relative_for_magnitudes(self):
        r = FigureResult("f", "t", anchors={"x": (100.0, 120.0)})
        assert r.anchor_within("x", 0.25)
        assert not r.anchor_within("x", 0.10)


class TestReport:
    def test_sixteen_experiments(self):
        assert len(EXPERIMENTS) == 16

    def test_render_markdown_smoke(self):
        results = [
            FigureResult("Figure 1", "t", rows=[{"a": 1}], anchors={"x": (1.0, 1.1)})
        ]
        md = render_markdown(results)
        assert "## Figure 1" in md
        assert "| anchor | paper | measured |" in md

    def test_write_experiments_md(self, tmp_path):
        # Use a cheap subset by writing only the header-rendering path:
        # full generation is exercised (and asserted) in test_figures.
        path = tmp_path / "EXPERIMENTS.md"
        written = write_experiments_md(str(path))
        content = path.read_text()
        assert written == str(path)
        for fig in ("Table 1", "Figure 1", "Figure 21", "Headline"):
            assert "## %s" % fig in content


def rendered_tables(markdown: str) -> dict:
    """Figure id -> the row tables rendered in its section (anchor tables
    left out), each a list of lines split into cells, header first."""
    sections: dict = {}
    tables = table = None
    lines = markdown.split("\n")
    for line, following in zip(lines, lines[1:] + [""]):
        if line.startswith("## "):
            tables = sections.setdefault(line[3:].split(" — ")[0], [])
            table = None
        elif tables is not None and line.startswith("| "):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if not following.startswith("|---"):
                if table is not None:
                    table.append(cells)
            elif cells == ["anchor", "paper", "measured"]:
                table = None
            else:
                table = [cells]
                tables.append(table)
    return sections


class TestRenderedColumns:
    """EXPERIMENTS.md shows every column a figure computes."""

    @pytest.fixture(scope="class")
    def rendered(self):
        results = all_results()
        return results, rendered_tables(render_markdown(results))

    def test_every_row_key_is_a_rendered_column(self, rendered):
        results, sections = rendered
        for result in results:
            headers = set()
            for table in sections[result.figure_id]:
                headers.update(table[0])
            for row in result.rows:
                missing = set(row) - headers
                assert not missing, (result.figure_id, sorted(missing))

    @pytest.mark.parametrize("figure_id", ["Figure 12", "Figure 16"])
    def test_traffic_parts_sum_to_total(self, rendered, figure_id):
        _, sections = rendered
        checked = 0
        for header, *rows in sections[figure_id]:
            parts = [i for i, k in enumerate(header)
                     if k not in ("resolution", "compression", "total_MB")]
            total = header.index("total_MB")
            for cells in rows:
                part_sum = sum(float(cells[i]) for i in parts)
                # Each printed value is rounded to 3 decimals.
                slack = 0.0005 * (len(parts) + 1)
                assert abs(part_sum - float(cells[total])) <= slack, cells
                checked += 1
        assert checked == 4  # HD and 4K, with and without compression


class TestCommittedExperiments:
    def test_regenerates_byte_for_byte(self, tmp_path):
        """The committed EXPERIMENTS.md is exactly what the generator
        writes from a cold cache and the committed benchmark records."""
        path = tmp_path / "EXPERIMENTS.md"
        write_experiments_md(str(path), cache=MemoCache(tmp_path / "fresh-cache"))
        generated = path.read_bytes().decode().split("\n")
        committed = COMMITTED_EXPERIMENTS.read_bytes().decode().split("\n")
        for number, (want, got) in enumerate(zip(committed, generated), start=1):
            assert got == want, (
                "EXPERIMENTS.md line %d drifted from its generator "
                "(figures --no-cache --write EXPERIMENTS.md)\n"
                "committed: %r\ngenerated: %r" % (number, want, got)
            )
        assert len(generated) == len(committed), (
            "EXPERIMENTS.md has %d lines, the generator writes %d"
            % (len(committed), len(generated))
        )


class TestCachedParallelResults:
    def test_cached_results_match_fresh(self, tmp_path):
        import time

        from repro.analysis.report import all_results
        from repro.core.memo import MemoCache

        cache = MemoCache(tmp_path)
        t0 = time.perf_counter()
        cold = all_results(cache=cache)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = all_results(cache=cache)
        warm_s = time.perf_counter() - t0
        assert [r.to_jsonable() for r in warm] == [r.to_jsonable() for r in cold]
        # Acceptance bar is <25% of the cold wall clock; a warm run does
        # no model work at all, so in practice it is ~1%.
        assert warm_s < 0.25 * cold_s

    def test_parallel_results_match_serial(self, tmp_path):
        from repro.analysis.report import EXPERIMENTS, all_results

        serial = all_results()
        parallel = all_results(jobs=2)
        assert len(serial) == len(EXPERIMENTS)
        assert [r.to_jsonable() for r in parallel] == [
            r.to_jsonable() for r in serial
        ]


class TestFigureResultJson:
    def test_roundtrip(self):
        r = FigureResult(
            "Figure X", "t", rows=[{"a": 1}], anchors={"x": (1.0, 1.1)}, notes="n"
        )
        back = FigureResult.from_jsonable(r.to_jsonable())
        assert back == r
        assert isinstance(back.anchors["x"], tuple)
