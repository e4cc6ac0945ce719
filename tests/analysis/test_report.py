"""Unit tests for the EXPERIMENTS.md report generator."""

import hashlib
import json
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
from repro.obs.recorder import recording

ROOT = Path(__file__).resolve().parents[2]
COMMITTED_EXPERIMENTS = ROOT / "EXPERIMENTS.md"


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
        writes from a cold cache."""
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

    def test_parallel_jobs_rejected(self, monkeypatch):
        """Figures regenerate in one process: ``jobs`` other than 1 is a
        ``ValueError`` before any experiment runs, never a quiet serial
        run."""
        import repro.analysis.report as report

        def experiment():
            raise AssertionError("an experiment ran")

        monkeypatch.setattr(report, "EXPERIMENTS", (experiment,))
        with recording() as rec:
            with pytest.raises(ValueError, match="jobs must be 1, got 2"):
                report.all_results(jobs=2)
        assert rec.spans == []


class TestRunScope:
    """One ``all_results`` run builds each TensorFlow model once."""

    def test_each_builder_misses_once_per_run(self):
        for _ in range(2):  # the second run rebuilds: nothing leaks
            with recording() as rec:
                all_results(cache=None)
            counters = rec.counters.as_dict()
            assert counters["core.run_memo.all_models.misses"] == 1
            # One decomposition per network, each read by three figures.
            assert counters["core.run_memo.network_functions.misses"] == 4
            assert counters["core.run_memo.network_functions.hits"] == 8
            assert counters["core.run_memo.tensorflow_pim_targets.misses"] == 1
            assert counters["core.run_memo.misses"] == 6

    def test_models_are_rebuilt_outside_a_run(self):
        from repro.workloads.tensorflow.models import all_models

        assert all_models() is not all_models()
        assert all_models() == all_models()

    @pytest.mark.parametrize(
        "name", ["fig06_tf_energy", "fig07_tf_time", "fig19_tf_pim", "headline_summary"]
    )
    def test_figure_alone_matches_the_shared_run(self, name):
        from repro import analysis

        alone = getattr(analysis, name)()
        shared = {r.figure_id: r for r in all_results(cache=None)}
        assert alone.to_jsonable() == shared[alone.figure_id].to_jsonable()

    def test_full_precision_rows_match_the_benchmark_reference(self):
        """The digest perfbench's ``figures`` operation checks: it pins
        every float, so a shared result mutated by one figure before
        another reads it shows here even where three decimals hide it."""
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        results = all_results(cache=None)
        text = json.dumps([r.to_jsonable() for r in results], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:32] == reference["figures"]


class TestFigureResultJson:
    def test_roundtrip(self):
        r = FigureResult(
            "Figure X", "t", rows=[{"a": 1}], anchors={"x": (1.0, 1.1)}, notes="n"
        )
        back = FigureResult.from_jsonable(r.to_jsonable())
        assert back == r
        assert isinstance(back.anchors["x"], tuple)
