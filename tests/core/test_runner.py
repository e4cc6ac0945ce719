"""Unit tests for the experiment runner."""

import pytest

from repro.core.runner import ExperimentRunner, SweepResult
from repro.core.target import PimTarget
from repro.sim.profile import KernelProfile

MB = 1024 * 1024


def targets():
    out = []
    for i, name in enumerate(("a", "b", "c")):
        profile = KernelProfile.streaming(
            name, (8 + 4 * i) * MB, (8 + 4 * i) * MB,
            ops_per_byte=0.2 + 0.1 * i, instruction_overhead=0.1,
            simd_fraction=0.9,
        )
        out.append(PimTarget(name, profile, accelerator_key="texture_tiling",
                             workload="test"))
    return out


class TestRunner:
    def test_evaluates_all_targets(self):
        result = ExperimentRunner().evaluate(targets())
        assert result.names == ["a", "b", "c"]

    def test_by_name(self):
        result = ExperimentRunner().evaluate(targets())
        assert result.by_name("b").target.name == "b"
        with pytest.raises(KeyError):
            result.by_name("zzz")

    def test_by_name_error_lists_available_targets(self):
        result = ExperimentRunner().evaluate(targets())
        with pytest.raises(KeyError, match="a, b, c"):
            result.by_name("zzz")

    def test_by_name_index_follows_mutation(self):
        result = ExperimentRunner().evaluate(targets())
        assert result.by_name("a").target.name == "a"
        extra = ExperimentRunner().evaluate(targets()[:1]).comparisons[0]
        renamed = ExperimentRunner().evaluate(
            [PimTarget("d", extra.target.profile, "texture_tiling")]
        ).comparisons[0]
        result.comparisons.append(renamed)
        assert result.by_name("d").target.name == "d"

    def test_rows_schema(self):
        rows = ExperimentRunner().evaluate(targets()).rows()
        assert len(rows) == 3
        for row in rows:
            assert row["energy_cpu"] == 1.0
            assert row["runtime_cpu"] == 1.0
            assert 0 < row["energy_pim_acc"] < 1.5
            assert row["speedup_pim_acc"] > 0

    def test_mean_matches_manual_average(self):
        result = ExperimentRunner().evaluate(targets())
        manual = sum(c.pim_acc_energy_reduction for c in result.comparisons) / 3
        assert result.mean_pim_acc_energy_reduction == pytest.approx(manual)

    def test_max_ge_mean(self):
        result = ExperimentRunner().evaluate(targets())
        assert result.max_pim_acc_speedup >= result.mean_pim_acc_speedup
        assert result.max_pim_core_energy_reduction >= result.mean_pim_core_energy_reduction

    def test_empty_sweep(self):
        empty = SweepResult()
        assert empty.mean_pim_core_speedup == 0.0


class TestTable1Rendering:
    def test_table1_rows_match_config(self):
        from repro.config import table1_rows

        rows = dict(table1_rows())
        assert "4 OoO cores, 8-wide issue" in rows["SoC"]
        assert "4-wide SIMD" in rows["PIM Core"]
        assert "256 GB/s" in rows["3D-Stacked Memory"]
        assert "FR-FCFS" in rows["Baseline Memory"]
