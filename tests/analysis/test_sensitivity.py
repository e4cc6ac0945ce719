"""Robustness: the paper's conclusions hold across the parameter space."""

import pytest

from repro.analysis.sensitivity import (
    breakeven_internal_ratio,
    evaluate_point,
    sweep,
)


class TestValidation:
    def test_unknown_parameter(self):
        with pytest.raises(KeyError):
            evaluate_point("magic_smoke", 1.0)

    def test_non_positive_scale(self):
        with pytest.raises(ValueError):
            evaluate_point("dram_energy", 0.0)


class TestDramEnergySweep:
    @pytest.fixture(scope="class")
    def points(self):
        return sweep("dram_energy", scales=(0.5, 1.0, 2.0))

    def test_pim_saves_energy_everywhere(self, points):
        for p in points:
            assert p.pim_always_saves_energy, p.scale

    def test_savings_grow_with_dram_cost(self, points):
        """The more off-chip access costs, the more PIM saves."""
        reductions = [p.mean_pim_acc_energy_reduction for p in points]
        assert reductions == sorted(reductions)

    def test_acc_beats_core_everywhere(self, points):
        assert all(p.acc_beats_core for p in points)


class TestInternalRatioSweep:
    def test_savings_shrink_as_internal_gets_expensive(self):
        points = sweep("internal_ratio", scales=(0.5, 1.0, 1.5, 2.0))
        reductions = [p.mean_pim_acc_energy_reduction for p in points]
        assert reductions == sorted(reductions, reverse=True)
        # Even at twice the calibrated internal cost, PIM still saves.
        for p in points:
            assert p.pim_always_saves_energy, p.scale

    def test_cheap_internal_access_boosts_savings(self):
        cheap = evaluate_point("internal_ratio", 0.25)
        calibrated = evaluate_point("internal_ratio", 1.0)
        assert cheap.mean_pim_acc_energy_reduction > (
            calibrated.mean_pim_acc_energy_reduction
        )


class TestCpuEpiSweep:
    def test_conclusions_hold_across_cpu_cost(self):
        for p in sweep("cpu_epi", scales=(0.5, 1.0, 2.0)):
            assert p.pim_always_saves_energy
            assert p.mean_pim_acc_energy_reduction > 0.3


class TestBreakeven:
    def test_breakeven_well_above_calibration(self):
        """PIM keeps saving energy even if internal DRAM access were much
        more expensive than our calibrated 0.5x-of-off-chip estimate --
        the headline conclusion does not hinge on that constant."""
        breakeven = breakeven_internal_ratio(resolution=0.5)
        assert breakeven >= 1.5
