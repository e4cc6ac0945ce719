"""Strict mode end to end: clean runs publish checks, broken state raises.

The acceptance bar for the validation layer: replaying the default
(Table 1) configuration under ``strict`` publishes ``validate.*.checks``
counters and **zero** ``validate.*.violations`` — and a deliberately
inconsistent energy breakdown both raises :class:`InvariantError` and
leaves the violation counter behind for the run manifest.
"""

from __future__ import annotations

import pytest

from repro.energy.breakdown import EnergyBreakdown
from repro.energy.model import EnergyModel
from repro.obs import recording
from repro.sim.batch import replay_timing_batch
from repro.sim.cache import replay_trace
from repro.sim.profile import KernelProfile
from repro.sim.timing import TimingSimulator
from repro.sim.trace import TraceRecorder
from tests.sim import oracle
from repro.validate import (
    InvariantError,
    resolve_strict,
    set_strict,
    strict_enabled,
    strict_mode,
)


def table1_trace():
    """A mixed trace: streaming read, streaming write, scattered reads."""
    recorder = TraceRecorder(granularity=8)
    recorder.read(0, 64 * 1024)
    recorder.write(1 << 22, 16 * 1024)
    for i in range(200):
        recorder.read((1 << 24) + i * 4096, 64)
    return recorder.trace()


#: Every cache replay at the Table 1 geometry: the two serial oracles and
#: the production (batched) engine.
CACHE_ENGINES = {
    "per_access": lambda trace, **kw: oracle.CacheHierarchy().replay(trace, **kw),
    "line_runs": lambda trace, **kw: oracle.CacheHierarchy().replay_fast(trace, **kw),
    "batched": replay_trace,
}

#: The same three engines for the timing replay.
TIMING_ENGINES = {
    "per_access": lambda trace, **kw: oracle.TimingSimulator().replay(trace, **kw),
    "line_runs": lambda trace, **kw: oracle.TimingSimulator().replay_fast(trace, **kw),
    "batched": lambda trace, **kw: replay_timing_batch(
        trace, [TimingSimulator()], **kw
    )[0],
}


def validate_counters(counters: dict) -> tuple[dict, dict]:
    checks = {k: v for k, v in counters.items()
              if k.startswith("validate.") and k.endswith(".checks")}
    violations = {k: v for k, v in counters.items()
                  if k.startswith("validate.") and k.endswith(".violations")}
    return checks, violations


class TestStrictReplayIsViolationFree:
    @pytest.mark.parametrize("engine", sorted(CACHE_ENGINES))
    def test_cache_replay(self, engine):
        trace = table1_trace()
        with recording() as rec:
            CACHE_ENGINES[engine](trace, strict=True)
        checks, violations = validate_counters(rec.counters.as_dict())
        assert checks, "strict replay must publish validate.*.checks"
        assert violations == {}

    @pytest.mark.parametrize("engine", sorted(TIMING_ENGINES))
    def test_timing_replay(self, engine):
        trace = table1_trace()
        with recording() as rec:
            TIMING_ENGINES[engine](trace, strict=True)
        checks, violations = validate_counters(rec.counters.as_dict())
        assert checks
        assert violations == {}

    def test_energy_model(self):
        profile = KernelProfile.streaming(
            "tiling", bytes_read=1 << 20, bytes_written=1 << 20, ops_per_byte=1.0
        )
        with recording() as rec, strict_mode():
            model = EnergyModel()
            model.cpu_components(profile, stall_cycles=1e5)
            model.pim_core_components(profile, 1e6, 2e5, stall_cycles=1e4)
            model.pim_accelerator_components(profile)
        checks, violations = validate_counters(rec.counters.as_dict())
        assert len(checks) >= 9  # 3 invariants x 3 execution targets
        assert violations == {}

    def test_non_strict_replay_publishes_no_validate_counters(self):
        with recording() as rec:
            replay_trace(table1_trace(), strict=False)
        assert not any(
            k.startswith("validate.") for k in rec.counters.as_dict()
        )


class TestBrokenStateRaises:
    def test_negative_component_raises_and_publishes(self):
        bad = EnergyBreakdown(cpu=-1.0)
        with recording() as rec:
            with pytest.raises(InvariantError) as excinfo:
                bad.check_invariants("energy.test")
        assert excinfo.value.invariant == "energy.test.components"
        counters = rec.counters.as_dict()
        assert counters["validate.energy.test.components.violations"] == 1
        assert counters["validate.energy.test.components.checks"] == 1

    def test_stall_exceeding_cpu_total_raises(self):
        bad = EnergyBreakdown(cpu=1.0, cpu_stall=2.0)
        with pytest.raises(InvariantError) as excinfo:
            bad.check_invariants()
        assert excinfo.value.invariant == "energy.breakdown.stall_share"

    def test_nan_component_raises(self):
        with pytest.raises(InvariantError):
            EnergyBreakdown(dram=float("nan")).check_invariants()

    def test_strict_energy_model_refuses_nan_stalls(self):
        profile = KernelProfile.streaming(
            "k", bytes_read=1024, bytes_written=0, ops_per_byte=1.0
        )
        with strict_mode():
            with pytest.raises(InvariantError):
                EnergyModel().cpu_components(profile, stall_cycles=float("nan"))

    def test_invariant_error_is_not_a_value_error(self):
        """The fuzz contract depends on this: decoders reject bad *input*
        with ValueError; InvariantError means the *model* broke."""
        assert not issubclass(InvariantError, ValueError)
        with pytest.raises(RuntimeError):
            EnergyBreakdown(cpu=-1.0).check_invariants()


class TestStrictSwitches:
    def test_explicit_flag_beats_global_mode(self):
        with strict_mode(True):
            assert resolve_strict(False) is False
        with strict_mode(False):
            assert resolve_strict(True) is True
            assert resolve_strict(None) is False

    def test_env_var_spellings(self, monkeypatch):
        previous = set_strict(None)
        try:
            for spelling, expected in [
                ("1", True), ("true", True), ("on", True), ("soak", True),
                ("0", False), ("false", False), ("no", False),
                ("off", False), ("", False),
            ]:
                monkeypatch.setenv("REPRO_STRICT", spelling)
                assert strict_enabled() is expected, spelling
            monkeypatch.delenv("REPRO_STRICT")
            assert strict_enabled() is False
        finally:
            set_strict(previous)

    def test_strict_mode_restores_previous_state(self):
        before = strict_enabled()
        with strict_mode(not before):
            assert strict_enabled() is (not before)
        assert strict_enabled() is before

    def test_global_mode_arms_replay(self):
        trace = table1_trace()
        with recording() as rec, strict_mode():
            replay_trace(trace)  # no explicit strict arg
        checks, _ = validate_counters(rec.counters.as_dict())
        assert checks
