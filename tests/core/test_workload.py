"""Unit tests for whole-workload characterization and the run scope."""

import pytest

from repro.core.workload import (
    WorkloadFunction,
    characterize,
    run_scope,
    shared_in_run,
)
from repro.obs.recorder import recording
from repro.sim.profile import KernelProfile

MB = 1024 * 1024


def functions():
    heavy = KernelProfile.streaming("heavy", 32 * MB, 32 * MB, ops_per_byte=0.3)
    light = KernelProfile.cache_resident("light", 1 * MB, reuse_factor=16,
                                         ops_per_byte=2.0)
    return [
        WorkloadFunction("heavy", heavy, accelerator_key="texture_tiling"),
        WorkloadFunction("light", light),
    ]


class TestCharacterize:
    def test_shares_sum_to_one(self):
        ch = characterize("wl", functions())
        assert sum(ch.energy_shares().values()) == pytest.approx(1.0)
        assert sum(ch.time_shares().values()) == pytest.approx(1.0)

    def test_streaming_function_dominates_energy(self):
        ch = characterize("wl", functions())
        assert ch.energy_share("heavy") > ch.energy_share("light")

    def test_movement_share_le_energy_share(self):
        ch = characterize("wl", functions())
        for name in ("heavy", "light"):
            assert ch.movement_share_of_workload(name) <= ch.energy_share(name) + 1e-12

    def test_movement_fraction_of_function(self):
        ch = characterize("wl", functions())
        assert ch.movement_fraction_of_function("heavy") > 0.7
        assert ch.movement_fraction_of_function("light") < 0.7

    def test_total_breakdown_matches_sum(self):
        ch = characterize("wl", functions())
        assert ch.total_breakdown.total == pytest.approx(ch.total_energy_j)

    def test_component_matrix_covers_total(self):
        ch = characterize("wl", functions())
        matrix = ch.component_energy_by_function()
        total = sum(sum(row.values()) for row in matrix.values())
        assert total == pytest.approx(ch.total_energy_j)

    def test_function_lookup(self):
        ch = characterize("wl", functions())
        assert ch.function("heavy").name == "heavy"
        with pytest.raises(KeyError):
            ch.function("missing")

    def test_empty_workload(self):
        ch = characterize("empty", [])
        assert ch.total_energy_j == 0.0
        assert ch.data_movement_fraction == 0.0


def counting_builder():
    """A pure builder and the list of argument tuples it was run with."""
    calls = []

    @shared_in_run
    def build(*args, **kwargs):
        calls.append((args, kwargs))
        return [args, kwargs]

    return build, calls


class TestRunScope:
    def test_outside_a_scope_every_call_builds(self):
        build, calls = counting_builder()
        assert build(1) is not build(1)
        assert len(calls) == 2

    def test_equal_arguments_share_one_result(self):
        build, calls = counting_builder()
        with recording() as rec, run_scope():
            first = build(1, k="a")
            assert build(1, k="a") is first
            assert build(2) is not first
        assert len(calls) == 2
        counters = rec.counters.as_dict()
        assert counters["core.run_memo.misses"] == 2
        assert counters["core.run_memo.hits"] == 1
        assert counters["core.run_memo.build.misses"] == 2
        assert counters["core.run_memo.build.hits"] == 1

    def test_nothing_outlives_the_scope(self):
        build, calls = counting_builder()
        with run_scope():
            inside = build(1)
        with run_scope():
            assert build(1) is not inside
        assert build(1) is not inside
        assert len(calls) == 3

    def test_unhashable_arguments_are_plain_calls(self):
        build, calls = counting_builder()
        with recording() as rec, run_scope():
            assert build([1]) is not build([1])
        assert len(calls) == 2
        assert "core.run_memo.misses" not in rec.counters.as_dict()

    def test_nested_scope_joins_the_outer_run(self):
        build, calls = counting_builder()
        with run_scope():
            outer = build(1)
            with run_scope():
                assert build(1) is outer
            assert build(1) is outer
        assert len(calls) == 1

    def test_a_failed_build_is_not_shared(self):
        calls = []

        @shared_in_run
        def failing(x):
            calls.append(x)
            raise ValueError("no model for %r" % x)

        with run_scope():
            for _ in range(2):
                with pytest.raises(ValueError, match="no model"):
                    failing(1)
        assert calls == [1, 1]
