"""Unit + property tests for KernelProfile."""

import dataclasses
import functools
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.sim.profile import KernelProfile
from repro.validate.errors import ConfigError
from tests.sim.oracle import merged_pairwise

sizes = st.floats(min_value=1e3, max_value=1e9, allow_nan=False)
counts = st.one_of(st.integers(0, 10**9), st.floats(0.0, 1e12))
#: Counts that leave the running ``alu_ops`` of a chain at 0 for a while.
ops_or_zero = st.one_of(st.just(0), st.just(0.0), counts)
#: Counts a few of which overflow a sum to ``inf``.
counts_or_huge = st.one_of(counts, st.floats(1e307, 1.7e308))


@st.composite
def profiles(draw, counts=counts, alu_ops=counts):
    """Any valid KernelProfile, int or float counts, pim_bytes defaulted or set."""
    instructions = draw(counts)
    return KernelProfile(
        name=draw(st.sampled_from(["a", "b", "texture_tiling"])),
        instructions=instructions,
        mem_instructions=draw(st.floats(0.0, 1.0)) * instructions,
        alu_ops=draw(alu_ops),
        simd_fraction=draw(st.floats(0.0, 1.0)),
        l1_misses=draw(counts),
        llc_misses=draw(counts),
        dram_bytes=draw(counts),
        working_set_bytes=draw(counts),
        pim_bytes=draw(st.one_of(st.just(-1.0), counts)),
        notes=draw(st.sampled_from(["", "streaming"])),
    )


def assert_valid(profile):
    """``profile`` is what the validating constructor builds from its fields."""
    assert KernelProfile(**dataclasses.asdict(profile)) == profile
    assert pickle.loads(pickle.dumps(profile)) == profile


class TestValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            KernelProfile("k", instructions=-1, mem_instructions=0, alu_ops=0)

    def test_simd_fraction_bounds(self):
        with pytest.raises(ValueError):
            KernelProfile("k", 10, 1, 1, simd_fraction=1.5)

    def test_mem_cannot_exceed_instructions(self):
        with pytest.raises(ValueError):
            KernelProfile("k", instructions=5, mem_instructions=10, alu_ops=0)

    def test_pim_bytes_defaults_to_dram_bytes(self):
        p = KernelProfile("k", 100, 10, 10, dram_bytes=4096)
        assert p.pim_bytes == 4096


class TestDerived:
    def test_mpki(self):
        p = KernelProfile("k", instructions=10_000, mem_instructions=100,
                          alu_ops=0, llc_misses=150)
        assert p.mpki == pytest.approx(15.0)

    def test_mpki_zero_instructions(self):
        p = KernelProfile("k", 0, 0, 0)
        assert p.mpki == 0.0

    def test_bytes_per_instruction(self):
        p = KernelProfile("k", 1000, 10, 10, dram_bytes=500)
        assert p.bytes_per_instruction == pytest.approx(0.5)


class TestStreamingConstructor:
    def test_traffic_equals_bytes(self):
        p = KernelProfile.streaming("k", 1000, 2000, ops_per_byte=1.0)
        assert p.dram_bytes == 3000
        assert p.working_set_bytes == 3000

    def test_every_line_misses(self):
        p = KernelProfile.streaming("k", 6400, 0, ops_per_byte=0.0)
        assert p.llc_misses == pytest.approx(100)
        assert p.l1_misses == pytest.approx(100)

    def test_streaming_is_memory_intensive(self):
        """Streaming kernels must pass the paper's MPKI > 10 criterion."""
        p = KernelProfile.streaming("k", 2**20, 2**20, ops_per_byte=0.3)
        assert p.mpki > 10

    @given(bytes_read=sizes, bytes_written=sizes)
    def test_instructions_scale_with_bytes(self, bytes_read, bytes_written):
        p = KernelProfile.streaming("k", bytes_read, bytes_written, ops_per_byte=0.5)
        total = bytes_read + bytes_written
        assert p.instructions == pytest.approx(total * (0.125 + 0.5 + 0.5))


class TestCacheResidentConstructor:
    def test_dram_traffic_is_compulsory_only(self):
        p = KernelProfile.cache_resident("k", bytes_touched=64_000, reuse_factor=8,
                                         ops_per_byte=1.0)
        assert p.dram_bytes == 64_000
        assert p.llc_misses == pytest.approx(1000)

    def test_reuse_raises_instructions_not_traffic(self):
        lo = KernelProfile.cache_resident("k", 64_000, reuse_factor=1, ops_per_byte=1.0)
        hi = KernelProfile.cache_resident("k", 64_000, reuse_factor=8, ops_per_byte=1.0)
        assert hi.instructions > lo.instructions
        assert hi.dram_bytes == lo.dram_bytes

    def test_low_mpki(self):
        p = KernelProfile.cache_resident("k", 2**20, reuse_factor=8, ops_per_byte=2.0)
        assert p.mpki < 10


class TestScatteredConstructor:
    def test_whole_lines_fetched(self):
        p = KernelProfile.scattered("k", touches=1000, bytes_per_touch=16,
                                    ops_per_byte=1.0)
        # 16 B touches still fetch whole 64 B lines plus straddle overhead.
        assert p.dram_bytes > 1000 * 16

    def test_locality_reduces_traffic(self):
        none = KernelProfile.scattered("k", 1000, 64, 1.0, locality_fraction=0.0)
        half = KernelProfile.scattered("k", 1000, 64, 1.0, locality_fraction=0.5)
        assert half.dram_bytes < none.dram_bytes


class TestCombinators:
    def test_scaled_multiplies_counts(self):
        p = KernelProfile.streaming("k", 1000, 1000, ops_per_byte=1.0)
        s = p.scaled(3.0)
        assert s.instructions == pytest.approx(3 * p.instructions)
        assert s.dram_bytes == pytest.approx(3 * p.dram_bytes)
        assert s.mpki == pytest.approx(p.mpki)

    def test_merged_adds_counts(self):
        a = KernelProfile.streaming("a", 1000, 0, ops_per_byte=1.0)
        b = KernelProfile.streaming("b", 0, 2000, ops_per_byte=0.5)
        m = a.merged(b)
        assert m.instructions == pytest.approx(a.instructions + b.instructions)
        assert m.dram_bytes == pytest.approx(a.dram_bytes + b.dram_bytes)
        assert m.name == "a+b"

    def test_merged_simd_fraction_is_op_weighted(self):
        a = KernelProfile("a", 100, 10, 100, simd_fraction=1.0)
        b = KernelProfile("b", 100, 10, 100, simd_fraction=0.0)
        assert a.merged(b).simd_fraction == pytest.approx(0.5)

    @given(factor=st.floats(min_value=0.1, max_value=100, allow_nan=False))
    def test_scaling_preserves_intensity(self, factor):
        p = KernelProfile.streaming("k", 10_000, 10_000, ops_per_byte=0.7)
        s = p.scaled(factor)
        assert s.bytes_per_instruction == pytest.approx(p.bytes_per_instruction)

    def test_merge_is_commutative_in_totals(self):
        a = KernelProfile.streaming("a", 1000, 500, ops_per_byte=1.0)
        b = KernelProfile.cache_resident("b", 3000, 4, 2.0)
        ab, ba = a.merged(b), b.merged(a)
        assert ab.instructions == pytest.approx(ba.instructions)
        assert ab.dram_bytes == pytest.approx(ba.dram_bytes)
        assert ab.simd_fraction == pytest.approx(ba.simd_fraction)

    @given(a=profiles(), b=profiles())
    def test_merged_result_passes_revalidation(self, a, b):
        assert_valid(a.merged(b))
        assert_valid(a.merged(b, name="both"))

    @given(p=profiles(), factor=st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e6)))
    def test_scaled_result_passes_revalidation(self, p, factor):
        assert_valid(p.scaled(factor))
        assert_valid(p.scaled(factor, name="scaled"))

    @given(p=profiles(), factor=st.floats(0.0, 1e6))
    def test_scaled_keeps_per_invocation_fields(self, p, factor):
        s = p.scaled(factor)
        assert s.simd_fraction == p.simd_fraction
        assert s.working_set_bytes == p.working_set_bytes
        assert s.notes == p.notes

    @pytest.mark.parametrize("factor", [-1.0, math.nan, math.inf, True, "2"])
    def test_scaled_rejects_bad_factor(self, factor):
        p = KernelProfile.streaming("k", 1000, 1000, ops_per_byte=1.0)
        with pytest.raises(ConfigError) as excinfo:
            p.scaled(factor)
        assert excinfo.value.field == "factor"

    def test_scaled_by_zero_is_legal(self):
        p = KernelProfile.streaming("k", 1000, 1000, ops_per_byte=1.0)
        s = p.scaled(0.0)
        assert s.instructions == 0.0 and s.dram_bytes == 0.0 and s.pim_bytes == 0.0
        assert_valid(s)

    def test_overflow_to_inf_is_rejected(self):
        huge = KernelProfile("h", 1e308, 1e308, 0, dram_bytes=1e308)
        with pytest.raises(ConfigError) as excinfo:
            huge.merged(huge)
        assert excinfo.value.field == "instructions"
        with pytest.raises(ConfigError) as excinfo:
            KernelProfile.folded([huge, huge])
        assert excinfo.value.field == "instructions"
        with pytest.raises(ConfigError):
            huge.scaled(2.0)

    def test_finite_fields_with_an_overflowing_total_are_kept(self):
        # The overflow check sums the fields; a total past the float
        # range with every field finite must still yield the profile.
        p = KernelProfile("p", 1e308, 0, 0, dram_bytes=1e308)
        s = p.scaled(1.0)
        assert s == p
        assert_valid(s)


def chain(profiles, name, merge):
    """``profiles`` merged left to right, one ``merge`` step at a time."""
    return functools.reduce(lambda acc, p: merge(acc, p, name), profiles)


def outcome(build):
    """``build()``, or the ``ConfigError`` it raised."""
    try:
        return build()
    except ConfigError as exc:
        return exc


class TestFold:
    """``KernelProfile.folded`` against a chain of the test-side merge,
    which shares none of its code (``tests/sim/oracle.merged_pairwise``)."""

    @given(
        ps=st.lists(profiles(alu_ops=ops_or_zero), min_size=1, max_size=40),
        name=st.sampled_from([None, "bucket"]),
    )
    def test_fold_is_the_left_chain_of_pairwise_merges(self, ps, name):
        expected = chain(ps, name, merged_pairwise)
        folded = KernelProfile.folded(ps, name)
        assert folded == expected
        # Same types and float bits too: an int field stays an int.
        assert repr(folded) == repr(expected)
        assert repr(chain(ps, name, KernelProfile.merged)) == repr(expected)
        assert_valid(folded)

    def test_a_working_set_tie_keeps_the_first(self):
        a = KernelProfile("a", 1, 0, 0, working_set_bytes=64)
        b = KernelProfile("b", 1, 0, 0, working_set_bytes=64.0)
        for ps in ([a, b], [b, a], [a, b, a]):
            folded = KernelProfile.folded(ps)
            assert type(folded.working_set_bytes) is type(ps[0].working_set_bytes)
            assert repr(folded) == repr(chain(ps, None, merged_pairwise))

    @given(p=profiles(), name=st.sampled_from([None, "bucket"]))
    def test_one_profile_comes_back_as_is(self, p, name):
        assert KernelProfile.folded([p], name) is p

    @given(
        ps=st.lists(
            profiles(counts=counts_or_huge, alu_ops=counts_or_huge), min_size=1, max_size=40
        ),
        name=st.sampled_from([None, "bucket"]),
    )
    def test_fold_raises_exactly_when_the_chain_does(self, ps, name):
        expected = outcome(lambda: chain(ps, name, merged_pairwise))
        folded = outcome(lambda: KernelProfile.folded(ps, name))
        assert isinstance(folded, ConfigError) == isinstance(expected, ConfigError)
        if not isinstance(expected, ConfigError):
            assert repr(folded) == repr(expected)
        elif len(ps) == 2:
            # Longer chains stop at their first overflowing step, so
            # only a single step must name the same field.
            assert folded.field == expected.field
