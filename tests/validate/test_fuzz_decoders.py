"""Fault injection: hostile bytes and degenerate configs fail *cleanly*.

The contract under test (see ``repro.validate.errors``): any input — a
corrupted LZO stream, a garbage bitstream, a fuzzed config — may be
rejected only with ``ValueError``/``ConfigError``.  ``IndexError``,
``ZeroDivisionError``, ``TypeError``, ``MemoryError``, and
``InvariantError`` escaping a decoder are model bugs, and pytest will
report them as such because only ``ValueError`` is caught here.

Example counts are governed by the central Hypothesis profiles in
``tests/conftest.py`` (``REPRO_HYPOTHESIS_PROFILE=soak`` for the deep
CI run), so no test overrides ``max_examples``.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import CacheConfig, SocConfig
from repro.sim.batch import sweep_batch
from repro.sim.cache import replay_trace
from repro.sim.trace import MemoryTrace, TraceRecorder
from repro.validate import ConfigError
from repro.workloads.chrome import lzo
from repro.workloads.vp9.bitio import BitReader, BitWriter
from tests.perf import kernel_oracle
from tests.sim import oracle

#: The production decompressor and the oracle's byte-at-a-time copy.
DECOMPRESSORS = (lzo.decompress, kernel_oracle.decompress)


@contextlib.contextmanager
def small_output_cap(cap: int = 1 << 16):
    """Shrink the LZO expansion cap so fuzzing both exercises the limit
    and never pays for a near-1GB (legal-sized) hostile expansion."""
    previous = lzo.MAX_OUTPUT_BYTES
    lzo.MAX_OUTPUT_BYTES = cap
    try:
        yield
    finally:
        lzo.MAX_OUTPUT_BYTES = previous


class TestLzoFuzz:
    @given(data=st.binary(max_size=2048))
    def test_decompress_rejects_cleanly_and_paths_agree(self, data):
        """Arbitrary bytes: the decompressor and its oracle either produce
        the same output or raise the same offset-bearing ValueError."""

        def run(decompress):
            with small_output_cap():
                try:
                    return decompress(data)[0]
                except ValueError as exc:
                    assert "offset" in str(exc)
                    return ("rejected", str(exc))

        assert run(lzo.decompress) == run(kernel_oracle.decompress)

    @given(data=st.binary(max_size=4096))
    def test_roundtrip_survives_fuzz(self, data):
        compressed, _ = lzo.compress(data)
        for decompress in DECOMPRESSORS:
            restored, _ = decompress(compressed)
            assert restored == data

    @given(corrupt_at=st.integers(min_value=0, max_value=200),
           new_byte=st.integers(min_value=0, max_value=255))
    def test_single_byte_corruption_never_crashes(self, corrupt_at, new_byte):
        compressed, _ = lzo.compress(b"the quick brown fox " * 32)
        buffer = bytearray(compressed)
        buffer[corrupt_at % len(buffer)] = new_byte
        for decompress in DECOMPRESSORS:
            with small_output_cap():
                try:
                    decompress(bytes(buffer))
                except ValueError as exc:
                    assert "offset" in str(exc)

    def test_varint_bomb_is_rejected_not_allocated(self):
        """A crafted varint demanding a multi-TB match copy must raise a
        clean ValueError instead of dying with MemoryError."""
        extra = bytearray()
        lzo._emit_varint((1 << 42), extra)  # ~4 TB match length
        bomb = (
            bytes([0x00, 0x41])           # 1-byte literal: 'A'
            + bytes([0x80 | 127]) + bytes(extra)
            + bytes([0x01, 0x00])         # distance 1 (valid)
        )
        for decompress in DECOMPRESSORS:
            with pytest.raises(ValueError, match="expands output beyond"):
                decompress(bomb)

    def test_overlong_varint_is_rejected(self):
        bomb = (
            bytes([0x00, 0x41])
            + bytes([0x80 | 127]) + bytes([0xFF] * 12)
            + bytes([0x01, 0x00])
        )
        for decompress in DECOMPRESSORS:
            with pytest.raises(ValueError, match="varint too long"):
                decompress(bomb)


class TestBitioFuzz:
    @given(fields=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 24),
                  st.integers(min_value=0, max_value=25)),
        max_size=50,
    ))
    def test_writer_reader_roundtrip(self, fields):
        writer = BitWriter()
        written = []
        for value, count in fields:
            value &= (1 << count) - 1
            writer.write_bits(value, count)
            written.append((value, count))
        reader = BitReader(writer.getvalue())
        for value, count in written:
            assert reader.read_bits(count) == value

    @given(value=st.integers(min_value=-5, max_value=1 << 30),
           count=st.integers(min_value=-3, max_value=32))
    def test_write_bits_rejects_out_of_range_cleanly(self, value, count):
        writer = BitWriter()
        try:
            writer.write_bits(value, count)
        except ValueError:
            assert value < 0 or count < 0 or value >> count
        else:
            assert value >= 0 and count >= 0 and value >> count == 0

    @given(data=st.binary(max_size=64),
           extra=st.integers(min_value=0, max_value=200))
    def test_reading_past_the_end_yields_zero_bits(self, data, extra):
        reader = BitReader(data)
        reader.read_bits(len(data) * 8)
        assert reader.read_bits(extra) == 0


class TestConfigSpaceFuzz:
    @given(size=st.integers(min_value=-64, max_value=1 << 16),
           assoc=st.integers(min_value=-2, max_value=64),
           line=st.integers(min_value=-2, max_value=512))
    def test_accepted_cache_config_is_simulatable(self, size, assoc, line):
        """Any CacheConfig that passes validation must actually work: a
        replay through it cannot divide by zero or index out of range."""
        try:
            config = CacheConfig(
                size_bytes=size, associativity=assoc, line_bytes=line
            )
        except ConfigError as exc:
            assert exc.field in ("size_bytes", "associativity", "line_bytes")
            return
        assert config.num_sets >= 1
        recorder = TraceRecorder(granularity=8)
        recorder.read(0, 1024)
        stats = replay_trace(recorder.trace(), SocConfig(l1=config), strict=True)
        assert stats.l1.accesses == 128

    @given(addresses=st.lists(
        st.integers(min_value=0, max_value=1 << 12), max_size=64,
    ), data=st.data())
    def test_strict_replay_holds_on_arbitrary_traces(self, addresses, data):
        """Strict-mode conservation invariants are theorems, not tuning:
        no trace may trip them in the production engine or the serial
        oracles (an InvariantError here is a model bug)."""
        writes = [data.draw(st.booleans()) for _ in addresses]
        trace = MemoryTrace(
            addresses=np.array(addresses, dtype=np.uint64),
            is_write=np.array(writes, dtype=bool),
        )
        soc = SocConfig(
            l1=CacheConfig(size_bytes=256, associativity=2),
            l2=CacheConfig(size_bytes=1024, associativity=4),
        )
        sweep_batch(trace, [soc], strict=True)
        oracle.CacheHierarchy(soc).replay(trace, strict=True)
        oracle.CacheHierarchy(soc).replay_fast(trace, strict=True)
        oracle.TimingSimulator(soc).replay(trace, strict=True)
        oracle.TimingSimulator(soc).replay_fast(trace, strict=True)

    @given(base=st.integers(min_value=-(1 << 40), max_value=1 << 40),
           size=st.integers(min_value=0, max_value=4096))
    def test_recorder_rejects_negative_bases_cleanly(self, base, size):
        """Negative addresses must fail at record time with ValueError,
        not at materialization with numpy's OverflowError."""
        recorder = TraceRecorder(granularity=8)
        try:
            recorder.read(base, size)
        except ValueError:
            assert base < 0
            return
        assert base >= 0
        recorder.trace()
