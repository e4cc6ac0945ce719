"""An LZO-class LZ77 byte compressor (paper Section 4.3).

Chrome's ZRAM swap compresses inactive-tab pages with LZO [111], a
byte-oriented LZ77 variant that favors speed over ratio: greedy parsing,
a small hash table over 4-byte prefixes, and byte-aligned output tokens.
This module implements a compressor/decompressor with the same structure
(not the LZO bitstream itself, which is irrelevant to the data-movement
analysis) plus the operation statistics the characterization needs.

Token format (byte-aligned):

* literal run:  control byte ``0xxxxxxx`` = run length - 1 (1..128),
  followed by the literal bytes;
* match:        control byte ``1xxxxxxx`` where the low 7 bits encode
  ``match length - MIN_MATCH`` (0..126; 127 means "read a varint for the
  remainder"), followed by a 2-byte little-endian distance (1..65535).

The compressor hashes every 4-byte prefix in one vectorized pass and
extends matches by slice comparison; the decompressor copies matches as
whole slices.  The byte-at-a-time compressor and match copy they
replaced are the test oracle (``tests/perf/kernel_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

MIN_MATCH = 4
MAX_DISTANCE = 0xFFFF
_HASH_MULT = 2654435761  # Knuth multiplicative hash
_LITERAL_MAX = 128
_LEN_FIELD_MAX = 126
_TABLE_SIZE = 1 << 14
#: Match extension compares this many bytes per slice comparison before
#: falling back to a byte scan inside the failing chunk.
_EXTEND_CHUNK = 64
#: Decompression refuses to expand output beyond this many bytes (1 GB).
#: Legitimate streams stay far below it (a zram page is a few kB; even a
#: fully-zero multi-megabyte page is orders of magnitude smaller), but a
#: crafted varint can otherwise demand a multi-terabyte match copy and
#: crash the process with MemoryError instead of a clean rejection.
MAX_OUTPUT_BYTES = 1 << 30
#: Varint continuation bytes accepted before the value is declared
#: hostile (9 * 7 bits already exceeds the output cap above).
_MAX_VARINT_BYTES = 9


@dataclass
class LzoStats:
    """Operation counts from one compress/decompress call."""

    input_bytes: int = 0
    output_bytes: int = 0
    literal_runs: int = 0
    literal_bytes: int = 0
    matches: int = 0
    match_bytes: int = 0
    hash_lookups: int = 0
    compare_bytes: int = 0

    @property
    def ratio(self) -> float:
        """Compression ratio (input / output); > 1 means it compressed."""
        if self.output_bytes == 0:
            return 0.0
        return self.input_bytes / self.output_bytes


def _hash_all(data: bytes) -> list:
    """Hashes of every 4-byte prefix of ``data``, computed vectorized.

    ``hashes[i]`` is the top 14 bits of the little-endian word at ``i``
    times :data:`_HASH_MULT`, modulo 2**32 (uint32 multiplication wraps).
    """
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    words = (
        arr[:-3] | (arr[1:-2] << 8) | (arr[2:-1] << 16) | (arr[3:] << 24)
    )
    return ((words * np.uint32(_HASH_MULT)) >> np.uint32(18)).tolist()


def _extend_match(data: bytes, candidate: int, pos: int, n: int) -> int:
    """Longest match length from (candidate, pos), chunked slice compares.

    Whole ``_EXTEND_CHUNK``-byte slices are compared at C speed, and the
    first unequal chunk is scanned bytewise for the exact mismatch
    offset.
    """
    length = MIN_MATCH
    limit = n - pos
    while length < limit:
        step = min(_EXTEND_CHUNK, limit - length)
        if (
            data[candidate + length : candidate + length + step]
            == data[pos + length : pos + length + step]
        ):
            length += step
            continue
        for _ in range(step):
            if data[candidate + length] != data[pos + length]:
                break
            length += 1
        break
    return length


def compress(data: bytes) -> tuple[bytes, LzoStats]:
    """Greedy LZ77 compression.  Returns (compressed bytes, stats).

    The probe table is built from one batched 4-byte hash of the whole
    input, and matches extend by chunked slice comparison.
    """
    stats = LzoStats(input_bytes=len(data))
    out = bytearray()
    hashes = _hash_all(data) if len(data) >= MIN_MATCH else []
    table = [-1] * _TABLE_SIZE
    literal_start = 0
    pos = 0
    n = len(data)
    while pos + MIN_MATCH <= n:
        h = hashes[pos]
        stats.hash_lookups += 1
        candidate = table[h]
        table[h] = pos
        if (
            candidate >= 0
            and pos - candidate <= MAX_DISTANCE
            and data[candidate : candidate + MIN_MATCH] == data[pos : pos + MIN_MATCH]
        ):
            length = _extend_match(data, candidate, pos, n)
            stats.compare_bytes += length
            _flush_literals(data, literal_start, pos, out, stats)
            _emit_match(length, pos - candidate, out, stats)
            pos += length
            literal_start = pos
        else:
            pos += 1
    _flush_literals(data, literal_start, n, out, stats)
    stats.output_bytes = len(out)
    return bytes(out), stats


def _flush_literals(
    data: bytes, start: int, end: int, out: bytearray, stats: LzoStats
) -> None:
    pos = start
    while pos < end:
        run = min(end - pos, _LITERAL_MAX)
        out.append(run - 1)
        out.extend(data[pos : pos + run])
        stats.literal_runs += 1
        stats.literal_bytes += run
        pos += run


def _emit_match(length: int, distance: int, out: bytearray, stats: LzoStats) -> None:
    stats.matches += 1
    stats.match_bytes += length
    base = length - MIN_MATCH
    if base < _LEN_FIELD_MAX + 1:
        out.append(0x80 | base)
    else:
        out.append(0x80 | 127)
        _emit_varint(base - 127, out)
    out.append(distance & 0xFF)
    out.append((distance >> 8) & 0xFF)


def _emit_varint(value: int, out: bytearray) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def decompress(compressed: bytes) -> tuple[bytes, LzoStats]:
    """Inverse of :func:`compress`.  Returns (original bytes, stats)."""
    return _decompress(compressed, _copy_match)


def _copy_match(out: bytearray, distance: int, length: int) -> None:
    """Append ``length`` bytes copied from ``distance`` back in ``out``.

    A non-overlapping match is one slice; a self-overlapping one repeats
    the trailing ``distance`` bytes cyclically, as an LZ77 overlap copy
    does.
    """
    start = len(out) - distance
    if distance >= length:
        out.extend(out[start : start + length])
    else:
        pattern = bytes(out[start:])
        out.extend((pattern * (length // distance + 1))[:length])


def _decompress(
    compressed: bytes, copy_match: Callable[[bytearray, int, int], None]
) -> tuple[bytes, LzoStats]:
    """Parse the token stream, validating every token before it runs,
    and expand each match with ``copy_match(out, distance, length)``."""
    stats = LzoStats(input_bytes=len(compressed))
    out = bytearray()
    pos = 0
    n = len(compressed)
    while pos < n:
        control = compressed[pos]
        pos += 1
        if control & 0x80 == 0:
            run = control + 1
            if pos + run > n:
                raise ValueError("truncated literal run at offset %d" % pos)
            out.extend(compressed[pos : pos + run])
            stats.literal_runs += 1
            stats.literal_bytes += run
            pos += run
        else:
            base = control & 0x7F
            if base == 127:
                extra, pos = _read_varint(compressed, pos)
                base = 127 + extra
            length = base + MIN_MATCH
            if pos + 2 > n:
                raise ValueError("truncated match distance at offset %d" % pos)
            distance = compressed[pos] | (compressed[pos + 1] << 8)
            pos += 2
            if distance == 0 or distance > len(out):
                raise ValueError("invalid match distance %d at offset %d" % (distance, pos))
            if len(out) + length > MAX_OUTPUT_BYTES:
                raise ValueError(
                    "match of length %d at offset %d expands output beyond %d bytes"
                    % (length, pos, MAX_OUTPUT_BYTES)
                )
            copy_match(out, distance, length)
            stats.matches += 1
            stats.match_bytes += length
    stats.output_bytes = len(out)
    return bytes(out), stats


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint at offset %d" % pos)
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte & 0x80 == 0:
            return value, pos
        shift += 7
        if shift >= _MAX_VARINT_BYTES * 7:
            raise ValueError("varint too long at offset %d" % pos)


def roundtrip(data: bytes) -> tuple[bytes, LzoStats, LzoStats]:
    """Compress then decompress; returns (compressed, cstats, dstats)."""
    compressed, cstats = compress(data)
    restored, dstats = decompress(compressed)
    if restored != data:
        raise AssertionError("LZO roundtrip failed")
    return compressed, cstats, dstats
