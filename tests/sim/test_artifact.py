"""Tests for columnar trace artifacts (:mod:`repro.sim.artifact`).

The contract mirrors the checkpoint/memo layers': atomic writes, loads
that verify structure and checksums, quarantine-and-rebuild on damage.
The replay-facing half of the contract is bit-identity: a replay from a
memory-mapped artifact must equal a replay of the original in-memory
trace, stat for stat.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, SocConfig
from repro.obs import recording
from repro.sim.artifact import (
    _MAGIC,
    _content_hash,
    _data_start,
    ArtifactError,
    TraceArtifact,
    TraceStore,
)
from repro.sim.cache import replay_trace
from repro.sim.trace import MemoryTrace


def small_soc() -> SocConfig:
    return SocConfig(
        l1=CacheConfig(size_bytes=1024, associativity=2),
        l2=CacheConfig(size_bytes=4096, associativity=4),
    )


def random_trace(seed: int = 0, n: int = 500) -> MemoryTrace:
    rng = np.random.default_rng(seed)
    return MemoryTrace(
        addresses=rng.integers(0, 1 << 16, n, dtype=np.uint64),
        is_write=rng.random(n) < 0.4,
    )


def header_span(raw: bytes) -> tuple[int, dict]:
    """(data_start, parsed header) of a serialized artifact."""
    header_len = int.from_bytes(raw[len(_MAGIC) : len(_MAGIC) + 8], "little")
    header = json.loads(raw[len(_MAGIC) + 8 : len(_MAGIC) + 8 + header_len])
    return _data_start(header_len), header


def rewrite_header(path, raw: bytes, header: dict) -> None:
    """Write ``raw``'s data section back under a (forged) ``header``."""
    data_start, _ = header_span(raw)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    pad = _data_start(len(header_bytes)) - len(_MAGIC) - 8 - len(header_bytes)
    path.write_bytes(
        _MAGIC
        + len(header_bytes).to_bytes(8, "little")
        + header_bytes
        + b"\0" * pad
        + raw[data_start:]
    )


def column_bytes(raw: bytes, name: str) -> bytes:
    data_start, header = header_span(raw)
    spec = next(s for s in header["columns"] if s["name"] == name)
    start = data_start + spec["offset"]
    return raw[start : start + spec["nbytes"]]


def shorten_column(raw: bytes, header: dict, name: str) -> None:
    """Drop ``name``'s last element in ``header``, re-signing what it covers.

    The column's SHA-256 and the content hash are recomputed over the
    shortened bytes, so every checksum still matches.
    """
    spec = next(s for s in header["columns"] if s["name"] == name)
    itemsize = spec["nbytes"] // spec["count"]
    spec["count"] -= 1
    spec["nbytes"] -= itemsize
    kept = column_bytes(raw, name)[: spec["nbytes"]]
    spec["sha256"] = hashlib.sha256(kept).hexdigest()
    columns = {c: column_bytes(raw, c) for c in ("addresses", "is_write")}
    columns[name] = kept
    header["content_hash"] = _content_hash(
        columns["addresses"], columns["is_write"], header["line_bytes"]
    )


def save_v1(path, trace: MemoryTrace, version: str) -> None:
    """Write ``trace`` in the v1 layout, which also stored its line runs."""
    run_lines, run_counts, run_writes = trace.line_runs()
    columns = [
        ("addresses", trace.addresses),
        ("is_write", trace.is_write),
        ("run_lines", run_lines),
        ("run_counts", run_counts),
        ("run_writes", run_writes),
    ]
    specs, data = [], b""
    for name, array in columns:
        raw = array.tobytes()
        specs.append(
            {
                "name": name,
                "dtype": str(array.dtype),
                "count": int(array.shape[0]),
                "offset": len(data),
                "nbytes": len(raw),
                "sha256": hashlib.sha256(raw).hexdigest(),
            }
        )
        data += raw + b"\0" * (-len(raw) % 64)
    header = {
        "schema": "repro-trace-artifact/v1",
        "workload": "gemm",
        "line_bytes": 64,
        "content_hash": _content_hash(trace.addresses, trace.is_write, 64),
        "code_version": version,
        "num_accesses": len(trace),
        "num_runs": int(run_lines.shape[0]),
        "columns": specs,
        "data_bytes": len(data),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    pad = _data_start(len(header_bytes)) - len(_MAGIC) - 8 - len(header_bytes)
    path.write_bytes(
        _MAGIC
        + len(header_bytes).to_bytes(8, "little")
        + header_bytes
        + b"\0" * pad
        + data
    )


class TestRoundTrip:
    def test_save_load_replay_bit_identity(self, tmp_path):
        trace = random_trace(1)
        art = TraceArtifact.from_trace(trace, workload="unit")
        path = art.save(tmp_path / "t.trace")
        assert path.exists()
        loaded = TraceArtifact.load(path)
        assert loaded.workload == "unit"
        assert loaded.content_hash == art.content_hash
        assert loaded.code_version == art.code_version
        assert loaded.num_accesses == len(trace)
        # Columns survive byte for byte.
        np.testing.assert_array_equal(loaded.addresses, trace.addresses)
        np.testing.assert_array_equal(loaded.is_write, trace.is_write)
        # Replay from the mmap'd artifact equals replay of the original.
        direct = replay_trace(random_trace(1), small_soc())
        assert replay_trace(loaded.trace(), small_soc()) == direct

    def test_trace_preseeds_line_runs_memo(self, tmp_path):
        art = TraceArtifact.from_trace(random_trace(2), workload="memo")
        loaded = TraceArtifact.load(art.save(tmp_path / "t.trace"))
        replayed = loaded.trace()
        assert art.line_bytes in replayed._line_runs_cache
        for got, want in zip(replayed.line_runs(), random_trace(2).line_runs()):
            np.testing.assert_array_equal(got, want)

    def test_load_without_mmap(self, tmp_path):
        art = TraceArtifact.from_trace(random_trace(3), workload="copy")
        loaded = TraceArtifact.load(art.save(tmp_path / "t.trace"), mmap=False)
        assert not isinstance(loaded.addresses, np.memmap)
        np.testing.assert_array_equal(loaded.addresses, art.addresses)

    def test_empty_trace_round_trips(self, tmp_path):
        empty = MemoryTrace(np.empty(0, np.uint64), np.empty(0, bool))
        art = TraceArtifact.from_trace(empty, workload="empty")
        loaded = TraceArtifact.load(art.save(tmp_path / "e.trace"))
        assert loaded.num_accesses == 0
        direct = replay_trace(
            MemoryTrace(np.empty(0, np.uint64), np.empty(0, bool)), small_soc()
        )
        assert replay_trace(loaded.trace(), small_soc()) == direct

    def test_save_leaves_no_tmp_files(self, tmp_path):
        TraceArtifact.from_trace(random_trace(4)).save(tmp_path / "t.trace")
        assert [p.name for p in tmp_path.iterdir()] == ["t.trace"]

    @settings(max_examples=20, deadline=None)
    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=1 << 14), max_size=120
        ),
        data=st.data(),
    )
    def test_round_trip_property(self, tmp_path_factory, addresses, data):
        writes = [data.draw(st.booleans()) for _ in addresses]
        trace = MemoryTrace(
            addresses=np.array(addresses, dtype=np.uint64),
            is_write=np.array(writes, dtype=bool),
        )
        d = tmp_path_factory.mktemp("artifacts")
        art = TraceArtifact.from_trace(trace)
        loaded = TraceArtifact.load(art.save(d / "t.trace"))
        rebuilt = MemoryTrace(
            addresses=np.array(addresses, dtype=np.uint64),
            is_write=np.array(writes, dtype=bool),
        )
        assert replay_trace(loaded.trace(), small_soc()) == replay_trace(
            rebuilt, small_soc()
        )


class TestValidation:
    @pytest.fixture
    def saved(self, tmp_path):
        art = TraceArtifact.from_trace(random_trace(5), workload="victim")
        path = art.save(tmp_path / "v.trace")
        return path, path.read_bytes()

    def test_bad_magic_rejected(self, saved):
        path, raw = saved
        path.write_bytes(b"NOTMAGIC" + raw[8:])
        with pytest.raises(ArtifactError, match="bad magic"):
            TraceArtifact.load(path)

    def test_torn_tail_rejected(self, saved):
        """A partially written data section is detected by size alone."""
        path, raw = saved
        path.write_bytes(raw[:-100])
        with pytest.raises(ArtifactError, match="torn artifact"):
            TraceArtifact.load(path)

    def test_truncated_header_rejected(self, saved):
        path, raw = saved
        path.write_bytes(raw[: len(_MAGIC) + 4])
        with pytest.raises(ArtifactError, match="truncated header"):
            TraceArtifact.load(path)

    def test_corrupt_header_json_rejected(self, saved):
        path, raw = saved
        body = bytearray(raw)
        body[len(_MAGIC) + 8] ^= 0xFF  # first header byte
        path.write_bytes(bytes(body))
        with pytest.raises(ArtifactError, match="corrupt header|schema"):
            TraceArtifact.load(path)

    def test_flipped_column_byte_rejected(self, saved):
        path, raw = saved
        data_start, header = header_span(raw)
        col = header["columns"][0]
        body = bytearray(raw)
        body[data_start + col["offset"] + 3] ^= 0xFF
        path.write_bytes(bytes(body))
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            TraceArtifact.load(path)

    @pytest.mark.parametrize("column", ["addresses", "is_write"])
    def test_flipped_byte_rejected_in_every_column(self, saved, column):
        path, raw = saved
        data_start, header = header_span(raw)
        spec = next(s for s in header["columns"] if s["name"] == column)
        body = bytearray(raw)
        body[data_start + spec["offset"] + spec["nbytes"] - 1] ^= 0xFF
        path.write_bytes(bytes(body))
        with pytest.raises(ArtifactError, match="%r checksum mismatch" % column):
            TraceArtifact.load(path)

    @pytest.mark.parametrize(
        "column, dtype, scale",
        [
            # Same bytes read as twice as many 4-byte addresses: every
            # checksum still matches, so only the dtype check catches it.
            ("addresses", "uint32", 2),
            ("is_write", "uint8", 1),
        ],
    )
    def test_relabelled_column_dtype_rejected(self, saved, column, dtype, scale):
        path, raw = saved
        _, header = header_span(raw)
        spec = next(s for s in header["columns"] if s["name"] == column)
        spec["dtype"] = dtype
        spec["count"] *= scale
        if column == "addresses":
            header["num_accesses"] *= scale
        rewrite_header(path, raw, header)
        with pytest.raises(ArtifactError, match="dtype"):
            TraceArtifact.load(path)

    @pytest.mark.parametrize(
        "forge",
        [
            lambda raw, header: header.update(num_accesses=header["num_accesses"] + 1),
            lambda raw, header: shorten_column(raw, header, "is_write"),
            lambda raw, header: shorten_column(raw, header, "addresses"),
        ],
        ids=["num_accesses", "is_write", "addresses"],
    )
    def test_column_count_mismatch_rejected(self, saved, forge):
        """Column counts must agree with each other and with the header."""
        path, raw = saved
        _, header = header_span(raw)
        forge(raw, header)
        rewrite_header(path, raw, header)
        with pytest.raises(ArtifactError, match="count mismatch"):
            TraceArtifact.load(path)

    @pytest.mark.parametrize(
        "forge",
        [
            lambda header: header.pop("workload"),
            lambda header: header.update(columns=None),
            lambda header: header["columns"][0].update(offset=header["data_bytes"]),
        ],
        ids=["missing-field", "columns-not-a-list", "column-past-end"],
    )
    def test_malformed_header_rejected(self, saved, forge):
        """Header damage surfaces as ArtifactError, so the store rebuilds."""
        path, raw = saved
        _, header = header_span(raw)
        forge(header)
        rewrite_header(path, raw, header)
        with pytest.raises(ArtifactError):
            TraceArtifact.load(path)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_columns_survive_path_replacement(self, tmp_path, mmap):
        """Replays read the bytes the load verified, not the path's later file."""
        art = TraceArtifact.from_trace(random_trace(7), workload="first")
        path = art.save(tmp_path / "t.trace")
        loaded = TraceArtifact.load(path, mmap=mmap)
        TraceArtifact.from_trace(random_trace(8, n=300), workload="second").save(path)
        assert TraceArtifact.load(path).num_accesses == 300
        for name in ("addresses", "is_write"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(art, name))
        direct = replay_trace(random_trace(7), small_soc())
        assert replay_trace(loaded.trace(), small_soc()) == direct

    def test_content_hash_mismatch_rejected(self, saved):
        """Header/columns individually valid but mutually inconsistent."""
        path, raw = saved
        _, header = header_span(raw)
        stored = header["content_hash"]
        forged = ("0" if stored[0] != "0" else "1") + stored[1:]
        path.write_bytes(raw.replace(stored.encode(), forged.encode()))
        with pytest.raises(ArtifactError, match="content hash mismatch"):
            TraceArtifact.load(path)

    def test_verify_false_skips_checksums(self, saved):
        path, raw = saved
        data_start, header = header_span(raw)
        col = header["columns"][0]
        body = bytearray(raw)
        body[data_start + col["offset"] + 3] ^= 0xFF
        path.write_bytes(bytes(body))
        TraceArtifact.load(path, verify=False)  # caller opted out


class TestTraceStore:
    def build_counter(self, seed=6):
        calls = []

        def builder():
            calls.append(1)
            return random_trace(seed)

        return builder, calls

    def test_miss_builds_then_hit_reuses(self, tmp_path):
        store = TraceStore(directory=tmp_path)
        builder, calls = self.build_counter()
        with recording() as obs:
            first = store.get_or_build("gemm", builder)
            second = store.get_or_build("gemm", builder)
        assert len(calls) == 1
        assert first.content_hash == second.content_hash
        counters = obs.counters.as_dict()
        assert counters["sim.artifact.misses"] == 1
        assert counters["sim.artifact.saves"] == 1
        assert counters["sim.artifact.hits"] == 1

    def test_distinct_names_get_distinct_paths(self, tmp_path):
        store = TraceStore(directory=tmp_path)
        assert store.path_for("gemm") != store.path_for("texture")
        assert store.path_for("gemm", 64) != store.path_for("gemm", 32)

    def test_corrupt_artifact_quarantined_and_rebuilt(self, tmp_path):
        store = TraceStore(directory=tmp_path)
        builder, calls = self.build_counter()
        store.get_or_build("gemm", builder)
        path = store.path_for("gemm")
        raw = path.read_bytes()
        data_start, header = header_span(raw)
        body = bytearray(raw)
        body[data_start + header["columns"][0]["offset"]] ^= 0xFF
        path.write_bytes(bytes(body))
        with recording() as obs:
            rebuilt = store.get_or_build("gemm", builder)
        assert len(calls) == 2
        assert path.with_suffix(".corrupt").exists()
        assert rebuilt.content_hash == TraceArtifact.load(path).content_hash
        counters = obs.counters.as_dict()
        assert counters["sim.artifact.corrupt"] == 1
        assert counters["sim.artifact.misses"] == 1

    def test_stale_code_version_rebuilt(self, tmp_path):
        old = TraceStore(directory=tmp_path, version="v-old")
        new = TraceStore(directory=tmp_path, version="v-old")
        builder, calls = self.build_counter()
        old.get_or_build("gemm", builder)
        # Same key namespace, different recorded code version: the store
        # must notice the artifact header disagrees and rebuild.
        artifact = TraceArtifact.load(old.path_for("gemm"))
        forged = TraceArtifact(
            workload=artifact.workload,
            line_bytes=artifact.line_bytes,
            content_hash=artifact.content_hash,
            code_version="something-older",
            addresses=np.asarray(artifact.addresses),
            is_write=np.asarray(artifact.is_write),
        )
        forged.save(old.path_for("gemm"))
        new.get_or_build("gemm", builder)
        assert len(calls) == 2

    def test_previous_schema_artifact_listed_pruned_and_rebuilt(
        self, tmp_path, capsys
    ):
        """A v1 artifact (with run columns) left in a shared directory by
        an older build: ``trace list`` shows it as corrupt, ``prune``
        removes it by age, and a store whose key it occupies rebuilds."""
        import os

        from repro.cli import main

        store = TraceStore(directory=tmp_path, version="shared")
        builder, calls = self.build_counter()
        path = store.path_for("gemm")
        elsewhere = tmp_path / "older-build.trace"
        save_v1(path, random_trace(6), "shared")
        save_v1(elsewhere, random_trace(6), "older")
        assert main(["trace", "list", "--dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.count("corrupt") == 2
        with recording() as obs:
            artifact = store.get_or_build("gemm", builder)
        assert len(calls) == 1
        assert obs.counters.as_dict()["sim.artifact.corrupt"] == 1
        assert path.with_suffix(".corrupt").exists()
        assert artifact.content_hash == _content_hash(
            random_trace(6).addresses, random_trace(6).is_write, 64
        )
        assert TraceArtifact.load(path).content_hash == artifact.content_hash
        month_ago = elsewhere.stat().st_mtime - 31 * 86400
        os.utime(elsewhere, (month_ago, month_ago))
        assert store.prune() == 1
        assert not elsewhere.exists() and path.exists()

    def test_sweep_failure_never_touches_store(self, tmp_path, monkeypatch):
        """A sweep that fails mid-replay leaves the stored trace byte for
        byte as it was (no quarantine, no debris) and memoizes nothing."""
        import repro.sim.batch
        from repro.analysis.cachesweep import WORKLOADS, run_sweep
        from repro.core.memo import MemoCache

        name = "tensorflow.gemm_packed"
        store = TraceStore(directory=tmp_path / "traces")
        memo_dir = tmp_path / "memo"
        calls = []

        def builder():
            calls.append(1)
            return WORKLOADS[name]()

        def files(directory):
            return {p.name: p.read_bytes() for p in directory.iterdir()}

        def explode(*args, **kwargs):
            raise RuntimeError("config 3 exploded")

        artifact = store.get_or_build(name, builder)
        before = files(store.directory)
        with monkeypatch.context() as patch, recording() as obs:
            patch.setattr(repro.sim.batch, "sweep_batch", explode)
            with pytest.raises(RuntimeError, match="config 3 exploded"):
                run_sweep(name, store=store, cache=MemoCache(memo_dir))
        counters = obs.counters.as_dict()
        assert counters["sim.artifact.hits"] == 1
        assert files(store.directory) == before
        assert counters["core.memo.misses"] == 1
        assert "core.memo.puts" not in counters
        assert not memo_dir.exists() or not files(memo_dir)

        with recording() as obs:
            again = store.get_or_build(name, builder)
        assert len(calls) == 1
        assert obs.counters.as_dict()["sim.artifact.hits"] == 1
        assert again.content_hash == artifact.content_hash
        # The sweep's own memo key is still a miss, and the sweep now runs.
        with recording() as obs:
            document = run_sweep(name, store=store, cache=MemoCache(memo_dir))
        counters = obs.counters.as_dict()
        assert counters["core.memo.misses"] == 1
        assert "core.memo.hits" not in counters
        assert document["artifact"] == artifact.content_hash
        assert len(calls) == 1
