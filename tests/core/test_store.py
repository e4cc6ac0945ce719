"""Crash-consistency suite for the segment-merged result store.

The store's commit contract — an entry is committed iff a valid index
frame covers it, and recovery drops only the uncommitted tail — is
proven mechanically, not by example:

* **truncation sweep**: a multi-chunk blob is cut at *every* byte
  boundary; at each cut the surviving entries must be exactly those
  committed by the last intact index frame, writer recovery must
  truncate the tail and keep appending, and ``core.store.torn`` must
  count exactly the cuts that actually tore a flush;
* **corruption sweep**: every single byte of the blob is flipped; a
  flip may *hide* entries (counted torn/corrupt) but may never change
  a returned value — the never-silently-altered property;
* **kill -9 mid-flush**: a real writer process is murdered between
  ``write`` slices (``REPRO_FAULT_PLAN`` + ``REPRO_STORE_WRITE_CHUNK``)
  at several slice offsets; the committed chunk survives, the doomed
  chunk vanishes wholesale, and recovery rebuilds a bit-identical blob;
* **concurrent writers**: N processes append through per-process blobs
  into one store with no lost, duplicated, or corrupted entries.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.core.store import (
    FAULT_PLAN_ENV,
    WRITE_CHUNK_ENV,
    CompactionBusy,
    CompactionStats,
    SegmentReader,
    SegmentStore,
    SegmentWriter,
    peek_key,
)
from repro.obs.recorder import recording

A = {"x": 1}
B = {"y": [1, 2, 3], "page": "Docs"}
C = "last"
FULL = {"a": A, "b": B, "c": C}


def build_blob(directory, key="k"):
    """A blob with two committed chunks: (a, b) then (c).

    The first chunk is a batched E/E/X triple; the second, being a
    single entry, is one self-committing S frame.  Returns
    (path, [size_after_header, size_after_chunk1, final_size]).
    """
    path = Path(directory) / "t.seg"
    writer = SegmentWriter(path, key)
    writer.open()
    sizes = [os.path.getsize(path)]
    writer.append_chunk([("a", A), ("b", B)])
    sizes.append(os.path.getsize(path))
    writer.append_chunk([("c", C)])
    sizes.append(os.path.getsize(path))
    writer.close()
    return path, sizes


def load(path):
    reader = SegmentReader(path)
    reader.refresh()
    return reader


# ----------------------------------------------------------------------
# Format basics
# ----------------------------------------------------------------------

class TestSegmentBasics:
    def test_roundtrip_and_point_lookup(self, tmp_path):
        path, _ = build_blob(tmp_path)
        reader = load(path)
        assert reader.key == "k"
        assert reader.entries() == FULL
        assert reader.get("b") == B
        assert reader.get("nope", 7) == 7
        assert "a" in reader and "nope" not in reader

    def test_payload_key_order_is_preserved(self, tmp_path):
        path, _ = build_blob(tmp_path)
        assert list(load(path).get("b")) == ["y", "page"]

    def test_peek_key_reads_only_the_header(self, tmp_path):
        path, _ = build_blob(tmp_path)
        assert peek_key(path) == "k"
        assert peek_key(tmp_path / "absent.seg") is None
        garbage = tmp_path / "g.seg"
        garbage.write_text("not a segment\n")
        assert peek_key(garbage) is None

    def test_rewritten_name_later_value_wins(self, tmp_path):
        path = tmp_path / "w.seg"
        writer = SegmentWriter(path, "k")
        writer.open()
        writer.append_chunk([("n", 1)])
        writer.append_chunk([("n", 2)])
        writer.close()
        assert load(path).get("n") == 2

    def test_writer_refuses_foreign_key_blob(self, tmp_path):
        path, _ = build_blob(tmp_path, key="theirs")
        writer = SegmentWriter(path, "ours")
        with pytest.raises(ValueError, match="rotate"):
            writer.open()

    def test_store_reads_only_matching_key(self, tmp_path):
        foreign = SegmentStore(tmp_path, key="other", prefix="seg")
        foreign.append("a", 1)
        foreign.close()
        store = SegmentStore(tmp_path, key="mine", prefix="seg")
        assert store.entries() == {}
        assert store.get("a", "MISS") == "MISS"

    def test_incremental_refresh_sees_live_appends(self, tmp_path):
        path = tmp_path / "live.seg"
        writer = SegmentWriter(path, "k")
        writer.open()
        writer.append_chunk([("one", 1)])
        reader = load(path)
        assert reader.entries() == {"one": 1}
        writer.append_chunk([("two", 2)])
        writer.close()
        reader.refresh()
        assert reader.entries() == {"one": 1, "two": 2}

    def test_store_counters_flushes_and_entries(self, tmp_path):
        with recording() as rec:
            store = SegmentStore(tmp_path, key="k", flush_every=2)
            store.append("a", 1)
            assert rec.counters.get("core.store.flushes") == 0  # buffered
            store.append("b", 2)
            assert rec.counters.get("core.store.flushes") == 1
            store.close()
        assert rec.counters.get("core.store.entries") == 2
        assert store.entries() == {"a": 1, "b": 2}

    def test_single_entry_flush_is_one_self_committing_line(self, tmp_path):
        path = tmp_path / "s.seg"
        writer = SegmentWriter(path, "k")
        writer.open()
        writer.append_chunk([("solo", A)])
        writer.close()
        lines = path.read_bytes().split(b"\n")[:-1]
        assert len(lines) == 2  # header + one S frame, no index line
        assert lines[1][:1] == b"S"
        assert load(path).entries() == {"solo": A}

    def test_buffered_entries_are_readable_before_flush(self, tmp_path):
        store = SegmentStore(tmp_path, key="k", flush_every=100)
        store.append("a", 1)
        assert store.get("a") == 1
        assert store.entries() == {"a": 1}
        assert list(tmp_path.glob("*.seg")) == []  # nothing on disk yet
        blob = store.flush()
        store.close()
        assert load(blob).entries() == {"a": 1}


# ----------------------------------------------------------------------
# Satellite: truncate at every byte boundary
# ----------------------------------------------------------------------

class TestTruncationSweep:
    def test_every_cut_keeps_exactly_the_committed_prefix(self, tmp_path):
        path, sizes = build_blob(tmp_path)
        raw = path.read_bytes()
        assert sizes[-1] == len(raw)
        for cut in range(len(raw) + 1):
            case = tmp_path / ("cut%04d" % cut)
            case.mkdir()
            p = case / "t.seg"
            p.write_bytes(raw[:cut])
            if cut >= sizes[2]:
                committed, expected = sizes[2], dict(FULL)
            elif cut >= sizes[1]:
                committed, expected = sizes[1], {"a": A, "b": B}
            elif cut >= sizes[0]:
                committed, expected = sizes[0], {}
            else:
                committed, expected = 0, {}
            with recording() as rec:
                reader = SegmentReader(p)
                reader.refresh()
                got = reader.entries()
                assert got == expected, "cut at byte %d" % cut
                # Truncation deletes bytes; it must never be reported
                # as silent alteration.
                assert rec.counters.get("core.store.corrupt") == 0
                # Writer recovery: reclaim the blob, append, reread.
                writer = SegmentWriter(p, "k")
                writer.open(reader=reader)
                writer.append_chunk([("new", cut)])
                writer.close()
                torn = rec.counters.get("core.store.torn")
            assert torn == (1 if cut > committed else 0), (
                "cut at byte %d: torn=%d" % (cut, torn)
            )
            merged = dict(expected)
            merged["new"] = cut
            assert load(p).entries() == merged, "cut at byte %d" % cut

    def test_reader_alone_counts_only_stranded_complete_frames(
        self, tmp_path
    ):
        """A partial final line is *pending* to a passive reader (a live
        writer may be mid-write); only a reader that also sees complete
        uncommitted frames — or the writer that reclaims the blob —
        declares the tail torn."""
        path, sizes = build_blob(tmp_path)
        raw = path.read_bytes()
        # Cut mid-way through chunk1's index frame: its entry frames
        # are complete but uncommitted -> torn immediately.
        (tmp_path / "x.seg").write_bytes(raw[: sizes[1] - 10])
        with recording() as rec:
            assert load(tmp_path / "x.seg").entries() == {}
        assert rec.counters.get("core.store.torn") == 1
        # Cut mid-way through an entry frame itself: nothing complete
        # past the committed prefix -> pending, not torn (yet).
        (tmp_path / "y.seg").write_bytes(raw[: sizes[0] + 5])
        with recording() as rec:
            load(tmp_path / "y.seg")
        assert rec.counters.get("core.store.torn") == 0
        # Same for a partial self-committing frame: an S line commits
        # only once whole, so its torn remains are judged by the
        # reclaiming writer, not a passive reader.
        (tmp_path / "z.seg").write_bytes(raw[: len(raw) - 10])
        with recording() as rec:
            assert load(tmp_path / "z.seg").entries() == {"a": A, "b": B}
        assert rec.counters.get("core.store.torn") == 0


# ----------------------------------------------------------------------
# Satellite: flip every byte — hidden is allowed, altered never
# ----------------------------------------------------------------------

class TestCorruptionSweep:
    def _line_spans(self, raw):
        spans = []
        pos = 0
        for line in raw.split(b"\n")[:-1]:
            spans.append((pos, pos + len(line) + 1))
            pos += len(line) + 1
        return spans

    def test_every_single_byte_flip_never_alters_an_entry(self, tmp_path):
        path, _ = build_blob(tmp_path)
        raw = path.read_bytes()
        spans = self._line_spans(raw)
        assert len(spans) == 5  # H, E(a), E(b), X1, S(c)
        hides = {1: {"a"}, 2: {"b"}, 3: {"a", "b"}, 4: {"c"}}
        p = tmp_path / "flip.seg"
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 0xFF
            p.write_bytes(bytes(flipped))
            line = next(j for j, (s, e) in enumerate(spans) if s <= i < e)
            on_newline = i == spans[line][1] - 1
            with recording() as rec:
                got = load(p).entries()
                # The acceptance property: a returned value is always
                # exactly the committed value.
                for name, value in got.items():
                    assert value == FULL[name], "flip at byte %d" % i
                if line == 0:
                    # Header flips invalidate the whole blob.
                    assert got == {}, "flip at byte %d" % i
                elif not on_newline:
                    assert got == {
                        k: v
                        for k, v in FULL.items()
                        if k not in hides[line]
                    }, "flip at byte %d" % i
                    assert (
                        rec.counters.get("core.store.torn")
                        + rec.counters.get("core.store.corrupt")
                    ) >= 1, "flip at byte %d left no evidence" % i

    def test_invalid_header_blob_is_quarantined_by_the_store(self, tmp_path):
        bad = tmp_path / "seg-00000000-1.seg"
        bad.write_text('{"schema": "something-else"}\n')
        store = SegmentStore(tmp_path, key="k", prefix="seg")
        with recording() as rec:
            assert store.entries() == {}
        assert rec.counters.get("core.store.corrupt") == 1
        assert not bad.exists()
        assert bad.with_suffix(".corrupt").exists()

    def test_tampered_index_span_is_rejected(self, tmp_path):
        """An index whose offsets point outside/at non-entry bytes is
        corrupt evidence, not a crash or a wrong read."""
        path = tmp_path / "t.seg"
        writer = SegmentWriter(path, "k")
        writer.open()
        header_end = os.path.getsize(path)
        writer.append_chunk([("a", A)])
        writer.close()
        raw = path.read_bytes()
        # Rewrite the index body to point the entry at the header line,
        # with a fresh (valid!) frame checksum over the lying body.
        from repro.core.store import _frame

        lines = raw.split(b"\n")[:-1]
        body = json.dumps({"i": {"a": [0, header_end]}}).encode()
        path.write_bytes(
            b"\n".join(lines[:-1]) + b"\n" + _frame(b"X", body)
        )
        with recording() as rec:
            reader = load(path)
            assert reader.entries() == {}
        assert rec.counters.get("core.store.corrupt") >= 1


# ----------------------------------------------------------------------
# Satellite: kill -9 a writer mid-flush (REPRO_FAULT_PLAN harness)
# ----------------------------------------------------------------------

DOOMED = {"rows": list(range(50))}


def _killed_writer(directory, plan_path, chunk):
    """Child process: one committed append, then die mid-second-flush."""
    os.environ[WRITE_CHUNK_ENV] = str(chunk)
    os.environ[FAULT_PLAN_ENV] = plan_path
    store = SegmentStore(Path(directory), key="k", prefix="seg", flush_every=1)
    store.append("committed", {"ok": True})
    store.append("doomed", DOOMED)  # scheduled kill lands in here
    os._exit(1)  # pragma: no cover - the kill must have happened


class TestKillMidFlush:
    CHUNK = 7  # bytes per write slice in the victim

    def _slice_counts(self, tmp_path):
        """(slices_before_chunk2, chunk2_slices, reference_blob_bytes).

        Derived by replaying the victim's exact writes in a scratch
        store: same key, same payloads, same frame bytes.
        """
        scratch = tmp_path / "scratch"
        store = SegmentStore(scratch, key="k", prefix="seg", flush_every=1)
        store.append("committed", {"ok": True})
        path = store.segment_path()
        size1 = os.path.getsize(path)
        header = SegmentWriter(path, "k")._header_size()
        store.append("doomed", DOOMED)
        size2 = os.path.getsize(path)
        store.close()

        def slices(nbytes):
            return -(-nbytes // self.CHUNK)

        before = slices(header) + slices(size1 - header)
        return before, slices(size2 - size1), path.read_bytes()

    @pytest.mark.parametrize("slice_index", [0, 1, "mid", "last"])
    def test_kill_between_slices_loses_only_the_doomed_chunk(
        self, tmp_path, slice_index
    ):
        before, chunk2_slices, reference = self._slice_counts(tmp_path)
        assert chunk2_slices > 3  # the sweep below is meaningful
        k = {
            0: 0, 1: 1, "mid": chunk2_slices // 2, "last": chunk2_slices - 1
        }[slice_index]
        workdir = tmp_path / ("kill%s" % k)
        workdir.mkdir()
        plan = workdir / "plan.json"
        plan.write_text(
            json.dumps({"faults": {"store.flush": ["ok"] * (before + k) + ["kill"]}})
        )
        victim = multiprocessing.Process(
            target=_killed_writer, args=(str(workdir), str(plan), self.CHUNK)
        )
        victim.start()
        victim.join(30)
        assert victim.exitcode == -9, "victim was not killed mid-flush"
        blobs = list(workdir.glob("seg-*.seg"))
        assert len(blobs) == 1
        blob = blobs[0]
        # k slices of chunk2 (and everything before) reached the disk.
        assert os.path.getsize(blob) < len(reference)
        with recording() as rec:
            reader = load(blob)
            assert reader.entries() == {"committed": {"ok": True}}
            # Recovery: reclaim the blob, truncate the torn tail, and
            # re-append the lost chunk.
            writer = SegmentWriter(blob, "k")
            writer.open(reader=reader)
            writer.append_chunk([("doomed", DOOMED)])
            writer.close()
            torn = rec.counters.get("core.store.torn")
            assert rec.counters.get("core.store.corrupt") == 0
        assert torn == (1 if k > 0 else 0)
        # The recovered blob is bit-identical to a never-crashed one.
        assert blob.read_bytes() == reference
        assert load(blob).entries() == {
            "committed": {"ok": True}, "doomed": DOOMED
        }


# ----------------------------------------------------------------------
# Satellite: N concurrent writer processes, nothing lost or duplicated
# ----------------------------------------------------------------------

def _hammer_store(directory, who, count):
    store = SegmentStore(Path(directory), key="k", prefix="seg", flush_every=4)
    for i in range(count):
        store.append("%s-%03d" % (who, i), {"who": who, "i": i})
    store.close()


class TestConcurrentWriters:
    def test_n_processes_one_store_no_loss_no_duplication(self, tmp_path):
        count = 50
        writers = [
            multiprocessing.Process(
                target=_hammer_store, args=(str(tmp_path), who, count)
            )
            for who in ("a", "b", "c")
        ]
        reader_store = SegmentStore(tmp_path, key="k", prefix="seg")
        for w in writers:
            w.start()
        try:
            with recording() as rec:
                while any(w.is_alive() for w in writers):
                    for name, value in reader_store.entries().items():
                        who, i = name.split("-")
                        assert value == {"who": who, "i": int(i)}
        finally:
            for w in writers:
                w.join()
        assert all(w.exitcode == 0 for w in writers)
        assert rec.counters.get("core.store.corrupt") == 0
        entries = SegmentStore(tmp_path, key="k", prefix="seg").entries()
        assert len(entries) == 3 * count  # every entry, exactly once
        for who in ("a", "b", "c"):
            for i in range(count):
                assert entries["%s-%03d" % (who, i)] == {"who": who, "i": i}
        # One blob per writer process: appends never contend on a file.
        assert len(list(tmp_path.glob("seg-*.seg"))) == 3
        assert not list(tmp_path.glob("*.corrupt"))

    def test_compact_while_writing_loses_nothing(self, tmp_path):
        """The harness's compact-while-writing interleaving: a reader
        compacting *during* live appends must never lose, duplicate, or
        demote an entry — busy (live-writer) blobs are skipped and
        folded only once their owners exit."""
        count = 50
        writers = [
            multiprocessing.Process(
                target=_hammer_store, args=(str(tmp_path), who, count)
            )
            for who in ("a", "b", "c")
        ]
        compactor = SegmentStore(tmp_path, key="k", prefix="seg")
        for w in writers:
            w.start()
        compactions = 0
        try:
            with recording() as rec:
                while any(w.is_alive() for w in writers):
                    stats = compactor.compact()
                    compactions += 1
                    for name, value in compactor.entries().items():
                        who, i = name.split("-")
                        assert value == {"who": who, "i": int(i)}
                    assert stats.busy_skipped <= 3
        finally:
            for w in writers:
                w.join()
        assert all(w.exitcode == 0 for w in writers)
        assert compactions >= 1
        assert rec.counters.get("core.store.corrupt") == 0
        # Writers are gone: one final compact folds the stragglers.
        final = SegmentStore(tmp_path, key="k", prefix="seg")
        stats = final.compact()
        assert stats.busy_skipped == 0
        entries = final.entries()
        assert len(entries) == 3 * count  # every entry, exactly once
        for who in ("a", "b", "c"):
            for i in range(count):
                assert entries["%s-%03d" % (who, i)] == {"who": who, "i": i}
        assert len(list(tmp_path.glob("seg-*.seg"))) == 1
        assert not list(tmp_path.glob("*.corrupt"))
        assert not list(tmp_path.glob("*.lock*"))


def _hold_store_open(directory, ready, release):
    """Open a store, commit entries, then idle with the blob claimed."""
    import time

    store = SegmentStore(Path(directory), key="k", prefix="seg")
    store.append("held-1", {"v": 1})
    store.append("held-2", {"v": 2})
    Path(ready).write_text("ready")
    while not Path(release).exists():
        time.sleep(0.01)
    store.close()


class TestCompactUnderConcurrency:
    def _spawn_holder(self, tmp_path):
        ready = tmp_path / "ready"
        release = tmp_path / "release"
        holder = multiprocessing.Process(
            target=_hold_store_open,
            args=(str(tmp_path), str(ready), str(release)),
        )
        holder.start()
        while not ready.exists():
            assert holder.is_alive()
        return holder, release

    def test_busy_segment_is_skipped_not_rewritten(self, tmp_path):
        quiet = SegmentStore(tmp_path, key="k", prefix="seg")
        quiet.append("quiet", {"v": 0})
        quiet.close()
        holder, release = self._spawn_holder(tmp_path)
        try:
            busy_paths = [
                p for p in tmp_path.glob("seg-*.seg")
                if p.stem.split("-")[-1] == str(holder.pid)
            ]
            assert len(busy_paths) == 1
            with recording() as rec:
                stats = SegmentStore(tmp_path, key="k", prefix="seg").compact()
            assert stats.busy_skipped == 1
            assert rec.counters.get("core.store.compact_busy_segments") == 1
            # The live writer's blob is untouched; its entries and the
            # compacted ones all remain readable.
            assert busy_paths[0].exists()
            entries = SegmentStore(tmp_path, key="k", prefix="seg").entries()
            assert entries["quiet"] == {"v": 0}
            assert entries["held-1"] == {"v": 1}
            assert entries["held-2"] == {"v": 2}
        finally:
            release.write_text("go")
            holder.join()
        assert holder.exitcode == 0
        # Owner gone: the next compact folds its blob normally.
        stats = SegmentStore(tmp_path, key="k", prefix="seg").compact()
        assert stats.busy_skipped == 0
        assert len(list(tmp_path.glob("seg-*.seg"))) == 1

    def test_busy_blob_winner_is_never_demoted(self, tmp_path):
        """A name whose newest write lives in a busy blob must keep that
        value after compaction — the fresh blob sorts last and would
        otherwise resurrect the older write."""
        old = SegmentStore(tmp_path, key="k", prefix="seg")
        old.append("held-1", {"v": "stale"})  # superseded by the holder
        old.close()
        holder, release = self._spawn_holder(tmp_path)
        try:
            store = SegmentStore(tmp_path, key="k", prefix="seg")
            assert store.entries()["held-1"] == {"v": 1}
            store.compact()
            fresh = SegmentStore(tmp_path, key="k", prefix="seg")
            assert fresh.entries()["held-1"] == {"v": 1}
        finally:
            release.write_text("go")
            holder.join()
        assert SegmentStore(tmp_path, key="k", prefix="seg").entries()[
            "held-1"
        ] == {"v": 1}

    def test_live_lock_raises_busy_and_maybe_compact_declines(self, tmp_path):
        store = SegmentStore(
            tmp_path, key="k", prefix="seg", compact_ratio=0.0
        )
        for i in range(4):
            store.append("n", {"i": i})  # rewrites: all-but-one dead
        store.close()
        lock = tmp_path / "seg.compact.lock"
        lock.write_text(str(os.getpid()))  # a live (this!) process owns it
        with pytest.raises(CompactionBusy):
            store.compact()
        with recording() as rec:
            assert store.maybe_compact() is None
        assert rec.counters.get("core.store.compact_busy") == 1
        assert lock.read_text() == str(os.getpid())  # not stolen

    def test_stale_lock_is_broken_and_compaction_proceeds(self, tmp_path):
        store = SegmentStore(tmp_path, key="k", prefix="seg")
        store.append("a", 1)
        store.close()
        # A dead pid: spawn-and-join a child so the pid is certainly gone.
        child = multiprocessing.Process(target=int)
        child.start()
        child.join()
        lock = tmp_path / "seg.compact.lock"
        lock.write_text(str(child.pid))
        stats = store.compact()
        assert stats.entries == 1
        assert not lock.exists()


# ----------------------------------------------------------------------
# Compaction: merge, quarantine, prune — with accurate counts
# ----------------------------------------------------------------------

class TestCompaction:
    def test_merges_blobs_and_counts(self, tmp_path):
        store = SegmentStore(tmp_path, key="k", prefix="seg")
        store.append("a", 1)
        store.close()
        other = SegmentStore(tmp_path, key="k", prefix="seg")
        other.append("b", 2)
        other.append("a", 10)  # later blob wins on merge
        other.close()
        with recording() as rec:
            stats = store.compact()
        assert isinstance(stats, CompactionStats)
        assert stats.entries == 2  # a, b
        assert stats.segments_merged == 2
        assert stats.files_removed == 2
        assert stats.quarantined == 0
        assert rec.counters.get("core.store.compactions") == 1
        merged = SegmentStore(tmp_path, key="k", prefix="seg").entries()
        assert merged == {"a": 10, "b": 2}
        assert len(list(tmp_path.glob("seg-*.seg"))) == 1

    def test_dirty_blob_is_quarantined_not_deleted(self, tmp_path):
        store = SegmentStore(tmp_path, key="k", prefix="seg")
        store.append("good", 1)
        blob = store.segment_path()
        store.close()
        raw = blob.read_bytes()
        blob.write_bytes(raw + b"E0000000000000000 {\"torn\n")
        fresh = SegmentStore(tmp_path, key="k", prefix="seg")
        stats = fresh.compact()
        assert stats.quarantined == 1
        assert stats.entries == 1
        assert blob.with_suffix(".corrupt").exists()
        assert fresh.entries() == {"good": 1}

    def test_mid_blob_torn_line_is_quarantined_on_compact(self, tmp_path):
        """Damage classified *torn* (body no longer parses) on a line in
        the middle of a blob — later frames still commit — must keep the
        evidence aside on compact, same as corrupt damage."""
        store = SegmentStore(tmp_path, key="k", prefix="seg")
        store.append("a", 1)
        store.append("b", 2)
        blob = store.segment_path()
        store.close()
        raw = bytearray(blob.read_bytes())
        header_len = raw.index(b"\n") + 1
        raw[header_len + 18] ^= 0xFF  # first byte of S(a)'s body: "{"
        blob.write_bytes(bytes(raw))
        fresh = SegmentStore(tmp_path, key="k", prefix="seg")
        with recording() as rec:
            assert fresh.entries() == {"b": 2}
            stats = fresh.compact()
        assert rec.counters.get("core.store.torn") == 1
        assert stats.quarantined == 1
        assert stats.entries == 1
        assert blob.with_suffix(".corrupt").exists()
        assert SegmentStore(tmp_path, key="k", prefix="seg").entries() == {
            "b": 2
        }

    def test_age_prunes_foreign_and_debris_never_current(self, tmp_path):
        import time as _time

        store = SegmentStore(tmp_path, key="mine", prefix="seg")
        store.append("keep", 1)
        store.close()
        foreign = SegmentStore(tmp_path, key="theirs", prefix="seg")
        foreign.append("x", 2)
        foreign_blob = foreign.segment_path()
        foreign.close()
        debris = tmp_path / "dead.tmp.99"
        debris.write_text("{")
        old = _time.time() - 90 * 86400
        for path in list(tmp_path.iterdir()):
            os.utime(path, (old, old))
        stats = store.compact(max_age_days=30)
        assert stats.pruned == 2  # the foreign blob + the debris file
        assert not debris.exists()
        assert not foreign_blob.exists()
        assert SegmentStore(tmp_path, key="mine", prefix="seg").entries() == {
            "keep": 1
        }


class TestAutoCompaction:
    def test_fresh_store_is_below_threshold(self, tmp_path):
        store = SegmentStore(tmp_path, key="k", prefix="seg")
        store.append("a", 1)
        assert store.dead_ratio() < 0.6
        assert store.maybe_compact() is None

    def test_rewrite_churn_trips_the_threshold(self, tmp_path):
        store = SegmentStore(tmp_path, key="k", prefix="seg")
        for i in range(20):
            store.append("hot", {"round": i, "pad": "x" * 64})
        dead, total = store.dead_bytes()
        assert dead / total > 0.6  # 19 of 20 writes are superseded
        with recording() as rec:
            stats = store.maybe_compact()
        assert isinstance(stats, CompactionStats)
        assert stats.entries == 1
        assert rec.counters.get("core.store.auto_compactions") == 1
        assert rec.counters.get("core.store.compactions") == 1
        # The rewrite reclaimed the churn: next check is a no-op.
        assert store.dead_ratio() < 0.6
        assert store.maybe_compact() is None
        assert SegmentStore(tmp_path, key="k", prefix="seg").entries() == {
            "hot": {"round": 19, "pad": "x" * 64}
        }

    def test_compact_ratio_none_disables(self, tmp_path):
        store = SegmentStore(tmp_path, key="k", prefix="seg",
                             compact_ratio=None)
        for i in range(20):
            store.append("hot", i)
        with recording() as rec:
            assert store.maybe_compact() is None
        assert rec.counters.get("core.store.auto_compactions") == 0

    def test_memo_cache_auto_compacts(self, tmp_path):
        from repro.core.memo import MemoCache

        cache = MemoCache(directory=tmp_path, compact_ratio=0.5)
        key = cache.key("unit.fn", {"p": 1})
        for i in range(20):
            cache.put(key, {"value": i, "pad": "y" * 64})
        with recording() as rec:
            stats = cache.maybe_compact()
        assert stats is not None
        assert rec.counters.get("core.store.auto_compactions") == 1
        assert cache.get(key)["value"] == 19
        assert cache.maybe_compact() is None
        cache.close()
