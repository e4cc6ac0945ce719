"""Crash-consistency suite for the memo cache's segment store.

The store's commit rule — an entry counts once its whole ``S`` line,
newline included, is on disk — is proven mechanically, not by example:

* **truncation sweep**: a blob is cut at *every* byte boundary; at each
  cut the surviving entries must be exactly the whole lines, nothing is
  reported as damage, and a reader that saw the cut picks the rest up
  once the write completes.  A writer killed mid-``write`` leaves one of
  these prefixes;
* **corruption sweep**: every single byte of the blob is flipped; a
  flip may *hide* entries (counted torn/corrupt) but may never change
  a returned value — the never-silently-altered property;
* **concurrent writers**: N processes append through per-process blobs
  into one store with no lost, duplicated, or corrupted entries.
"""

import multiprocessing
from pathlib import Path

from repro.core.store import SegmentReader, SegmentStore, peek_key
from repro.obs.recorder import recording

A = {"x": 1}
B = {"y": [1, 2, 3], "page": "Docs"}
C = "last"
FULL = {"a": A, "b": B, "c": C}


def build_blob(directory, key="k"):
    """A blob holding a, b and c, one ``S`` line each.

    Returns (path, ends): the offsets just past the header line and
    past each entry's line.
    """
    store = SegmentStore(directory, key=key)
    for name, value in FULL.items():
        path = store.append(name, value)
    store.close()
    raw = path.read_bytes()
    return path, [i + 1 for i, byte in enumerate(raw) if byte == ord("\n")]


def load(path, key="k"):
    reader = SegmentReader(path, key)
    reader.refresh()
    return reader


# ----------------------------------------------------------------------
# Format basics
# ----------------------------------------------------------------------

class TestSegmentBasics:
    def test_roundtrip_and_point_lookup(self, tmp_path):
        path, _ = build_blob(tmp_path)
        assert load(path).entries == FULL
        store = SegmentStore(tmp_path, key="k")
        assert store.get("b") == B
        assert store.get("nope", 7) == 7

    def test_payload_key_order_is_preserved(self, tmp_path):
        path, _ = build_blob(tmp_path)
        assert list(load(path).entries["b"]) == ["y", "page"]

    def test_peek_key_reads_only_the_header(self, tmp_path):
        path, _ = build_blob(tmp_path)
        assert peek_key(path) == "k"
        assert peek_key(tmp_path / "absent.seg") is None
        garbage = tmp_path / "g.seg"
        garbage.write_text("not a segment\n")
        assert peek_key(garbage) is None

    def test_rewritten_name_later_value_wins(self, tmp_path):
        store = SegmentStore(tmp_path, key="k")
        store.append("n", 1)
        path = store.append("n", 2)
        store.close()
        assert load(path).entries == {"n": 2}
        later = SegmentStore(tmp_path, key="k")
        later.append("n", 3)  # a later blob wins across blobs too
        later.close()
        assert SegmentStore(tmp_path, key="k").get("n") == 3

    def test_writer_refuses_foreign_key_blob(self, tmp_path):
        """A writer never appends to a blob it did not create: an
        existing blob, here keyed for another namespace, is left byte
        for byte as it was."""
        theirs, _ = build_blob(tmp_path, key="theirs")
        before = theirs.read_bytes()
        ours = SegmentStore(tmp_path, key="ours")
        mine = ours.append("a", "mine")
        ours.close()
        assert mine != theirs
        assert theirs.read_bytes() == before
        assert load(mine, key="ours").entries == {"a": "mine"}

    def test_store_reads_only_matching_key(self, tmp_path):
        foreign, _ = build_blob(tmp_path, key="other")
        # Damage past the header would count if the store read it.
        with open(foreign, "ab") as f:
            f.write(b"garbage that is no frame\n")
        store = SegmentStore(tmp_path, key="mine")
        with recording() as rec:
            assert store.get("a", "MISS") == "MISS"
        assert rec.counters.get("core.store.torn") == 0
        assert rec.counters.get("core.store.corrupt") == 0
        assert load(foreign, key="mine").foreign

    def test_incremental_refresh_sees_live_appends(self, tmp_path):
        writer = SegmentStore(tmp_path, key="k")
        path = writer.append("one", 1)
        reader = load(path)
        assert reader.entries == {"one": 1}
        other = SegmentStore(tmp_path, key="k")
        assert other.get("one") == 1
        writer.append("two", 2)
        writer.close()
        reader.refresh()
        assert reader.entries == {"one": 1, "two": 2}
        # A miss rescans, so an open store sees the later commit.
        assert other.get("two") == 2

    def test_store_counters_flushes_and_entries(self, tmp_path):
        with recording() as rec:
            store = SegmentStore(tmp_path, key="k")
            store.append("a", 1)
            assert rec.counters.get("core.store.flushes") == 1
            assert rec.counters.get("core.store.entries") == 1
            store.append("b", 2)
            store.close()
        assert rec.counters.get("core.store.flushes") == 2
        assert rec.counters.get("core.store.entries") == 2

    def test_single_entry_flush_is_one_self_committing_line(self, tmp_path):
        path, _ = build_blob(tmp_path)
        lines = path.read_bytes().split(b"\n")[:-1]
        assert [line[:1] for line in lines] == [b"H", b"S", b"S", b"S"]
        assert len(list(tmp_path.glob("seg-*.seg"))) == 1


# ----------------------------------------------------------------------
# Truncate at every byte boundary
# ----------------------------------------------------------------------

class TestTruncationSweep:
    def test_every_cut_keeps_exactly_the_committed_prefix(self, tmp_path):
        path, ends = build_blob(tmp_path)
        raw = path.read_bytes()
        assert ends[-1] == len(raw)
        for cut in range(len(raw) + 1):
            case = tmp_path / ("cut%04d" % cut)
            case.mkdir()
            p = case / path.name
            p.write_bytes(raw[:cut])
            whole = sum(1 for end in ends[1:] if end <= cut)
            expected = dict(list(FULL.items())[:whole])
            with recording() as rec:
                reader = SegmentReader(p, "k")
                reader.refresh()
                assert reader.entries == expected, "cut at byte %d" % cut
                # A cut leaves whole lines plus at most one partial
                # line, which may still be in flight: never damage.
                assert rec.counters.get("core.store.corrupt") == 0
                assert rec.counters.get("core.store.torn") == 0
                # A new writer claims its own blob beside the cut one.
                store = SegmentStore(case, key="k")
                fresh = store.append("new", cut)
                store.close()
                assert fresh != p and p.read_bytes() == raw[:cut]
                merged = dict(expected, new=cut)
                reopened = SegmentStore(case, key="k")
                for name, value in merged.items():
                    assert reopened.get(name) == value, "cut at byte %d" % cut
                # The reader resumes at its last whole line, so the
                # rest of an in-flight write is picked up once it lands.
                with open(p, "ab") as f:
                    f.write(raw[cut:])
                reader.refresh()
                assert reader.entries == FULL, "cut at byte %d" % cut
                assert rec.counters.get("core.store.torn") == 0

    def test_reader_alone_counts_only_stranded_complete_frames(
        self, tmp_path
    ):
        """A partial final line is neither returned nor counted (a live
        writer may be mid-write); a complete line that fails its
        checksum is, and the lines after it still read."""
        path, ends = build_blob(tmp_path)
        raw = path.read_bytes()
        (tmp_path / "x.seg").write_bytes(raw[: len(raw) - 10])
        with recording() as rec:
            assert load(tmp_path / "x.seg").entries == {"a": A, "b": B}
        assert rec.counters.get("core.store.torn") == 0
        assert rec.counters.get("core.store.corrupt") == 0
        # a's line torn short but sealed by its newline: torn, not
        # corrupt, and b and c still read.
        sealed = raw[: ends[1] - 10] + raw[ends[1] - 1 :]
        (tmp_path / "y.seg").write_bytes(sealed)
        with recording() as rec:
            assert load(tmp_path / "y.seg").entries == {"b": B, "c": C}
        assert rec.counters.get("core.store.torn") == 1
        assert rec.counters.get("core.store.corrupt") == 0


# ----------------------------------------------------------------------
# Flip every byte — hidden is allowed, altered never
# ----------------------------------------------------------------------

class TestCorruptionSweep:
    def test_every_single_byte_flip_never_alters_an_entry(self, tmp_path):
        path, ends = build_blob(tmp_path)
        raw = path.read_bytes()
        assert len(ends) == 4  # H, S(a), S(b), S(c)
        hides = {1: "a", 2: "b", 3: "c"}
        p = tmp_path / "flip.seg"
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 0xFF
            p.write_bytes(bytes(flipped))
            line = next(j for j, end in enumerate(ends) if i < end)
            on_newline = i == ends[line] - 1
            with recording() as rec:
                got = load(p).entries
                # The acceptance property: a returned value is always
                # exactly the committed value.
                for name, value in got.items():
                    assert value == FULL[name], "flip at byte %d" % i
                if line == 0:
                    # Header flips invalidate the whole blob.
                    assert got == {}, "flip at byte %d" % i
                elif not on_newline:
                    assert got == {
                        k: v for k, v in FULL.items() if k != hides[line]
                    }, "flip at byte %d" % i
                    assert (
                        rec.counters.get("core.store.torn")
                        + rec.counters.get("core.store.corrupt")
                    ) == 1, "flip at byte %d left no evidence" % i

    def test_invalid_header_blob_is_quarantined_by_the_store(self, tmp_path):
        bad = tmp_path / "seg-00000000-1.seg"
        bad.write_text('{"schema": "something-else"}\n')
        store = SegmentStore(tmp_path, key="k", prefix="seg")
        with recording() as rec:
            assert store.get("a", "MISS") == "MISS"
        assert rec.counters.get("core.store.corrupt") == 1
        assert not bad.exists()
        assert bad.with_suffix(".corrupt").exists()


# ----------------------------------------------------------------------
# N concurrent writer processes, nothing lost or duplicated
# ----------------------------------------------------------------------

def _hammer_store(directory, who, count):
    store = SegmentStore(Path(directory), key="k", prefix="seg")
    for i in range(count):
        store.append("%s-%03d" % (who, i), {"who": who, "i": i})
    store.close()


class TestConcurrentWriters:
    def test_n_processes_one_store_no_loss_no_duplication(self, tmp_path):
        count = 50
        names = {
            "%s-%03d" % (who, i): {"who": who, "i": i}
            for who in ("a", "b", "c")
            for i in range(count)
        }
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
                    for name, value in names.items():
                        assert reader_store.get(name) in (None, value)
        finally:
            for w in writers:
                w.join(60)
        assert not any(w.is_alive() for w in writers)
        assert all(w.exitcode == 0 for w in writers)
        assert rec.counters.get("core.store.corrupt") == 0
        final = SegmentStore(tmp_path, key="k", prefix="seg")
        for name, value in names.items():
            assert final.get(name) == value
        # One blob per writer process, appends never contend on a
        # file, and each entry is exactly one line: none lost or doubled.
        blobs = list(tmp_path.glob("seg-*.seg"))
        assert len(blobs) == 3
        lines = [b.read_bytes().split(b"\n")[1:-1] for b in blobs]
        assert sorted(len(blob_lines) for blob_lines in lines) == [count] * 3
        assert sum(len(load(b).entries) for b in blobs) == len(names)
        assert not list(tmp_path.glob("*.corrupt"))
