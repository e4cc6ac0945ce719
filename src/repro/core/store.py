"""Segment-merged result store: append-only blobs for the memo cache.

A file-per-entry memo cache shares a disease with the paper's
workloads: its cost is dominated by *data movement* — here,
file-open/rename **count**, not bytes.  At sweep scale every entry pays
a full open + write + rename, so the storage layer's throughput is set
by syscall and metadata traffic rather than payload size.  Following the
Sentry RFC-0098 segment design (SNIPPETS.md §1), this module buffers
many entries in memory and flushes them as a **single append-only
segment blob** carrying an in-blob offset index, so N entries cost one
write (and at most one fsync) instead of N.

Blob format — a text file of framed lines, one frame per line::

    H<blake2-16hex> {"schema": "repro-segment/v1", "key": ...}\\n
    E<blake2-16hex> {"n": <name>, "p": <payload>}\\n     (entry)
    X<blake2-16hex> {"i": {<name>: [offset, length], ...}}\\n  (index)
    S<blake2-16hex> {"n": <name>, "p": <payload>}\\n     (self-committing)

Every frame checksums its **exact body bytes** (BLAKE2b, 8 bytes), so
verification never re-serializes the payload and is immune to key-order
drift.  A flush appends its entry frames followed by one index frame in
a single ``write`` — the index maps each entry name to the absolute
byte offset and length of its ``E`` line, so point lookups decode one
entry without parsing the rest of the blob.  A single-entry flush (an
fsync'd one-entry append, or ``flush_every=1``) collapses the pair into
one ``S`` frame that is its own commit record, so such blobs carry one
line per entry.

**Commit contract.**  An entry is *committed* if and only if it is
covered by a valid index frame (an ``S`` frame covers itself).  A
crash mid-flush therefore leaves an
uncommitted tail (entry frames without their index, or a torn final
line) that recovery drops **in full** — committed entries from earlier
chunks are never lost and never silently altered: a checksum mismatch
quarantines the entry (``core.store.corrupt``) instead of returning it,
exactly the torn-write detection contract the per-file layouts had.

Readers are incremental: an append-only blob is re-parsed only past the
last consumed byte, so polling a live store is O(new bytes).  A final
line without its newline is *pending* (an in-flight write), not torn;
an uncommitted tail found when a blob is first loaded — the crash
recovery case — counts ``core.store.torn``.

:meth:`SegmentStore.compact` folds the maintenance chores the per-file
layouts scattered across ``prune()``/``clear()`` into one segment
rewrite: committed entries are rewritten into a single fresh segment,
segments containing corrupt frames are quarantined aside as
``*.corrupt`` instead of deleted, and aged foreign-key segments and
debris are pruned.
Compaction is safe under concurrent writers: a pid-stamped lock file
serializes compactors across processes, and segments owned by live
foreign writers (the pid in the blob filename) are skipped rather than
rewritten; live appenders write to per-process blobs, so concurrent
*appends* from many processes never contend on one file.

Everything publishes through the observability registry:
``core.store.{flushes,entries,compactions,torn,corrupt}``.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from repro.obs.recorder import get_recorder

SCHEMA = "repro-segment/v1"

#: Testing aid for the crash harness: when set, a flush's blob is
#: written in slices of this many bytes (with a ``store.flush`` crash
#: point before each slice) instead of one ``write``, so a scheduled
#: ``kill`` lands mid-flush and leaves a genuinely torn blob.
WRITE_CHUNK_ENV = "REPRO_STORE_WRITE_CHUNK"

#: Testing aid for the crash harness: names a JSON plan,
#: ``{"faults": {"store.flush": ["ok", ..., "kill"]}}``, with one spec
#: per write slice ("ok" once the list runs out).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

_DIGEST_BYTES = 8  # BLAKE2b digest size -> 16 hex chars per frame
_CHECKSUM_LEN = 2 * _DIGEST_BYTES
_PREFIX_LEN = 1 + _CHECKSUM_LEN + 1  # tag + checksum + space


def to_builtin(value):
    """JSON fallback: unwrap numpy scalars to builtin int/float/bool."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError("%r is not JSON serializable" % (value,))


def _checksum(body: bytes) -> str:
    return hashlib.blake2b(body, digest_size=_DIGEST_BYTES).hexdigest()


def _frame(tag: bytes, body: bytes) -> bytes:
    return tag + _checksum(body).encode() + b" " + body + b"\n"


def _parse_frame(line: bytes):
    """(tag, body) for a checksum-valid frame line, else None."""
    if len(line) < _PREFIX_LEN or line[_PREFIX_LEN - 1 : _PREFIX_LEN] != b" ":
        return None
    body = line[_PREFIX_LEN:]
    if line[1 : _PREFIX_LEN - 1] != _checksum(body).encode("ascii"):
        return None
    return line[0:1], body


def _entry_name(body: bytes):
    """The ``"n"`` field of an entry body, without parsing the payload.

    Bodies are written as ``{"n": <name>, "p": <payload>}`` by
    :meth:`SegmentWriter.append_chunk`; for the common case (a name with
    no JSON escapes) the name is sliced straight out of the bytes, and
    anything unusual falls back to a full parse.  Returns None when no
    string name can be recovered.
    """
    if body.startswith(b'{"n": "'):
        quote = body.find(b'"', 7)
        if quote > 0 and b"\\" not in body[7:quote]:
            try:
                return body[7:quote].decode("utf-8")
            except UnicodeDecodeError:
                return None
    try:
        record = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if isinstance(record, dict):
        name = record.get("n")
        if isinstance(name, str):
            return name
    return None


def _default_count(event: str, n: float = 1) -> None:
    get_recorder().counters.add("core.store." + event, n)


def _crash_point(name: str) -> None:
    """SIGKILL this process if the fault plan schedules ``kill`` here.

    No-op unless :data:`FAULT_PLAN_ENV` names a readable plan listing
    ``name``.  Each call takes the next spec: the call count lives in
    ``<plan>.attempts/<name>`` (one byte appended per call), so it
    survives the process it kills and is shared across processes.
    """
    plan_path = os.environ.get(FAULT_PLAN_ENV)
    if not plan_path:
        return
    try:
        specs = json.loads(Path(plan_path).read_text())["faults"][name]
    except (OSError, ValueError, KeyError, TypeError):
        return
    counter = Path(plan_path + ".attempts") / name
    counter.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(counter, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        attempt = os.fstat(fd).st_size
        os.write(fd, b".")
    finally:
        os.close(fd)
    if attempt < len(specs) and specs[attempt] == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def peek_key(path):
    """The header key of a segment blob, or None if it has none (yet).

    Reads only the first line, so pruning decisions over a directory of
    large blobs stay O(files), not O(bytes).
    """
    try:
        with open(path, "rb") as f:
            first = f.readline(1 << 16)
    except OSError:
        return None
    if not first.endswith(b"\n"):
        return None
    parsed = _parse_frame(first[:-1])
    if parsed is None or parsed[0] != b"H":
        return None
    try:
        header = json.loads(parsed[1])
    except ValueError:
        return None
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        return None
    return header.get("key")


_CORRUPT = object()  # decode-memo sentinel: checksummed bad, never returned


class SegmentReader:
    """Incremental parser of one append-only segment blob.

    The reader consumes complete lines exactly once: :meth:`refresh`
    re-reads only bytes past the last consumed offset (append-only
    blobs never rewrite history; a shrunk or replaced file triggers a
    full reload).  Entries become visible only when their index frame
    commits them; decoding is lazy and memoized per name, and a
    checksum mismatch at decode time counts ``corrupt`` once and makes
    the entry permanently invisible.
    """

    def __init__(self, path, count=_default_count):
        self.path = Path(path)
        self._count = count
        self._reset()

    def _reset(self):
        self._buf = bytearray()
        self._consumed = 0  # bytes folded into complete lines
        self._committed = 0  # offset just past the last valid index frame
        self._stat = None  # (st_ino, st_size, st_mtime_ns) at last read
        self._loaded = False  # completed at least one refresh
        self._tail_counted = False
        self.key = None  # header key, once a valid header line is seen
        self.invalid = False  # complete-but-garbage header: not a segment
        self.had_corrupt = False
        self.had_torn = False  # a complete line was damaged in place
        self._index: dict = {}  # name -> (offset, length), file order
        self._decoded: dict = {}  # name -> payload | _CORRUPT
        self._flagged: set = set()  # offsets already counted bad at parse
        self._verified: dict = {}  # offset -> line length checksummed OK

    # ------------------------------------------------------------------
    @property
    def committed_offset(self) -> int:
        return self._committed

    @property
    def uncommitted_bytes(self) -> int:
        return len(self._buf) - self._committed

    def refresh(self) -> None:
        """Fold any new bytes on disk into the parsed state."""
        try:
            st = os.stat(self.path)
        except OSError:
            if self._stat is not None:
                self._reset()  # file vanished (clear()/compaction)
            return
        stat = (st.st_ino, st.st_size, st.st_mtime_ns)
        if self._stat == stat:
            return
        if self._stat is not None and (
            st.st_ino != self._stat[0] or st.st_size < len(self._buf)
        ):
            self._reset()  # rewritten or truncated: history changed
        self._stat = stat
        try:
            with open(self.path, "rb") as f:
                f.seek(len(self._buf))
                new = f.read()
        except OSError:
            return
        self._buf += new
        self._parse_new()
        if not self._loaded:
            self._loaded = True
            # First sight of this blob (the crash-recovery read):
            # *complete* lines past the last committed index are a torn
            # flush's remains.  A partial final line alone is left as
            # pending — a live writer may still be mid-``write`` — and
            # is only judged torn by the writer that reclaims the blob
            # (which knows no write can be in flight).
            if self._consumed > self._committed and self.key is not None:
                self._count("torn")
                self._tail_counted = True

    def _parse_new(self) -> None:
        buf = self._buf
        with memoryview(buf) as view:
            while not self.invalid:
                end = buf.find(b"\n", self._consumed)
                if end < 0:
                    return  # incomplete final line: pending, retry later
                start, self._consumed = self._consumed, end + 1
                length = end + 1 - start
                # Inline fast path for well-formed entry frames — the
                # bulk of every blob.  Checksums straight off the
                # buffer view: no per-line copy, no call dispatch.
                tag = buf[start]
                if (
                    start
                    and length > _PREFIX_LEN
                    and (tag == 69 or tag == 83)  # b"E" / b"S"
                    and buf[start + _PREFIX_LEN - 1] == 32  # b" "
                    and view[start + 1 : start + _PREFIX_LEN - 1]
                    == _checksum(view[start + _PREFIX_LEN : end]).encode("ascii")
                ):
                    if tag == 83:
                        self._commit_self(start, end, length)
                    else:
                        self._verified[start] = length
                    continue
                self._line(bytes(buf[start:end]), start, length)

    def _line(self, line: bytes, offset: int, length: int) -> None:
        parsed = _parse_frame(line)
        if offset == 0:
            # The header position decides whether this is a segment at
            # all; a complete non-header first line marks the whole
            # file invalid (the owner may quarantine it).
            header = None
            if parsed is not None and parsed[0] == b"H":
                try:
                    header = json.loads(parsed[1])
                except ValueError:
                    header = None
            if (
                not isinstance(header, dict)
                or header.get("schema") != SCHEMA
            ):
                self.invalid = True
                return
            self.key = header.get("key")
            self._committed = self._consumed
            return
        if parsed is None:
            self._bad_line(line, offset)
            return
        tag, body = parsed
        if tag == b"X":
            try:
                # bytes -> str before loads: json's encoding sniff costs
                # a regex per call, measurable at high line counts.
                index = json.loads(body.decode("utf-8"))["i"]
                items = list(index.items())
            except (ValueError, KeyError, AttributeError, TypeError):
                self._bad_line(line, offset)
                return
            for name, span in items:
                if (
                    type(span) is not list
                    or len(span) != 2
                    or type(span[0]) is not int
                    or type(span[1]) is not int
                    or span[0] < 0
                    or span[0] + span[1] > offset
                    or self._buf[span[0] : span[0] + 1] != b"E"
                ):
                    self.had_corrupt = True
                    self._count("corrupt")
                    continue
                self._index[name] = (span[0], span[1])
                self._decoded.pop(name, None)
            self._committed = self._consumed
        elif tag == b"E":
            # Committed (and decoded) via an index frame; remember that
            # this span already passed its checksum so decoding does not
            # hash the same bytes a second time.
            self._verified[offset] = length
        elif tag == b"S":
            self._commit_self(offset, offset + length - 1, length)
        else:
            self._bad_line(line, offset)

    def _commit_self(self, start: int, end: int, length: int) -> None:
        """Commit one checksum-valid self-committing (``S``) frame.

        The frame is its own index record, so the commit boundary
        advances past it even when the body turns out unusable (that
        mirrors how an index frame with a bad span still commits —
        recovery must not truncate durable later frames).  Only the
        name is extracted here; payload decoding stays lazy.
        """
        name = _entry_name(bytes(self._buf[start + _PREFIX_LEN : end]))
        if name is None:
            self.had_corrupt = True
            self._flagged.add(start)
            self._count("corrupt")
        else:
            self._index[name] = (start, length)
            self._decoded.pop(name, None)
            self._verified[start] = length
        self._committed = self._consumed

    def _bad_line(self, line: bytes, offset: int) -> None:
        """A complete line that fails its frame check.

        A body that still parses as JSON was *altered* (bit rot,
        tampering) — count ``corrupt``; one that does not was torn
        short and sealed or garbled — count ``torn``.  The offset is
        remembered so decoding the same bytes through an index frame
        later does not count the damage twice.
        """
        self._flagged.add(offset)
        try:
            json.loads(line[_PREFIX_LEN:])
        except ValueError:
            self.had_torn = True
            self._count("torn")
        else:
            self.had_corrupt = True
            self._count("corrupt")

    # ------------------------------------------------------------------
    def get(self, name, default=None):
        if name not in self._index:
            return default
        if name not in self._decoded:
            self._decoded[name] = self._decode(name)
        value = self._decoded[name]
        return default if value is _CORRUPT else value

    def __contains__(self, name) -> bool:
        return self.get(name, _CORRUPT) is not _CORRUPT

    def names(self):
        return list(self._index)

    def entries(self) -> dict:
        """All committed, checksum-valid entries, in commit order."""
        out = {}
        for name in self._index:
            value = self.get(name, _CORRUPT)
            if value is not _CORRUPT:
                out[name] = value
        return out

    def _decode(self, name):
        offset, length = self._index[name]
        if self._verified.get(offset) == length:
            body = bytes(self._buf[offset + _PREFIX_LEN : offset + length - 1])
        else:
            parsed = _parse_frame(
                bytes(self._buf[offset : offset + length - 1])
            )
            body = (
                parsed[1]
                if parsed is not None and parsed[0] in (b"E", b"S")
                else None
            )
        if body is not None:
            try:
                record = json.loads(body.decode("utf-8"))
                if record["n"] == name:
                    return record["p"]
            except (ValueError, KeyError, TypeError):
                pass
        self.had_corrupt = True
        if offset not in self._flagged:
            self._flagged.add(offset)
            self._count("corrupt")
        return _CORRUPT


class SegmentWriter:
    """Exclusive append handle on one segment blob.

    One writer owns one blob: concurrent stores write distinct
    per-process files.  Re-opening an existing blob (crash recovery)
    truncates the uncommitted tail first, so appends never land after
    torn bytes.
    """

    def __init__(self, path, key, count=_default_count):
        self.path = Path(path)
        self.key = key
        self._count = count
        self._fd = None
        self._offset = 0

    @property
    def is_open(self) -> bool:
        return self._fd is not None

    def open(self, fd=None, reader=None) -> None:
        """Acquire the blob: adopt a fresh ``fd``, or reopen ``path``.

        With ``fd`` (from an exclusive create) the header is written
        immediately.  Reopening an existing blob requires a matching
        header key — rotation/migration of mismatched files is the
        owner's job — and truncates any uncommitted tail (counted as
        ``torn``), so recovery after a crashed writer is physical, not
        just interpretive.  Pass ``reader`` to share the owner's
        already-loaded :class:`SegmentReader` instead of re-parsing the
        blob (and double-counting its torn tail).
        """
        if self._fd is not None:
            return
        if fd is not None:
            self._fd = fd
            self._offset = 0
            self._write(_frame(b"H", self._header_body()))
            self._offset = self._header_size()
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if reader is None:
            reader = SegmentReader(self.path, count=self._count)
        reader.refresh()
        if reader.key is not None and reader.key != self.key:
            raise ValueError(
                "segment %s is keyed %r, not %r (rotate it first)"
                % (self.path, reader.key, self.key)
            )
        self._fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
        committed = reader.committed_offset if reader.key is not None else 0
        if reader.uncommitted_bytes > 0 and not reader._tail_counted:
            # An exclusive writer reclaiming the blob knows no write is
            # in flight: a pending partial tail really was torn.
            self._count("torn")
        os.ftruncate(self._fd, committed)
        os.lseek(self._fd, 0, os.SEEK_END)
        self._offset = committed
        if committed == 0:
            self._write(_frame(b"H", self._header_body()))
            self._offset = self._header_size()

    def _header_body(self) -> bytes:
        return json.dumps(
            {"schema": SCHEMA, "key": self.key}, sort_keys=True
        ).encode()

    def _header_size(self) -> int:
        return len(_frame(b"H", self._header_body()))

    def append_chunk(self, items, fsync: bool = False) -> None:
        """Flush ``(name, payload)`` pairs as one committed chunk.

        The chunk — entry frames plus their index frame — is written in
        a single ``write`` (unless the crash harness slices it), then
        optionally fsync'd.  Only after the index frame is durable are
        the entries committed; a crash anywhere earlier leaves a tail
        that recovery drops wholesale.  A one-entry chunk collapses to
        a single self-committing ``S`` frame with the same contract:
        the entry is committed iff its full line (checksum, newline)
        made it to disk.
        """
        items = list(items)
        if not items:
            return
        self.open()
        blob = bytearray()
        if len(items) == 1:
            name, payload = items[0]
            body = json.dumps(
                {"n": name, "p": payload}, default=to_builtin
            ).encode()
            blob += _frame(b"S", body)
        else:
            index: dict = {}
            for name, payload in items:
                body = json.dumps(
                    {"n": name, "p": payload}, default=to_builtin
                ).encode()
                line = _frame(b"E", body)
                index[name] = [self._offset + len(blob), len(line)]
                blob += line
            blob += _frame(
                b"X", json.dumps({"i": index}, sort_keys=True).encode()
            )
        self._write(bytes(blob))
        if fsync:
            os.fsync(self._fd)
        self._offset += len(blob)
        self._count("flushes")
        self._count("entries", len(items))

    def _write(self, blob: bytes) -> None:
        step = int(os.environ.get(WRITE_CHUNK_ENV) or 0)
        if step <= 0:
            step = len(blob) or 1
        view = memoryview(blob)
        while view.nbytes:
            _crash_point("store.flush")
            written = os.write(self._fd, view[:step])
            view = view[written:]

    def fsync(self) -> None:
        if self._fd is not None:
            os.fsync(self._fd)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


@dataclass
class CompactionStats:
    """What one :meth:`SegmentStore.compact` rewrite did."""

    entries: int = 0  # live entries carried into the fresh segment
    segments_merged: int = 0  # same-key segment blobs folded and removed
    files_removed: int = 0  # every file deleted (segments, debris)
    quarantined: int = 0  # blobs set aside as *.corrupt, not deleted
    pruned: int = 0  # aged foreign-key/debris files removed
    busy_skipped: int = 0  # blobs left alone: a live writer owns them

    @property
    def total_removed(self) -> int:
        return self.files_removed + self.quarantined


class CompactionBusy(RuntimeError):
    """Another process holds the store's compaction lock right now."""


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (conservative on EPERM)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM), or exotic platform
    return True


def _segment_pid(path) -> int | None:
    """The writer pid embedded in a ``<prefix>-<seq>-<pid>.seg`` name."""
    parts = Path(path).stem.split("-")
    try:
        return int(parts[-1])
    except (IndexError, ValueError):
        return None


class SegmentStore:
    """A named store of JSON entries over append-only segment blobs.

    Args:
        directory: where segment blobs live; created on first flush.
        key: namespace pinned into every blob header — blobs carrying a
            different key are invisible to reads (and age-pruned by
            :meth:`compact`), exactly like the memo cache's
            code-version keying.
        prefix: blob filename prefix; files are
            ``<prefix>-<seq>-<pid>.seg`` so concurrent writers never
            share a blob and merge order is the filename sort.
        flush_every: buffered entries per automatic flush; 1 flushes on
            every :meth:`append` (the durable, read-your-writes-now
            default), larger values batch N entries per write.
        fsync: whether each flush is fsync'd (the memo cache does
            not fsync).
        compact_ratio: dead-bytes ratio above which
            :meth:`maybe_compact` rewrites the store (``None`` disables
            auto-compaction).  The conservative default only triggers
            once well over half the committed bytes are superseded.
    """

    def __init__(
        self,
        directory,
        key: str,
        prefix: str = "seg",
        flush_every: int = 1,
        fsync: bool = False,
        count=_default_count,
        compact_ratio: float | None = 0.6,
    ):
        self.directory = Path(directory)
        self.key = key
        self.prefix = prefix
        self.flush_every = max(int(flush_every), 1)
        self.fsync = fsync
        self.compact_ratio = compact_ratio
        self._count = count
        self._writer = None
        self._buffer: dict = {}  # name -> payload, insertion ordered
        self._readers: dict = {}  # Path -> SegmentReader

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, name, payload) -> None:
        """Buffer one entry; auto-flushes every ``flush_every`` entries."""
        self._buffer[name] = payload
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def flush(self):
        """Write all buffered entries as one committed chunk.

        Returns the blob path written to, or None if nothing was
        buffered.
        """
        if not self._buffer:
            return None
        writer = self._ensure_writer()
        writer.append_chunk(self._buffer.items(), fsync=self.fsync)
        self._buffer.clear()
        return writer.path

    def segment_path(self) -> Path:
        """This store's own blob (claimed, with header, on first call)."""
        return self._ensure_writer().path

    def _ensure_writer(self) -> SegmentWriter:
        if self._writer is None:
            path, fd = self._claim_blob()
            self._writer = SegmentWriter(path, self.key, count=self._count)
            self._writer.open(fd=fd)
        return self._writer

    def _claim_blob(self):
        """An exclusively-created, never-before-seen blob path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        seq = 0
        for path in self.directory.glob(self.prefix + "-*.seg"):
            parts = path.stem.split("-")
            try:
                seq = max(seq, int(parts[-2]) + 1)
            except (IndexError, ValueError):
                continue
        while True:
            path = self.directory / (
                "%s-%08d-%d.seg" % (self.prefix, seq, os.getpid())
            )
            try:
                fd = os.open(
                    path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                seq += 1
                continue
            return path, fd

    def close(self) -> None:
        """Flush the buffer and release the blob file descriptor."""
        self.flush()
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def discard(self) -> None:
        """Drop buffered entries and all parsed state without writing.

        Used by the owner's ``clear()``: deleting the files out from
        under live readers and then flushing a stale buffer would
        resurrect cleared entries.
        """
        self._buffer.clear()
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._readers.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, name, default=None):
        """The committed (or still-buffered) payload for ``name``.

        Committed entries are immutable under a content-addressed key,
        so a name already loaded is returned without touching the
        filesystem; an unknown name triggers one incremental rescan of
        the directory before reporting a miss.
        """
        if name in self._buffer:
            return self._buffer[name]
        sentinel = _CORRUPT
        for reader in self._our_readers(newest_first=True):
            value = reader.get(name, sentinel)
            if value is not sentinel:
                return value
        self._refresh()
        for reader in self._our_readers(newest_first=True):
            value = reader.get(name, sentinel)
            if value is not sentinel:
                return value
        return default

    def __contains__(self, name) -> bool:
        sentinel = _CORRUPT
        return self.get(name, sentinel) is not sentinel

    def entries(self) -> dict:
        """Every committed entry across all same-key blobs.

        Blobs merge in filename-sort order (creation order), so a name
        rewritten later wins; buffered entries overlay last.
        """
        self._refresh()
        out: dict = {}
        for reader in self._our_readers(newest_first=False):
            out.update(reader.entries())
        out.update(self._buffer)
        return out

    def _our_readers(self, newest_first: bool):
        paths = sorted(self._readers, reverse=newest_first)
        return [
            self._readers[p]
            for p in paths
            if self._readers[p].key == self.key
        ]

    def _refresh(self) -> None:
        """Rescan the directory and fold new bytes into every reader."""
        if self.directory.is_dir():
            for path in self.directory.glob(self.prefix + "-*.seg"):
                if path not in self._readers:
                    self._readers[path] = SegmentReader(
                        path, count=self._count
                    )
        for path, reader in list(self._readers.items()):
            reader.refresh()
            if reader.invalid:
                # Complete-but-garbage header: this is no segment.
                # Quarantine it aside so it is inspectable, never reread.
                self._count("corrupt")
                try:
                    os.replace(path, path.with_suffix(".corrupt"))
                except OSError:
                    pass
                del self._readers[path]
            elif reader._stat is None and reader.key is None:
                del self._readers[path]  # vanished before first read

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def dead_bytes(self) -> tuple:
        """``(dead, total)`` committed bytes across this store's blobs.

        An entry line is *live* when it is the winning (newest) write
        for its name under the merge order; everything else committed —
        superseded rewrites, batched-chunk index frames — is weight a
        :meth:`compact` rewrite would reclaim.  Blob header lines count
        as live (a compacted store still pays one).
        """
        self._refresh()
        total = 0
        live = 0
        winners: dict = {}
        for reader in self._our_readers(newest_first=False):
            committed = reader.committed_offset
            total += committed
            header_end = reader._buf.find(b"\n") + 1
            if header_end > 0:
                live += min(header_end, committed)
            for name, (_, length) in reader._index.items():
                winners[name] = length
        live += sum(winners.values())
        return max(total - live, 0), total

    def dead_ratio(self) -> float:
        dead, total = self.dead_bytes()
        return dead / total if total else 0.0

    def maybe_compact(self, **kwargs):
        """:meth:`compact` iff the dead-bytes ratio crosses the knob.

        The sweep-completion hook: rewriting a store is only worth the
        IO once enough superseded bytes pile up, so callers invoke this
        unconditionally after a batch of writes and the knob decides.
        Returns the :class:`CompactionStats` when a compaction ran
        (counted as ``core.store.auto_compactions`` on top of the
        rewrite's own ``compactions``), else None.  A ``compact_ratio``
        of None disables the trigger.  A store another process is
        already compacting is left alone (counted as
        ``core.store.compact_busy``) — any process sharing the store
        may trigger maintenance, and exactly one should win.  Keyword
        arguments are forwarded to :meth:`compact`.
        """
        if self.compact_ratio is None:
            return None
        if self.dead_ratio() <= self.compact_ratio:
            return None
        try:
            stats = self.compact(**kwargs)
        except CompactionBusy:
            self._count("compact_busy")
            return None
        self._count("auto_compactions")
        return stats

    def _lock_path(self) -> Path:
        return self.directory / (self.prefix + ".compact.lock")

    def _acquire_compact_lock(self) -> None:
        """Exclusive cross-process compaction lock (pid-stamped file).

        A lock file whose owner pid is dead is stale — a compactor
        crashed while holding it — and is broken by atomically renaming
        it aside (only one breaker can win the rename) before retrying.
        Raises :class:`CompactionBusy` when a live process holds it.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        lock = self._lock_path()
        for _ in range(8):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                try:
                    owner = int(lock.read_text().strip() or "0")
                except (OSError, ValueError):
                    # Mid-write or vanished: re-read on the next pass.
                    time.sleep(0.01)
                    continue
                if _pid_alive(owner):
                    raise CompactionBusy(
                        "compaction of %s already running in pid %d"
                        % (self.directory, owner)
                    )
                stale = lock.with_suffix(lock.suffix + ".stale.%d" % os.getpid())
                try:
                    os.rename(lock, stale)  # atomic: one breaker wins
                    stale.unlink()
                except OSError:
                    pass
                time.sleep(0.01)
                continue
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            return
        raise CompactionBusy(
            "could not acquire compaction lock %s" % self._lock_path()
        )

    def _release_compact_lock(self) -> None:
        try:
            self._lock_path().unlink()
        except OSError:
            pass

    def compact(self, max_age_days=None, now=None) -> CompactionStats:
        """Rewrite the store as one fresh segment; fold in the chores.

        * every committed same-key entry is rewritten into a single new
          blob, and the merged blobs are deleted;
        * a same-key blob that held corrupt or torn frames is
          quarantined to ``*.corrupt`` instead of deleted, so
          the evidence survives the rewrite;
        * with ``max_age_days``, foreign-key blobs and quarantine/debris
          files older than the cutoff are pruned (current-key data is
          never age-pruned).

        Safe under concurrent writers: one cross-process lock file
        serializes compactors (:class:`CompactionBusy` is raised when a
        live process already holds it), and a *busy* segment — one whose
        filename pid names a live foreign process, i.e. a writer that
        may still be appending — is never merged, deleted, or
        quarantined (``busy_skipped``).  A name whose winning write
        lives in a busy segment is also kept out of the replacement
        blob, so the fresh (highest-sorting) segment can never demote a
        concurrent writer's newer value.  Returns a
        :class:`CompactionStats` with accurate counts.
        """
        stats = CompactionStats()
        self.flush()
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._acquire_compact_lock()
        try:
            return self._compact_locked(stats, max_age_days, now)
        finally:
            self._release_compact_lock()

    def _compact_locked(self, stats, max_age_days, now) -> CompactionStats:
        self._refresh()
        merged: dict = {}
        our_paths = []
        dirty_paths = []
        busy_names: set = set()
        own_pid = os.getpid()
        for path in sorted(self._readers):
            reader = self._readers[path]
            if reader.key != self.key:
                continue
            pid = _segment_pid(path)
            busy = pid is not None and pid != own_pid and _pid_alive(pid)
            if busy:
                # A live writer owns this blob: leave it untouched.  Its
                # entries sort after everything merged so far, so names
                # it has committed must not be re-emitted into the fresh
                # blob (which would sort even later and win wrongly).
                stats.busy_skipped += 1
                self._count("compact_busy_segments")
                busy_names.update(reader.entries())
                continue
            entries = reader.entries()
            merged.update(entries)
            # This blob sorts after any busy blob seen so far, so its
            # values are the newer write for every name it carries.
            busy_names.difference_update(entries)
            our_paths.append(path)
            if (
                reader.had_corrupt
                or reader.had_torn
                or reader.uncommitted_bytes > 0
            ):
                dirty_paths.append(path)
        for name in busy_names:
            merged.pop(name, None)
        # Write the replacement blob before removing anything: a crash
        # mid-compaction leaves duplicates (harmless: identical
        # payloads, later-sorting blob wins), never data loss.
        if merged:
            path, fd = self._claim_blob()
            writer = SegmentWriter(path, self.key, count=self._count)
            writer.open(fd=fd)
            writer.append_chunk(merged.items(), fsync=True)
            writer.close()
            stats.entries = len(merged)
        for path in our_paths:
            self._readers.pop(path, None)
            try:
                if path in dirty_paths:
                    os.replace(path, path.with_suffix(".corrupt"))
                    stats.quarantined += 1
                else:
                    path.unlink()
                    stats.files_removed += 1
            except OSError:
                continue
            stats.segments_merged += 1
        if max_age_days is not None:
            stats.pruned = self._prune_aged(max_age_days, now=now)
            stats.files_removed += stats.pruned
        self._count("compactions")
        return stats

    def _prune_aged(self, max_age_days: float, now=None) -> int:
        """Drop aged foreign-key blobs and quarantine/debris files."""
        cutoff = (now if now is not None else time.time()) - (
            max_age_days * 86400.0
        )
        removed = 0
        patterns = (self.prefix + "-*.seg", "*.corrupt", "*.tmp.*")
        for pattern in patterns:
            for path in self.directory.glob(pattern):
                if path.suffix == ".seg" and peek_key(path) == self.key:
                    continue  # current-key data is never age-pruned
                try:
                    if path.stat().st_mtime < cutoff:
                        path.unlink()
                        removed += 1
                        self._readers.pop(path, None)
                except OSError:
                    pass
        return removed
