"""Segment store: append-only, checksummed blobs for the memo cache.

Each writing process claims its own blob, ``<prefix>-<seq>-<pid>.seg``,
with ``O_CREAT|O_EXCL``, so two runs sharing a directory never write
to the same file.  A blob is a text file of framed lines::

    H<blake2-16hex> {"key": ..., "schema": "repro-segment/v1"}\\n
    S<blake2-16hex> {"n": <name>, "p": <payload>}\\n

The header pins the namespace key (the memo cache's code version);
every later line is one entry, written with a single ``write``.  Each
frame checksums its exact body bytes (BLAKE2b, 8 bytes), so verifying
an entry never re-serializes its payload.

**Commit rule.**  An entry counts once its whole line, newline
included, is on disk.  A final line without its newline is either an
append still in flight or one a crash cut short; a reader cannot tell
which, so it leaves the line unread and tries again on its next pass.
A complete line that fails its checksum is never returned: if its body
still parses as JSON it was altered (``core.store.corrupt``), otherwise
it was torn (``core.store.torn``).  A blob whose complete first line is
no header is moved aside to ``*.corrupt``.

Readers parse each complete line once.  Blobs are append-only, so a
reader only remembers the offset just past its last complete line and
reads on from there.  A blob keyed for another namespace is read only
as far as its header.

Counters: ``core.store.{flushes,entries,torn,corrupt}``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.obs.recorder import get_recorder

SCHEMA = "repro-segment/v1"

_DIGEST_BYTES = 8  # BLAKE2b digest size -> 16 hex chars per frame
_PREFIX_LEN = 1 + 2 * _DIGEST_BYTES + 1  # tag + checksum + space

_INVALID = object()  # a complete first line that is no header
_MISS = object()


def to_builtin(value):
    """JSON fallback: unwrap numpy scalars to builtin int/float/bool."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError("%r is not JSON serializable" % (value,))


def _checksum(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=_DIGEST_BYTES).hexdigest().encode()


def _frame(tag: bytes, body: bytes) -> bytes:
    return tag + _checksum(body) + b" " + body + b"\n"


def _parse_frame(line: bytes):
    """(tag, body) of a checksum-valid frame line (no newline), else None."""
    if len(line) < _PREFIX_LEN or line[_PREFIX_LEN - 1 : _PREFIX_LEN] != b" ":
        return None
    body = line[_PREFIX_LEN:]
    if line[1 : _PREFIX_LEN - 1] != _checksum(body):
        return None
    return line[:1], body


def _header_key(line: bytes):
    """The key a header line (no newline) names, or ``_INVALID``."""
    parsed = _parse_frame(line)
    if parsed is None or parsed[0] != b"H":
        return _INVALID
    try:
        header = json.loads(parsed[1])
    except ValueError:
        return _INVALID
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        return _INVALID
    return header.get("key")


def _default_count(event: str, n: float = 1) -> None:
    get_recorder().counters.add("core.store." + event, n)


def peek_key(path):
    """The header key of a segment blob, or None if it has none (yet).

    Reads only the first line, so pruning a directory of large blobs
    stays O(files), not O(bytes).
    """
    try:
        with open(path, "rb") as f:
            first = f.readline(1 << 16)
    except OSError:
        return None
    if not first.endswith(b"\n"):
        return None
    key = _header_key(first[:-1])
    return None if key is _INVALID else key


class SegmentReader:
    """The entries of one blob, read as far as its last complete line.

    :meth:`refresh` parses the complete lines past :attr:`offset` and
    moves the offset to the end of the last one.  ``entries`` maps each
    name to its payload (a later line wins a name).  ``invalid`` says
    the complete first line is no header; ``foreign`` says the header
    names a key other than ``key``, in which case nothing past it is
    read.
    """

    def __init__(self, path, key, count=_default_count):
        self.path = Path(path)
        self.key = key
        self._count = count
        self.offset = 0  # just past the last complete line parsed
        self.invalid = False
        self.foreign = False
        self.entries: dict = {}

    def refresh(self) -> None:
        """Parse the complete lines appended since the last call."""
        if self.invalid or self.foreign:
            return
        try:
            with open(self.path, "rb") as f:
                if self.offset == 0:
                    first = f.readline()
                    if not first.endswith(b"\n"):
                        return  # empty, or the header is still being written
                    key = _header_key(first[:-1])
                    self.invalid = key is _INVALID
                    self.foreign = not self.invalid and key != self.key
                    if self.invalid or self.foreign:
                        return
                    self.offset = len(first)
                else:
                    f.seek(self.offset)
                data = f.read()
        except OSError:
            return
        end = data.rfind(b"\n") + 1
        if end:
            for line in data[: end - 1].split(b"\n"):
                self._line(line)
            self.offset += end

    def _line(self, line: bytes) -> None:
        parsed = _parse_frame(line)
        if parsed is None or parsed[0] != b"S":
            # A body that still parses was altered; one that does not
            # was torn short or garbled.
            try:
                json.loads(line[_PREFIX_LEN:])
            except ValueError:
                self._count("torn")
            else:
                self._count("corrupt")
            return
        try:
            record = json.loads(parsed[1])
            name = record["n"]
            if isinstance(name, str):
                self.entries[name] = record["p"]
                return
        except (ValueError, KeyError, TypeError):
            pass
        self._count("corrupt")  # checksummed, but no usable entry


class SegmentStore:
    """Named JSON entries in append-only blobs, one blob per writer.

    Args:
        directory: where blobs live; created on the first append.
        key: namespace pinned into every blob header.  Blobs with
            another key are invisible, which is how the memo cache
            keys on its code version.
        prefix: blob filename prefix; files are
            ``<prefix>-<seq>-<pid>.seg``, and a later file wins a name.
        count: sink for the ``core.store.*`` events.
    """

    def __init__(self, directory, key, prefix: str = "seg", count=_default_count):
        self.directory = Path(directory)
        self.key = key
        self.prefix = prefix
        self._count = count
        self._fd = None
        self._path = None
        self._readers: dict = {}  # Path -> SegmentReader

    def append(self, name, payload) -> Path:
        """Write one entry as one ``S`` line; returns this writer's blob."""
        body = json.dumps({"n": name, "p": payload}, default=to_builtin).encode()
        if self._fd is None:
            self._claim_blob()
        self._write(_frame(b"S", body))
        self._count("flushes")
        self._count("entries")
        return self._path

    def _claim_blob(self) -> None:
        """Create a never-before-seen blob exclusively; write its header."""
        self.directory.mkdir(parents=True, exist_ok=True)
        seq = 0
        for path in self.directory.glob(self.prefix + "-*.seg"):
            try:
                seq = max(seq, int(path.stem.split("-")[-2]) + 1)
            except (IndexError, ValueError):
                continue
        while True:
            path = self.directory / (
                "%s-%08d-%d.seg" % (self.prefix, seq, os.getpid())
            )
            try:
                self._fd = os.open(
                    path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                seq += 1
                continue
            self._path = path
            break
        header = json.dumps({"schema": SCHEMA, "key": self.key}, sort_keys=True)
        self._write(_frame(b"H", header.encode()))

    def _write(self, data: bytes) -> None:
        view = memoryview(data)
        while view.nbytes:
            view = view[os.write(self._fd, view) :]

    def close(self) -> None:
        """Release this writer's blob and forget every entry read.

        The next append claims a fresh blob, and the next lookup reads
        the directory again, so entries deleted meanwhile stay deleted.
        """
        if self._fd is not None:
            os.close(self._fd)
            self._fd = self._path = None
        self._readers.clear()

    def get(self, name, default=None):
        """The entry ``name``, or ``default``.

        An entry already read is returned without touching the disk; a
        miss first rescans the directory, so entries other processes
        committed since are found.
        """
        value = self._lookup(name)
        if value is _MISS:
            self._refresh()
            value = self._lookup(name)
        return default if value is _MISS else value

    def _lookup(self, name):
        for path in sorted(self._readers, reverse=True):
            entries = self._readers[path].entries
            if name in entries:
                return entries[name]
        return _MISS

    def _refresh(self) -> None:
        """Find new blobs and read what was appended since the last pass."""
        for path in self.directory.glob(self.prefix + "-*.seg"):
            if path not in self._readers:
                self._readers[path] = SegmentReader(path, self.key, self._count)
        for path, reader in list(self._readers.items()):
            reader.refresh()
            if reader.invalid:
                # Not a segment: set it aside where it can be inspected
                # and is never read again.
                self._count("corrupt")
                try:
                    os.replace(path, path.with_suffix(".corrupt"))
                except OSError:
                    pass
                del self._readers[path]
