"""Memory-mapped columnar trace artifacts: trace once, sweep many.

The paper's figures are design-space sweeps — one workload trace
evaluated under many cache configurations — yet re-running the
instrumented kernel per sweep point makes sweep cost scale as
``configs x (kernel + trace + replay)``.  A :class:`TraceArtifact`
materializes a workload's trace *once* as an on-disk columnar file
holding the per-access columns (``addresses``, ``is_write``), so every
later sweep point pays only the replay.  No run columns are stored:
:meth:`TraceArtifact.trace` derives the
:meth:`repro.sim.trace.MemoryTrace.line_runs` from the hash-verified
addresses, so nothing but the content hash decides what a sweep
replays.

File layout (single file, everything 64-byte aligned so each column is
an aligned view into one mapping of the file)::

    magic (8 B) | header length (8 B LE) | JSON header | pad | columns

The header pins a schema tag, the workload name, the recording
``line_bytes``, each column's dtype, count and SHA-256, the package
code-version hash, and a ``content_hash`` over the access stream itself.
Integrity follows the :class:`repro.core.memo.MemoCache` contract:

* writes are atomic (tmp file + fsync + ``os.replace``), so a crashed
  writer can never publish a partial artifact under the final name;
* a load maps the file once and checks that one buffer — structure,
  each column's dtype and count against the schema and header, and the
  checksums — so a torn, truncated, relabelled or bit-flipped file
  raises :class:`ArtifactError` rather than returning corrupt data.
  The checks hash raw bytes with :mod:`hashlib` and import no NumPy;
  each column becomes an ``np.frombuffer`` view of those verified bytes
  on first use, so a file replaced under the path after the load
  cannot change what a replay reads;
* :class:`TraceStore` quarantines bad artifacts to ``*.corrupt``
  (counted as ``sim.artifact.corrupt``) and rebuilds, so a damaged
  cache entry costs one rebuild — never a wrong result.

The ``content_hash`` is the sweep-facing identity of the trace: memo
keys embed it (see
:mod:`repro.analysis.cachesweep`), so a cached sweep row can never be
reused against a different trace.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.config import CACHE_LINE_BYTES
from repro.obs.recorder import get_recorder

if TYPE_CHECKING:  # annotation-only: loading and verifying needs no NumPy
    import numpy as np

    from repro.sim.trace import MemoryTrace

#: File magic: 8 bytes; the header's schema tag versions the layout.
_MAGIC = b"RPROTRC1"
#: Changes with the column set, so a file of another layout fails the
#: header check and a store rebuilds it instead of misreading it.
SCHEMA = "repro-trace-artifact/v2"
#: Domain tag of the content hash.  It names the access stream, not the
#: file layout, so memo keys and sweep documents outlive schema changes.
_CONTENT_TAG = b"repro-trace-artifact/v1"
#: Column alignment; also the pad unit between header and data.
_ALIGN = 64

#: Column order, dtypes and item sizes are fixed by the schema.
_COLUMNS = (
    ("addresses", "uint64", 8),
    ("is_write", "bool", 1),
)
#: JSON types of the header's fields (past ``schema``) and of each
#: column record's.
_HEADER_FIELDS = {
    "workload": str,
    "line_bytes": int,
    "content_hash": str,
    "code_version": str,
    "num_accesses": int,
    "columns": list,
    "data_bytes": int,
}
_COLUMN_FIELDS = {
    "name": str,
    "dtype": str,
    "count": int,
    "offset": int,
    "nbytes": int,
    "sha256": str,
}


class ArtifactError(ValueError):
    """A trace artifact failed structural or checksum validation."""


def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _content_hash(addresses, is_write, line_bytes: int) -> str:
    """Identity of the access stream (independent of workload/code).

    ``addresses`` and ``is_write`` are the two columns' bytes, as any
    C-contiguous buffer (a ``memoryview`` or a contiguous array).
    """
    digest = hashlib.sha256()
    digest.update(_CONTENT_TAG)
    digest.update(b"\0%d\0" % line_bytes)
    digest.update(addresses)
    digest.update(b"\0")
    digest.update(is_write)
    return digest.hexdigest()


def _column(name: str) -> property:
    """A column attribute: an array, made from verified bytes on first use."""
    dtype = {column: dtype for column, dtype, _ in _COLUMNS}[name]

    def get(self):
        value = self._columns[name]
        if isinstance(value, memoryview):
            import numpy as np

            value = self._columns[name] = np.frombuffer(value, dtype=dtype)
        return value

    return property(get, doc="The ``%s`` column (dtype %s)." % (name, dtype))


class TraceArtifact:
    """One workload trace, materialized as its per-access columns.

    Build with :meth:`from_trace`, persist with :meth:`save`, reload
    with :meth:`load` (memory-mapped by default).  :meth:`trace`
    returns a :class:`MemoryTrace` whose ``line_runs`` memo is
    pre-seeded from the verified ``addresses`` and ``is_write``.
    """

    addresses = _column("addresses")
    is_write = _column("is_write")

    def __init__(
        self,
        workload: str,
        line_bytes: int,
        content_hash: str,
        code_version: str,
        addresses,
        is_write,
        path: Path | None = None,
    ):
        self.workload = workload
        self.line_bytes = line_bytes
        self.content_hash = content_hash
        self.code_version = code_version
        self.path = path
        # Arrays, or (from load) memoryviews of verified file bytes.
        self._columns = {"addresses": addresses, "is_write": is_write}

    @property
    def num_accesses(self) -> int:
        return int(self.addresses.shape[0])

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace: MemoryTrace,
        workload: str = "",
        line_bytes: int = CACHE_LINE_BYTES,
    ) -> TraceArtifact:
        """Materialize a trace as an artifact."""
        import numpy as np

        from repro.core.memo import code_version_hash

        return cls(
            workload=workload,
            line_bytes=line_bytes,
            content_hash=_content_hash(
                np.ascontiguousarray(trace.addresses),
                np.ascontiguousarray(trace.is_write),
                line_bytes,
            ),
            code_version=code_version_hash(),
            addresses=trace.addresses,
            is_write=trace.is_write,
        )

    def trace(self) -> MemoryTrace:
        """The artifact's trace, with ``line_runs`` derived and memoized.

        The runs come from the content-hashed ``addresses`` and
        ``is_write``, so the content hash names everything a sweep
        replays.
        """
        from repro.sim.trace import MemoryTrace

        trace = MemoryTrace(addresses=self.addresses, is_write=self.is_write)
        trace.line_runs(self.line_bytes)
        return trace

    # ------------------------------------------------------------------
    def _column_arrays(self) -> list[tuple[str, np.ndarray]]:
        import numpy as np

        return [
            (name, np.ascontiguousarray(getattr(self, name), dtype=dtype))
            for name, dtype, _ in _COLUMNS
        ]

    def save(self, path: str | Path) -> Path:
        """Write the artifact atomically; returns the final path.

        The file appears under ``path`` only after a full fsync'd write
        (tmp + ``os.replace``), matching the memo contract:
        a crash mid-save can never leave a torn file under the real
        name, and :meth:`load`'s checksums catch anything else.
        """
        path = Path(path)
        columns = self._column_arrays()
        specs = []
        offset = 0
        for name, array in columns:
            nbytes = int(array.nbytes)
            specs.append(
                {
                    "name": name,
                    "dtype": str(array.dtype),
                    "count": int(array.shape[0]),
                    "offset": offset,  # relative to the data section
                    "nbytes": nbytes,
                    "sha256": _sha256(array.tobytes()),
                }
            )
            offset += -(-nbytes // _ALIGN) * _ALIGN
        header = {
            "schema": SCHEMA,
            "workload": self.workload,
            "line_bytes": self.line_bytes,
            "content_hash": self.content_hash,
            "code_version": self.code_version,
            "num_accesses": self.num_accesses,
            "columns": specs,
            "data_bytes": offset,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode()
        data_start = _data_start(len(header_bytes))
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp.%d" % os.getpid())
        try:
            with open(tmp, "wb") as f:
                f.write(_MAGIC)
                f.write(len(header_bytes).to_bytes(8, "little"))
                f.write(header_bytes)
                f.write(b"\0" * (data_start - len(_MAGIC) - 8 - len(header_bytes)))
                for spec, (_, array) in zip(specs, columns):
                    f.seek(data_start + spec["offset"])
                    f.write(array.tobytes())
                f.truncate(data_start + offset)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        get_recorder().counters.add("sim.artifact.saves", 1)
        self.path = path
        return path

    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        path: str | Path,
        mmap: bool = True,
        verify: bool = True,
        expected_hash: str | None = None,
    ) -> TraceArtifact:
        """Load an artifact, memory-mapping the file by default.

        The file is opened once and mapped read-only (``mmap=False``
        reads it into memory instead); every check runs on that one
        buffer.  Raises :class:`ArtifactError` on any structural damage:
        bad magic, an unparseable, schema-mismatched or mistyped header,
        a file shorter than the header promises (torn write), a column
        whose dtype, count or extent disagrees with the schema and
        header, or — with ``verify`` — a per-column or content checksum
        mismatch.  ``expected_hash`` additionally pins the trace
        identity: a sharded sweep's pool workers open the artifact by
        path *and* content hash, so a file swapped under the path
        between dispatch and open is rejected before any column is read.
        """
        path = Path(path)
        buffer = _read(path, mmap)
        header, data_start = _parse_header(path, buffer)
        if expected_hash is not None and header["content_hash"] != expected_hash:
            raise ArtifactError(
                "%s: artifact content hash %s does not match the "
                "dispatched trace %s"
                % (path, header["content_hash"], expected_hash)
            )
        columns = _column_views(path, header, memoryview(buffer)[data_start:])
        if verify:
            for spec in header["columns"]:
                digest = _sha256(columns[spec["name"]])
                if digest != spec["sha256"]:
                    raise ArtifactError(
                        "%s: column %r checksum mismatch (%s != %s)"
                        % (path, spec["name"], digest, spec["sha256"])
                    )
            recomputed = _content_hash(
                columns["addresses"], columns["is_write"], header["line_bytes"]
            )
            if recomputed != header["content_hash"]:
                raise ArtifactError(
                    "%s: content hash mismatch (%s != %s)"
                    % (path, recomputed, header["content_hash"])
                )
        get_recorder().counters.add("sim.artifact.loads", 1)
        return cls(
            workload=header["workload"],
            line_bytes=header["line_bytes"],
            content_hash=header["content_hash"],
            code_version=header["code_version"],
            path=path,
            **columns,
        )


def _data_start(header_len: int) -> int:
    """Aligned offset of the data section, deterministic in header size."""
    raw = len(_MAGIC) + 8 + header_len
    return -(-raw // _ALIGN) * _ALIGN


def _read(path: Path, use_mmap: bool):
    """The artifact file's bytes: one read-only mapping, or a copy."""
    try:
        with open(path, "rb") as f:
            if use_mmap and os.fstat(f.fileno()).st_size:
                return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            return f.read()
    except OSError as exc:
        raise ArtifactError("%s: unreadable artifact: %s" % (path, exc)) from exc


def _check_fields(path: Path, record, fields: dict, what: str) -> None:
    """Raise :class:`ArtifactError` unless ``record`` has ``fields``' types."""
    if not isinstance(record, dict):
        raise ArtifactError("%s: %s is not a JSON object" % (path, what))
    for key, kind in fields.items():
        if type(record.get(key)) is not kind:
            raise ArtifactError(
                "%s: %s field %r is %r, expected %s"
                % (path, what, key, record.get(key), kind.__name__)
            )


def _parse_header(path: Path, buffer) -> tuple[dict, int]:
    """Parse and structurally validate an artifact's header.

    Returns ``(header, data_start)``.  Raises :class:`ArtifactError`
    on bad magic, a truncated or unparseable header, a schema
    mismatch, a header field of the wrong JSON type, or a file size
    that disagrees with the header's ``data_bytes`` promise (torn
    write).
    """
    magic = bytes(buffer[: len(_MAGIC)])
    if magic != _MAGIC:
        raise ArtifactError("%s: bad magic %r" % (path, magic))
    raw_len = buffer[len(_MAGIC) : len(_MAGIC) + 8]
    if len(raw_len) != 8:
        raise ArtifactError("%s: truncated header length" % path)
    header_len = int.from_bytes(raw_len, "little")
    header_bytes = buffer[len(_MAGIC) + 8 : len(_MAGIC) + 8 + header_len]
    if len(header_bytes) != header_len:
        raise ArtifactError("%s: truncated header" % path)
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise ArtifactError("%s: corrupt header: %s" % (path, exc)) from exc
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != SCHEMA:
        raise ArtifactError("%s: schema %r, expected %r" % (path, schema, SCHEMA))
    _check_fields(path, header, _HEADER_FIELDS, "header")
    data_start = _data_start(header_len)
    expected = data_start + header["data_bytes"]
    if len(buffer) != expected:
        raise ArtifactError(
            "%s: torn artifact: %d bytes on disk, header promises %d"
            % (path, len(buffer), expected)
        )
    return header, data_start


def _column_views(path: Path, header: dict, data: memoryview) -> dict:
    """Each column's bytes within ``data`` (the data section), by name.

    Raises :class:`ArtifactError` unless the columns are the schema's,
    in order and with its dtypes; each one's size is its count times
    the item size and lies inside ``data``; and every column has the
    header's ``num_accesses`` elements.
    """
    specs = header["columns"]
    for spec in specs:
        _check_fields(path, spec, _COLUMN_FIELDS, "column")
    if [spec["name"] for spec in specs] != [name for name, _, _ in _COLUMNS]:
        raise ArtifactError("%s: unexpected column set" % path)
    views = {}
    for spec, (name, dtype, itemsize) in zip(specs, _COLUMNS):
        if spec["dtype"] != dtype:
            raise ArtifactError(
                "%s: column %r dtype %r, schema says %r"
                % (path, name, spec["dtype"], dtype)
            )
        count, offset, nbytes = spec["count"], spec["offset"], spec["nbytes"]
        if count < 0 or count * itemsize != nbytes:
            raise ArtifactError("%s: column %r size mismatch" % (path, name))
        if offset < 0 or offset + nbytes > len(data):
            raise ArtifactError(
                "%s: column %r extends past the data section" % (path, name)
            )
        views[name] = data[offset : offset + nbytes]
    if any(spec["count"] != header["num_accesses"] for spec in specs):
        raise ArtifactError(
            "%s: column count mismatch: num_accesses=%d but %s"
            % (
                path,
                header["num_accesses"],
                ", ".join("%s has %d" % (s["name"], s["count"]) for s in specs),
            )
        )
    return views


def read_artifact_header(path: str | Path) -> dict:
    """The validated JSON header of an artifact, without its columns.

    Cheap (no column read, no checksum verification) — used by
    ``TraceStore.artifacts()`` and the ``trace list`` CLI to describe a
    store without paging in trace data.
    """
    path = Path(path)
    header, _ = _parse_header(path, _read(path, use_mmap=True))
    return header


class TraceStore:
    """An on-disk cache of trace artifacts, keyed by workload + code version.

    ``get_or_build(name, builder)`` returns the stored artifact when a
    valid one exists for this code version (counted as
    ``sim.artifact.hits``) and otherwise runs ``builder`` — the
    instrumented kernel — once, saving the result for every later sweep
    point and process (``sim.artifact.misses`` + ``sim.artifact.saves``).
    Artifacts that fail validation are quarantined to ``*.corrupt``
    (``sim.artifact.corrupt``) and rebuilt; artifacts from an older code
    version are rebuilt in place.  A failed *config* during a sweep
    never touches the store.
    """

    def __init__(self, directory: str | Path | None = None, version: str | None = None):
        from repro.core.memo import code_version_hash, default_cache_dir

        self.directory = (
            Path(directory) if directory is not None else default_cache_dir() / "traces"
        )
        self.version = version if version is not None else code_version_hash()

    def path_for(self, name: str, line_bytes: int = CACHE_LINE_BYTES) -> Path:
        digest = hashlib.sha256(
            ("%s:%d:%s" % (name, line_bytes, self.version)).encode()
        ).hexdigest()[:16]
        safe = "".join(c if (c.isalnum() or c in "-_.") else "_" for c in name)
        return self.directory / ("%s-%s.trace" % (safe, digest))

    def get_or_build(
        self,
        name: str,
        builder,
        line_bytes: int = CACHE_LINE_BYTES,
        mmap: bool = True,
    ) -> TraceArtifact:
        """The artifact for ``name``, building (and saving) on miss.

        Args:
            name: workload identity; part of the on-disk key.
            builder: zero-argument callable returning the workload's
                :class:`MemoryTrace`; invoked only on a miss.
            line_bytes: cache-line size the content hash and the
                derived line runs are taken at.
            mmap: memory-map columns on a hit (loads stay O(1) in trace
                size until replay touches the pages).
        """
        counters = get_recorder().counters
        path = self.path_for(name, line_bytes)
        if path.exists():
            try:
                artifact = TraceArtifact.load(path, mmap=mmap)
            except ArtifactError:
                self._quarantine(path)
                counters.add("sim.artifact.corrupt", 1)
            else:
                if artifact.code_version == self.version:
                    counters.add("sim.artifact.hits", 1)
                    return artifact
                # Stale code version (custom `version=` namespaces can
                # collide across code edits): rebuild in place.
        counters.add("sim.artifact.misses", 1)
        artifact = TraceArtifact.from_trace(
            builder(), workload=name, line_bytes=line_bytes
        )
        artifact.save(path)
        return artifact

    # -- maintenance ---------------------------------------------------
    def artifacts(self) -> list[dict]:
        """Describe every entry in the store directory, newest first.

        Each row carries ``name`` (file stem), ``path``, ``bytes``,
        ``age_days``, and a ``status``: ``current`` (valid, this code
        version), ``stale`` (valid, older code version), or
        ``corrupt`` (fails header validation — as a file of an older
        schema does — or already quarantined).  Valid artifacts also
        report ``workload`` and ``accesses`` from the header.  Headers
        only — no trace columns are read, so listing a store of multi-GB
        artifacts stays cheap.
        """
        if not self.directory.is_dir():
            return []
        rows = []
        now = time.time()
        paths = sorted(self.directory.glob("*.trace")) + sorted(
            self.directory.glob("*.corrupt")
        )
        for path in paths:
            try:
                stat = path.stat()
            except OSError:
                continue
            row = {
                "name": path.name,
                "path": str(path),
                "bytes": int(stat.st_size),
                "age_days": max(0.0, (now - stat.st_mtime) / 86400.0),
            }
            if path.suffix == ".corrupt":
                row["status"] = "corrupt"
            else:
                try:
                    header = read_artifact_header(path)
                except ArtifactError:
                    row["status"] = "corrupt"
                else:
                    row["status"] = (
                        "current"
                        if header.get("code_version") == self.version
                        else "stale"
                    )
                    row["workload"] = header.get("workload", "")
                    row["accesses"] = int(header.get("num_accesses", 0))
            rows.append(row)
        rows.sort(key=lambda r: r["age_days"])
        return rows

    def prune(self, max_age_days: float = 30.0) -> int:
        """Remove aged debris: stale/corrupt artifacts and tmp leftovers.

        Current-code-version artifacts are never pruned regardless of
        age — they are still this build's cache.  Returns the number of
        files removed.
        """
        removed = 0
        for row in self.artifacts():
            if row["status"] == "current" or row["age_days"] < max_age_days:
                continue
            try:
                os.unlink(row["path"])
                removed += 1
            except OSError:
                pass
        if self.directory.is_dir():
            now = time.time()
            for path in self.directory.glob("*.tmp.*"):
                try:
                    if (now - path.stat().st_mtime) / 86400.0 >= max_age_days:
                        path.unlink()
                        removed += 1
                except OSError:
                    pass
        return removed

    def clear(self) -> int:
        """Remove every artifact, quarantine file, and tmp leftover."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for pattern in ("*.trace", "*.corrupt", "*.tmp.*"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a bad artifact aside so it is inspectable, never reread."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass
