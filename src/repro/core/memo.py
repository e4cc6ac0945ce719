"""Content-keyed on-disk memoization for regenerated experiments.

Regenerating a paper figure is deterministic: the rows depend only on the
model code and the (default) configuration.  ``MemoCache`` therefore keys
each entry on a SHA-256 of (entry name, JSON-encoded config, code-version
hash), where the code-version hash digests every ``*.py`` file of the
installed ``repro`` package.  Any source edit — anywhere in the package —
invalidates the whole cache, so a hit is always safe to reuse; a repeated
``python -m repro figures`` run with an unchanged tree skips all model
work and loads rows from disk.

The cache directory defaults to ``.repro_cache/`` next to
``pyproject.toml`` when running from a source checkout (override with the
``REPRO_CACHE_DIR`` environment variable; falls back to
``~/.cache/repro`` for installed packages).  Entries live in append-only
segment blobs (:mod:`repro.core.store`): each writing process claims its
own ``memo-*.seg`` blob, and each :meth:`MemoCache.put` appends one
checksummed line to it.  A corrupted entry (checksum mismatch) is
counted as ``core.memo.corrupt`` and never returned, and a write cut
short by a crash loses only its own line.  A pre-segment ``<key>.json``
document (one file per entry) left in the directory is debris: its key
embeds an older code version, so no lookup can reach it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from pathlib import Path

from repro.core.store import SegmentReader, SegmentStore, peek_key
from repro.obs.recorder import get_recorder


def package_root() -> Path:
    """Directory of the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent


@functools.lru_cache(maxsize=1)
def code_version_hash() -> str:
    """Digest of every source file in the ``repro`` package."""
    digest = hashlib.sha256()
    root = package_root()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    # src/repro -> src -> repo root, when running from a checkout.
    checkout = package_root().parent.parent
    if (checkout / "pyproject.toml").exists():
        return checkout / ".repro_cache"
    return Path.home() / ".cache" / "repro"


_MISS = object()

#: Files the cache owns but never reads: quarantined ``*.corrupt``
#: entries, ``*.tmp.*`` files of writers that died mid-write, and
#: pre-segment ``<key>.json`` documents.
_DEBRIS = ("*.json", "*.corrupt", "*.tmp.*")


def memo_key(name: str, config, version: str) -> str:
    """The content address of a (name, config) entry at ``version``."""
    payload = json.dumps([name, config, version], sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


class MemoCache:
    """A content-addressed store of JSON-serializable results.

    Args:
        directory: where entries live; created on first :meth:`put`.
        version: cache namespace; defaults to :func:`code_version_hash`
            so edits to the model code invalidate prior entries.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        version: str | None = None,
    ):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.version = version if version is not None else code_version_hash()
        self._store = SegmentStore(
            self.directory, key=self.version, prefix="memo", count=self._count
        )

    def _count(self, event: str, n: float = 1) -> None:
        counters = get_recorder().counters
        counters.add("core.store." + event, n)
        if event == "corrupt":
            counters.add("core.memo.corrupt", n)

    def key(self, name: str, config=None) -> str:
        return memo_key(name, config, self.version)

    def get(self, name: str, config=None, default=None):
        """The cached value for (name, config) at this code version.

        A corrupted entry (checksum mismatch) is never returned as a
        value: it is counted as ``core.memo.corrupt`` and made
        permanently invisible, so a torn write from a dead worker cannot
        poison later runs.  Every lookup that returns ``default`` counts
        ``core.memo.misses``.
        """
        counters = get_recorder().counters
        value = self._store.get(self.key(name, config), _MISS)
        if value is _MISS:
            counters.add("core.memo.misses", 1)
            return default
        counters.add("core.memo.hits", 1)
        return value

    def put(self, name: str, value, config=None) -> Path:
        """Store a JSON-serializable value; returns the segment path.

        The entry is appended to this process's own segment blob as one
        line under a per-entry BLAKE2 checksum, in a single write.
        """
        get_recorder().counters.add("core.memo.puts", 1)
        return self._store.append(self.key(name, config), value)

    def close(self) -> None:
        """Release the segment blob."""
        self._store.close()

    def clear(self) -> int:
        """Delete all entries; returns how many entries (plus debris
        files) were removed.

        Sweeps everything the cache can own: segment blobs (counted by
        the committed entries inside them) and every debris file.
        """
        removed = 0
        self._store.close()
        if self.directory.is_dir():
            for path in self.directory.glob("*.seg"):
                removed += self._segment_weight(path)
                try:
                    path.unlink()
                except OSError:
                    removed -= 1
            for pattern in _DEBRIS:
                for path in self.directory.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def _segment_weight(self, path: Path) -> int:
        """How many removals deleting ``path`` counts for.

        A current-version blob counts its committed entries (so clearing
        N entries reports N whether they lived in one blob or N files);
        a foreign or unreadable blob counts as one opaque file.
        """
        reader = SegmentReader(path, self.version, count=lambda *a: None)
        reader.refresh()
        return max(len(reader.entries), 1)

    def prune(self, max_age_days: float = 30.0) -> int:
        """Remove files from old code versions and aged debris, and set
        damaged blobs aside.

        A segment blob keyed by a different version is unreachable (the
        key embeds the version) and only wastes disk; it is deleted once
        older than ``max_age_days``, as is every debris file past the
        cutoff.  A current-version blob is kept whatever its age, unless
        one of its complete lines fails its checksum: by the store's
        commit rule a complete line is never a write still in flight,
        so the line is damaged, and every later run would count it as
        ``core.memo.corrupt`` again.  Such a blob is renamed to
        ``*.corrupt`` whatever its age (a later prune deletes it as
        debris once it is aged); its intact entries are recomputed on
        their next miss.  Returns how many files were removed or set
        aside.
        """
        if not self.directory.is_dir():
            return 0
        self._store.close()  # a blob set aside must serve and take no more entries
        cutoff = time.time() - max_age_days * 86400.0
        removed = self._unlink_aged(_DEBRIS, cutoff)
        for path in self.directory.glob("*.seg"):
            try:
                if peek_key(path) == self.version:
                    if self._damaged(path):
                        os.replace(path, path.with_suffix(".corrupt"))
                        removed += 1
                elif path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def _damaged(self, path: Path) -> bool:
        """Whether reading the blob at ``path`` counts a torn or corrupt line."""
        events = []
        reader = SegmentReader(
            path, self.version, count=lambda event, n=1: events.append(event)
        )
        reader.refresh()
        return bool(events)

    def _unlink_aged(self, patterns, cutoff: float) -> int:
        """Delete files matching ``patterns`` last modified before ``cutoff``."""
        removed = 0
        for pattern in patterns:
            for path in self.directory.glob(pattern):
                try:
                    if path.stat().st_mtime < cutoff:
                        path.unlink()
                        removed += 1
                except OSError:
                    pass
        return removed
