"""Unit tests for the content-keyed memo cache."""

import hashlib
import json
import os
import time

from repro.core.memo import MemoCache, code_version_hash
from repro.obs.recorder import recording


class TestMemoCache:
    def test_miss_returns_default(self, tmp_path):
        cache = MemoCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.get("nope", default=42) == 42

    def test_roundtrip(self, tmp_path):
        cache = MemoCache(tmp_path)
        value = {"rows": [{"a": 1, "b": 0.5}], "anchors": {"x": [1.0, 1.1]}}
        cache.put("fig", value)
        assert cache.get("fig") == value

    def test_config_partitions_entries(self, tmp_path):
        cache = MemoCache(tmp_path)
        cache.put("fig", 1, config={"qstep": 8})
        cache.put("fig", 2, config={"qstep": 16})
        assert cache.get("fig", config={"qstep": 8}) == 1
        assert cache.get("fig", config={"qstep": 16}) == 2
        assert cache.get("fig") is None

    def test_version_change_invalidates(self, tmp_path):
        old = MemoCache(tmp_path, version="v1")
        old.put("fig", "stale")
        new = MemoCache(tmp_path, version="v2")
        assert new.get("fig") is None
        assert old.get("fig") == "stale"

    def test_default_version_is_code_hash(self, tmp_path):
        assert MemoCache(tmp_path).version == code_version_hash()
        assert len(code_version_hash()) == 16

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = MemoCache(tmp_path)
        path = cache.put("fig", {"ok": True})
        path.write_text("{not json")
        assert cache.get("fig") is None

    def test_clear(self, tmp_path):
        cache = MemoCache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert cache.get("a") is None

    def test_numpy_scalars_serialize(self, tmp_path):
        import numpy as np

        cache = MemoCache(tmp_path)
        cache.put("np", {"x": np.float64(1.5), "n": np.int64(3)})
        assert cache.get("np") == {"x": 1.5, "n": 3}


def write_presegment_document(cache, name, value, config=None):
    """A valid one-file-per-entry document, as pre-segment put() wrote it.

    Current code never writes or reads this layout, so such a file is
    debris: a miss on lookup, deleted by clear(), aged out by prune().
    """
    path = cache.directory / ("%s.json" % cache.key(name, config))
    value_json = json.dumps(value, sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "name": name,
        "version": cache.version,
        "value": value,
        "checksum": hashlib.sha256(value_json.encode()).hexdigest()[:16],
    }))
    return path


class TestMixedLayoutMaintenance:
    """clear()/prune() over a directory holding segment blobs of two
    versions, pre-segment documents, and crash debris."""

    def _mixed_dir(self, tmp_path):
        cache = MemoCache(tmp_path, version="v1")
        document = write_presegment_document(cache, "old-fig", {"old": True})
        cache.put("seg-fig", {"segment": 1})
        cache.put("seg-fig2", {"segment": 2})
        cache.close()
        other = MemoCache(tmp_path, version="v1")
        other.put("seg-fig3", {"segment": 3})
        other.close()
        foreign = MemoCache(tmp_path, version="v0")
        foreign_document = write_presegment_document(foreign, "bygone", {"x": 0})
        foreign_blob = foreign.put("bygone-seg", {"x": 0})
        foreign.close()
        debris = [tmp_path / "dead.tmp.12345", tmp_path / "old.corrupt"]
        for path in debris:
            path.write_text("{")
        return cache, document, foreign_document, foreign_blob, debris

    def test_presegment_document_is_a_miss(self, tmp_path):
        cache = MemoCache(tmp_path, version="v1")
        path = write_presegment_document(
            cache, "old-fig", {"old": True}, config={"q": 8}
        )
        with recording() as rec:
            assert cache.get("old-fig", config={"q": 8}) is None
        counters = rec.counters.as_dict()
        assert counters["core.memo.misses"] == 1
        assert "core.memo.hits" not in counters
        assert "core.memo.corrupt" not in counters
        assert path.exists()  # never read, so never quarantined

    def test_clear_counts_entries_and_debris_across_layouts(self, tmp_path):
        cache, _, _, _, _ = self._mixed_dir(tmp_path)
        # 3 v1 segment entries + 1 foreign blob (opaque: counts as one
        # file) + 2 pre-segment documents + 2 debris files.
        assert cache.clear() == 8
        assert list(tmp_path.iterdir()) == []
        assert cache.get("seg-fig") is None

    def test_prune_spares_current_layouts_whatever_their_age(self, tmp_path):
        cache, document, foreign_document, foreign_blob, debris = (
            self._mixed_dir(tmp_path)
        )
        assert cache.prune(max_age_days=30) == 0  # nothing aged yet
        ancient = time.time() - 90 * 86400
        for path in tmp_path.iterdir():
            os.utime(path, (ancient, ancient))
        removed = cache.prune(max_age_days=30)
        assert removed == 5  # 2 documents + foreign blob + 2 debris
        assert not document.exists() and not foreign_document.exists()
        assert not foreign_blob.exists()
        assert not any(path.exists() for path in debris)
        assert cache.get("seg-fig") == {"segment": 1}
        assert cache.get("seg-fig3") == {"segment": 3}

    def test_prune_sets_a_blob_with_a_damaged_line_aside(self, tmp_path):
        cache = MemoCache(tmp_path, version="v1")
        blob = cache.put("a", {"x": 1})
        cache.put("b", {"x": 2})
        cache.close()
        blob.write_bytes(blob.read_bytes().replace(b'{"x": 1}', b'{"x": 7}'))

        def fresh_run():
            """A new process's get-or-put of "a": (hit?, corrupt count)."""
            with recording() as rec:
                run = MemoCache(tmp_path, version="v1")
                hit = run.get("a") is not None
                if not hit:
                    run.put("a", {"x": 1})
                run.close()
            return hit, rec.counters.get("core.memo.corrupt")

        # Recomputing "a" into a new blob leaves the damaged line behind,
        # so every run counts it again.
        assert fresh_run() == (False, 1)
        assert fresh_run() == (True, 1)
        # Complete lines are never writes in flight, so prune sets the
        # blob aside however young it is; the newer blob stays.
        assert cache.prune(max_age_days=30) == 1
        assert not blob.exists() and blob.with_suffix(".corrupt").exists()
        assert fresh_run() == (True, 0)
        with recording() as rec:
            run = MemoCache(tmp_path, version="v1")
            assert run.get("b") is None  # the blob's intact entry: a miss
            run.put("b", {"x": 2})
            assert MemoCache(tmp_path, version="v1").get("b") == {"x": 2}
        assert rec.counters.get("core.memo.corrupt") == 0
        assert cache.prune(max_age_days=30) == 0
