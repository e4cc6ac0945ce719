"""Format pin for the memo cache's segment blobs.

``golden_segment.seg`` was written by :class:`SegmentStore` appending
:func:`written_entries` one at a time under :data:`KEY`.  The store must
keep reading exactly those entries (so blobs already on disk still hit)
and keep writing those bytes for the same appends (so the bytes a cold
run writes, and perfbench's ``core.store.bytes_written``, cannot move).
Do not regenerate the fixture: a diff here is a format change.
"""

import json
import shutil
from pathlib import Path

from repro.core.store import SegmentStore
from repro.obs.recorder import recording

GOLDEN = Path(__file__).with_name("golden_segment.seg")
KEY = "0123456789abcdef"
PREFIX = "memo"


def written_entries():
    """The appends that produced the fixture, in order."""
    import numpy as np

    return [
        (
            "figure",
            {
                "rows": [{"zeta": 1, "alpha": 0.5, "label": "Docs"}],
                "anchors": {"b": [1.0, 1.1], "a": [2.0, 2.25]},
                "notes": None,
            },
        ),
        # NumPy scalars go through ``to_builtin``.
        ("numpy", {"f": np.float64(0.1), "i": np.int64(-3), "b": np.bool_(True)}),
        ("text", 'Größe – π "quoted"\n'),
        ("5f0c9d2e7a1b3c4d5e6f708192a3b4c5", [1, 2.5, "x", False]),
    ]


#: What a reader returns for each name; dict key order is part of it.
EXPECTED = {
    "figure": {
        "rows": [{"zeta": 1, "alpha": 0.5, "label": "Docs"}],
        "anchors": {"b": [1.0, 1.1], "a": [2.0, 2.25]},
        "notes": None,
    },
    "numpy": {"f": 0.1, "i": -3, "b": True},
    "text": 'Größe – π "quoted"\n',
    "5f0c9d2e7a1b3c4d5e6f708192a3b4c5": [1, 2.5, "x", False],
}


class TestSegmentFormatPin:
    def test_golden_blob_reads_exactly_its_entries(self, tmp_path):
        shutil.copy(GOLDEN, tmp_path / ("%s-00000000-1.seg" % PREFIX))
        store = SegmentStore(tmp_path, key=KEY, prefix=PREFIX)
        with recording() as rec:
            for name, value in EXPECTED.items():
                got = store.get(name, "MISS")
                # json.dumps without sort_keys pins key order as well.
                assert json.dumps(got) == json.dumps(value), name
            assert store.get("absent", "MISS") == "MISS"
        assert rec.counters.get("core.store.corrupt") == 0
        assert rec.counters.get("core.store.torn") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "%s-00000000-1.seg" % PREFIX
        ]

    def test_same_appends_write_identical_bytes(self, tmp_path):
        store = SegmentStore(tmp_path, key=KEY, prefix=PREFIX)
        with recording() as rec:
            for name, value in written_entries():
                store.append(name, value)
            store.close()
        (blob,) = tmp_path.glob("%s-*.seg" % PREFIX)
        assert blob.read_bytes() == GOLDEN.read_bytes()
        assert rec.counters.get("core.store.flushes") == len(EXPECTED)
        assert rec.counters.get("core.store.entries") == len(EXPECTED)
