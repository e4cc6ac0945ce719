"""Machine-readable export of every regenerated experiment.

``python -m repro.analysis.export [DIR]`` writes one JSON file per
figure/table (rows + anchors + notes) plus an ``index.json`` manifest,
so downstream plotting (matplotlib, vega, spreadsheets) never needs to
re-run the models.
"""

from __future__ import annotations

import json
import os
import sys

from repro.analysis.base import FigureResult
from repro.analysis.report import EXPERIMENTS
from repro.core.workload import run_scope


def figure_to_dict(result: FigureResult) -> dict:
    return {
        "figure_id": result.figure_id,
        "title": result.title,
        "rows": result.rows,
        "anchors": {
            name: {"paper": paper, "measured": measured}
            for name, (paper, measured) in result.anchors.items()
        },
        "notes": result.notes,
    }


def _slug(figure_id: str) -> str:
    return figure_id.lower().replace(" ", "_")


def export_all(directory: str = "figures_data") -> list[str]:
    """Regenerate every experiment, in one run scope, and write JSON files.

    Returns the written paths (index last).
    """
    os.makedirs(directory, exist_ok=True)
    with run_scope():
        results = [fn() for fn in EXPERIMENTS]
    written = []
    index = []
    for result in results:
        payload = figure_to_dict(result)
        path = os.path.join(directory, _slug(result.figure_id) + ".json")
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, default=float)
        written.append(path)
        index.append(
            {
                "figure_id": result.figure_id,
                "title": result.title,
                "file": os.path.basename(path),
                "num_rows": len(result.rows),
                "num_anchors": len(result.anchors),
            }
        )
    index_path = os.path.join(directory, "index.json")
    with open(index_path, "w") as f:
        json.dump(index, f, indent=2)
    written.append(index_path)
    return written


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    directory = argv[0] if argv else "figures_data"
    written = export_all(directory)
    print("wrote %d files to %s" % (len(written), directory))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
