"""Unit + acceptance tests for the reproduction scorecard.

``scorecard_pin.json`` pins *which* anchors hit, not just how many: a
change that flips one anchor from hit to miss and another from miss to
hit keeps the pass count but fails ``TestScorecardPin`` by name.  After
an intentional model change, regenerate the pin with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/analysis/test_scorecard.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis.base import FigureResult
from repro.analysis.scorecard import AnchorScore, full_scorecard, score_figures


def figure(anchors):
    return FigureResult("Figure T", "test", rows=[{"x": 1}], anchors=anchors)


class TestScoring:
    def test_fraction_tolerance_absolute(self):
        card = score_figures([figure({"a": (0.5, 0.58), "b": (0.5, 0.65)})])
        assert card.passed == 1
        assert card.failures()[0].anchor == "b"

    def test_magnitude_tolerance_relative(self):
        card = score_figures([figure({"a": (100.0, 130.0), "b": (100.0, 150.0)})])
        assert card.passed == 1

    def test_deviation_metric(self):
        s = AnchorScore("f", "a", paper=0.5, measured=0.6, within=True)
        assert s.deviation == pytest.approx(0.1)
        s = AnchorScore("f", "a", paper=200.0, measured=100.0, within=False)
        assert s.deviation == pytest.approx(0.5)

    def test_empty(self):
        card = score_figures([])
        assert card.total == 0
        assert card.pass_rate == 0.0

    def test_render(self):
        card = score_figures([figure({"a": (0.5, 0.9)})])
        text = card.render_text()
        assert "0/1" in text
        assert "MISS" in text

    def test_worst_sorted(self):
        card = score_figures(
            [figure({"a": (0.5, 0.52), "b": (0.5, 0.8), "c": (0.5, 0.6)})]
        )
        worst = card.worst(2)
        assert worst[0].anchor == "b"


PIN_PATH = Path(__file__).parent / "scorecard_pin.json"


@pytest.fixture(scope="module")
def card():
    """One full regeneration shared by every test in this module."""
    return full_scorecard()


def pin_rows(card) -> list:
    return [
        {"figure_id": s.figure_id, "anchor": s.anchor, "within": s.within}
        for s in card.scores
    ]


def pin_drift(pinned: list, got: list) -> list:
    """One line per anchor that flipped, appeared or vanished."""
    want = {(r["figure_id"], r["anchor"]): r["within"] for r in pinned}
    have = {(r["figure_id"], r["anchor"]): r["within"] for r in got}
    verdict = {True: "hit", False: "MISS"}
    drift = []
    for key in sorted(want.keys() | have.keys()):
        label = "%s / %s" % key
        if key not in have:
            drift.append("vanished: %s (was %s)" % (label, verdict[want[key]]))
        elif key not in want:
            drift.append("appeared: %s (%s)" % (label, verdict[have[key]]))
        elif want[key] != have[key]:
            drift.append(
                "flipped: %s %s -> %s"
                % (label, verdict[want[key]], verdict[have[key]])
            )
    return drift


class TestFullScorecard:
    def test_reproduction_quality_bar(self, card):
        """The acceptance criterion for the whole repository: at least
        85% of the paper's anchor values reproduce within tolerance."""
        assert card.total >= 50
        assert card.pass_rate >= 0.85, card.render_text()


class TestScorecardPin:
    def test_every_anchor_matches_the_pin(self, card):
        got = pin_rows(card)
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            PIN_PATH.write_text(json.dumps(got, indent=1) + "\n")
        pinned = json.loads(PIN_PATH.read_text())
        drift = pin_drift(pinned, got)
        assert not drift, (
            "scorecard drifted from tests/analysis/scorecard_pin.json:\n  "
            + "\n  ".join(drift)
        )
        assert len(got) == len(pinned)  # no anchor scored twice

    def test_drift_names_each_anchor(self):
        pinned = [
            {"figure_id": "F", "anchor": "a", "within": True},
            {"figure_id": "F", "anchor": "b", "within": False},
            {"figure_id": "F", "anchor": "c", "within": True},
        ]
        got = [
            {"figure_id": "F", "anchor": "a", "within": False},
            {"figure_id": "F", "anchor": "b", "within": False},
            {"figure_id": "G", "anchor": "d", "within": True},
        ]
        assert pin_drift(pinned, got) == [
            "flipped: F / a hit -> MISS",
            "vanished: F / c (was hit)",
            "appeared: G / d (hit)",
        ]
        assert pin_drift(pinned, pinned) == []
