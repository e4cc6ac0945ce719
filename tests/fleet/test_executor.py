"""The pool contract ResilientMap relies on, pinned on the pool it builds.

A pooled map runs the initializer in each worker, returns values in
input order, re-raises a worker's exception with its original type, and
turns a worker death into ``BrokenProcessPool`` without waiting out the
work still in flight.  The "fleet" in the names is the set of pool
workers a map fans out to.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.resilience import ResilientMap

_TOKEN = None


def _prime(token):
    global _TOKEN
    _TOKEN = token


def _token(_):
    return _TOKEN


def _triple(x):
    return 3 * x


def _lose(key):
    if key == "lost":
        raise KeyError(key)
    return key


def _die(_):
    os.kill(os.getpid(), signal.SIGKILL)


def _die_or_nap(item):
    if item == "die":
        _die(item)
    time.sleep(item)
    return "rested"


class TestFutures:
    def test_submit_resolves_result(self):
        values = ResilientMap(
            _token, [None, None], jobs=2, initializer=_prime, initargs=("primed",)
        ).run()
        # The initializer ran in each worker before its first task.
        assert values == ["primed", "primed"]

    def test_remote_exception_is_original_type(self):
        with pytest.raises(KeyError, match="lost"):
            ResilientMap(_lose, ["kept", "lost"], jobs=2).run()

    def test_dead_fleet_raises_no_workers_into_future(self):
        with pytest.raises(BrokenProcessPool):
            ResilientMap(_die, [1, 2, 3], jobs=2).run()

    def test_kill_aborts_inflight_poll_threads(self):
        """A worker killed while its sibling naps for 30 s fails the map
        within seconds, and no pool worker outlives it."""
        before = set(multiprocessing.active_children())
        start = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            ResilientMap(_die_or_nap, ["die", 30.0], jobs=2).run()
        assert time.monotonic() - start < 10.0  # nowhere near the 30s nap
        assert set(multiprocessing.active_children()) <= before


class TestResilientMapIntegration:
    def test_map_over_fleet_matches_local(self):
        items = [1, 2, 3, 4, 5]
        serial = ResilientMap(_triple, items, jobs=1).run()
        pooled = ResilientMap(_triple, items, jobs=2).run()
        assert pooled == serial == [3, 6, 9, 12, 15]
