"""The future contract ResilientMap relies on, pinned on the pool it builds.

ResilientMap's crash containment, hang teardown and ``raise_failures``
re-raise all lean on how pool futures behave: a submission resolves to
its value, a worker's exception arrives with its original type, a dead
worker fails its in-flight future instead of hanging it, and
:meth:`~repro.core.resilience.ResilientMap._kill_pool` aborts in-flight
work.  The "fleet" in the names is the set of pool workers a map fans
out to.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.resilience import ResilientMap, RetryPolicy
from repro.validate import strict_mode

FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.01, jitter=0.0)

_TOKEN = None


def _prime(token):
    global _TOKEN
    _TOKEN = token


def _token(_):
    return _TOKEN


def _triple(x):
    return 3 * x


def _slow_triple(x):
    time.sleep(0.05)
    return 3 * x


def _lose(key):
    if key == "lost":
        raise KeyError(key)
    return key


def _nap(seconds):
    time.sleep(seconds)
    return "rested"


def _die(_):
    os.kill(os.getpid(), signal.SIGKILL)


def new_pool(fn=_triple, **kwargs):
    """The pool ResilientMap itself would build for ``fn``."""
    return ResilientMap(fn, [], **kwargs)._new_pool()


class _CountingPool:
    """Pool proxy recording the peak number of unfinished submissions."""

    def __init__(self, pool):
        self._pool = pool
        self._submitted = []
        self.peak = 0

    def submit(self, fn, *args):
        busy = 1 + sum(not future.done() for future in self._submitted)
        self.peak = max(self.peak, busy)
        future = self._pool.submit(fn, *args)
        self._submitted.append(future)
        return future

    def shutdown(self, *args, **kwargs):
        return self._pool.shutdown(*args, **kwargs)


class TestFutures:
    def test_submit_resolves_result(self):
        pool = new_pool(initializer=_prime, initargs=("primed",))
        try:
            assert pool.submit(_triple, 14).result(timeout=10) == 42
            # The initializer ran in the worker before its first task.
            assert pool.submit(_token, None).result(timeout=10) == "primed"
        finally:
            pool.shutdown()

    def test_remote_exception_is_original_type(self):
        with pytest.raises(KeyError, match="lost"):
            ResilientMap(
                _lose, ["kept", "lost"], policy=FAST, jobs=2,
                raise_failures=True,
            ).run()

    def test_dead_fleet_raises_no_workers_into_future(self):
        resilient = ResilientMap(_die, [])
        pool = resilient._new_pool()
        try:
            future = pool.submit(_die, None)
            with pytest.raises(BrokenProcessPool):
                future.result(timeout=10)
            # A broken pool refuses new work rather than queueing it.
            with pytest.raises(BrokenProcessPool):
                pool.submit(_triple, 1)
        finally:
            resilient._kill_pool(pool)

    def test_kill_aborts_inflight_poll_threads(self):
        resilient = ResilientMap(_nap, [])
        pool = resilient._new_pool()
        future = pool.submit(_nap, 30.0)
        deadline = time.monotonic() + 10.0
        while not future.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        processes = list(pool._processes.values())
        assert processes
        start = time.monotonic()
        resilient._kill_pool(pool)
        with pytest.raises(BrokenProcessPool):
            future.result(timeout=10)
        assert time.monotonic() - start < 10.0  # nowhere near the 30s nap
        assert not any(process.is_alive() for process in processes)
        pool.shutdown(wait=True)

    def test_one_slot_serializes_submissions(self, monkeypatch):
        pools = []
        build = ResilientMap._new_pool

        def counting_pool(self):
            pools.append(_CountingPool(build(self)))
            return pools[-1]

        monkeypatch.setattr(ResilientMap, "_new_pool", counting_pool)
        values, failures = ResilientMap(
            _slow_triple, list(range(6)), policy=FAST, jobs=2
        ).run()
        assert values == [0, 3, 6, 9, 12, 15]
        assert failures == []
        # One slot per worker: never more unfinished submissions than
        # workers, so a future's submission time is its start time.
        (pool,) = pools
        assert pool.peak == 2


class TestResilientMapIntegration:
    def test_map_over_fleet_matches_local(self):
        items = [1, 2, 3, 4, 5]
        serial = ResilientMap(_triple, items, policy=FAST, jobs=1).run()
        pooled = ResilientMap(_triple, items, policy=FAST, jobs=2).run()
        assert pooled == serial == ([3, 6, 9, 12, 15], [])

    def test_dead_fleet_quarantines_instead_of_hanging(self):
        start = time.monotonic()
        with strict_mode(False):
            values, failures = ResilientMap(
                _die, [1, 2, 3], names=["a", "b", "c"], policy=FAST, jobs=2,
            ).run()
        assert time.monotonic() - start < 60.0
        assert values == [None, None, None]
        assert {f.target for f in failures} == {"a", "b", "c"}
        assert all(f.attempts == FAST.max_attempts for f in failures)
        assert all("BrokenProcessPool" in f.error for f in failures)
