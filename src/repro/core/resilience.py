"""The process-pool map under the sweeps that fan out.

:class:`ResilientMap` maps a function over items and returns one value
per item, in input order: in-process when ``jobs`` is 1 (or there is
at most one item), otherwise through one ``ProcessPoolExecutor.map``.
Nothing is retried or set aside.  The first exception cancels the work
that has not started and re-raises the worker's own exception; a worker
that dies (for example, by SIGKILL) surfaces as ``BrokenProcessPool``.
A reproduction fails loudly rather than averaging over survivors.
"""

from __future__ import annotations


class ResilientMap:
    """Map ``fn`` over ``items``, in-process or on a process pool.

    Args:
        fn: the task; must be module-level picklable when ``jobs > 1``.
        items: task inputs, one per item.
        jobs: worker processes; ``1`` runs in-process.
        initializer/initargs: forwarded to the pool.
    """

    def __init__(self, fn, items, jobs: int = 1, initializer=None, initargs=()):
        self.fn = fn
        self.items = list(items)
        self.jobs = max(int(jobs), 1)
        self.initializer = initializer
        self.initargs = initargs

    def run(self) -> list:
        """``fn(item)`` for every item, in input order."""
        if self.jobs == 1 or len(self.items) < 2:
            return [self.fn(item) for item in self.items]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(self.items)),
            initializer=self.initializer,
            initargs=self.initargs,
        ) as pool:
            return list(pool.map(self.fn, self.items))
