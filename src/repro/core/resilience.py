"""Fault-tolerant sweep execution: retries, timeouts, quarantine, resume.

Real benchmarking campaigns treat partial failure as the common case: a
crashed worker, a hung target, or a truncated results file must cost one
retry — never the sweep.  This module is the resilience layer under
:class:`repro.core.runner.ExperimentRunner` (and the figure harness in
:mod:`repro.analysis.report`):

* :class:`RetryPolicy` — per-target retry budget with exponential
  backoff and *deterministic* seeded jitter (two runs with the same
  policy retry at the same offsets), plus an optional per-target
  timeout that detects hung pool workers;
* :class:`ResilientMap` — the replacement for bare ``pool.map``: one
  future per item, crash containment (a ``BrokenProcessPool`` respawns
  the pool and costs the in-flight items one retry), hang detection
  (timed-out workers are killed and the pool respawned without losing
  completed items), and quarantine of items that exhaust their retries;
* :class:`TargetFailure` — the audit record of one quarantined item;
* :class:`SweepCheckpoint` — an append-only, fsync'd journal of
  completed results keyed by config+code-version hash (like
  :class:`repro.core.memo.MemoCache`), stored as one
  :mod:`repro.core.store` segment blob, so an interrupted sweep resumed
  with ``--resume`` reproduces the uninterrupted result bit-for-bit;
* :func:`maybe_inject_fault` — the chaos hook the fault-injection test
  harness (and CI's chaos smoke step) uses to crash/hang/fail specific
  targets on schedule via the ``REPRO_FAULT_PLAN`` environment variable.

Everything publishes through the observability registry under
``core.resilience.*`` (retries, timeouts, quarantined, checkpoint
writes, resumed entries), so a run manifest records the sweep's fault
history.  When no policy is supplied and no checkpoint is in play, none
of these counters are published — a fault-free legacy run stays
byte-identical (the golden-manifest test pins this).

Strict mode (:mod:`repro.validate`) upgrades quarantine to a raise: a
target that exhausts its retries under ``REPRO_STRICT=1`` aborts the
sweep with :class:`~repro.validate.errors.InvariantError` instead of
degrading the result.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.obs.recorder import get_recorder
from repro.validate import InvariantError, resolve_strict
from repro.validate.fields import (
    require_at_least,
    require_non_negative,
    require_positive_int,
)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """How a sweep responds to per-target faults.

    Attributes:
        max_attempts: total tries per target (1 = no retries).
        backoff_base_s: delay before the first retry.
        backoff_factor: multiplier applied per subsequent retry.
        jitter: extra fractional delay in ``[0, jitter]``, derived
            *deterministically* from (seed, target name, attempt) so two
            runs of the same sweep back off identically.
        seed: jitter seed.
        timeout_s: per-target wall-clock budget; a pool worker that
            exceeds it is declared hung, killed, and the target retried.
            ``None`` disables hang detection.  Only enforced on the
            parallel path (a hung in-process call cannot be preempted).
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    timeout_s: float | None = None

    def __post_init__(self):
        owner = type(self).__name__
        require_positive_int(owner, "max_attempts", self.max_attempts)
        require_non_negative(owner, "backoff_base_s", self.backoff_base_s)
        require_at_least(owner, "backoff_factor", self.backoff_factor, 1.0, "one")
        require_non_negative(owner, "jitter", self.jitter)
        if self.timeout_s is not None:
            require_at_least(owner, "timeout_s", self.timeout_s, 1e-3, "1ms")

    def delay_s(self, name: str, attempt: int) -> float:
        """Backoff before retrying ``name`` after its ``attempt``-th failure.

        Deterministic: the jitter fraction is a hash of
        (seed, name, attempt), not a PRNG draw, so resumed or repeated
        sweeps schedule identical retries.
        """
        base = self.backoff_base_s * self.backoff_factor ** max(attempt - 1, 0)
        digest = hashlib.sha256(
            ("%d:%s:%d" % (self.seed, name, attempt)).encode()
        ).digest()
        fraction = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
        return base * (1.0 + self.jitter * fraction)


@dataclass(frozen=True)
class TargetFailure:
    """Audit record of one quarantined sweep item."""

    target: str
    attempts: int
    error: str
    elapsed_s: float


# ----------------------------------------------------------------------
# The resilient map: per-item futures with retry/timeout/quarantine
# ----------------------------------------------------------------------

class _ItemState:
    """Book-keeping for one in-flight sweep item."""

    __slots__ = ("index", "name", "item", "attempts", "submitted_s", "first_s")

    def __init__(self, index: int, name: str, item):
        self.index = index
        self.name = name
        self.item = item
        self.attempts = 0
        self.submitted_s = 0.0
        self.first_s = time.monotonic()


class ResilientMap:
    """Map ``fn`` over ``items`` with per-item fault containment.

    Serial (``jobs=1``) runs call ``fn`` in-process with retries;
    parallel runs submit one future per item to a
    ``ProcessPoolExecutor`` and survive worker crashes (pool respawn,
    one retry charged to every in-flight item — a crash cannot be
    attributed) and hangs (``policy.timeout_s`` exceeded: the pool's
    workers are terminated, the pool respawned, and only the hung item
    charged a retry; innocent in-flight items are resubmitted for free).

    Args:
        fn: the task; must be module-level picklable when ``jobs > 1``.
        items: task inputs, one per item.
        names: labels for counters/failures (defaults to ``str(item)``).
        policy: retry policy; ``None`` means one attempt.
        jobs: worker processes; ``1`` runs in-process.
        initializer/initargs: forwarded to the pool.
        on_success: ``fn(index, name, value)`` called once per completed
            item, in completion order (checkpoint writes hook in here).
        raise_failures: when True (the legacy contract), an exhausted
            item re-raises its original exception instead of being
            quarantined.  Strict mode forces a raise either way.

    :meth:`run` returns ``(values, failures)``: ``values`` holds one
    result per item in input order (``None`` for quarantined items), and
    ``failures`` one :class:`TargetFailure` per quarantined item.
    """

    #: Upper bound on one scheduler wait; keeps hang detection responsive.
    _TICK_S = 0.25

    def __init__(
        self,
        fn,
        items,
        names=None,
        policy: RetryPolicy | None = None,
        jobs: int = 1,
        initializer=None,
        initargs=(),
        on_success=None,
        raise_failures: bool = False,
    ):
        self.fn = fn
        self.items = list(items)
        self.names = (
            list(names) if names is not None else [str(i) for i in self.items]
        )
        if len(self.names) != len(self.items):
            raise ValueError("names and items must have equal length")
        self.policy = policy if policy is not None else RetryPolicy(
            max_attempts=1, backoff_base_s=0.0, jitter=0.0
        )
        self.jobs = max(int(jobs), 1)
        self.initializer = initializer
        self.initargs = initargs
        self.on_success = on_success
        self.raise_failures = raise_failures

    # ------------------------------------------------------------------
    def run(self):
        if self.jobs > 1 and len(self.items) > 1:
            return self._run_parallel()
        return self._run_serial()

    # ------------------------------------------------------------------
    # Serial path
    # ------------------------------------------------------------------
    def _run_serial(self):
        values = [None] * len(self.items)
        failures: list[TargetFailure] = []
        for index, (name, item) in enumerate(zip(self.names, self.items)):
            state = _ItemState(index, name, item)
            while True:
                try:
                    value = self.fn(item)
                except Exception as exc:
                    retry = self._attempt_failed(state, exc, failures)
                    if not retry:
                        break
                    time.sleep(self.policy.delay_s(name, state.attempts))
                else:
                    values[index] = value
                    if self.on_success is not None:
                        self.on_success(index, name, value)
                    break
        return values, failures

    # ------------------------------------------------------------------
    # Parallel path
    # ------------------------------------------------------------------
    def _run_parallel(self):
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        counters = get_recorder().counters
        values = [None] * len(self.items)
        failures: list[TargetFailure] = []
        queue = deque(
            _ItemState(index, name, item)
            for index, (name, item) in enumerate(zip(self.names, self.items))
        )
        waiting: list[tuple[float, _ItemState]] = []  # (ready_s, state)
        inflight: dict = {}  # future -> state
        pool = self._new_pool()
        try:
            while queue or waiting or inflight:
                now = time.monotonic()
                still_waiting = []
                for ready_s, state in waiting:
                    if ready_s <= now:
                        queue.append(state)
                    else:
                        still_waiting.append((ready_s, state))
                waiting = still_waiting
                # Keep at most one task per worker in flight, so a
                # future's submission time approximates its start time
                # and the per-target timeout measures real execution.
                while queue and len(inflight) < self.jobs:
                    state = queue.popleft()
                    state.submitted_s = time.monotonic()
                    try:
                        inflight[pool.submit(self.fn, state.item)] = state
                    except BrokenProcessPool:
                        # The pool died between waits; respawn and let the
                        # next iteration resubmit (no attempt charged).
                        queue.appendleft(state)
                        for survivor in inflight.values():
                            queue.append(survivor)
                        inflight.clear()
                        self._kill_pool(pool)
                        pool = self._new_pool()
                if not inflight:
                    next_ready = min(ready_s for ready_s, _ in waiting)
                    time.sleep(max(min(next_ready - time.monotonic(), self._TICK_S), 0.0))
                    continue
                done, _ = wait(
                    list(inflight),
                    timeout=self._wait_timeout(inflight, waiting),
                    return_when=FIRST_COMPLETED,
                )
                respawn = False
                for future in done:
                    state = inflight.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool as exc:
                        # A worker died (e.g. SIGKILL).  The pool is
                        # unusable and the culprit unattributable: every
                        # broken in-flight item is charged one attempt.
                        respawn = True
                        if self._attempt_failed(state, exc, failures):
                            waiting.append(self._retry_at(state))
                    except Exception as exc:
                        if self._attempt_failed(state, exc, failures):
                            waiting.append(self._retry_at(state))
                    else:
                        values[state.index] = value
                        if self.on_success is not None:
                            self.on_success(state.index, state.name, value)
                if self.policy.timeout_s is not None:
                    now = time.monotonic()
                    for future, state in list(inflight.items()):
                        if now - state.submitted_s < self.policy.timeout_s:
                            continue
                        # Hung worker: only this item is charged; the
                        # pool must be respawned to reclaim the worker.
                        respawn = True
                        inflight.pop(future)
                        counters.add("core.resilience.timeouts", 1)
                        exc = TimeoutError(
                            "target %r exceeded timeout_s=%.3f"
                            % (state.name, self.policy.timeout_s)
                        )
                        if self._attempt_failed(state, exc, failures):
                            waiting.append(self._retry_at(state))
                if respawn:
                    # In-flight survivors lose their (incomplete) work but
                    # are resubmitted without being charged an attempt.
                    for state in inflight.values():
                        queue.append(state)
                    inflight.clear()
                    self._kill_pool(pool)
                    pool = self._new_pool()
        except BaseException:
            self._kill_pool(pool)
            raise
        else:
            pool.shutdown(wait=True)
        return values, failures

    def _new_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=self.initializer,
            initargs=self.initargs,
        )

    def _kill_pool(self, pool) -> None:
        """Tear a (possibly hung) pool down without waiting on its workers.

        Workers get SIGTERM first — the runner's worker initializer
        installs a handler that dumps a traceback to stderr before
        exiting — then SIGKILL if they linger.

        Workers are discovered through the private
        ``ProcessPoolExecutor._processes`` attribute; should it ever be
        absent (e.g. a future Python renames it), the blind teardown is
        counted (``core.resilience.pool_kill_no_workers``) rather than
        silently ignored.  A pool that genuinely has zero live workers
        is not a discovery failure.
        """
        if hasattr(pool, "_processes"):
            processes = list((pool._processes or {}).values())
        else:
            processes = []
            get_recorder().counters.add(
                "core.resilience.pool_kill_no_workers", 1
            )
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 2.0
        for process in processes:
            try:
                process.join(max(deadline - time.monotonic(), 0.0))
                if process.is_alive():
                    process.kill()
                    process.join(1.0)
            except (OSError, ValueError, AssertionError):
                pass

    def _wait_timeout(self, inflight, waiting) -> float:
        """How long the scheduler may block before its next decision."""
        now = time.monotonic()
        timeout = self._TICK_S
        if self.policy.timeout_s is not None:
            next_deadline = min(
                state.submitted_s + self.policy.timeout_s
                for state in inflight.values()
            )
            timeout = min(timeout, next_deadline - now)
        if waiting:
            timeout = min(timeout, min(ready_s for ready_s, _ in waiting) - now)
        return max(timeout, 0.01)

    def _retry_at(self, state: _ItemState) -> tuple[float, _ItemState]:
        return (
            time.monotonic() + self.policy.delay_s(state.name, state.attempts),
            state,
        )

    def _attempt_failed(
        self, state: _ItemState, exc: BaseException, failures: list
    ) -> bool:
        """Charge one failed attempt; True when the item should retry.

        On exhaustion the item is quarantined (recorded in ``failures``)
        unless ``raise_failures`` or strict mode demand a raise.
        """
        counters = get_recorder().counters
        state.attempts += 1
        if state.attempts < self.policy.max_attempts:
            counters.add("core.resilience.retries", 1)
            return True
        if self.raise_failures:
            raise exc
        counters.add("core.resilience.quarantined", 1)
        error = repr(exc)
        if resolve_strict():
            raise InvariantError(
                "core.resilience.quarantine",
                "target %r exhausted %d attempt(s): %s"
                % (state.name, state.attempts, error),
            )
        failures.append(
            TargetFailure(
                target=state.name,
                attempts=state.attempts,
                error=error,
                elapsed_s=time.monotonic() - state.first_s,
            )
        )
        return False


# ----------------------------------------------------------------------
# Sweep checkpoints: append-only segment journal with resume
# ----------------------------------------------------------------------

def sweep_key(config=None) -> str:
    """Checkpoint namespace: config content hash + code-version hash.

    Like :class:`repro.core.memo.MemoCache`, any source edit anywhere in
    the package invalidates prior journal entries, so a resumed entry is
    always the product of the same model code and configuration.
    """
    from repro.core.memo import code_version_hash
    from repro.obs.manifest import config_hash

    return "%s:%s" % (config_hash(config), code_version_hash())


class SweepCheckpoint:
    """Append-only journal of completed sweep entries.

    The file is one :mod:`repro.core.store` segment blob: a checksummed
    header frame pinning the key, then per append one entry frame plus
    the index frame that commits it — a single fsync'd ``write`` per
    completed target.  A crash mid-append leaves an uncommitted tail
    that :meth:`entries` drops (counted as
    ``core.resilience.checkpoint.torn``) and the next writer physically
    truncates; committed entries are never lost, and a checksum
    mismatch means an entry is hidden, never silently altered.

    Anything else at the path — a journal whose header key does not
    match (stale code or different config), another layout, garbage —
    is rotated aside to ``<path>.stale`` rather than mixed into the new
    run.
    """

    def __init__(self, path: str | Path, key: str):
        self.path = Path(path)
        self.key = key
        self._reader = None  # shared SegmentReader
        self._writer = None  # SegmentWriter once append() ran

    def _count(self, event: str, n: float = 1) -> None:
        counters = get_recorder().counters
        counters.add("core.store." + event, n)
        if event == "flushes":
            counters.add("core.resilience.checkpoint.writes", n)
        elif event == "torn":
            counters.add("core.resilience.checkpoint.torn", n)

    # ------------------------------------------------------------------
    def append(self, name: str, payload) -> None:
        """Journal one completed entry (one fsync'd chunk write)."""
        self._ensure_writer()
        self._writer.append_chunk([(name, payload)], fsync=True)

    def entries(self) -> dict:
        """Completed entries from a matching journal, name -> payload.

        Torn or corrupted frames are dropped (counted as
        ``core.resilience.checkpoint.torn``); a missing file or a
        foreign one yields no entries.
        """
        from repro.core.store import SegmentReader

        if self._classify() != "segment":
            return {}
        if self._reader is None:
            self._reader = SegmentReader(self.path, count=self._count)
        self._reader.refresh()
        return self._reader.entries()

    def close(self) -> None:
        """Release the journal's file descriptor."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # ------------------------------------------------------------------
    def _classify(self) -> str:
        """What lives at ``path``: absent | segment | foreign.

        Only the header frame is read, so classification (and therefore
        every append) stays O(1) I/O regardless of journal length.
        ``foreign`` covers everything that must be rotated aside before
        writing: mismatched keys, other layouts, garbage.
        """
        from repro.core.store import peek_key

        try:
            if os.path.getsize(self.path) == 0:
                return "absent"
        except OSError:
            return "absent"
        return "segment" if peek_key(self.path) == self.key else "foreign"

    def _ensure_writer(self) -> None:
        from repro.core.store import SegmentReader, SegmentWriter

        if self._writer is not None and self._writer.is_open:
            return
        kind = self._classify()
        if kind == "foreign":
            # Stale journal (code or config changed): rotate, don't mix.
            os.replace(
                self.path, self.path.with_suffix(self.path.suffix + ".stale")
            )
            kind = "absent"
        self._writer = SegmentWriter(self.path, self.key, count=self._count)
        if kind == "segment":
            if self._reader is None:
                self._reader = SegmentReader(self.path, count=self._count)
            self._writer.open(reader=self._reader)
            # The writer may have truncated a torn tail out from under
            # the shared reader; force a clean re-parse on next read.
            self._reader = None
        else:
            self._writer.open()


# ----------------------------------------------------------------------
# TargetComparison <-> JSON (checkpoint payloads)
# ----------------------------------------------------------------------

def comparison_to_jsonable(comparison) -> dict:
    """A plain-JSON form of a :class:`~repro.core.offload.TargetComparison`.

    JSON round-trips finite floats exactly (``repr``-based), so a
    journaled comparison reloads bit-identical to the original — the
    property behind resume reproducing an uninterrupted sweep.
    """
    from repro.obs.manifest import _jsonable

    return _jsonable(comparison)


def comparison_from_jsonable(data: dict):
    """Rebuild a :class:`~repro.core.offload.TargetComparison`."""
    from repro.core.offload import TargetComparison
    from repro.core.target import PimTarget
    from repro.energy.breakdown import EnergyBreakdown
    from repro.sim.cpu import Execution
    from repro.sim.profile import KernelProfile

    def profile(d):
        return KernelProfile(**d)

    def execution(d):
        return Execution(
            machine=d["machine"],
            time_s=d["time_s"],
            energy=EnergyBreakdown(**d["energy"]),
            profile=profile(d["profile"]),
        )

    target = data["target"]
    return TargetComparison(
        target=PimTarget(
            name=target["name"],
            profile=profile(target["profile"]),
            accelerator_key=target["accelerator_key"],
            invocations=target["invocations"],
            workload=target["workload"],
        ),
        cpu=execution(data["cpu"]),
        pim_core=execution(data["pim_core"]),
        pim_acc=execution(data["pim_acc"]),
    )


# ----------------------------------------------------------------------
# Fault injection (test harness + CI chaos smoke)
# ----------------------------------------------------------------------

#: Points at a JSON plan: ``{"faults": {"<name>": ["kill", "hang:600",
#: "raise:boom", "ok", ...]}}`` — one spec per attempt, "ok" thereafter.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


class FaultInjected(RuntimeError):
    """The exception a ``raise`` fault spec produces."""


def maybe_inject_fault(name: str) -> None:
    """Execute the scheduled fault for ``name``, if a plan is active.

    No-op unless ``REPRO_FAULT_PLAN`` names a readable plan file.  Each
    call consumes one attempt slot for ``name`` (attempt counts live in
    ``<plan>.attempts/`` so they survive worker crashes); the matching
    spec is then executed:

    * ``"kill"`` — SIGKILL the current process (a real worker crash);
    * ``"hang"`` / ``"hang:<s>"`` — sleep (default far past any timeout);
    * ``"raise"`` / ``"raise:<msg>"`` — raise :class:`FaultInjected`;
    * ``"ok"`` (or exhausted plan) — do nothing.
    """
    plan_path = os.environ.get(FAULT_PLAN_ENV)
    if not plan_path:
        return
    try:
        plan = json.loads(Path(plan_path).read_text())
        specs = plan.get("faults", {}).get(name)
    except (OSError, ValueError, AttributeError):
        return
    if not specs:
        return
    attempt = _consume_attempt(Path(plan_path), name)
    spec = specs[attempt] if attempt < len(specs) else "ok"
    if spec == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.startswith("hang"):
        _, _, arg = spec.partition(":")
        time.sleep(float(arg) if arg else 3600.0)
    elif spec.startswith("raise"):
        _, _, arg = spec.partition(":")
        raise FaultInjected(arg or "injected fault for %r" % name)


def _consume_attempt(plan_path: Path, name: str) -> int:
    """Next attempt index for ``name`` (cross-process, crash-proof).

    One byte is appended to a per-name scoreboard file with ``O_APPEND``;
    the size before the append is the attempt index.  Works across pool
    workers because retries of one target never overlap in time.
    """
    directory = plan_path.parent / (plan_path.name + ".attempts")
    directory.mkdir(parents=True, exist_ok=True)
    fd = os.open(
        directory / name.replace(os.sep, "_"),
        os.O_CREAT | os.O_WRONLY | os.O_APPEND,
        0o644,
    )
    try:
        attempt = os.fstat(fd).st_size
        os.write(fd, b".")
    finally:
        os.close(fd)
    return attempt
