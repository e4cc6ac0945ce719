"""Per-layer tracing for the traced benchmark run.

The traced run wraps public entry points of each layer (functions and
methods the benchmark can name from outside the package) with a cheap
span recorder, and reads the spans and counters the program already
publishes through :func:`repro.obs.recorder.recording`.  Both sources
are merged into one list of ``(name, start, end, pid)`` events on the
``time.perf_counter`` clock, which is CLOCK_MONOTONIC on Linux and so
comparable across the benchmark and the subprocesses it starts.

A layer's *self time* is the duration of its spans minus the part of
that interval covered by their direct child spans; nesting is found by
interval containment per process, so spans from the two sources nest
into each other without sharing ids.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

#: Public callables the traced run wraps, as (module, owner, attribute,
#: span name).  ``owner`` is None for a module-level function.
WRAPPED = (
    ("repro.workloads.tensorflow.network", None, "network_functions",
     "workloads.tensorflow.network_functions"),
    ("repro.sim.profile", "KernelProfile", "__init__", "sim.profile.kernel_profile"),
    ("repro.energy.model", "EnergyModel", "cpu_components", "energy.model"),
    ("repro.energy.model", "EnergyModel", "pim_core_components", "energy.model"),
    ("repro.energy.model", "EnergyModel", "pim_accelerator_components", "energy.model"),
    ("repro.core.memo", "MemoCache", "get", "core.memo.get"),
    ("repro.core.memo", "MemoCache", "put", "core.memo.put"),
    ("repro.sim.artifact", "TraceStore", "get_or_build", "sim.artifact.open"),
    ("repro.core.resilience", "ResilientMap", "run", "core.resilience.map"),
    ("repro.analysis.base", "FigureResult", "render_text", "analysis.render"),
)

#: Prefixes of the root span the program records around each pool task
#: in a worker: a whole-workload sweep, or one shard of a sharded sweep.
WORKER_ROOTS = ("analysis.cachesweep.worker.", "core.runner.shard.")


class Tracer:
    """Collects closed spans as ``(name, start_s, end_s, pid)`` tuples."""

    def __init__(self):
        self.events: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.events.append((name, start, time.perf_counter(), os.getpid()))

    def wrap(self, fn, name: str):
        events = self.events
        clock = time.perf_counter
        pid = os.getpid()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                events.append((name, start, clock(), pid))

        return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every :data:`WRAPPED` callable for the duration of the block.

    Imports any wrapped module that is not loaded yet, so enter it
    outside timed code.  A module-level function is replaced in every
    loaded ``repro`` module that imported it by name, so call sites
    bound at import time are traced too.  Everything is restored on exit.
    """
    restore = []
    for module_name, owner_name, attr, span in WRAPPED:
        module = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(original, span))
            restore.append((owner, attr, original))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, span)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, wrapper)
                restore.append((loaded, attr, original))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def program_events(recorder) -> list[tuple]:
    """A program recorder's spans as absolute-clock events.

    Spans recorded in this process are shifted by the recorder's epoch
    onto the shared clock; spans merged in from pool workers keep their
    worker-relative times, which are consistent within each worker pid.
    """
    here = os.getpid()
    events = []
    for span in recorder.spans:
        offset = recorder.epoch_s if span.pid == here else 0.0
        start = offset + span.start_s
        events.append((span.name, start, start + span.duration_s, span.pid))
    return events


def layer_of(name: str) -> str:
    """The layer a span name reports under."""
    if name.startswith("sim.cache.replay"):
        return "sim.cache.replay"
    if name.startswith("sim.timing.replay"):
        return "sim.timing.replay"
    if name.startswith("core.offload."):
        return "core.offload.compare"
    if name.startswith(WORKER_ROOTS):
        return "core.pool.worker"
    if name.startswith("core.runner."):
        return "core.runner"
    return name


def self_times(events) -> tuple[dict, dict]:
    """``({layer: self seconds}, {layer: span count})`` over ``events``.

    Events are grouped by pid; within a pid a span is the child of the
    innermost earlier span whose interval contains it.
    """
    by_pid: dict = {}
    for event in events:
        by_pid.setdefault(event[3], []).append(event)
    totals: dict = {}
    counts: dict = {}
    for group in by_pid.values():
        group.sort(key=lambda e: (e[1], -e[2]))
        child = [0.0] * len(group)
        stack: list[int] = []
        for i, (_, start, end, _) in enumerate(group):
            while stack and group[stack[-1]][2] <= start:
                stack.pop()
            if stack and end <= group[stack[-1]][2]:
                child[stack[-1]] += end - start
            stack.append(i)
        for i, (name, start, end, _) in enumerate(group):
            layer = layer_of(name)
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child[i]
            counts[layer] = counts.get(layer, 0) + 1
    return totals, counts


def chrome_records(events):
    """Events as :class:`repro.obs.spans.SpanRecord` rows for export.

    Each pid's row starts at its own first span: worker clocks are not
    aligned with the parent's (see :func:`program_events`).
    """
    from repro.obs.spans import SpanRecord

    base: dict = {}
    for _, start, _, pid in events:
        base[pid] = min(base.get(pid, start), start)
    return [
        SpanRecord(
            name=name, span_id=i, parent=-1, depth=0,
            start_s=start - base[pid], duration_s=end - start, pid=pid, tid=0,
        )
        for i, (name, start, end, pid) in enumerate(events)
    ]
