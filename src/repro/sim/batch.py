"""Config-batched replay: N cache configurations over one trace, one pass.

This is the one cache replay and the one timing replay; a single-config
replay (:func:`repro.sim.cache.replay_trace`) is a batch of one.  A
design-space sweep replays the *same* run stream under many cache
geometries.  A serial replay costs one full Python-level loop over the
trace per configuration; this module factors that work by what actually
differs between configurations:

* **L1 pass** — the L1's behaviour depends only on its own geometry
  (sets x ways), so configs sharing an L1 geometry share one pass over
  the :meth:`repro.sim.trace.MemoryTrace.line_runs` stream.  The pass
  replays the serial line-run L1 loop (OrderedDict recency = true LRU)
  and records the *LLC event stream* it induces: for every L1 miss, an
  optional dirty-victim writeback-install followed by the line fetch.
* **LLC pass** — each (L1 geometry, LLC geometry) pair replays only that
  event stream, which is as long as the L1 miss traffic, not the trace.
* **Timing** — the event-driven model's cache state evolves through the
  same access sequence as the hierarchy replay, so its per-event
  outcomes (L1 hit / LLC hit / DRAM miss) are exactly the passes above.
  Runs between latency events only accumulate integer issue gaps, so
  the ``pending`` value at each event is a prefix-sum difference over
  the shared run counts; the per-config loop touches only latency
  events, with the *same float expressions in the same order* as the
  serial per-access replay.

Each config then finishes straight from the shared pass end states.
The end-of-replay flush walks the L1 end state in (set, recency) order
and installs every dirty line into a private copy of only the LLC set
it lands in — copy-on-write, so passes that several configs share are
never mutated — and the LLC flush adds the dirty-line count the LLC
pass kept as it ran, corrected for the copied sets.  The final counts
go through :func:`repro.sim.cache.finish_stats` — the strict accounting
checks and the published counters.

The serial engines this replaced live on as test oracles in
``tests/sim/oracle.py``: a per-access replay and a line-run replay for
each simulator.  :func:`replay_batch` and :func:`replay_timing_batch`
are bit-identical per config to them (property-tested in
``tests/sim/test_replay_batch.py``).  :func:`sweep_batch` evaluates both
simulators from one set of shared passes — the sweep executor's engine.

Counters: each batch publishes ``sim.replay_batch.batches`` /
``.configs`` / ``.runs``, plus ``.shared_trace_hits`` (config
evaluations that reused an already-materialized run stream — a memoized
trace or a loaded artifact).  Per-config ``sim.cache.*`` /
``sim.timing.*`` counters are identical to N serial replays'; the
differential test in ``tests/sim/test_replay_equivalence.py`` pins
this.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from itertools import count

import numpy as np

from repro.obs.recorder import get_recorder
from repro.sim.cache import (
    CacheStats,
    HierarchyStats,
    check_line_runs,
    finish_stats,
)
from repro.sim.timing import TimingParameters, TimingResult, TimingSimulator
from repro.sim.trace import MemoryTrace
from repro.validate.strict import invariant, resolve_strict


def _line_runs_for_batch(trace: MemoryTrace):
    """The trace's run columns as int64 lines, plus a shared-memo flag.

    Lines computed from uint64 byte addresses stay below 2**58, so only
    a run stream placed in the trace's memo by hand can exceed int64;
    without the guard the cast would wrap it negative.
    """
    shared = bool(getattr(trace, "_line_runs_cache", None))
    run_lines, run_counts, run_writes = trace.line_runs()
    if run_lines.size and int(run_lines.max()) > np.iinfo(np.int64).max:
        raise ValueError(
            "line-run column run_lines holds line %d; the replay requires "
            "lines < 2**63" % int(run_lines.max())
        )
    return run_lines.astype(np.int64), run_counts, run_writes, shared


def _publish_batch(recorder, n, num_runs, shared) -> None:
    if not recorder.enabled:
        return
    counters = recorder.counters
    counters.add("sim.replay_batch.batches", 1)
    counters.add("sim.replay_batch.configs", n)
    counters.add("sim.replay_batch.runs", num_runs)
    if shared:
        counters.add("sim.replay_batch.shared_trace_hits", n)


class _L1Pass:
    """One distinct L1 geometry's replay of the shared run stream.

    The pass records only its LLC event stream; every L1 total derives
    from it (one fetch event per miss, one writeback event per dirty
    eviction).  ``sets`` is the end state and ``dirty_lines`` its dirty
    lines in the (set, recency) order the serial flush walks them.

    ``stream_key`` fingerprints the induced LLC event stream (event
    lines, kinds, and fetch positions): two L1 geometries whose streams
    collide — common in sweeps, e.g. every geometry too small for the
    working set misses identically — share LLC passes and timing event
    loops downstream.
    """

    __slots__ = (
        "sets", "dirty_lines", "ev_lines", "ev_is_wb", "fetch_runs",
        "stream_key",
    )


class _LlcPass:
    """One (L1 geometry, LLC geometry) pair's replay of the event stream.

    ``miss`` and ``wb`` are the LLC's misses and dirty evictions, which
    are also its DRAM reads and writes; ``dirty`` is the number of dirty
    lines in the end state ``sets``.
    """

    __slots__ = ("miss", "wb", "dirty", "sets", "fetch_hits")


class _SharedOutcomes:
    """Memoized per-geometry passes over one trace's run stream.

    Every batched entry point builds one of these; configs sharing an L1
    geometry share its :class:`_L1Pass`, and each (L1, LLC) geometry
    pair shares its :class:`_LlcPass` — including between the hierarchy
    and timing engines inside :func:`sweep_batch`, whose cache state
    evolves identically.
    """

    def __init__(self, trace: MemoryTrace):
        self.run_lines, self.run_counts, self.run_writes, self.shared = (
            _line_runs_for_batch(trace)
        )
        self.num_accesses = len(trace)
        self.num_runs = int(self.run_lines.shape[0])
        self.writes = self.run_writes.tolist()
        self._l1 = {}
        self._llc = {}
        self._pendings = {}
        self._prefix = None

    @staticmethod
    def _key(cfg):
        return (cfg.num_sets, cfg.associativity)

    def l1(self, cfg) -> _L1Pass:
        key = self._key(cfg)
        pass_ = self._l1.get(key)
        if pass_ is None:
            pass_ = self._l1[key] = self._run_l1(cfg.num_sets, cfg.associativity)
        return pass_

    def llc(self, l1_cfg, llc_cfg) -> _LlcPass:
        l1_pass = self.l1(l1_cfg)
        key = (l1_pass.stream_key, self._key(llc_cfg))
        pass_ = self._llc.get(key)
        if pass_ is None:
            pass_ = self._llc[key] = self._run_llc(
                l1_pass, llc_cfg.num_sets, llc_cfg.associativity
            )
        return pass_

    def _run_l1(self, num_sets: int, assoc: int) -> _L1Pass:
        """The inlined serial L1 loop, recording induced LLC events.

        Mirrors the line-run oracle's L1 exactly: per run one lookup; on
        a miss the dirty victim's writeback-install event is emitted
        *before* the install, then the fetch event.
        """
        setv = (self.run_lines % num_sets).tolist()
        tagv = (self.run_lines // num_sets).tolist()
        sets = [OrderedDict() for _ in range(num_sets)]
        ev_lines: list[int] = []
        ev_is_wb: list[bool] = []
        fetch_runs: list[int] = []
        append_line = ev_lines.append
        append_kind = ev_is_wb.append
        append_fetch = fetch_runs.append
        for r, set_idx, tag, is_write in zip(count(), setv, tagv, self.writes):
            od = sets[set_idx]
            if tag in od:
                od.move_to_end(tag)
                if is_write:
                    od[tag] = True
                continue
            if len(od) >= assoc:
                victim_tag, victim_dirty = od.popitem(last=False)
                if victim_dirty:
                    append_line(victim_tag * num_sets + set_idx)
                    append_kind(True)
            od[tag] = is_write
            append_line(tag * num_sets + set_idx)
            append_kind(False)
            append_fetch(r)
        pass_ = _L1Pass()
        pass_.sets = sets
        pass_.dirty_lines = [
            tag * num_sets + set_idx
            for set_idx, od in enumerate(sets)
            for tag, dirty in od.items()
            if dirty
        ]
        pass_.ev_lines = np.array(ev_lines, dtype=np.int64)
        pass_.ev_is_wb = ev_is_wb
        pass_.fetch_runs = np.array(fetch_runs, dtype=np.int64)
        digest = hashlib.blake2b(pass_.ev_lines.tobytes(), digest_size=16)
        digest.update(np.packbits(np.asarray(ev_is_wb, dtype=bool)).tobytes())
        digest.update(pass_.fetch_runs.tobytes())
        pass_.stream_key = digest.digest()
        return pass_

    def _run_llc(self, l1_pass: _L1Pass, num_sets: int, assoc: int) -> _LlcPass:
        """The inlined serial LLC loop over one L1 geometry's events.

        Writeback-installs are write-allocate (the install is dirty and
        the fill a DRAM read); fetches install clean.  Per fetch the LLC
        hit outcome is recorded for the timing engine.  Dirty lines
        arise only from writeback-installs and leave only by dirty
        eviction, so the end state's dirty count is the installs that
        dirtied a line minus the writebacks.
        """
        setv = (l1_pass.ev_lines % num_sets).tolist()
        tagv = (l1_pass.ev_lines // num_sets).tolist()
        sets = [OrderedDict() for _ in range(num_sets)]
        miss = wb = dirtied = 0
        fetch_hits: list[bool] = []
        append_hit = fetch_hits.append
        for set_idx, tag, is_wb in zip(setv, tagv, l1_pass.ev_is_wb):
            od = sets[set_idx]
            if tag in od:
                od.move_to_end(tag)
                if not is_wb:
                    append_hit(True)
                elif not od[tag]:
                    od[tag] = True
                    dirtied += 1
                continue
            miss += 1
            if len(od) >= assoc and od.popitem(last=False)[1]:
                wb += 1
            od[tag] = is_wb
            if is_wb:
                dirtied += 1
            else:
                append_hit(False)
        pass_ = _LlcPass()
        pass_.miss, pass_.wb, pass_.dirty = miss, wb, dirtied - wb
        pass_.sets = sets
        pass_.fetch_hits = fetch_hits
        return pass_

    def pendings(self, l1_cfg):
        """Issue-gap counts at each fetch event, plus the final pending.

        Between latency events every run is an L1 hit contributing its
        whole ``count``, and an event run contributes ``+1`` before and
        ``count - 1`` after materialization, so pending at event *e* in
        run ``E[e]`` telescopes to ``prefix[E[e]] - prefix[E[e-1]]``
        (``prefix`` the exclusive cumulative sum of run counts, with
        ``prefix[E[0]] + 1`` for the first event) — the exact integer
        sequence the serial loop materializes.
        """
        l1_pass = self.l1(l1_cfg)
        key = l1_pass.stream_key
        cached = self._pendings.get(key)
        if cached is None:
            if self._prefix is None:
                self._prefix = np.concatenate(
                    ([0], np.cumsum(self.run_counts, dtype=np.int64))
                )
            prefix = self._prefix
            fetch_runs = l1_pass.fetch_runs
            total = int(prefix[-1])
            if not fetch_runs.size:
                cached = ([], total)
            else:
                at_event = prefix[fetch_runs]
                pend = np.empty(fetch_runs.size, dtype=np.int64)
                pend[0] = at_event[0] + 1
                pend[1:] = at_event[1:] - at_event[:-1]
                cached = (pend.tolist(), total - int(at_event[-1]) - 1)
            self._pendings[key] = cached
        return cached


def _flush(l1_pass, llc_pass, llc_cfg):
    """The LLC misses and writebacks the serial ``flush()`` adds.

    The L1 flush installs each dirty L1 line into the LLC as a
    writeback, walking the L1 end state in (set, recency) order; each
    install goes into a private copy of only the LLC set it lands in,
    so the shared pass stays untouched.  The LLC flush then writes back
    every line still dirty: the pass's dirty count, corrected for the
    copied sets by the installs that dirtied a line and the dirty lines
    they evicted.
    """
    num_sets, assoc = llc_cfg.num_sets, llc_cfg.associativity
    shared = llc_pass.sets
    copies = {}
    misses = evicted = dirtied = 0
    for line in l1_pass.dirty_lines:
        set_idx = line % num_sets
        tag = line // num_sets
        od = copies.get(set_idx)
        if od is None:
            od = copies[set_idx] = shared[set_idx].copy()
        if tag in od:
            od.move_to_end(tag)
            if not od[tag]:
                od[tag] = True
                dirtied += 1
            continue
        misses += 1
        if len(od) >= assoc and od.popitem(last=False)[1]:
            evicted += 1
        od[tag] = True
        dirtied += 1
    still_dirty = llc_pass.dirty + dirtied - evicted
    return misses, evicted + still_dirty


def _config_stats(
    outcomes, soc, flush, instructions_hint, recorder, strict
) -> HierarchyStats:
    """One config's final statistics, finished from the shared passes.

    L1 accesses are the trace's, LLC accesses its L1 events; every
    access is a hit or a miss, every LLC miss one DRAM read and every
    LLC writeback one DRAM write.
    """
    l1_pass = outcomes.l1(soc.l1)
    llc_pass = outcomes.llc(soc.l1, soc.l2)
    num_accesses = outcomes.num_accesses
    l1_miss = len(l1_pass.fetch_runs)
    llc_acc = len(l1_pass.ev_is_wb)
    l1_wb = llc_acc - l1_miss
    llc_miss, llc_wb = llc_pass.miss, llc_pass.wb
    if flush:
        misses, writebacks = _flush(l1_pass, llc_pass, soc.l2)
        l1_wb += len(l1_pass.dirty_lines)
        llc_acc += len(l1_pass.dirty_lines)
        llc_miss += misses
        llc_wb += writebacks
    stats = HierarchyStats(
        l1=CacheStats(num_accesses, num_accesses - l1_miss, l1_miss, l1_wb),
        llc=CacheStats(llc_acc, llc_acc - llc_miss, llc_miss, llc_wb),
        dram_line_reads=llc_miss,
        dram_line_writes=llc_wb,
        instructions_hint=instructions_hint or float(num_accesses),
    )
    return finish_stats(stats, num_accesses, recorder, strict=strict)


def replay_batch(
    trace: MemoryTrace,
    socs,
    flush: bool = True,
    instructions_hint: float = 0.0,
    strict: bool | None = None,
) -> list[HierarchyStats]:
    """Replay ``trace`` under every SoC in ``socs`` in one shared pass.

    Returns one :class:`HierarchyStats` per config, in input order,
    each bit-identical to a serial replay of ``trace`` through a fresh
    hierarchy with the same ``flush`` and ``instructions_hint`` —
    including the published ``sim.cache.*`` counters.
    """
    socs = list(socs)
    if not socs:
        return []
    strict = resolve_strict(strict)
    recorder = get_recorder()
    outcomes = _SharedOutcomes(trace)
    with recorder.span("sim.cache.replay_batch"):
        results = _hierarchy_results(
            outcomes, socs, flush, instructions_hint, recorder, strict
        )
        _publish_batch(recorder, len(socs), outcomes.num_runs, outcomes.shared)
        return results


def _hierarchy_results(
    outcomes, socs, flush, instructions_hint, recorder, strict
) -> list[HierarchyStats]:
    num_accesses = outcomes.num_accesses
    if strict:
        check_line_runs(num_accesses, outcomes.run_lines, outcomes.run_counts)
    return [
        _config_stats(outcomes, soc, flush, instructions_hint, recorder, strict)
        for soc in socs
    ]


def replay_timing_batch(
    trace: MemoryTrace,
    simulators,
    instructions_per_access: float = 2.0,
    strict: bool | None = None,
) -> list[TimingResult]:
    """Event-driven timing for N simulators over one shared trace pass.

    ``simulators`` is a sequence of :class:`TimingSimulator` (each
    carries its SoC geometry and :class:`TimingParameters`).  Returns
    one :class:`TimingResult` per simulator, in input order, each
    bit-identical to a serial replay with the same
    ``instructions_per_access`` — the per-event float expressions match
    the serial engine's exactly.
    """
    simulators = list(simulators)
    if not simulators:
        return []
    strict = resolve_strict(strict)
    recorder = get_recorder()
    outcomes = _SharedOutcomes(trace)
    with recorder.span("sim.timing.replay_batch"):
        results = _timing_results(
            outcomes, simulators, instructions_per_access, recorder, strict
        )
        _publish_batch(
            recorder, len(simulators), outcomes.num_runs, outcomes.shared
        )
        return results


def _timing_clock(
    pendings, final_pending, fetch_hits, params, issue_gap, strict
):
    """The serial timing recurrence over one config's latency events.

    Returns ``(clock, dram_misses, mshr_overflows, completion_disorder)``
    with the same float expressions in the same order as the serial
    engine — ``pendings`` supplies the integer issue-gap counts the
    serial loop would have accumulated between events.
    """
    llc_penalty = params.llc_hit_cycles * 0.25  # partially overlapped
    mshrs = params.mshrs
    dram_cycles = params.dram_cycles
    issue_interval = params.dram_issue_interval_cycles
    anchor = 0.0
    in_flight: deque[float] = deque()
    next_dram_slot = 0.0
    dram_misses = 0
    mshr_overflows = 0
    completion_disorder = 0
    for pending, llc_hit in zip(pendings, fetch_hits):
        if llc_hit:
            anchor = anchor + pending * issue_gap + llc_penalty
            continue
        dram_misses += 1
        clock = anchor + pending * issue_gap
        while in_flight and in_flight[0] <= clock:
            in_flight.popleft()
        if len(in_flight) >= mshrs:
            clock = max(clock, in_flight[0])
            while in_flight and in_flight[0] <= clock:
                in_flight.popleft()
        start = max(clock, next_dram_slot)
        if strict:
            if in_flight and start + dram_cycles < in_flight[-1]:
                completion_disorder += 1
            if len(in_flight) >= mshrs:
                mshr_overflows += 1
        in_flight.append(start + dram_cycles)
        next_dram_slot = start + issue_interval
        anchor = clock
    clock = anchor + final_pending * issue_gap
    if in_flight:
        clock = max(clock, in_flight[-1])
    return clock, dram_misses, mshr_overflows, completion_disorder


def _timing_results(
    outcomes, simulators, instructions_per_access, recorder, strict
) -> list[TimingResult]:
    num_accesses = outcomes.num_accesses
    clocks = {}
    results = []
    for sim in simulators:
        issue_gap = instructions_per_access / sim.soc.sustained_ipc
        l1_pass = outcomes.l1(sim.soc.l1)
        llc_pass = outcomes.llc(sim.soc.l1, sim.soc.l2)
        # Simulators whose cache outcomes and timing constants coincide
        # share one event loop; `_finish` still runs once per simulator.
        key = (
            l1_pass.stream_key,
            outcomes._key(sim.soc.l2),
            sim.params,
            issue_gap,
        )
        cached = clocks.get(key)
        if cached is None:
            pendings, final_pending = outcomes.pendings(sim.soc.l1)
            cached = clocks[key] = _timing_clock(
                pendings, final_pending, llc_pass.fetch_hits,
                sim.params, issue_gap, strict,
            )
        clock, dram_misses, mshr_overflows, completion_disorder = cached
        if strict:
            invariant(
                completion_disorder == 0,
                "timing.mshr_ordering",
                "%d DRAM completions issued out of order" % completion_disorder,
            )
        results.append(
            sim._finish(
                num_accesses,
                clock,
                dram_misses,
                issue_gap,
                recorder,
                strict=strict,
                mshr_overflows=mshr_overflows,
            )
        )
    return results


# ----------------------------------------------------------------------
# Sharded execution: the multicore decomposition of one sweep plan
# ----------------------------------------------------------------------

def plan_shards(items, jobs: int):
    """Partition sweep items into independent shard work lists.

    ``items`` is a sequence whose elements carry their SoC as the last
    tuple field (e.g. ``(index, soc)`` or ``(index, label, soc)``).
    Configs sharing an L1 geometry land in the same shard, so each
    shard's worker runs that L1 pass exactly once — the same sharing the
    single-process engine gets from :class:`_SharedOutcomes`.  When
    there are fewer distinct L1 geometries than worker slots, the
    largest groups split in half (each half redundantly recomputes one
    L1 pass, but the LLC and timing work — the bulk of a sweep —
    parallelizes).

    Deterministic: the same items and ``jobs`` always produce the same
    plan, in the same order, so shard names are stable and reruns
    schedule identically.
    """
    items = list(items)
    if not items:
        return []
    groups: dict = {}
    for item in items:
        groups.setdefault(_SharedOutcomes._key(item[-1].l1), []).append(item)
    shards = list(groups.values())
    want = min(max(int(jobs), 1), len(items))
    while len(shards) < want:
        shards.sort(key=len, reverse=True)  # stable: ties keep plan order
        biggest = shards[0]
        if len(biggest) < 2:
            break
        half = (len(biggest) + 1) // 2
        shards[0:1] = [biggest[:half], biggest[half:]]
    shards.sort(key=lambda shard: shard[0][0])
    return shards


class ShardEvaluator:
    """Per-process executor for shards of one sweep plan.

    A pool worker builds one of these over the memory-mapped artifact's
    trace and reuses it across every shard dispatched to the worker, so
    shards sharing an L1 geometry (a split group) share passes exactly
    like the single-process engine.  Each config finishes through the
    same ``_hierarchy_results`` / ``_timing_results`` helpers as
    :func:`sweep_batch`, straight from the shared pass end states, so
    per-config stats, timings, and published ``sim.cache.*`` /
    ``sim.timing.*`` counters are bit-identical to it.

    What is deliberately *not* published here: the plan-level
    ``sim.replay_batch.*`` records.  Those belong to the dispatching
    parent (:func:`publish_sweep_plan`) exactly once per sweep, so a
    parallel run's merged registry equals the single-process batched
    registry instead of counting one batch per shard.
    """

    def __init__(
        self,
        trace: MemoryTrace,
        params: TimingParameters | None = None,
        instructions_per_access: float = 2.0,
    ):
        self.outcomes = _SharedOutcomes(trace)
        self.params = params or TimingParameters()
        self.instructions_per_access = instructions_per_access

    def evaluate(
        self,
        socs,
        flush: bool = True,
        instructions_hint: float = 0.0,
        strict: bool | None = None,
    ):
        """``(stats, timings)`` for this shard's configs, in input order."""
        socs = list(socs)
        if not socs:
            return [], []
        strict = resolve_strict(strict)
        recorder = get_recorder()
        simulators = [TimingSimulator(soc, self.params) for soc in socs]
        with recorder.span("sim.cache.replay_shard"):
            stats = _hierarchy_results(
                self.outcomes, socs, flush, instructions_hint, recorder, strict
            )
        with recorder.span("sim.timing.replay_shard"):
            timings = _timing_results(
                self.outcomes, simulators, self.instructions_per_access,
                recorder, strict,
            )
        return stats, timings


def publish_sweep_plan(recorder, n_configs: int, num_runs: int, shared: bool = True) -> None:
    """The two plan-level batch records a sharded sweep's parent owns.

    :func:`sweep_batch` publishes one ``sim.replay_batch.*`` record per
    engine (cache, then timing — the latter always a shared-trace hit).
    When the shards run in pool workers, the parent publishes these
    records exactly once over the whole plan, so the merged registry is
    identical to a single-process batched sweep of the same configs.
    """
    _publish_batch(recorder, n_configs, num_runs, shared)
    _publish_batch(recorder, n_configs, num_runs, True)


def sweep_batch(
    trace: MemoryTrace,
    socs,
    params: TimingParameters | None = None,
    instructions_per_access: float = 2.0,
    flush: bool = True,
    instructions_hint: float = 0.0,
    strict: bool | None = None,
):
    """Hierarchy stats *and* timing for every SoC from one set of passes.

    The sweep executor's engine: because the timing engine's cache
    state evolves through the same access sequence as the hierarchy
    replay, both engines share the per-geometry passes.  Returns
    ``(stats, timings)``, each a list in ``socs`` order and equal to
    :func:`replay_batch` and :func:`replay_timing_batch` over the same
    configs.  Publishes the same two batch counter records as calling
    :func:`replay_batch` then :func:`replay_timing_batch`.
    """
    socs = list(socs)
    if not socs:
        return [], []
    strict = resolve_strict(strict)
    recorder = get_recorder()
    outcomes = _SharedOutcomes(trace)
    shared_params = params or TimingParameters()
    simulators = [TimingSimulator(soc, shared_params) for soc in socs]
    with recorder.span("sim.cache.replay_batch"):
        stats = _hierarchy_results(
            outcomes, socs, flush, instructions_hint, recorder, strict
        )
        _publish_batch(recorder, len(socs), outcomes.num_runs, outcomes.shared)
    with recorder.span("sim.timing.replay_batch"):
        timings = _timing_results(
            outcomes, simulators, instructions_per_access, recorder, strict
        )
        # The timing engine reuses the runs materialized above.
        _publish_batch(recorder, len(socs), outcomes.num_runs, True)
    return stats, timings


__all__ = [
    "ShardEvaluator",
    "plan_shards",
    "publish_sweep_plan",
    "replay_batch",
    "replay_timing_batch",
    "sweep_batch",
]
