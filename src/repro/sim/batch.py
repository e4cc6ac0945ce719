"""Config-batched replay: N cache configurations over one trace, one pass.

This is the one cache replay and the one timing replay; a single-config
replay (:func:`repro.sim.cache.replay_trace`) is a batch of one.  A
design-space sweep replays the *same* run stream under many cache
geometries.  A serial replay costs one full Python-level loop over the
trace per configuration; this module factors that work by what actually
differs between configurations:

* **L1 pass** — the L1's behaviour depends only on its own geometry
  (sets x ways), so configs sharing an L1 geometry share one LRU pass
  over the :meth:`repro.sim.trace.MemoryTrace.line_runs` stream, which
  records the *LLC event stream* it induces: for every L1 miss, an
  optional dirty-victim writeback-install followed by the line fetch.
* **LLC pass** — each (L1 geometry, LLC geometry) pair runs the same
  LRU pass over only that event stream, which is as long as the L1 miss
  traffic, not the trace.
* **Timing** — the event-driven model's cache state evolves through the
  same access sequence as the hierarchy replay, so its per-event
  outcomes (L1 hit / LLC hit / DRAM miss) are exactly the passes above.
  Runs between latency events only accumulate integer issue gaps, so
  the ``pending`` value at each event is a prefix-sum difference over
  the shared run counts; the per-config loop touches only latency
  events, with the *same float expressions in the same order* as the
  serial per-access replay.  That loop reads nothing of the LLC but its
  fetch outcomes, so its clock is shared by every simulator with the
  same L1 event stream, LLC fetch outcomes and timing constants —
  keyed by those outcomes, not by the LLC geometry.

**The LRU passes.**  Both levels run one LRU; a flag dirties the line
an access touches (an L1 write, an LLC writeback-install).  A pass
returns, per access, whether it hit; its dirty evictions (when each
happened and the victim's line), all that callers read of its victims;
and the end state.  It decides all of that with NumPy, without stepping
the cache.  :func:`_outcomes` runs every pass over one stream (the run
stream, or one L1 event stream):

* *First use* — one stable line sort (:func:`_line_uses`) gives each
  line's first use, its last use and the OR of its flags.  Per set
  count, the most lines any set holds is the least associativity whose
  pass never evicts.  Such a pass is decided by :func:`_first_use`: an
  access hits exactly when its line was used before, nothing is written
  back, and the end state is every line, per set by last use, dirty if
  any of its uses was flagged.
* *Set order* — the other associativities of a set count share one
  :func:`_set_order`, built only for them.  It takes each set's
  accesses in time order ("set order"), folds an access to the line its
  set touched last into that access (an MRU hit; its flag ORs into the
  one it repeats), and finds each access's reuse gap back to the
  previous use of its line.  The default ``cachesweep`` grid's 30
  passes build 6 set orders; its other 22 passes never evict.

:func:`_lru_kernel` then decides each access for one associativity from
the window of its set's previous ``assoc`` accesses:

* *hit* — the line is in the window (at most ``assoc - 1`` other lines
  were used since), or the set holds at most ``assoc`` distinct lines
  in the whole stream and the line was seen before;
* *miss, no victim* — fewer than ``assoc`` accesses precede it in its
  set, or its set never holds more than ``assoc`` lines;
* *miss with a victim* — the window holds ``assoc`` distinct lines: they
  are the set's contents, and the oldest is the victim.  Its dirty bit
  is the OR of that line's flags since its last miss;
* *end state* — per set, its last ``assoc`` accesses when those are
  distinct, or all of its lines when it never overflows.

The kernel's rule for a set that never overflows is the first-use rule,
applied per set; the first-use path applies it before any set sort when
no set overflows.  A window with a repeated line leaves an eviction
undecided (``A B A C A D ...``).  Then the whole pass runs
:func:`_lru_loop`, the OrderedDict loop (recency = insertion order)
returning the same arrays, so the outcome is exact whichever runs; the
trace alone picks, and no pass of the default ``cachesweep`` grid needs
the loop.

Each config then finishes straight from the shared pass end states.
The end-of-replay flush walks the L1 end state's dirty lines in (set,
recency) order and installs each into a private copy of only the LLC
set it lands in — copy-on-write, so passes that several configs share
are never mutated — and the LLC flush adds the end state's dirty-line
count, corrected for the copied sets.  An LLC pass keeps its end state
only when its L1 pass leaves dirty lines, which read-only traces never
do.  The final counts go through :func:`repro.sim.cache.finish_stats`
— the strict accounting checks and the published counters.

The serial engines this replaced live on as test oracles in
``tests/sim/oracle.py``: a per-access replay and a line-run replay for
each simulator.  :func:`replay_batch` and :func:`replay_timing_batch`
are bit-identical per config to them (property-tested in
``tests/sim/test_replay_batch.py``; the kernel and the first-use rule
are held to the loop in ``tests/sim/test_lru_kernel.py``).  :func:`sweep_batch` evaluates both
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
from collections import OrderedDict
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
    """The trace's run columns with lines as int64, plus a shared-memo flag.

    Lines computed from uint64 byte addresses stay below 2**58, so only
    a run stream placed in the trace's memo by hand can exceed int64;
    the guard keeps the int64 view of such a stream from reading it
    negative.
    """
    shared = bool(getattr(trace, "_line_runs_cache", None))
    run_lines, run_counts, run_writes = trace.line_runs()
    if run_lines.size and int(run_lines.max()) > np.iinfo(np.int64).max:
        raise ValueError(
            "line-run column run_lines holds line %d; the replay requires "
            "lines < 2**63" % int(run_lines.max())
        )
    return run_lines.view(np.int64), run_counts, run_writes, shared


def _set_index(lines, num_sets: int):
    """Each line's set: its low bits for a power-of-two set count (every
    count of the default grid), ``%`` otherwise.  Held in 16 bits where
    the count allows, which also gets NumPy's radix sort: 2-3x faster on
    L1 set counts."""
    dtype = np.uint16 if num_sets <= 1 << 16 else np.int64
    sets = np.empty(lines.size, dtype=dtype)
    if num_sets & (num_sets - 1):
        np.remainder(lines, num_sets, out=sets, casting="unsafe")
    else:
        np.bitwise_and(lines, num_sets - 1, out=sets, casting="unsafe")
    return sets


class _LineUses:
    """One access stream's uses grouped by line: all a pass that never
    evicts needs, whatever its geometry.

    ``hits`` marks every access but each line's first use;
    ``end_lines`` holds each line once, least recently used first, and
    ``end_dirty`` whether any of its uses was flagged.
    """

    __slots__ = ("hits", "end_lines", "end_dirty")


def _line_uses(lines, flags) -> _LineUses:
    """One stable line sort: each line's first use, last use and flags."""
    uses = _LineUses()
    n = lines.size
    by_line = np.argsort(lines, kind="stable")
    sorted_lines = lines[by_line]
    starts = np.ones(n, dtype=bool)
    np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=starts[1:])
    del sorted_lines
    starts = np.flatnonzero(starts)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1:] = n - 1
    uses.hits = hits = np.ones(n, dtype=bool)
    hits[by_line[starts]] = False
    last_of = by_line[ends]
    last = np.zeros(n, dtype=bool)
    last[last_of] = True
    last_at = np.flatnonzero(last)
    uses.end_lines = lines[last_at]
    if flags.any():
        dirty = np.zeros(n, dtype=bool)
        dirty[last_of] = np.logical_or.reduceat(flags[by_line], starts)
        uses.end_dirty = dirty[last_at]
    else:
        uses.end_dirty = np.zeros(last_at.size, dtype=bool)
    return uses


def _first_use(uses: _LineUses, sets):
    """The outcome of an LRU pass in which no set ever holds more lines
    than it has ways; ``sets`` is the set of each of ``uses.end_lines``.

    Nothing is evicted, so an access hits exactly when its line was used
    before, and nothing is written back.  The end state is every line,
    per set by last use; a line is dirty if any of its uses was flagged.
    """
    by_set = np.argsort(sets, kind="stable")
    none = np.zeros(0, dtype=np.int64)
    return uses.hits, none, none, uses.end_lines[by_set], uses.end_dirty[by_set]


class _SetOrder:
    """One access stream under one set count: an LRU pass's
    associativity-independent half.

    ``lines`` and ``num_sets`` are the stream and the set count (the
    fallback loop replays them).  ``order`` sorts the ``n`` accesses
    into set order.  The MRU fold keeps the accesses at set-order
    positions ``kept`` (time-order positions ``at``); the remaining
    arrays follow that folded stream: each access's ``line`` and set
    ``c_set``, whether it is its line's ``first`` or ``last`` use, and
    its reuse ``gap``, the distance back to its line's previous use (the
    int64 maximum for a first use).  ``set_lines`` counts each set's
    distinct lines.
    """

    __slots__ = (
        "lines", "num_sets", "order", "kept", "at", "line", "c_set", "gap",
        "first", "last", "set_lines",
    )


def _set_order(lines, num_sets: int) -> _SetOrder:
    """Sort ``lines`` into set order, fold MRU repeats, find reuse gaps.

    The work happens in *set order* (each set's accesses in time order,
    sets ascending); repeats of the access just before in the same set
    are folded into it, so neighbours in a set differ.
    """
    so = _SetOrder()
    so.lines, so.num_sets = lines, num_sets
    sets = _set_index(lines, num_sets)
    so.order = order = np.argsort(sets, kind="stable")
    s_line = lines[order]
    keep = np.ones(lines.size, dtype=bool)
    np.not_equal(s_line[1:], s_line[:-1], out=keep[1:])
    so.kept = kept = np.flatnonzero(keep)
    del keep
    so.at = at = order[kept]
    so.line = line = s_line[kept]
    del s_line
    so.c_set = c_set = sets[at]
    del sets
    # Each access's previous use of the same line, from a line sort.
    m = kept.size
    by_line = np.argsort(line, kind="stable")
    sorted_line = line[by_line]
    again = np.flatnonzero(sorted_line[1:] == sorted_line[:-1])
    del sorted_line
    reuse, before = by_line[again + 1], by_line[again]
    so.gap = gap = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
    gap[reuse] = reuse - before
    so.first = first = np.ones(m, dtype=bool)
    first[reuse] = False
    so.last = last = np.ones(m, dtype=bool)
    last[before] = False
    so.set_lines = np.bincount(c_set[first], minlength=num_sets)
    return so


def _lru_kernel(so: _SetOrder, flags, assoc: int):
    """Decide every access of one LRU pass from its set's recent window.

    ``so`` is the stream's :func:`_set_order` and ``flags`` its flags in
    time order.  Returns what :func:`_lru_loop` returns, or ``None``
    when some access or end state is not decided by the rules in the
    module docstring.
    """
    c_set, gap = so.c_set, so.gap
    m = c_set.size
    overflow = (so.set_lines > assoc)[c_set]
    # `full[c]`: at least `assoc` accesses precede c in its set.
    full = np.zeros(m, dtype=bool)
    np.equal(c_set[assoc:], c_set[:-assoc], out=full[assoc:])
    hit = (gap <= assoc) | ~(so.first | overflow)
    evicts = np.flatnonzero(~hit & overflow & full)
    if assoc > 2 and evicts.size:
        # A reuse q of gap below `assoc` puts a repeat in the window of
        # every access in q + 1 .. q - gap[q] + assoc; any eviction with
        # such a window is undecided.
        short = np.flatnonzero(gap < assoc)
        after = np.searchsorted(evicts, short, side="right")
        within = np.searchsorted(evicts, short - gap[short] + assoc, side="right")
        if (within > after).any():
            return None
    # End state: each line's last use, only the last `assoc` of an
    # overflowing set; those must then be `assoc` distinct lines.
    last = so.last
    tail = np.ones(m, dtype=bool)
    np.not_equal(c_set[assoc:], c_set[:-assoc], out=tail[:-assoc])
    if (overflow & tail & ~last).any():
        return None
    end = last & (tail | ~overflow)
    line = so.line
    if flags.any():
        # A line is dirty once a flagged access touched it since its
        # last miss: a cumulative OR over each line's uses (folded
        # repeats ORed into the access they repeat) that restarts at
        # every miss.  An eviction's victim was last used `assoc`
        # accesses before it.
        folded = np.logical_or.reduceat(flags[so.order], so.kept)
        by_line = np.argsort(line, kind="stable")
        flagged = np.cumsum(folded[by_line])
        restart = np.maximum.accumulate(np.where(hit[by_line], 0, np.arange(m)))
        dirty = np.empty(m, dtype=bool)
        dirty[by_line] = flagged > np.concatenate(([0], flagged))[restart]
        wb = evicts[dirty[evicts - assoc]]
        end_dirty = dirty[end]
    else:
        wb = evicts[:0]
        end_dirty = np.zeros(int(np.count_nonzero(end)), dtype=bool)
    hits = np.ones(so.lines.size, dtype=bool)
    hits[so.at[~hit]] = False
    wb_at = so.at[wb]
    by_time = np.argsort(wb_at)
    return hits, wb_at[by_time], line[wb - assoc][by_time], line[end], end_dirty


def _lru_loop(lines, flags, num_sets: int, assoc: int):
    """One LRU pass, one access at a time (OrderedDict recency order).

    ``flags[i]`` dirties the line access ``i`` touches.  Returns, per
    access in time order, whether it hit; the time positions of the
    evictions whose victim was dirty, ascending, and those victims'
    lines; then the end state's lines and dirty bits in (set, recency)
    order, least recent first.
    """
    n = lines.size
    sets = [OrderedDict() for _ in range(num_sets)]
    hits = np.ones(n, dtype=bool)
    wb_at, wb_lines = [], []
    for i, line, flag in zip(count(), lines.tolist(), flags.tolist()):
        od = sets[line % num_sets]
        if line in od:
            od.move_to_end(line)
            if flag:
                od[line] = True
            continue
        hits[i] = False
        if len(od) >= assoc:
            victim, dirty = od.popitem(last=False)
            if dirty:
                wb_at.append(i)
                wb_lines.append(victim)
        od[line] = flag
    end = [item for od in sets for item in od.items()]
    end_lines = np.array([line for line, _ in end], dtype=np.int64)
    end_dirty = np.array([dirty for _, dirty in end], dtype=bool)
    return (
        hits,
        np.array(wb_at, dtype=np.int64),
        np.array(wb_lines, dtype=np.int64),
        end_lines,
        end_dirty,
    )


def _lru(so: _SetOrder, flags, assoc: int):
    """:func:`_lru_kernel`'s outcome, or :func:`_lru_loop`'s if undecided."""
    outcome = _lru_kernel(so, flags, assoc)
    if outcome is None:
        outcome = _lru_loop(so.lines, flags, so.num_sets, assoc)
    return outcome


def _outcomes(lines, flags, ways_by_sets):
    """Every LRU pass over one stream, as ``((num_sets, assoc), outcome)``
    for each associativity in each ``ways_by_sets[num_sets]``.

    One line sort (:func:`_line_uses`) serves every set count.  Per set
    count, ``most`` is the most lines any set holds: a pass with at
    least that many ways never evicts, and :func:`_first_use` decides it
    (once for all of them).  The others share one :func:`_set_order`,
    built only if one of them runs and dropped once they are decided.
    """
    if not ways_by_sets:
        return
    uses = _line_uses(lines, flags)
    for num_sets, ways in ways_by_sets.items():
        sets = _set_index(uses.end_lines, num_sets)
        most = int(np.bincount(sets, minlength=num_sets).max())
        evicting = sorted(assoc for assoc in ways if assoc < most)
        if evicting:
            so = _set_order(lines, num_sets)
            for assoc in evicting:
                yield (num_sets, assoc), _lru(so, flags, assoc)
            del so
        never = sorted(assoc for assoc in ways if assoc >= most)
        if never:
            outcome = _first_use(uses, sets)
            for assoc in never:
                yield (num_sets, assoc), outcome


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

    The pass keeps only its LLC event stream; every L1 total derives
    from it (one fetch event per miss, one writeback event per dirty
    eviction).  ``dirty_lines`` are the end state's dirty lines in the
    (set, recency) order the serial flush walks them.

    ``stream_key`` fingerprints the induced LLC event stream by what
    fixes it: the pass's hit bits (its fetch runs, hence the fetch
    events' positions and lines) and its dirty evictions (the writeback
    events).  Two L1 geometries whose streams collide — common in
    sweeps, e.g. every geometry too small for the working set misses
    identically — share one copy of the event arrays, and LLC passes and
    timing event loops downstream.
    """

    __slots__ = (
        "dirty_lines", "ev_lines", "ev_is_wb", "fetch_runs", "stream_key",
    )


class _LlcPass:
    """One (L1 geometry, LLC geometry) pair's replay of the event stream.

    ``miss`` and ``wb`` are the LLC's misses and dirty evictions, which
    are also its DRAM reads and writes; ``dirty`` is the number of dirty
    lines in the end state.  ``fetch_hits`` is the LLC outcome of every
    fetch event and ``hits_key`` its digest.  ``sets`` is the end state
    (line -> dirty, least recent first, per set), kept only when the L1
    pass leaves dirty lines for the flush to install.
    """

    __slots__ = ("miss", "wb", "dirty", "sets", "fetch_hits", "hits_key")


class _SharedOutcomes:
    """Memoized per-geometry passes over one trace's run stream.

    Every batched entry point builds one of these and runs the passes
    its configs need (:meth:`run_passes`).  Configs sharing an L1
    geometry share its :class:`_L1Pass`, and each (L1 event stream, LLC
    geometry) pair shares its :class:`_LlcPass` — including between the
    hierarchy and timing engines inside :func:`sweep_batch`, whose cache
    state evolves identically.
    """

    def __init__(self, trace: MemoryTrace):
        self.run_lines, self.run_counts, self.run_writes, self.shared = (
            _line_runs_for_batch(trace)
        )
        self.num_accesses = len(trace)
        self.num_runs = int(self.run_lines.shape[0])
        self._l1 = {}
        self._llc = {}
        self._streams = {}
        self._pendings = {}
        self._prefix = None

    @staticmethod
    def _key(cfg):
        return (cfg.num_sets, cfg.associativity)

    def l1(self, cfg) -> _L1Pass:
        return self._l1[self._key(cfg)]

    def llc(self, l1_cfg, llc_cfg) -> _LlcPass:
        return self._llc[self.l1(l1_cfg).stream_key, self._key(llc_cfg)]

    def run_passes(self, socs) -> None:
        """Run every L1 and LLC pass ``socs`` need that has not run yet:
        the L1 passes over the run stream, then the LLC passes over each
        distinct L1 event stream (:func:`_outcomes` per stream)."""
        l1_ways = {}
        for soc in socs:
            if self._key(soc.l1) not in self._l1:
                l1_ways.setdefault(soc.l1.num_sets, set()).add(soc.l1.associativity)
        for key, outcome in _outcomes(self.run_lines, self.run_writes, l1_ways):
            self._l1[key] = self._run_l1(outcome)
        llc_ways = {}
        for soc in socs:
            stream = self.l1(soc.l1).stream_key
            if (stream, self._key(soc.l2)) not in self._llc:
                llc_ways.setdefault(stream, {}).setdefault(
                    soc.l2.num_sets, set()
                ).add(soc.l2.associativity)
        for stream, ways in llc_ways.items():
            l1_pass = self._streams[stream]
            for key, outcome in _outcomes(l1_pass.ev_lines, l1_pass.ev_is_wb, ways):
                self._llc[stream, key] = self._run_llc(l1_pass, key[0], outcome)

    def _run_l1(self, outcome) -> _L1Pass:
        """The L1's LRU pass over the runs, as the LLC events it induces.

        Mirrors the line-run oracle's L1 exactly: per run one lookup; on
        a miss the dirty victim's writeback-install event is emitted
        *before* the fetch event.
        """
        hits, wb_at, wb_lines, end_lines, end_dirty = outcome
        # Over the one run stream, the hit bits fix the fetch events and
        # the dirty evictions the writeback events.
        digest = hashlib.blake2b(np.packbits(hits), digest_size=16)
        digest.update(wb_at)
        digest.update(wb_lines)
        pass_ = _L1Pass()
        pass_.stream_key = key = digest.digest()
        pass_.dirty_lines = end_lines[end_dirty].tolist()
        # Geometries that induce the same events share one copy of them.
        same = self._streams.get(key)
        if same is not None:
            pass_.ev_lines, pass_.ev_is_wb, pass_.fetch_runs = (
                same.ev_lines, same.ev_is_wb, same.fetch_runs
            )
            return pass_
        pass_.fetch_runs = fetch_runs = np.flatnonzero(~hits)
        pass_.ev_lines = self.run_lines[fetch_runs]
        pass_.ev_is_wb = np.zeros(fetch_runs.size + wb_at.size, dtype=bool)
        if wb_at.size:
            # Each writeback goes just before the fetch of the run whose
            # miss evicted its line.
            before = np.searchsorted(fetch_runs, wb_at)
            pass_.ev_lines = np.insert(pass_.ev_lines, before, wb_lines)
            pass_.ev_is_wb[before + np.arange(before.size)] = True
        self._streams[key] = pass_
        return pass_

    def _run_llc(self, l1_pass: _L1Pass, num_sets: int, outcome) -> _LlcPass:
        """The LLC's LRU pass over one L1 geometry's events.

        Writeback-installs are write-allocate (the install is dirty and
        the fill a DRAM read); fetches install clean.  Per fetch the LLC
        hit outcome is recorded for the timing engine.
        """
        hits, wb_at, _, end_lines, end_dirty = outcome
        is_wb = l1_pass.ev_is_wb
        wbs = is_wb.size - l1_pass.fetch_runs.size
        fetch_hits = hits[~is_wb] if wbs else hits
        pass_ = _LlcPass()
        pass_.miss = int(hits.size - np.count_nonzero(hits))
        pass_.wb = int(wb_at.size)
        pass_.dirty = int(np.count_nonzero(end_dirty))
        pass_.fetch_hits = fetch_hits
        pass_.hits_key = hashlib.blake2b(
            np.packbits(fetch_hits), digest_size=16
        ).digest()
        pass_.sets = None
        if l1_pass.dirty_lines:
            pass_.sets = [OrderedDict() for _ in range(num_sets)]
            for line, dirty in zip(end_lines.tolist(), end_dirty.tolist()):
                pass_.sets[line % num_sets][line] = dirty
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
        od = copies.get(set_idx)
        if od is None:
            od = copies[set_idx] = shared[set_idx].copy()
        if line in od:
            od.move_to_end(line)
            if not od[line]:
                od[line] = True
                dirtied += 1
            continue
        misses += 1
        if len(od) >= assoc and od.popitem(last=False)[1]:
            evicted += 1
        od[line] = True
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
    outcomes.run_passes(socs)
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
    serial loop would have accumulated between events.  Each DRAM miss
    issues one completion; completions only ever retire oldest first,
    so they live in the list ``done``, in flight from index ``head``
    on.  ``b if b > a else a`` is ``max(a, b)``, keeping ``a`` on ties.
    """
    llc_penalty = params.llc_hit_cycles * 0.25  # partially overlapped
    mshrs = params.mshrs
    dram_cycles = params.dram_cycles
    issue_interval = params.dram_issue_interval_cycles
    anchor = 0.0
    done: list[float] = []
    issue = done.append
    issued = head = 0
    next_dram_slot = 0.0
    mshr_overflows = 0
    completion_disorder = 0
    for pending, llc_hit in zip(pendings, fetch_hits):
        if llc_hit:
            anchor = anchor + pending * issue_gap + llc_penalty
            continue
        clock = anchor + pending * issue_gap
        while head < issued and done[head] <= clock:
            head += 1
        if issued - head >= mshrs:
            oldest = done[head]
            if oldest > clock:
                clock = oldest
            while head < issued and done[head] <= clock:
                head += 1
        start = next_dram_slot if next_dram_slot > clock else clock
        if strict:
            if head < issued and start + dram_cycles < done[-1]:
                completion_disorder += 1
            if issued - head >= mshrs:
                mshr_overflows += 1
        issue(start + dram_cycles)
        issued += 1
        next_dram_slot = start + issue_interval
        anchor = clock
    clock = anchor + final_pending * issue_gap
    if head < issued and done[-1] > clock:
        clock = done[-1]
    return clock, issued, mshr_overflows, completion_disorder


def _timing_results(
    outcomes, simulators, instructions_per_access, recorder, strict
) -> list[TimingResult]:
    num_accesses = outcomes.num_accesses
    outcomes.run_passes([sim.soc for sim in simulators])
    clocks = {}
    results = []
    for sim in simulators:
        issue_gap = instructions_per_access / sim.soc.sustained_ipc
        l1_pass = outcomes.l1(sim.soc.l1)
        llc_pass = outcomes.llc(sim.soc.l1, sim.soc.l2)
        # The loop reads the L1 pass's fetch positions and the LLC's
        # fetch outcomes, so simulators agreeing on those and on the
        # timing constants share one loop, whatever their LLC geometry;
        # `_finish` still runs once per simulator.
        key = (l1_pass.stream_key, llc_pass.hits_key, sim.params, issue_gap)
        cached = clocks.get(key)
        if cached is None:
            pendings, final_pending = outcomes.pendings(sim.soc.l1)
            cached = clocks[key] = _timing_clock(
                pendings, final_pending, llc_pass.fetch_hits.tolist(),
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
