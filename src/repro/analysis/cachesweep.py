"""Cache design-space sweeps: trace once, evaluate many geometries.

The paper's locality arguments (packed GEMM operands, tiled textures)
are claims about how an access stream interacts with a cache hierarchy.
This module turns them into design-space sweeps: each workload's memory
trace is materialized **once** as an on-disk columnar artifact
(:class:`repro.sim.artifact.TraceStore`) and then replayed under a grid
of cache geometries through the config-batched engine
(:func:`repro.sim.batch.sweep_batch`), which evaluates every geometry
in a single pass over the shared run stream.

Layer composition (deliberately the same stack as the figure sweeps):

* the **artifact** layer deduplicates kernel tracing across sweep
  points, processes, and sessions, keyed by workload + code version;
* the **memo** layer (:class:`repro.core.memo.MemoCache`) caches whole
  sweep results, keyed by the artifact's ``content_hash`` + the
  geometry grid, so a repeated sweep is a single JSON read.

A geometry, shard or workload that fails fails the sweep; nothing
partial is returned or memoized.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.config import KB, MB, CacheConfig, SocConfig, soc_cache_label
from repro.obs.recorder import get_recorder


def _gemm_trace(packed: bool):
    from repro.workloads.tensorflow.access_patterns import gemm_lhs_trace

    # One 128x512 LHS operand re-traversed by 4 RHS blocks: small enough
    # to sweep quickly, large enough (64 kB operand) that geometry
    # choices move the miss counts.
    return gemm_lhs_trace(m=128, k=512, n_blocks=4, packed=packed)


def _compositing_trace(tiled: bool):
    from repro.workloads.chrome.texture import compositing_trace

    return compositing_trace(width=512, height=256, tiled=tiled)


#: Sweepable workloads: name -> zero-argument trace builder.  Names are
#: part of the artifact-store key; keep them stable.
WORKLOADS = {
    "tensorflow.gemm_unpacked": lambda: _gemm_trace(packed=False),
    "tensorflow.gemm_packed": lambda: _gemm_trace(packed=True),
    "chrome.compositing_linear": lambda: _compositing_trace(tiled=False),
    "chrome.compositing_tiled": lambda: _compositing_trace(tiled=True),
}


def workload_names() -> list[str]:
    return sorted(WORKLOADS)


def default_geometry_grid() -> list[SocConfig]:
    """The default sweep grid: 3 L1 sizes x 3 LLC sizes around Table 1.

    The paper's SoC (64 kB L1 / 2 MB LLC) sits at the center; the grid
    halves and doubles each level so every workload's sweep shows where
    its working set falls out of (or into) each cache.
    """
    l1s = [
        CacheConfig(size_bytes=32 * KB, associativity=4),
        CacheConfig(size_bytes=64 * KB, associativity=4),
        CacheConfig(size_bytes=128 * KB, associativity=8),
    ]
    llcs = [
        CacheConfig(size_bytes=1 * MB, associativity=8, hit_latency_cycles=20),
        CacheConfig(size_bytes=2 * MB, associativity=8, hit_latency_cycles=20),
        CacheConfig(size_bytes=4 * MB, associativity=16, hit_latency_cycles=20),
    ]
    return [SocConfig(l1=l1, l2=llc) for l1 in l1s for llc in llcs]


def run_sweep(
    workload: str,
    socs=None,
    store=None,
    cache=None,
    jobs: int = 1,
    timing_params=None,
    instructions_per_access: float = 2.0,
) -> dict:
    """Sweep one workload's trace across cache geometries.

    Returns a JSON-able document::

        {"workload", "artifact",   # trace content hash
         "batched": True,          # always: one engine produces the rows
         "rows": [...],            # one dict per geometry
         "failures": []}           # always empty: a failure raises

    Args:
        workload: a :data:`WORKLOADS` name.
        socs: geometry grid (default :func:`default_geometry_grid`).
        store: :class:`~repro.sim.artifact.TraceStore` holding the
            shared artifacts (default: the package cache directory).
        cache: optional :class:`~repro.core.memo.MemoCache`; hits skip
            the replay entirely.
        jobs: forwarded to
            :meth:`~repro.core.runner.ConfigSweep.evaluate`.
    """
    from repro.sim.artifact import TraceStore
    from repro.sim.timing import TimingParameters

    try:
        builder = WORKLOADS[workload]
    except KeyError:
        raise ValueError(
            "unknown sweep workload %r; available: %s"
            % (workload, ", ".join(workload_names()))
        ) from None
    socs = list(socs) if socs is not None else default_geometry_grid()
    timing_params = timing_params or TimingParameters()
    store = store or TraceStore()
    recorder = get_recorder()
    with recorder.span("analysis.cachesweep.%s" % workload):
        artifact = store.get_or_build(workload, builder)
        memo_config = None
        if cache is not None:
            memo_config = {
                "artifact": artifact.content_hash,
                "configs": [soc_cache_label(s) for s in socs],
                "timing": asdict(timing_params),
                "instructions_per_access": instructions_per_access,
            }
            hit = cache.get("cachesweep.%s" % workload, memo_config)
            if hit is not None:
                return hit
        # Only a miss replays: the engine (offload, energy, batch) loads here.
        from repro.core.runner import ConfigSweep

        sweep = ConfigSweep(
            artifact,
            timing_params=timing_params,
            instructions_per_access=instructions_per_access,
        )
        rows = sweep.evaluate(socs, jobs=jobs)
        document = {
            "workload": workload,
            "artifact": artifact.content_hash,
            # Always True (the batched engine is the only one); kept so
            # the document's shape is stable.
            "batched": True,
            "rows": rows,
            "failures": [],
        }
        if cache is not None:
            cache.put("cachesweep.%s" % workload, document, memo_config)
    return document


#: Per-process settings for cross-workload fan-out (set by the pool
#: initializer); workers rebuild their own store/cache handles from it.
_WORKLOAD_STATE = None


def _init_workload_worker(settings, observe: bool = False):
    global _WORKLOAD_STATE
    from repro.core.runner import _install_worker_fault_handlers

    _WORKLOAD_STATE = settings
    _install_worker_fault_handlers()
    if observe:
        from repro.obs.recorder import Recorder, set_recorder

        set_recorder(Recorder())


def _sweep_workload_in_worker(job):
    """One workload's sweep document, built from per-process handles.

    The worker opens its own :class:`TraceStore` (artifact saves are
    atomic, so concurrent builders converge on identical files) and its
    own :class:`MemoCache` (per-process segment blobs make concurrent
    writers safe by construction).
    """
    from repro.core.memo import MemoCache
    from repro.sim.artifact import TraceStore

    name, inner_jobs = job
    s = _WORKLOAD_STATE
    store = TraceStore(s["store_dir"], version=s["store_version"])
    cache = None
    if s["cache_dir"] is not None:
        cache = MemoCache(s["cache_dir"], version=s["cache_version"])
    try:
        return run_sweep(
            name,
            socs=s["socs"],
            store=store,
            cache=cache,
            jobs=inner_jobs,
            timing_params=s["timing_params"],
            instructions_per_access=s["instructions_per_access"],
        )
    finally:
        if cache is not None:
            cache.close()


def _sweep_workload_in_worker_observed(job):
    """Workload task when observability is on: (document, obs snapshot)."""
    recorder = get_recorder()
    recorder.reset()
    with recorder.span("analysis.cachesweep.worker.%s" % job[0]):
        document = _sweep_workload_in_worker(job)
    return document, recorder.snapshot()


def plan_inner_jobs(jobs: int, n_workloads: int) -> list[int]:
    """Distribute a ``--jobs`` budget across workload fan-out workers.

    Each of the ``n_workloads`` outer workers gets at least one inner
    job; surplus cores (``jobs > n_workloads``) are spread
    deterministically, the first ``jobs % n_workloads`` workloads (in
    list order) receiving one extra.  ``sum(plan) == max(jobs,
    n_workloads)``, so the sweep never idles cores it was granted nor
    oversubscribes beyond the rounding a floor split requires.
    """
    n_workloads = max(int(n_workloads), 1)
    jobs = max(int(jobs), 1)
    if jobs <= n_workloads:
        return [1] * n_workloads
    base, extra = divmod(jobs, n_workloads)
    return [base + 1 if i < extra else base for i in range(n_workloads)]


def sweep_all(
    workloads=None,
    socs=None,
    store=None,
    cache=None,
    jobs: int = 1,
    timing_params=None,
    instructions_per_access: float = 2.0,
) -> dict[str, dict]:
    """:func:`run_sweep` for several workloads sharing one store.

    With ``jobs > 1`` and more than one workload, sweeps fan out across
    pool workers through :class:`~repro.core.resilience.ResilientMap`,
    one workload per worker.  Surplus jobs beyond the workload count
    flow into each workload's sharded batch engine
    (:func:`plan_inner_jobs`), so ``--workload all --jobs 8`` with 3
    workloads still uses 8 cores.  With a single workload, ``jobs``
    flows into the sharded batch engine
    (:meth:`~repro.core.runner.ConfigSweep.evaluate`) directly.
    """
    from repro.sim.artifact import TraceStore

    store = store or TraceStore()
    names = list(workloads) if workloads is not None else workload_names()
    if jobs > 1 and len(names) > 1:
        return _sweep_all_parallel(
            names, socs, store, cache, jobs,
            timing_params, instructions_per_access,
        )
    return {
        name: run_sweep(
            name,
            socs=socs,
            store=store,
            cache=cache,
            jobs=jobs,
            timing_params=timing_params,
            instructions_per_access=instructions_per_access,
        )
        for name in names
    }


def _sweep_all_parallel(
    names, socs, store, cache, jobs,
    timing_params, instructions_per_access,
):
    from repro.core.resilience import ResilientMap

    recorder = get_recorder()
    observe = recorder.enabled
    settings = {
        "socs": list(socs) if socs is not None else None,
        "store_dir": str(store.directory),
        "store_version": store.version,
        "cache_dir": str(cache.directory) if cache is not None else None,
        "cache_version": cache.version if cache is not None else None,
        "timing_params": timing_params,
        "instructions_per_access": instructions_per_access,
    }
    jobs_used = min(jobs, len(names))
    values = ResilientMap(
        _sweep_workload_in_worker_observed if observe else _sweep_workload_in_worker,
        list(zip(names, plan_inner_jobs(jobs, len(names)))),
        jobs=jobs_used,
        initializer=_init_workload_worker,
        initargs=(settings, observe),
    ).run()
    documents = {}
    for name, document in zip(names, values):
        if observe:
            document, snapshot = document
            recorder.merge_snapshot(snapshot)
        documents[name] = document
    if observe:
        recorder.counters.add(
            "analysis.cachesweep.parallel_workloads", len(names)
        )
        recorder.counters.max("core.runner.pool_workers", jobs_used)
    return documents
