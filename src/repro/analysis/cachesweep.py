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

A geometry or shard that fails fails the sweep; nothing partial is
returned or memoized.
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


def sweep_all(
    workloads=None,
    socs=None,
    store=None,
    cache=None,
    jobs: int = 1,
    timing_params=None,
    instructions_per_access: float = 2.0,
) -> dict[str, dict]:
    """:func:`run_sweep` for several workloads sharing one store, in turn.

    ``jobs`` goes to each workload's sweep, so with ``jobs > 1`` every
    workload shards its geometries over its own pool
    (:meth:`~repro.core.runner.ConfigSweep.evaluate`).
    """
    from repro.sim.artifact import TraceStore

    store = store or TraceStore()
    names = list(workloads) if workloads is not None else workload_names()
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
