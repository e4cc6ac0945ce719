"""The benchmark's workloads: one-time set-up, one operation, its check.

Every workload drives the program through public entry points only:
``repro.analysis.report.all_results``/``render_markdown``,
``repro.analysis.cachesweep.sweep_all``, ``repro.core.memo.MemoCache``,
``repro.sim.artifact.TraceStore`` and ``python -m repro`` subprocesses.
Load comes from one closed-loop client: each operation starts after
the previous one has finished.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from layers import program_events

#: The cachesweep workloads, in the order ``--workload all`` runs them.
SWEEP_WORKLOADS = (
    "chrome.compositing_linear",
    "chrome.compositing_tiled",
    "tensorflow.gemm_packed",
    "tensorflow.gemm_unpacked",
)

#: The user commands one ``cli`` operation runs, each in a fresh process.
CLI_COMMANDS = {
    "figures": ["figures"],
    "evaluate": ["evaluate", "--workload", "all"],
    "cachesweep": ["cachesweep", "--workload", "all"],
}

PROBE = Path(__file__).resolve().parent / "cliprobe.py"


def digest(value) -> str:
    """A stable digest of a JSON-able value."""
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def stdout_digest(command: str, text: str) -> str:
    """A digest of a CLI command's stdout, model output only.

    The cachesweep header names the trace artifact's hash and the
    engine that computed the rows; both describe how the rows were
    produced, not what they are, so they are left out.
    """
    if command == "cachesweep":
        text = re.sub(r"  \(artifact [^)]*\)", "", text)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def store_bytes(directory: Path) -> int:
    """Bytes held in a memo cache's segment blobs."""
    return sum(p.stat().st_size for p in directory.glob("*.seg"))


def host_unit() -> float:
    """Wall seconds of a fixed pure-Python job, the best of three tries.

    The job builds small tuples and dicts, does integer and float
    arithmetic and serialises JSON, the kind of work the operations do,
    and calls nothing in the program, so its time tracks only how fast
    the host runs at the moment.  The garbage collector is off while it
    runs (a collection would scan the program's heap) and it works in
    small chunks, so it neither depends on nor raises peak memory.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            for chunk in range(0, 6000, 500):
                rows = [(i, i * 1.5, i * i % 7919) for i in range(chunk, chunk + 500)]
                json.dumps([{"a": a, "b": b, "c": c} for a, b, c in rows])
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


#: What :func:`host_unit` reads on the reference host, a 2-vCPU Xeon VM
#: at its faster clock (see README.md, "Host speed").
REF_UNIT_S = 0.0072


class HostSpeed:
    """Scales wall times to the reference host's speed.

    Shared hosts change speed for seconds to minutes at a time.  Each
    timed step is bracketed by :func:`host_unit` runs, and its wall time
    is multiplied by :data:`REF_UNIT_S` over the mean of the two
    brackets, so a step reads the same whichever speed it ran at.  Call
    :meth:`scale` right after each timed step: the bracket taken then
    also opens the next step.
    """

    def __init__(self):
        self.units = [host_unit()]

    def scale(self, wall: float) -> float:
        self.units.append(host_unit())
        return wall * REF_UNIT_S * 2 / (self.units[-2] + self.units[-1])


class Op:
    """One measured operation: wall time, output check, trace data."""

    def __init__(self, wall: float, ok: bool, detail: str = ""):
        self.wall = wall
        self.scaled = None  # wall at the reference host speed, see HostSpeed
        self.ok = ok
        self.detail = detail
        self.events: list[tuple] = []
        self.counters: dict = {}
        self.extra: dict = {}
        self.commands: dict = {}


class Context:
    """Run-wide settings every workload shares."""

    def __init__(self, root: Path, work: Path, seed: int, reference: dict):
        self.root = root
        self.src = root / "src"
        self.work = work
        self.rng = random.Random(seed)
        self.reference = reference
        self.tracer = None
        self.speed = HostSpeed()
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        self.env["PYTHONPATH"] = str(self.src)
        self.env["TMPDIR"] = str(work)
        self.env["REPRO_CACHE_DIR"] = str(work / "default-cache")

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix + "-", dir=self.work))

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def python(self, args, env=None, check=True) -> subprocess.CompletedProcess:
        done = subprocess.run(
            [sys.executable] + list(args),
            env=env or self.env,
            cwd=self.work,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if check and done.returncode != 0:
            raise RuntimeError(
                "%s exited %d: %s" % (args, done.returncode, done.stderr[-2000:])
            )
        return done


def probe_import(ctx: Context, modules) -> float:
    """Wall seconds of a fresh interpreter importing ``modules``."""
    start = time.perf_counter()
    ctx.python(["-c", "import " + ", ".join(modules)])
    return time.perf_counter() - start


_IMPORT_CLI = (
    "import json, sys, time\n"
    "start = time.perf_counter()\n"
    "import repro.cli\n"
    "seconds = time.perf_counter() - start\n"
    "loaded = [m for m in sys.modules if m == 'repro' or m.startswith('repro.')]\n"
    "print(json.dumps({'seconds': seconds, 'modules': len(loaded)}))\n"
)


def probe_import_cli(ctx: Context) -> dict:
    """``import repro.cli`` seconds and repro modules it loads."""
    return json.loads(ctx.python(["-c", _IMPORT_CLI]).stdout)


class Workload:
    """Base: in-process operations measured against the benchmark process."""

    setup_reps = 7
    rusage = resource.RUSAGE_SELF
    in_process = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.trace_builds: list[float] = []

    def setup(self) -> float:
        """One set-up attempt; returns its wall seconds."""
        return 0.0

    def operation(self) -> Op:
        raise NotImplementedError

    def recording(self):
        if self.ctx.tracer is None:
            return nullcontext()
        from repro.obs.recorder import recording

        return recording()

    def finish(self, op: Op, recorder) -> Op:
        if recorder is not None:
            op.events += program_events(recorder)
            op.counters = recorder.counters.as_dict()
        if self.ctx.tracer is not None:
            op.events += self.ctx.tracer.events
            self.ctx.tracer.events.clear()
        return op


class Figures(Workload):
    """Regenerate all 16 experiments into a fresh memo cache, then render."""

    def operation(self) -> Op:
        from repro.analysis.report import all_results, render_markdown
        from repro.core.memo import MemoCache

        ctx = self.ctx
        memo_dir = ctx.fresh_dir("memo")
        with self.recording() as recorder:
            start = time.perf_counter()
            with ctx.span("op"):
                cache = MemoCache(memo_dir)
                results = all_results(jobs=1, cache=cache)
                with ctx.span("analysis.render"):
                    render_markdown(results)
            wall = time.perf_counter() - start
        cache.close()
        rows = digest([r.to_jsonable() for r in results])
        expected = ctx.reference.get("figures")
        op = Op(wall, rows == expected, "figure rows %s, expected %s" % (rows, expected))
        op.extra["digest"] = rows
        op.extra["bytes_written"] = store_bytes(memo_dir)
        shutil.rmtree(memo_dir, ignore_errors=True)
        return self.finish(op, recorder)


class Sweep(Workload):
    """``sweep_all`` over every cachesweep workload, memo off."""

    jobs = 1

    def setup(self) -> float:
        from repro.analysis.cachesweep import WORKLOADS
        from repro.sim.artifact import TraceStore

        start = time.perf_counter()
        store = TraceStore(self.ctx.fresh_dir("traces"))
        built = 0.0
        for name in SWEEP_WORKLOADS:
            builder = WORKLOADS[name]

            def timed_build(builder=builder):
                nonlocal built
                began = time.perf_counter()
                try:
                    return builder()
                finally:
                    built += time.perf_counter() - began

            store.get_or_build(name, timed_build)
        self.store = store
        self.trace_builds.append(built)
        return time.perf_counter() - start

    def sweep(self, order: list) -> dict:
        from repro.analysis.cachesweep import sweep_all

        return sweep_all(order, store=self.store, cache=None, jobs=1)

    def operation(self) -> Op:
        ctx = self.ctx
        order = list(SWEEP_WORKLOADS)
        ctx.rng.shuffle(order)
        with self.recording() as recorder:
            start = time.perf_counter()
            with ctx.span("op"):
                documents = self.sweep(order)
            wall = time.perf_counter() - start
        rows = digest(
            {
                name: {"rows": doc["rows"], "failures": doc["failures"]}
                for name, doc in documents.items()
            }
        )
        expected = ctx.reference.get("sweep")
        ok = rows == expected and sorted(documents) == sorted(SWEEP_WORKLOADS)
        op = Op(wall, ok, "sweep rows %s, expected %s" % (rows, expected))
        op.extra["digest"] = rows
        return self.finish(op, recorder)


class SweepJobs2(Sweep):
    """The ``sweep`` operation over 2 worker processes, one workload at a time.

    ``sweep_all`` with a single workload and ``jobs=2`` sends the jobs
    into the sharded batch engine: the 9 geometries are split into
    shards that a 2-process ``ResilientMap`` pool evaluates, each worker
    re-opening the trace artifact.  (With all four workloads at once,
    ``jobs=2`` would fan out one workload per worker and never shard.)
    """

    def sweep(self, order: list) -> dict:
        from repro.analysis.cachesweep import sweep_all

        documents = {}
        for name in order:
            documents.update(
                sweep_all([name], store=self.store, cache=None, jobs=2)
            )
        return documents


class Cli(Workload):
    """One cycle of ``figures``, ``evaluate`` and ``cachesweep`` processes."""

    setup_reps = 3
    rusage = resource.RUSAGE_CHILDREN
    in_process = False

    def setup(self) -> float:
        ctx = self.ctx
        self.cache_dir = ctx.fresh_dir("cli-cache")
        self.env = dict(ctx.env, REPRO_CACHE_DIR=str(self.cache_dir))
        start = time.perf_counter()
        for args in CLI_COMMANDS.values():
            ctx.python(["-m", "repro"] + args, env=self.env)
        return time.perf_counter() - start

    def _check(self, command: str, stdout: str) -> str:
        """'' when ``stdout`` matches the reference, else a description."""
        seen = stdout_digest(command, stdout)
        expected = self.ctx.reference.get("cli", {}).get(command)
        if seen == expected:
            return ""
        return "%s stdout %s, expected %s" % (command, seen, expected)

    def operation(self) -> Op:
        ctx = self.ctx
        traced = ctx.tracer is not None
        order = list(CLI_COMMANDS)
        ctx.rng.shuffle(order)
        pid = os.getpid()
        before = store_bytes(self.cache_dir)
        events, counters, walls, problems, digests = [], {}, {}, [], {}
        scaled = gauging = 0.0
        start = time.perf_counter()
        for command in order:
            args = CLI_COMMANDS[command]
            events_path = self.cache_dir.parent / ("events-%d.json" % pid)
            if traced:
                argv = [str(PROBE), str(events_path)] + args
            else:
                argv = ["-m", "repro"] + args
            began = time.perf_counter()
            done = ctx.python(argv, env=self.env, check=False)
            ended = time.perf_counter()
            walls[command] = ended - began
            events.append(("cli." + command, began, ended, pid))
            # The host changes speed within one cycle, so each command is
            # scaled by its own brackets; the gauge is not operation time.
            scaled += ctx.speed.scale(ended - began)
            gauged = time.perf_counter()
            events.append(("benchmark.host_unit", ended, gauged, pid))
            gauging += gauged - ended
            digests[command] = stdout_digest(command, done.stdout)
            if done.returncode != 0:
                problems.append("%s exited %d" % (command, done.returncode))
            else:
                problems.append(self._check(command, done.stdout))
            if traced and events_path.exists():
                record = json.loads(events_path.read_text())
                events += [(n, s, e, pid) for n, s, e, _ in record["events"]]
                for name, value in record["counters"].items():
                    counters[name] = counters.get(name, 0) + value
                events_path.unlink()
        end = time.perf_counter()
        events.append(("op", start, end, pid))
        problems = [p for p in problems if p]
        op = Op(end - start - gauging, not problems, "; ".join(problems))
        op.scaled = scaled
        op.events = events
        op.counters = counters
        op.commands = walls
        op.extra["digest"] = digests
        op.extra["bytes_written"] = store_bytes(self.cache_dir) - before
        return op


WORKLOADS = {
    "figures": Figures,
    "sweep": Sweep,
    "cli": Cli,
    "sweep-jobs2": SweepJobs2,
}

