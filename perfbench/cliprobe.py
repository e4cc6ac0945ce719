"""Run one ``python -m repro`` command with per-layer tracing.

    python perfbench/cliprobe.py EVENTS.json figures
    python perfbench/cliprobe.py EVENTS.json cachesweep --workload all

The command's stdout is passed through unchanged.  EVENTS.json receives
the command's spans (``import.repro_cli``, ``cli.main`` and every span
:mod:`layers` records) on the shared ``perf_counter`` clock, plus the
counters the program published.  The traced ``cli`` workload starts this
script in place of ``python -m repro``.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout


def main(argv: list[str]) -> int:
    out_path, command = argv[0], argv[1:]
    start = time.perf_counter()
    import repro.cli
    imported = time.perf_counter()

    from layers import Tracer, instrumented, program_events
    from repro.obs.recorder import recording

    tracer = Tracer()
    pid = os.getpid()
    tracer.events.append(("import.repro_cli", start, imported, pid))
    buffer = io.StringIO()
    # instrumented() imports the wrapped modules the command has not
    # loaded yet; that falls between the two spans, in neither.
    with recording() as recorder, instrumented(tracer):
        with tracer.span("cli.main"), redirect_stdout(buffer):
            code = repro.cli.main(command)
    with open(out_path, "w") as f:
        json.dump(
            {
                "events": tracer.events + program_events(recorder),
                "counters": recorder.counters.as_dict(),
            },
            f,
            default=float,
        )
    sys.stdout.write(buffer.getvalue())
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
