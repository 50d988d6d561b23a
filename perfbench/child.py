"""One timed run of a workload in a fresh process.

    python child.py <workload> <seed> <workdir> [<spans.json>]

Imports ``xxzquench.cli`` (from PYTHONPATH), then runs the workload's
``cli.main`` calls in ``workdir``, timing each with ``time.perf_counter``
so that imports are excluded.  Writes ``child.json`` into ``workdir``:
the exit code and seconds of every call, their sum ``wall_s`` and the
process's peak RSS.  With a spans path the calls run under the layer
trace, the spans are written there, and the per-layer metrics and the
trace's problems (see ``layertrace.Tracer.problems``) are added to
``child.json``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import workloads


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    spans_path = argv[3] if len(argv) > 3 else None
    import xxzquench.cli as cli

    tracer = None
    if spans_path:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    os.chdir(workdir)
    calls = []
    for argv_call in workloads.calls(workload, seed):
        start = time.perf_counter()
        try:
            code = cli.main(argv_call)
        except Exception:  # a crash is one failed operation; the run goes on
            traceback.print_exc()
            code = -1
        calls.append({"exit": code, "wall_s": time.perf_counter() - start})
    doc = {
        "module": cli.__file__,
        "calls": calls,
        "wall_s": sum(c["wall_s"] for c in calls),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        written = sum(os.path.getsize(f) for f in workloads.data_files(workload) if os.path.exists(f))
        doc["layers"] = layertrace.layer_metrics(tracer, written)
        doc["trace_problems"] = tracer.problems
        tracer.write(spans_path, doc["layers"])
    with open("child.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
