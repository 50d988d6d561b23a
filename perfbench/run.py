"""Benchmark of the xxzquench command line, driven from outside the program.

    python3 perfbench/run.py --workload scan_ff --seed 1 --seconds 32 --trace 0

Run from the repository root; the program is imported from ``src/``.
Every workload run is a fresh single-threaded process (``--jobs 1``,
BLAS/OpenMP pinned to one thread) that times its ``cli.main`` calls, and
every output is checked against ``reference.json``.  Runs repeat until
the next one would end after ``--seconds``; medians are reported.

``--trace 0`` reports the end-to-end metrics:
  wall_rel     median over runs of the workload's summed cli.main seconds
               over the mean of the two reference launches around the run
               (see REF_LAUNCH); the seconds themselves are in the record
  setup_s      median of warm fresh-interpreter launches doing
               ``import xxzquench.cli`` + ``build_parser()``, spread
               through the run after one untimed launch
  peak_rss_mb  median ru_maxrss of the workload processes
  pass_frac    operations (cli.main calls) that exited 0 with correct
               output, over operations attempted
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced run with the median wall time (see
``layertrace.py``), plus ``trace.overhead_s`` and ``host.calib_s`` (the
median reference launch).  A traced run whose trace lost a boundary, a
counter or a cache is refused: those metrics would read 0, as for a layer
the workload never enters.

The last stdout line is the result JSON; the line before it, also saved
under ``perfbench/out/``, records the environment and every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}
PROBES_PER_CYCLE = 2
MIN_SETUP_PROBES = 12
CHILD_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 30

SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import xxzquench.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)

# The reference launch: a fresh interpreter that imports numpy and runs a
# fixed kernel of dense eigensolves and a Python loop, the kinds of work the
# workloads do, without the program.  On a shared 2-core VM every process
# ran up to 1.7x slower in phases of seconds to minutes; timed right before
# and after each workload process, this launch slows with it, so wall_rel
# keeps the program's cost and drops most of the host's phase.
REF_LAUNCH = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import numpy as np\n"
    "i = np.arange(300.0)\n"
    "h = np.cos(np.add.outer(i, i)) + np.diag(i)\n"
    "for _ in range(3):\n"
    "    np.linalg.eigh(h)\n"
    "acc = 0\n"
    "for k in range(300_000):\n"
    "    acc += k * k\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(Exception):
    """The benchmark cannot measure here; no result is printed."""


def environment() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    simd = cfg["SIMD Extensions"]
    return {
        "nproc": os.cpu_count(),
        "cpu": f"{platform.machine()} with {' '.join(simd['found'])}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "threads": PINNED_THREADS,
        "jobs": 1,
    }


def child_env(src: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        **PINNED_THREADS,
        PYTHONPATH=src + (os.pathsep + path if path else ""),
        PYTHONHASHSEED="0",
    )


def launch(env: dict, code: str) -> float:
    """Seconds that ``code`` (SETUP_PROBE or REF_LAUNCH) prints when run in a
    fresh interpreter."""
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"launch failed: {exc}\n{exc.stderr or ''}") from exc
    return float(proc.stdout)


def run_once(workload: str, seed: int, env: dict, src: str, ref: dict,
             spans_path: str | None = None) -> tuple[dict | None, list[str | None]]:
    """One workload process; returns its child.json (None if it produced
    none) and one problem message or None per operation."""
    n_calls = len(workloads.calls(workload, seed))
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    cmd = [sys.executable, CHILD, workload, str(seed), workdir]
    try:
        try:
            proc = subprocess.run(
                cmd + ([spans_path] if spans_path else []), env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, [f"timed out after {CHILD_TIMEOUT_S} s"] * n_calls
        try:
            with open(os.path.join(workdir, "child.json"), encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            return None, [f"workload process exited {proc.returncode}: {tail}"] * n_calls
        if not os.path.abspath(doc["module"]).startswith(src + os.sep):
            raise BenchError(f"imported {doc['module']}, not the sources under {src}")
        problems = workloads.check(workload, workdir, ref, seed)
        for i, call in enumerate(doc["calls"]):
            if call["exit"] != 0:
                problems[i] = f"exit code {call['exit']}"
        return doc, problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, src: str, ref: dict) -> tuple[dict, dict]:
    """Repeat the workload until the deadline; return (result, record)."""
    env = child_env(src)
    probes: list[float] = []
    ratios: list[float] = []
    plain: list[dict] = []
    traced: list[tuple[dict, str]] = []
    problems: list[str | None] = []
    # untimed: compile bytecode and warm the page cache
    if not args.trace:
        launch(env, SETUP_PROBE)
    launch(env, REF_LAUNCH)
    refs = [launch(env, REF_LAUNCH)]
    deadline = time.perf_counter() + args.seconds
    cycles: list[float] = []
    while True:
        start = time.perf_counter()
        if not args.trace:
            probes += [launch(env, SETUP_PROBE) for _ in range(PROBES_PER_CYCLE)]
        doc, found = run_once(args.workload, args.seed, env, src, ref)
        refs.append(launch(env, REF_LAUNCH))
        problems += found
        if doc:
            plain.append(doc)
            ratios.append(doc["wall_s"] / statistics.fmean(refs[-2:]))
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}-{len(traced)}.json")
            doc, found = run_once(args.workload, args.seed, env, src, ref, spans)
            problems += found
            if doc and doc["trace_problems"]:
                raise BenchError("the layer trace no longer fits the program: "
                                 + "; ".join(doc["trace_problems"]))
            if doc:
                traced.append((doc, spans))
        cycles.append(time.perf_counter() - start)
        # stop before a cycle that would end past the deadline
        if time.perf_counter() + statistics.median(cycles) > deadline:
            break
    while not args.trace and len(probes) < MIN_SETUP_PROBES:
        probes.append(launch(env, SETUP_PROBE))

    if not plain or (args.trace and not traced):
        raise BenchError(f"no workload process finished: {next(p for p in problems if p)}")
    walls = [d["wall_s"] for d in plain]
    failed = sum(p is not None for p in problems)
    if args.trace:
        traced.sort(key=lambda item: item[0]["wall_s"])
        doc, spans = traced[(len(traced) - 1) // 2]
        keep = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        os.replace(spans, keep)
        for _, other in traced:
            if other != spans:
                os.remove(other)
        values = dict(doc["layers"])
        values["trace.overhead_s"] = (
            statistics.median(d["wall_s"] for d, _ in traced) - statistics.median(walls)
        )
        values["host.calib_s"] = statistics.median(refs)
        units = layertrace.UNITS
    else:
        values = {
            "wall_rel": statistics.median(ratios),
            "setup_s": statistics.median(probes),
            "peak_rss_mb": statistics.median(d["maxrss_mb"] for d in plain),
            "pass_frac": (len(problems) - failed) / len(problems),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "wall_s": walls,
        "wall_rel": ratios,
        "ref_s": refs,
        "traced_wall_s": [d["wall_s"] for d, _ in traced],
        "setup_s": probes,
        "peak_rss_mb": [d["maxrss_mb"] for d in plain],
        "problems": [p for p in problems if p],
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "xxzquench", "cli.py")):
        print("perfbench: no src/xxzquench here; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    try:
        result, record = measure(args, src, ref)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
