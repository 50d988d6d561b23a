"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

Run from the repository root; takes about half a minute.  Confirms that

- BENCHMARK.json names exactly the metrics the code emits, with the same
  units, and README.md in this directory describes each of them;
- a run emits every end-to-end metric (``--trace 0``) and every per-layer
  metric (``--trace 1``) with its unit, and passes its output checks;
- a deliberately wrong reference value makes the run fail an operation,
  so ``pass_frac`` drops below 1 and ``correct`` is false;
- a boundary, counter or cache the layer trace lost is reported as a
  trace problem, which makes ``run.py`` refuse the traced run;
- in a directory holding only BENCHMARK.json and this directory the
  benchmark exits nonzero without printing a result.

Exits 0 when all hold and 1 with the failed statements otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import layertrace
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = "ed_quench"  # the shortest workload run


def bench(*extra: str, cwd: str = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", WORKLOAD,
         "--seed", "1", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is not None and "metrics" not in result:
        result = None
    return proc.returncode, result


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, statement: str) -> None:
        print(("ok    " if ok else "FAIL  ") + statement)
        if not ok:
            failures.append(statement)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        note = fh.read()
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(declared[0] == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end matches run.py")
    expect(declared[1] == layertrace.UNITS, "BENCHMARK.json per_layer matches layertrace.py")
    undocumented = [n for d in declared.values() for n in d if f"`{n}`" not in note]
    expect(not undocumented, f"README.md describes every metric (missing: {undocumented})")

    for trace in (0, 1):
        code, result = bench("--trace", str(trace))
        expect(code == 0 and result is not None, f"--trace {trace} exits 0 with a result")
        if result is None:
            continue
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"--trace {trace} result has exactly the four keys")
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(units == declared[trace], f"--trace {trace} emits every declared metric with its unit")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"--trace {trace} passes its output checks")

    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    ref[WORKLOAD]["abc"]["1000"][1] += 1e-6  # a at row 1000, 100x the tolerance
    args = argparse.Namespace(workload=WORKLOAD, seed=1, seconds=1, trace=0)
    result, _ = run.measure(args, os.path.join(ROOT, "src"), ref)
    expect(
        result["failed"] >= 1 and not result["correct"]
        and result["metrics"]["pass_frac"]["value"] < 1.0,
        "a wrong reference value fails an operation and lowers pass_frac",
    )

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import xxzquench.cli  # noqa: F401  (the modules the trace wraps)

    tracer = layertrace.Tracer()
    layertrace.BOUNDARIES += (("model", "gone", "model.gone", None, None),)
    tracer.install()
    tracer._wrap(abs, "bad", lambda args, kwargs: args[1], None)(-1)
    layertrace._cache_info(tracer, "model", "gone")
    expect(len(tracer.problems) == 3,
           f"a lost boundary, counter and cache are trace problems ({tracer.problems})")

    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result = bench("--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "without the program it exits nonzero and prints no result")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
