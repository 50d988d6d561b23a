"""Regenerate ``reference.json``, the outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the repository root.  Runs every workload once in this process
(the disorder workload once per reference seed, about two minutes in all)
and records the values ``workloads.check`` compares.  Regenerate only when
the program's outputs are meant to change, and say so where the change is
described.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def run(cli, workload: str, seed: int, tmp: str) -> str:
    """Run the workload's calls in a fresh directory under ``tmp`` and return it."""
    workdir = tempfile.mkdtemp(dir=tmp)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in workloads.calls(workload, seed):
            if cli.main(argv) != 0:
                raise SystemExit(f"{workload}: {' '.join(argv)} failed")
    finally:
        os.chdir(cwd)
    return workdir


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    import xxzquench.cli as cli

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        ref = reference(cli, tmp)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def reference(cli, tmp: str) -> dict:
    ref: dict = {"generated_with": f"xxzquench {cli.__version__}"}

    d = run(cli, "scan_ff", 1, tmp)
    scan = workloads.read_rows(os.path.join(d, "scan.csv"))
    with open(os.path.join(d, "purify9.json"), encoding="utf-8") as fh:
        pur = json.load(fh)
    ref["scan_ff"] = {
        "t_max": {r["n"]: float(r["t_max"]) for r in scan},
        "fef_at_tmax": {r["n"]: float(r["fef_at_tmax"]) for r in scan},
        "purify": {"iterations": pur["iterations"], "expected_pairs": pur["expected_pairs"]},
    }

    ref["disorder_ff"] = {}
    for seed in range(workloads.DISORDER_SEEDS):
        d = run(cli, "disorder_ff", seed, tmp)
        ref["disorder_ff"][str(seed)] = [
            {col: float(r[col]) for col in workloads.DISORDER_COLUMNS}
            for r in workloads.read_rows(os.path.join(d, "disorder.csv"))
        ]

    d = run(cli, "ed_quench", 1, tmp)
    quench = workloads.read_rows(os.path.join(d, "quench.csv"))
    ref["ed_quench"] = {
        "rows": len(quench),
        "abc": {
            str(i): [float(quench[i][k]) for k in ("t", "a", "b", "c")]
            for i in workloads.QUENCH_ROWS
        },
    }

    # ed-compare checks itself against the engines' 1e-8 agreement tolerance.
    ref["ed_compare"] = {"n": list(workloads.ED_COMPARE_SIZES), "tol": cli.ED_COMPARE_TOL}
    return ref


if __name__ == "__main__":
    sys.exit(main())
