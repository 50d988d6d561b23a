"""The benchmark's workloads: the CLI calls each one makes and the checks
its outputs must pass.

Each workload is a list of ``xxzquench.cli.main`` argument vectors run in
order in one fresh process; every call is one operation.  An operation
fails when its exit code is not 0 or when its output disagrees with
``reference.json`` beyond the repository's own tolerances, so a correct
round-off change passes and a wrong one is counted.

Only this module names CLI flags; the standard library is
enough here, so the parent process never needs the program's imports.
"""

from __future__ import annotations

import csv
import json
import math
import os

WORKLOADS = ("scan_ff", "disorder_ff", "ed_quench", "ed_compare")

# reference.json holds disorder summaries for seeds 0..DISORDER_SEEDS-1;
# the workload seed is reduced modulo this count.
DISORDER_SEEDS = 32

STATE_TOL = 1e-8    # state values (a, b, c, fef): the engine cross-check tolerance
TIME_TOL = 1e-6     # peak times: the golden-section resolution 1e-6/j at j = 1
GRID_TOL = 1e-12    # grid times and exact labels
# expected_pairs = 2/p with p = f^2 + (1-f)^2 moves about 5x as far as the
# source fidelity f, so STATE_TOL on f allows 5e-8 here.
PAIRS_TOL = 1e-7

# ed_quench rows compared against the reference, out of 2001.
QUENCH_ROWS = tuple(range(0, 2001, 200))
ED_COMPARE_SIZES = (3, 5, 7, 9, 11, 13)

DISORDER_COLUMNS = {
    "sigma": GRID_TOL,
    "realizations": 0.0,
    "mean_peak_fef": STATE_TOL,
    "stderr_peak_fef": STATE_TOL,
    "mean_peak_time": TIME_TOL,
    "stderr_peak_time": TIME_TOL,
    "meancurve_peak_fef": STATE_TOL,
    "meancurve_peak_time": TIME_TOL,
}


def disorder_seed(seed: int) -> int:
    return seed % DISORDER_SEEDS


def calls(workload: str, seed: int) -> list[list[str]]:
    """CLI argument vectors of one run of ``workload``; outputs land in the cwd."""
    if workload == "scan_ff":
        return [
            ["scan-n", "--jobs", "1", "--out", "scan.csv"],
            ["purify", "--record", "scan.csv", "--record-n", "9", "--out", "purify9.json"],
        ]
    if workload == "disorder_ff":
        return [[
            "disorder", "--n", "7", "--sigma", "0,0.1,0.2,0.3", "--realizations", "100",
            "--seed", str(disorder_seed(seed)), "--jobs", "1", "--out", "disorder.csv",
        ]]
    if workload == "ed_quench":
        return [["quench", "--n", "11", "--delta1", "3", "--delta2", "0", "--out", "quench.csv"]]
    if workload == "ed_compare":
        return [["ed-compare", "--n", ",".join(map(str, ED_COMPARE_SIZES)), "--out", "ed_compare.csv"]]
    raise ValueError(f"unknown workload {workload!r}")


def data_files(workload: str) -> list[str]:
    """Data files the workload writes (manifests excluded: they hold timestamps)."""
    return {
        "scan_ff": ["scan.csv", "purify9.json"],
        "disorder_ff": ["disorder.csv", "disorder_timeseries.csv"],
        "ed_quench": ["quench.csv"],
        "ed_compare": ["ed_compare.csv"],
    }[workload]


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _near(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def _check_scan(workdir: str, ref: dict) -> str | None:
    rows = {int(r["n"]): r for r in read_rows(os.path.join(workdir, "scan.csv"))}
    if sorted(rows) != sorted(int(n) for n in ref["t_max"]):
        return f"scan sizes {sorted(rows)} differ from the reference"
    for n, want in ref["t_max"].items():
        got = float(rows[int(n)]["t_max"])
        if not _near(got, want, TIME_TOL):
            return f"scan n={n}: t_max {got!r}, reference {want!r}"
    for n, want in ref["fef_at_tmax"].items():
        got = float(rows[int(n)]["fef_at_tmax"])
        if not _near(got, want, STATE_TOL):
            return f"scan n={n}: fef_at_tmax {got!r}, reference {want!r}"
    return None


def _check_purify(workdir: str, ref: dict) -> str | None:
    with open(os.path.join(workdir, "purify9.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["iterations"] != ref["iterations"]:
        return f"purify: {doc['iterations']} iterations, reference {ref['iterations']}"
    if not _near(float(doc["expected_pairs"]), ref["expected_pairs"], PAIRS_TOL):
        return f"purify: expected_pairs {doc['expected_pairs']!r}, reference {ref['expected_pairs']!r}"
    return None


def _check_disorder(workdir: str, ref_rows: list[dict]) -> str | None:
    rows = read_rows(os.path.join(workdir, "disorder.csv"))
    if len(rows) != len(ref_rows):
        return f"disorder: {len(rows)} summary rows, reference {len(ref_rows)}"
    for got, want in zip(rows, ref_rows):
        for col, tol in DISORDER_COLUMNS.items():
            if not _near(float(got[col]), want[col], tol):
                return f"disorder sigma={want['sigma']}: {col} {got[col]}, reference {want[col]!r}"
    return None


def _check_quench(workdir: str, ref: dict) -> str | None:
    rows = read_rows(os.path.join(workdir, "quench.csv"))
    if len(rows) != ref["rows"]:
        return f"quench: {len(rows)} grid rows, reference {ref['rows']}"
    for idx, want in ref["abc"].items():
        row = rows[int(idx)]
        if not _near(float(row["t"]), want[0], GRID_TOL):
            return f"quench row {idx}: t {row['t']}, reference {want[0]!r}"
        for col, w in zip("abc", want[1:]):
            if not _near(float(row[col]), w, STATE_TOL):
                return f"quench row {idx}: {col} {row[col]}, reference {w!r}"
    return None


def _check_ed_compare(workdir: str, ref: dict) -> str | None:
    rows = read_rows(os.path.join(workdir, "ed_compare.csv"))
    sizes = [int(r["n"]) for r in rows]
    if sizes != ref["n"]:
        return f"ed-compare sizes {sizes}, reference {ref['n']}"
    for r in rows:
        if not float(r["max_dev"]) <= ref["tol"]:
            return f"ed-compare n={r['n']}: max deviation {r['max_dev']} > {ref['tol']}"
    return None


def check(workload: str, workdir: str, ref: dict, seed: int) -> list[str | None]:
    """One problem message (or None) per call of ``calls(workload, seed)``."""
    ref = ref[workload]
    if workload == "scan_ff":
        checks = [lambda: _check_scan(workdir, ref), lambda: _check_purify(workdir, ref["purify"])]
    elif workload == "disorder_ff":
        checks = [lambda: _check_disorder(workdir, ref[str(disorder_seed(seed))])]
    elif workload == "ed_quench":
        checks = [lambda: _check_quench(workdir, ref)]
    else:
        checks = [lambda: _check_ed_compare(workdir, ref)]
    problems = []
    for fn in checks:
        try:
            problems.append(fn())
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
