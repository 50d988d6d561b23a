"""Golden outputs: the data files of small runs of every CLI command.

A refactor that claims to change no number must leave these files as they
are.  Values are compared at 1e-12 rather than byte for byte, so that a
different BLAS, which may round the last digit differently, still passes;
labels, headers and row counts must match exactly.  Manifests are not
pinned: they hold timestamps and runtimes.

Regenerate the files (only for a deliberate numerical change, reported
with its largest deviation) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
import shutil

import pytest

from xxzquench import cli

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
VALUE_TOL = 1e-12

GRID = ["--t-max-horizon", "4", "--grid-step", "0.05"]

# run name -> (CLI arguments before --out, data files written, main file first)
RUNS = {
    "quench_ff": (["quench", "--n", "9", *GRID], ["quench_ff.csv"]),
    "quench_ed": (
        ["quench", "--n", "7", "--delta1", "3", "--delta2", "0.5", "--engine", "ed", *GRID],
        ["quench_ed.csv"],
    ),
    "quench_ed_disordered": (
        ["quench", "--n", "6", "--sigma", "0.5", "--seed", "2", "--delta1", "3",
         "--delta2", "0.2", *GRID],
        ["quench_ed_disordered.csv"],
    ),
    "scan_ff": (["scan-n", "--n", "3,5,7,9", "--jobs", "1"], ["scan_ff.csv"]),
    "scan_ed": (
        ["scan-n", "--n", "3,5,7", "--delta1", "3", "--jobs", "1"], ["scan_ed.csv"],
    ),
    "disorder": (
        ["disorder", "--n", "5", "--sigma", "0,0.2", "--realizations", "4", "--seed", "3",
         "--grid-step", "0.02", "--jobs", "1"],
        ["disorder.csv", "disorder_timeseries.csv"],
    ),
    "ed_compare": (["ed-compare", "--n", "3,4,5,7", "--grid-points", "20"], ["ed_compare.csv"]),
    "purify_value": (["purify", "--fef", "0.9117"], ["purify_value.json"]),
}


def run_all(workdir: str) -> None:
    """Write every run's data files into ``workdir``; the record-based
    purification reads the free-fermion scan written before it."""
    for argv, files in RUNS.values():
        assert cli.main([*argv, "--out", os.path.join(workdir, files[0])]) == 0
    record = ["purify", "--record", os.path.join(workdir, "scan_ff.csv"), "--record-n", "9"]
    assert cli.main([*record, "--out", os.path.join(workdir, "purify_record.json")]) == 0


def golden_files() -> list[str]:
    return [f for _, files in RUNS.values() for f in files] + ["purify_record.json"]


def _same_value(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(w):
        return math.isnan(g)
    return math.isclose(g, w, rel_tol=VALUE_TOL, abs_tol=VALUE_TOL)


def _compare_json(got, want, where: str) -> None:
    assert type(got) is type(want) or {type(got), type(want)} <= {int, float}, where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=VALUE_TOL, abs_tol=VALUE_TOL), (where, got, want)
    else:
        assert got == want, where


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("golden"))
    run_all(workdir)
    return workdir


@pytest.mark.parametrize("name", golden_files())
def test_cli_data_files_match_golden(outputs, name):
    got, want = _read(os.path.join(outputs, name)), _read(os.path.join(GOLDEN_DIR, name))
    if name.endswith(".json"):
        _compare_json(json.loads(got), json.loads(want), name)
        return
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    assert got_rows[0] == want_rows[0]
    assert len(got_rows) == len(want_rows)
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        assert len(g) == len(w), f"{name} row {i}"
        bad = [(x, y) for x, y in zip(g, w) if not _same_value(x, y)]
        assert not bad, f"{name} row {i}: {bad}"


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    scratch = os.path.join(GOLDEN_DIR, "_run")
    os.makedirs(scratch, exist_ok=True)
    try:
        run_all(scratch)
        for name in golden_files():
            shutil.copyfile(os.path.join(scratch, name), os.path.join(GOLDEN_DIR, name))
    finally:
        shutil.rmtree(scratch)
