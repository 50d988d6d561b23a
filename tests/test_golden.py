"""Golden outputs: the data files of small runs of every CLI command.

A refactor that claims to change no number must leave these files as they
are.  Values are compared at 1e-12 rather than byte for byte, so that a
different BLAS, which may round the last digit differently, still passes;
labels, headers and row counts must match exactly.  Manifests are not
pinned: they hold timestamps and runtimes.

Regenerate the files (only for a deliberate numerical change, reported
with its largest deviation) with

    PYTHONPATH=src python tests/test_golden.py [run ...]

which rewrites the files of the named runs (the keys of RUN_FILES), or of
every run when none is named, so that the last digits another BLAS writes
move no file that the change leaves alone.
"""

import json
import math
import os
import shutil
import sys

import pytest

from xxzquench import cli, freefermion

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


# run name -> its data files, the record-based purification of scan_ff last
RUN_FILES = {name: files for name, (_, files) in RUNS.items()}
RUN_FILES["purify_record"] = ["purify_record.json"]


def run_all(workdir: str, names=RUN_FILES) -> None:
    """Write the data files of the runs ``names`` into ``workdir``; the
    record-based purification reads the free-fermion scan, run before it."""
    names = set(names) | ({"scan_ff"} if "purify_record" in names else set())
    for name, (argv, files) in RUNS.items():
        if name in names:
            assert cli.main([*argv, "--out", os.path.join(workdir, files[0])]) == 0
    if "purify_record" in names:
        record = ["purify", "--record", os.path.join(workdir, "scan_ff.csv"), "--record-n", "9"]
        assert cli.main([*record, "--out", os.path.join(workdir, "purify_record.json")]) == 0


def golden_files() -> list[str]:
    return [f for files in RUN_FILES.values() for f in files]


def regenerate(names, golden_dir: str = GOLDEN_DIR) -> None:
    """Rewrite the golden files of the runs ``names``, of every run when
    ``names`` is empty, in ``golden_dir``; the other files stay as they are."""
    names = list(names) or list(RUN_FILES)
    unknown = sorted(set(names) - set(RUN_FILES))
    if unknown:
        raise ValueError(f"unknown golden runs {unknown}; the runs are {list(RUN_FILES)}")
    os.makedirs(golden_dir, exist_ok=True)
    scratch = os.path.join(golden_dir, "_run")
    os.makedirs(scratch, exist_ok=True)
    try:
        run_all(scratch, names)
        for name in names:
            for file in RUN_FILES[name]:
                shutil.copyfile(os.path.join(scratch, file), os.path.join(golden_dir, file))
    finally:
        shutil.rmtree(scratch)


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


# Free-fermion runs whose grids the chunk budget splits, at default sizes
BUDGET_RUNS = {
    "scan.csv": ["scan-n", "--jobs", "1"],
    "disorder7.csv": ["disorder", "--n", "7", "--jobs", "1"],
    "disorder8.csv": ["disorder", "--n", "8", "--sigma", "0,0.3", "--realizations", "7",
                      "--jobs", "1"],
    "quench240.csv": ["quench", "--n", "240"],
    "quench241.csv": ["quench", "--n", "241"],
    "quench61.csv": ["quench", "--n", "61", "--sigma", "0.2", "--seed", "5"],
}


def test_data_files_do_not_depend_on_the_chunk_budget(tmp_path, monkeypatch):
    # the golden runs and the runs above at 1/4, 1 and 4 times the
    # free-fermion CHUNK_BYTES write the same bytes
    shipped, files = freefermion.CHUNK_BYTES, {}
    try:
        for factor in (1, 0.25, 4):
            monkeypatch.setattr(freefermion, "CHUNK_BYTES", int(factor * shipped))
            freefermion._chain.cache_clear()
            workdir = tmp_path / str(factor)
            workdir.mkdir()
            run_all(str(workdir))
            for name, argv in BUDGET_RUNS.items():
                assert cli.main([*argv, "--out", str(workdir / name)]) == 0
            files[factor] = {path.name: path.read_bytes() for path in workdir.iterdir()
                             if not path.name.endswith(".manifest.json")}
    finally:
        freefermion._chain.cache_clear()
    assert len(files[1]) == len(golden_files()) + len(BUDGET_RUNS) + 2  # two timeseries
    for factor in (0.25, 4):
        assert sorted(files[factor]) == sorted(files[1])
        for name, data in files[1].items():
            assert files[factor][name] == data, (factor, name)


def test_regeneration_rewrites_only_the_named_runs(tmp_path):
    # the record-based purification runs the scan it reads, but only its
    # own file is written; a name that is no run is refused
    regenerate(["purify_record", "purify_value"], str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["purify_record.json", "purify_value.json"]
    for name in os.listdir(tmp_path):
        _compare_json(json.loads(_read(str(tmp_path / name))),
                      json.loads(_read(os.path.join(GOLDEN_DIR, name))), name)
    with pytest.raises(ValueError, match="unknown golden runs"):
        regenerate(["scan_ff.csv"], str(tmp_path))


if __name__ == "__main__":
    regenerate(sys.argv[1:])
