import concurrent.futures
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxzquench import cli, entangle, exactdiag, freefermion, model
from xxzquench.errors import ConvergenceError, NoPeakError, NumericalFaultError


def run(*argv):
    return cli.main(list(argv))


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def col(header, rows, name, cast=float):
    i = header.index(name)
    return [cast(r[i]) for r in rows]


def test_quench_single_point_grid(tmp_path):
    out = tmp_path / "q.csv"
    assert run("quench", "--n", "7", "--t-max-horizon", "0",
               "--grid-step", "0.1", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["t", "a", "b", "c", "fef", "negativity"]
    assert len(rows) == 1
    assert rows[0][header.index("fef")] == "0.5"
    assert rows[0][header.index("t")] == "0"


def test_quench_three_sites_closed_form(tmp_path):
    out = tmp_path / "q3.csv"
    assert run("quench", "--n", "3", "--t-max-horizon", "3",
               "--grid-step", "0.05", "--out", str(out)) == 0
    header, rows = read_csv(out)
    ts = np.array(col(header, rows, "t"))
    a = np.array(col(header, rows, "a"))
    fef = np.array(col(header, rows, "fef"))
    expected = np.maximum(a, np.sin(math.sqrt(2) * ts) ** 2)
    assert np.max(np.abs(fef - expected)) < 1e-10


@pytest.mark.parametrize("command, argv, values", [
    ("quench", ["--n", "9"], ["a", "b", "c", "fef", "negativity"]),
    ("scan-n", ["--n", "3,5,7,9,61", "--jobs", "1"], ["fef_at_tmax"]),
])
def test_default_grid_does_not_depend_on_the_unit_of_j(tmp_path, command, argv, values):
    # j = 2^40 scales every time by exactly 2^-40, so the default grid
    # keeps its points and the state values keep their bytes
    tables = []
    for j in ("1", str(2**40)):
        out = tmp_path / f"j{j}.csv"
        assert run(command, *argv, "--j", j, "--out", str(out)) == 0
        tables.append(read_csv(out))
    (header, unit), (_, scaled) = tables
    assert len(scaled) == len(unit)
    for name in values:
        assert col(header, scaled, name, str) == col(header, unit, name, str)
    when = "t" if command == "quench" else "t_max"
    assert col(header, scaled, when) == [t * 2.0**-40 for t in col(header, unit, when)]


def test_quench_peak_matches_find_tmax(tmp_path):
    out = tmp_path / "q7.csv"
    assert run("quench", "--n", "7", "--out", str(out)) == 0
    header, rows = read_csv(out)
    fef = np.array(col(header, rows, "fef"))
    ts = np.array(col(header, rows, "t"))
    ref = entangle.find_tmax("freefermion", model.ChainSpec(n=7))
    i = int(np.argmax(fef))
    assert abs(fef[i] - ref.fef_at_tmax) < 1e-6
    assert abs(ts[i] - ref.t_max) <= ref.scan_resolution


def test_quench_writes_manifest(tmp_path):
    out = tmp_path / "q.csv"
    assert run("quench", "--n", "5", "--out", str(out)) == 0
    doc = json.loads((tmp_path / "q.csv.manifest.json").read_text())
    assert doc["tool"] == "xxzquench"
    assert doc["command"] == "quench"
    assert doc["config"]["engine"] == "freefermion"
    assert doc["config"]["spec"]["delta1"] == "inf"
    assert doc["outputs"] == ["q.csv"]


_MANIFEST_KEYS = {"tool", "version", "command", "config", "master_seed", "timestamp", "outputs",
                  "conventions"}


_INF_CHAIN = {"j": 1.0, "delta1": "inf", "seed": 0}


@pytest.mark.parametrize("argv, extra, config", [
    (["quench", "--n", "5", "--t-max-horizon", "1", "--grid-step", "0.5"], set(),
     {"spec": {"n": 5, "delta2": 0.0, "disorder_sigma": 0.0, **_INF_CHAIN},
      "engine": "freefermion", "t_max_horizon": 1.0, "grid_step": 0.5, "seed": 0, "out": "x.csv"}),
    # scan-n records its grid flags as given, disorder its resolved grid
    (["scan-n", "--n", "3", "--jobs", "1", "--t-max-horizon", "2"],
     {"fit", "runtimes_ms", "scanned_points", "setup_ms", "refine_ms"},
     {"n_list": [3], "delta2": 0.0, "sigma": 0.0, "t_max_horizon": 2.0, "grid_step": None,
      "engine": "freefermion", "jobs": 1, "allow_even": False, "out": "x.csv", **_INF_CHAIN}),
    (["disorder", "--n", "5", "--sigma", "0,0.1", "--realizations", "2", "--jobs", "1"], set(),
     {"n": 5, "delta2": 0.0, "sigma_list": [0.0, 0.1], "realizations": 2,
      "t_max_horizon": 3.183098861837907, "grid_step": 0.0015915494309189536,
      "engine": "freefermion", "jobs": 1, "out": "x.csv",
      "sub_seed_rule": "seed XOR realization-index", **_INF_CHAIN}),
    (["ed-compare", "--n", "3", "--grid-points", "5"], {"max_deviation"},
     {"n_list": [3], "grid_points": 5, "tolerance": 1e-08, "out": "x.csv", **_INF_CHAIN}),
    (["purify", "--fef", "0.9"], set(),
     {"source": {"kind": "fef-value", "fef": 0.9}, "threshold": 0.99, "seed": None,
      "out": "p.json"}),
], ids=["quench", "scan-n", "disorder", "ed-compare", "purify"])
def test_manifest_keys_are_pinned(tmp_path, argv, extra, config):
    # every command's manifest keys at the top level, and its whole config
    out = tmp_path / ("p.json" if argv[0] == "purify" else "x.csv")
    assert run(*argv, "--out", str(out)) == 0
    doc = json.loads((tmp_path / (out.name + ".manifest.json")).read_text())
    assert sorted(doc) == sorted(_MANIFEST_KEYS | extra)
    assert doc["config"] == config


def test_quench_engine_cap_refusal(tmp_path, capsys):
    out = tmp_path / "q.csv"
    assert run("quench", "--n", "17", "--delta2", "0.5", "--out", str(out)) == 1
    assert "capped at 15" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["quench", "--n", "9", "--delta1", "3", "--engine", "ed"],
    ["scan-n", "--n", "3,9", "--delta1", "3", "--engine", "ed", "--jobs", "1"],
    ["disorder", "--n", "9", "--delta2", "0.5", "--sigma", "0.1", "--realizations", "2"],
    ["ed-compare", "--n", "3,9"],
], ids=["quench", "scan-n", "disorder", "ed-compare"])
def test_exact_diagonalization_beyond_memory_is_refused_before_it_allocates(
    tmp_path, capsys, monkeypatch, argv
):
    # physical memory one byte short of the n=9 estimate: the run is
    # refused with a usage error before any sector is built
    monkeypatch.setattr(cli, "_physical_memory", lambda: exactdiag.run_bytes(9) - 1)
    built = []
    monkeypatch.setattr(exactdiag, "sector_basis", lambda *args: built.append(args))
    out = tmp_path / "r.csv"
    assert run(*argv, "--out", str(out)) == 1
    assert "of physical memory" in capsys.readouterr().err
    assert built == [] and not out.exists()


@pytest.mark.parametrize("argv", [
    ["scan-n", "--n", "3,9", "--delta1", "3", "--engine", "ed"],
    ["disorder", "--n", "9", "--delta2", "0.5", "--sigma", "0.1", "--realizations", "2"],
], ids=["scan-n", "disorder"])
def test_memory_check_covers_concurrent_workers(tmp_path, capsys, monkeypatch, argv):
    # physical memory between one n=9 run's estimate and two, on two cores:
    # two workers are refused before any sector is built, one runs
    monkeypatch.setattr(cli, "_physical_memory", lambda: 3 * exactdiag.run_bytes(9) // 2)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    built, basis = [], exactdiag.sector_basis
    monkeypatch.setattr(exactdiag, "sector_basis",
                        lambda *args: built.append(args) or basis(*args))
    out = tmp_path / "r.csv"
    assert run(*argv, "--jobs", "2", "--out", str(out)) == 1
    assert "2 exact diagonalization(s) of n=" in capsys.readouterr().err
    assert built == [] and not out.exists()
    assert run(*argv, "--jobs", "1", "--out", str(out)) == 0
    assert built and out.exists()


@pytest.mark.parametrize("argv", [
    ["quench", "--n", "9", "--delta1", "3"],
    ["scan-n", "--n", "3,9", "--delta1", "3", "--jobs", "1"],
    ["disorder", "--n", "9", "--delta1", "3", "--sigma", "0.1", "--realizations", "2",
     "--jobs", "1"],
], ids=["quench", "scan-n", "disorder"])
def test_correlator_route_is_charged_only_its_ground_search(tmp_path, capsys, monkeypatch, argv):
    # physical memory between the n=9 ground search's estimate and the
    # whole exact diagonalization's: on free fermions the run fits, on
    # exact diagonalization it is refused before any sector is built
    have = (exactdiag.run_bytes(9, evolve=False) + exactdiag.run_bytes(9)) // 2
    monkeypatch.setattr(cli, "_physical_memory", lambda: have)
    built, basis = [], exactdiag.sector_basis
    monkeypatch.setattr(exactdiag, "sector_basis",
                        lambda *args: built.append(args) or basis(*args))
    out = tmp_path / "r.csv"
    assert run(*argv, "--engine", "ed", "--out", str(out)) == 1
    assert "of physical memory" in capsys.readouterr().err
    assert built == [] and not out.exists()
    assert run(*argv, "--out", str(out)) == 0
    assert built and out.exists()


def test_disorder_refuses_curves_beyond_memory_before_a_draw(tmp_path, capsys, monkeypatch):
    # sigma 0 keeps one curve, sigma 0.3 its five realizations': physical
    # memory one byte short of the six curves refuses the run with a usage
    # error that charges the curves alone, before any realization is listed
    # or drawn, and enough for them and the set-up of their one chain
    # stack runs it
    _, _, ts = entangle.resolve_grid(model.ChainSpec(n=7))
    curves = 6 * ts.nbytes
    drawn, realize = [], model.realize_couplings
    monkeypatch.setattr(model, "realize_couplings",
                        lambda spec: drawn.append(spec) or realize(spec))
    argv = ["disorder", "--n", "7", "--sigma", "0,0.3", "--realizations", "5", "--jobs", "1"]
    out = tmp_path / "d.csv"
    monkeypatch.setattr(cli, "_physical_memory", lambda: curves - 1)
    assert run(*argv, "--out", str(out)) == 1
    assert "the fef curves of 6 realizations over 2001 points need about" in (
        capsys.readouterr().err)
    assert drawn == [] and list(tmp_path.iterdir()) == []
    monkeypatch.setattr(cli, "_physical_memory",
                        lambda: curves + freefermion.stack_bytes(7, 6))
    assert run(*argv, "--out", str(out)) == 0
    assert len(drawn) == 6 and out.exists()


def test_disorder_charges_its_curves_and_set_up_at_once(tmp_path, capsys, monkeypatch):
    # the six curves take 96,048 B and the set-up of their chain stack
    # 10,320 B: 97,048 B holds either alone but not both, so the run is
    # refused before a draw; their sum, 106,368 B, runs it
    _, _, ts = entangle.resolve_grid(model.ChainSpec(n=7))
    assert (6 * ts.nbytes, freefermion.stack_bytes(7, 6)) == (96_048, 10_320)
    drawn, realize = [], model.realize_couplings
    monkeypatch.setattr(model, "realize_couplings",
                        lambda spec: drawn.append(spec) or realize(spec))
    argv = ["disorder", "--n", "7", "--sigma", "0,0.3", "--realizations", "5", "--jobs", "1"]
    out = tmp_path / "d.csv"
    monkeypatch.setattr(cli, "_physical_memory", lambda: 97_048)
    assert run(*argv, "--out", str(out)) == 1
    assert ("the fef curves of 6 realizations over 2001 points and 1 free-fermion "
            "set-up(s) of 6 chain(s) of n=7 at once") in capsys.readouterr().err
    assert drawn == [] and list(tmp_path.iterdir()) == []
    monkeypatch.setattr(cli, "_physical_memory", lambda: 106_368)
    assert run(*argv, "--out", str(out)) == 0
    assert len(drawn) == 6 and out.exists()


@pytest.mark.parametrize("argv", [
    ["quench", "--n", "101"],
    ["scan-n", "--n", "3,101", "--jobs", "1"],
    ["disorder", "--n", "101", "--sigma", "0.1", "--realizations", "4", "--jobs", "1"],
], ids=["quench", "scan-n", "disorder"])
def test_free_fermion_set_up_beyond_memory_is_refused_before_a_draw(
    tmp_path, capsys, monkeypatch, argv
):
    # physical memory one byte short of the largest chain stack's set-up
    # (disorder's four realizations in one block, next to their four
    # kept curves, scan-n's two sizes at the longer length) refuses the
    # run with a usage error before any coupling is drawn, and exactly
    # enough runs it; quench and scan-n chains are uniform, disorder's
    # draws are not
    members = {"quench": 1, "scan-n": 2, "disorder": 4}[argv[0]]
    need = freefermion.stack_bytes(101, members, uniform=argv[0] != "disorder")
    if argv[0] == "disorder":
        need += 4 * entangle.resolve_grid(model.ChainSpec(n=101))[2].nbytes
    drawn, realize = [], model.realize_couplings
    monkeypatch.setattr(model, "realize_couplings",
                        lambda spec: drawn.append(spec) or realize(spec))
    out = tmp_path / "r.csv"
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    assert run(*argv, "--out", str(out)) == 1
    assert f"set-up(s) of {members} chain(s) of n=101 at once" in capsys.readouterr().err
    assert drawn == [] and list(tmp_path.iterdir()) == []
    monkeypatch.setattr(cli, "_physical_memory", lambda: need)
    assert run(*argv, "--out", str(out)) == 0
    assert drawn and out.exists()


@pytest.mark.parametrize("jobs, members", [(1, 4), (2, 2)])
def test_scan_blocks_are_charged_every_member_at_their_longest_length(
    tmp_path, capsys, monkeypatch, jobs, members
):
    # disordered sizes 3, 5, 7 and 101 on two cores: one block of four, or
    # two of two ([3, 7] and [5, 101]) at once, each charged as stacks of
    # n = 101; one byte short is refused before a draw, exactly enough runs
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_run_parallel",
                        lambda worker, items, workers: [worker(item) for item in items])
    need = jobs * freefermion.stack_bytes(101, members)
    drawn, realize = [], model.realize_couplings
    monkeypatch.setattr(model, "realize_couplings",
                        lambda spec: drawn.append(spec) or realize(spec))
    argv = ["scan-n", "--n", "3,5,7,101", "--sigma", "0.1", "--jobs", str(jobs)]
    out = tmp_path / "s.csv"
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    assert run(*argv, "--out", str(out)) == 1
    assert f"{jobs} free-fermion set-up(s) of {members} chain(s) of n=101" in (
        capsys.readouterr().err)
    assert drawn == [] and list(tmp_path.iterdir()) == []
    monkeypatch.setattr(cli, "_physical_memory", lambda: need)
    assert run(*argv, "--out", str(out)) == 0
    assert len(drawn) == 4 and out.exists()


def test_uniform_chains_are_charged_their_closed_form_not_the_svd(tmp_path, capsys, monkeypatch):
    # 256 MiB: a uniform n = 40001 chain takes its modes in O(n) and runs,
    # a disordered one would need the SVD's 33 GiB and is refused before a draw
    monkeypatch.setattr(cli, "_physical_memory", lambda: 1 << 28)
    argv = ["quench", "--n", "40001", "--grid-step", "50"]
    assert run(*argv, "--out", str(tmp_path / "u.csv")) == 0
    assert len(read_csv(tmp_path / "u.csv")[1]) == 510
    drawn, realize = [], model.realize_couplings
    monkeypatch.setattr(model, "realize_couplings",
                        lambda spec: drawn.append(spec) or realize(spec))
    assert run(*argv, "--sigma", "0.1", "--out", str(tmp_path / "d.csv")) == 1
    assert "set-up(s) of 1 chain(s) of n=40001" in capsys.readouterr().err
    assert drawn == [] and not (tmp_path / "d.csv").exists()


class _Drawn(Exception):
    pass


@pytest.mark.parametrize("argv", [["quench", "--n", "241"], ["scan-n"], ["disorder", "--n", "7"]],
                         ids=["quench", "scan-n", "disorder"])
def test_default_free_fermion_runs_are_not_refused(tmp_path, monkeypatch, argv):
    # 256 MiB and 64 cores: the default sizes, workers and blocks pass every
    # memory check and reach their first draw
    monkeypatch.setattr(cli, "_physical_memory", lambda: 1 << 28)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli, "_run_parallel", lambda worker, items, workers: [worker(items[0])])

    def draw(spec):
        raise _Drawn

    monkeypatch.setattr(model, "realize_couplings", draw)
    with pytest.raises(_Drawn):
        run(*argv, "--out", str(tmp_path / "r.csv"))


def test_quench_engine_auto_selection(tmp_path):
    # every quench to delta2 = 0 runs on free fermions, from any delta1
    out = tmp_path / "qed.csv"
    for argv, engine in [
        (["--delta1", "3"], "freefermion"),
        (["--delta1", "3", "--delta2", "0.5"], "exactdiag"),
        (["--delta1", "3", "--engine", "ed"], "exactdiag"),
    ]:
        assert run("quench", "--n", "5", *argv, "--t-max-horizon", "1",
                   "--grid-step", "0.5", "--out", str(out)) == 0
        doc = json.loads((tmp_path / "qed.csv.manifest.json").read_text())
        assert doc["config"]["engine"] == engine


def test_scan_manifest_records_the_resolved_engine(tmp_path):
    # engine auto resolves per delta2, and the manifest says which ran
    out = tmp_path / "s.csv"
    for argv, engine in [([], "freefermion"), (["--delta2", "0.5"], "exactdiag")]:
        assert run("scan-n", "--n", "3", *argv, "--jobs", "1", "--t-max-horizon", "2",
                   "--out", str(out)) == 0
        doc = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert doc["config"]["engine"] == engine


def test_scan_single_size_anchor(tmp_path):
    out = tmp_path / "s.csv"
    assert run("scan-n", "--n", "9", "--jobs", "1", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert len(rows) == 1
    assert abs(col(header, rows, "fef_at_tmax")[0] - 0.9117) < 5e-4
    assert col(header, rows, "engine", str)[0] == "freefermion"
    doc = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    # per size its grid scan; the blocks' evaluator set-ups and lockstep
    # refinements are timed apart
    assert list(doc["runtimes_ms"]) == ["9"] and doc["runtimes_ms"]["9"] > 0.0
    for key in ("setup_ms", "refine_ms"):
        assert isinstance(doc[key], float) and doc[key] > 0.0


def test_scan_manifest_records_the_points_each_scan_read(tmp_path, monkeypatch):
    # per size, the grid points of the chunks its early-stopping scan read;
    # n = 151 stops well before the end of its 4,807 points
    read, chunks = {}, entangle.CurveEvaluator._chunks

    def counted(self, ts):
        for members, times, chunk in chunks(self, ts):
            read[self.specs[0].n] = read.get(self.specs[0].n, 0) + len(ts[times])
            yield members, times, chunk

    monkeypatch.setattr(entangle.CurveEvaluator, "_chunks", counted)
    out = tmp_path / "s.csv"
    assert run("scan-n", "--n", "3,9,151", "--jobs", "1", "--out", str(out)) == 0
    doc = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert doc["scanned_points"] == {str(n): points for n, points in read.items()}
    _, _, ts = entangle.resolve_grid(model.ChainSpec(n=151))
    assert len(ts) == 4807 and doc["scanned_points"]["151"] < 0.8 * len(ts)


def test_scan_finite_quenches_use_free_fermions(tmp_path):
    # delta1 = 3 -> 0 runs on the ground multiplet's correlators, and
    # agrees with exact diagonalization
    out, ed = tmp_path / "s.csv", tmp_path / "ed.csv"
    finite = ["scan-n", "--n", "3,5", "--delta1", "3", "--delta2", "0", "--jobs", "1"]
    assert run(*finite, "--out", str(out)) == 0
    assert run(*finite, "--engine", "ed", "--out", str(ed)) == 0
    header, rows = read_csv(out)
    assert col(header, rows, "engine", str) == ["freefermion", "freefermion"]
    assert col(*read_csv(ed), "engine", str) == ["exactdiag", "exactdiag"]
    assert all(f > 0.5 for f in col(header, rows, "fef_at_tmax"))
    for name, tol in (("fef_at_tmax", 1e-8), ("t_max", 1e-6)):
        assert np.allclose(col(header, rows, name), col(*read_csv(ed), name), rtol=0, atol=tol)
    doc = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert doc["fit"] is None  # fit is reserved for the analytic quench
    assert "conventions" in doc


def test_scan_rejects_even_without_override(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run("scan-n", "--n", "4,5", "--out", str(out)) == 1
    assert "--allow-even" in capsys.readouterr().err


def test_scan_even_with_override(tmp_path):
    out = tmp_path / "s.csv"
    assert run("scan-n", "--n", "4", "--allow-even", "--jobs", "1",
               "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert col(header, rows, "fef_at_tmax")[0] <= 0.5 + 1e-12


def test_scan_fit_in_manifest(tmp_path):
    out = tmp_path / "s.csv"
    assert run("scan-n", "--n", "25,33,41,49", "--jobs", "1", "--out", str(out)) == 0
    fit = json.loads((tmp_path / "s.csv.manifest.json").read_text())["fit"]
    assert fit is not None
    assert 0.0 < fit["exponent"] < 1.0
    assert fit["points"] == 4


def test_scan_reruns_are_bit_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan-n", "--n", "3,5,9", "--jobs", "1"]
    assert run(*argv, "--out", str(a)) == 0
    assert run(*argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_jobs_do_not_change_bytes(tmp_path):
    for argv in (["--n", "3,5,7,9"], ["--n", "5,7,9", "--sigma", "0.3"]):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("scan-n", *argv, "--jobs", "1", "--out", str(a)) == 0
        assert run("scan-n", *argv, "--jobs", "2", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, workers, blocks", [
    (("--n", "3,5,9,25,49,101"), 1, [6]),
    (("--n", "4,6,9", "--allow-even"), 1, [3]),
    (("--n", "7,9,25", "--sigma", "0.3", "--seed", "4"), 1, [3]),
    # neither the ground multiplet's correlators nor exact
    # diagonalization stack: a block per size
    (("--n", "3,5,7", "--delta1", "3"), 1, [1, 1, 1]),
    (("--n", "3,5,7", "--delta1", "3", "--delta2", "0.5"), 1, [1, 1, 1]),
    # three workers split these sizes over three blocks
    (("--n", ",".join(map(str, range(3, 50, 2)))), 3, [8, 8, 8]),
], ids=["odd", "allow-even", "fallback", "correlator", "exactdiag", "multi-block"])
def test_scan_equals_find_tmax_per_size(tmp_path, monkeypatch, argv, workers, blocks):
    laid_out = []
    scan_block = cli._scan_block

    def recorded(item):
        laid_out.append(len(item["members"]))
        return scan_block(item)

    monkeypatch.setattr(cli, "_scan_block", recorded)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _InlinePool([], max_workers))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: workers)
    out = tmp_path / "s.csv"
    assert run("scan-n", *argv, "--jobs", str(workers), "--out", str(out)) == 0
    assert laid_out == blocks
    header, rows = read_csv(out)
    for n, seed, t, f in zip(col(header, rows, "n", int), col(header, rows, "seed", int),
                             col(header, rows, "t_max"), col(header, rows, "fef_at_tmax")):
        spec = cli._spec_from_args(cli.build_parser().parse_args(["scan-n", *argv]),
                                   n=n, seed=seed)
        want = entangle.find_tmax("auto", spec)
        assert (t, f) == (want.t_max, want.fef_at_tmax)


def test_scan_falls_back_to_a_peak_of_any_height(tmp_path):
    # with seed 4 the n=7 realization (sub-seed 3) never exceeds its t = 0
    # value; its record, and find_tmax's, is the first local maximum of any
    # height, below the purifiability threshold
    out = tmp_path / "s.csv"
    assert run("scan-n", "--n", "7,9,25", "--sigma", "0.3", "--seed", "4",
               "--jobs", "1", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert col(header, rows, "n", int) == [7, 9, 25]
    spec = model.ChainSpec(n=7, disorder_sigma=0.3, seed=model.sub_seed(4, 7))
    evaluator = entangle.CurveEvaluator([spec], "freefermion")
    _, _, ts = entangle.search_grid(spec)
    fef = evaluator.fef_series(ts)[0]
    assert entangle.first_peak_index(fef, fef[0]) is None
    record = entangle.find_tmax("freefermion", spec)
    assert (record.t_max, record.fef_at_tmax) == (0.7024802263761396, 0.30432040728241117)
    assert record.fef_at_tmax < 0.5
    assert col(header, rows, "t_max")[0] == record.t_max
    assert col(header, rows, "fef_at_tmax")[0] == record.fef_at_tmax


@pytest.mark.parametrize("argv, spec, t_max, fef", [
    # a disordered odd chain that never exceeds its t = 0 value
    (("--n", "5", "--sigma", "0.5", "--seed", "13"),
     model.ChainSpec(n=5, disorder_sigma=0.5, seed=8), 1.8539868633590817, 0.4485388241000674),
    # an even chain, whose fef never exceeds 1/2
    (("--n", "6", "--allow-even"), model.ChainSpec(n=6, seed=6),
     1.9723385866438252, 0.47839878932275082),
], ids=["odd-fallback", "even"])
def test_find_tmax_returns_the_scan_record_where_no_peak_exceeds_the_start(
        tmp_path, argv, spec, t_max, fef):
    out = tmp_path / "s.csv"
    assert run("scan-n", *argv, "--jobs", "1", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert (col(header, rows, "seed", int), col(header, rows, "t_max"),
            col(header, rows, "fef_at_tmax")) == ([spec.seed], [t_max], [fef])
    result = entangle.find_tmax("freefermion", spec)
    assert (result.t_max, result.fef_at_tmax) == (t_max, fef)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(min_value=2, max_value=25),
       sigma=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_find_tmax_is_the_scan_n_record_of_one_size(n, sigma, seed):
    # one t_max rule: find_tmax of a spec is, bit for bit, the record
    # scan-n writes for that size, or both refuse the curve as peakless
    spec = model.ChainSpec(n=n, disorder_sigma=sigma, seed=model.sub_seed(seed, n))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "s.csv")
        code = run("scan-n", "--n", str(n), "--sigma", repr(sigma), "--seed", str(seed),
                   "--allow-even", "--jobs", "1", "--out", out)
        if code == cli.EXIT_VALIDATION:
            with pytest.raises(NoPeakError):
                entangle.find_tmax("freefermion", spec)
            return
        assert code == 0
        header, rows = read_csv(out)
    result = entangle.find_tmax("freefermion", spec)
    assert (col(header, rows, "t_max"), col(header, rows, "fef_at_tmax")) == (
        [result.t_max], [result.fef_at_tmax])


def test_scan_without_a_maximum_of_any_height_says_so(tmp_path, capsys):
    # over a 0.3 horizon fef only falls from its t = 0 value, so the
    # any-height fallback finds no maximum either, and the message names
    # that rule, not the baseline
    out = tmp_path / "s.csv"
    assert run("scan-n", "--n", "7,9", "--t-max-horizon", "0.3", "--jobs", "1",
               "--out", str(out)) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "xxzquench: scan-n n=7 sigma=0 sub-seed=7: no strict local maximum of fef "
        "of any height within horizon 0.3\n")


def test_disorder_zero_sigma_matches_quench(tmp_path):
    dis = tmp_path / "d.csv"
    qch = tmp_path / "q.csv"
    assert run("disorder", "--n", "7", "--sigma", "0", "--realizations", "3",
               "--jobs", "1", "--out", str(dis)) == 0
    assert run("quench", "--n", "7", "--out", str(qch)) == 0
    h_d, r_d = read_csv(tmp_path / "d_timeseries.csv")
    h_q, r_q = read_csv(qch)
    mean0 = col(h_d, r_d, "fef_mean_sigma=0")
    fef = col(h_q, r_q, "fef")
    assert len(mean0) == len(fef)
    np.testing.assert_array_equal(mean0, fef)


def test_disorder_summary_layout(tmp_path):
    out = tmp_path / "d.csv"
    assert run("disorder", "--n", "7", "--sigma", "0,0.1", "--realizations", "4",
               "--jobs", "1", "--seed", "5", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert col(header, rows, "sigma") == [0.0, 0.1]
    assert col(header, rows, "realizations") == [1.0, 4.0]
    clean, noisy = col(header, rows, "mean_peak_fef")
    assert noisy < clean
    assert col(header, rows, "stderr_peak_fef")[1] > 0


def test_disorder_is_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["disorder", "--n", "7", "--sigma", "0.2", "--realizations", "5",
            "--seed", "17"]
    assert run(*argv, "--jobs", "1", "--out", str(a)) == 0
    assert run(*argv, "--jobs", "2", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a_timeseries.csv").read_bytes() == \
        (tmp_path / "b_timeseries.csv").read_bytes()


def test_ed_compare_passes_for_small_chains(tmp_path):
    # from the Neel mixture (the default) and from a ground multiplet
    out = tmp_path / "e.csv"
    for extra, delta1 in (([], "inf"), (["--delta1", "3"], 3.0)):
        assert run("ed-compare", "--n", "3,4,5", *extra, "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert max(col(header, rows, "max_dev")) < 1e-8
        doc = json.loads((tmp_path / "e.csv.manifest.json").read_text())
        assert doc["config"]["delta1"] == delta1


def test_ed_compare_even_chain_is_separable(tmp_path):
    out = tmp_path / "e.csv"
    assert run("ed-compare", "--n", "6", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert col(header, rows, "max_dev")[0] < 1e-8
    assert col(header, rows, "max_negativity")[0] <= 1e-10


@pytest.mark.parametrize("argv, text", [
    (("disorder", "--n", "5", "--sigma", "0.1,0.1", "--realizations", "3"),
     "repeated values [0.1]"),
    (("disorder", "--n", "5", "--sigma", "0,0.10,0.1"), "repeated values [0.1]"),
    (("disorder", "--n", "5", "--sigma", ""), "empty list"),
    (("disorder", "--n", "5", "--sigma", " , "), "empty list"),
    (("scan-n", "--n", "3,5,3"), "repeated values [3]"),
    (("scan-n", "--n", ""), "empty list"),
    (("ed-compare", "--n", "5,5"), "repeated values [5]"),
    (("ed-compare", "--n", ""), "empty list"),
    (("ed-compare", "--n", "3,x"), "invalid int list value"),
])
def test_list_values_reject_empty_and_repeated(tmp_path, capsys, argv, text):
    out = tmp_path / "o.csv"
    assert run(*argv, "--out", str(out)) == 1
    assert text in capsys.readouterr().err
    assert not out.exists()


def test_scan_sizes_are_sorted(tmp_path):
    out = tmp_path / "s.csv"
    assert run("scan-n", "--n", "7,3", "--jobs", "1", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert col(header, rows, "n", int) == [3, 7]


def test_ed_compare_rejects_large_chains(tmp_path, capsys):
    # the cap is exact diagonalization's own, 15 sites
    assert exactdiag.MAX_SITES == 15
    assert run("ed-compare", "--n", "16", "--out", str(tmp_path / "e.csv")) == cli.EXIT_USAGE
    assert "2 <= n <= 15, got [16]" in capsys.readouterr().err


def test_ed_compare_rejects_one_site(tmp_path):
    assert run("ed-compare", "--n", "1", "--out", str(tmp_path / "e.csv")) == cli.EXIT_USAGE


def test_ed_compare_rejects_unbounded_grid(tmp_path):
    for points in ("0", str(entangle.MAX_GRID_POINTS + 1)):
        assert run("ed-compare", "--n", "3", "--grid-points", points,
                   "--out", str(tmp_path / "e.csv")) == 1


def test_purify_from_value(tmp_path):
    out = tmp_path / "p.json"
    assert run("purify", "--fef", "0.544", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["purifiable"] is True
    assert doc["iterations"] == 5
    assert abs(doc["expected_pairs"] - 361) < 36.1
    assert abs(doc["final_fidelity"] - 0.996) < 2e-3


def test_purify_boundary_source_reports_not_purifiable(tmp_path):
    out = tmp_path / "p.json"
    assert run("purify", "--fef", "0.5", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["purifiable"] is False
    assert "1/2" in doc["criterion"]


def test_purify_from_scan_record(tmp_path):
    scan = tmp_path / "s.csv"
    out = tmp_path / "p.json"
    assert run("scan-n", "--n", "9,11", "--jobs", "1", "--out", str(scan)) == 0
    assert run("purify", "--record", str(scan), "--record-n", "9",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["source"]["kind"] == "scan-record"
    assert doc["iterations"] == 1
    assert abs(doc["final_fidelity"] - 0.991) < 1e-3


@pytest.mark.parametrize("case", [
    "missing-record", "missing-out-dir", "short-row", "non-numeric-n", "non-numeric-fef",
])
def test_file_errors_are_usage_errors(tmp_path, capsys, case):
    # each leaves through main's handler: exit 1 and one line naming the
    # file, and the field where one is at fault
    record, out = tmp_path / "scan.csv", tmp_path / "p.json"
    source, named, field = ["--record", str(record)], record, ""
    if case == "missing-out-dir":
        out = tmp_path / "absent" / "p.json"
        source, named = ["--fef", "0.9"], out
    if case == "short-row":
        record.write_text("n,delta1,fef_at_tmax\n9,inf\n", encoding="utf-8")
    if case == "non-numeric-n":
        record.write_text("n,delta1,fef_at_tmax\nx,inf,0.9\n", encoding="utf-8")
        source, field = [*source, "--record-n", "9"], "field n "
    if case == "non-numeric-fef":
        record.write_text("n,delta1,fef_at_tmax\n9,inf,abc\n", encoding="utf-8")
        field = "field fef_at_tmax "
    assert run("purify", *source, "--out", str(out)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(named) in err and field in err
    assert not out.exists()


def test_purify_requires_exactly_one_source(tmp_path):
    assert run("purify", "--out", str(tmp_path / "p.json")) == 1
    assert run("purify", "--fef", "0.7", "--record", "x.csv",
               "--out", str(tmp_path / "p.json")) == 1


def test_record_n_without_record_is_a_usage_error(tmp_path, capsys):
    # --record-n picks a record row, so it is refused rather than dropped
    out = tmp_path / "p.json"
    assert run("purify", "--fef", "0.9", "--record-n", "9", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--record-n" in err
    assert not out.exists()


def test_csv_writer_renders_as_fmt(tmp_path):
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, np.float64(-1 / 3)]
    rows = [
        [k, np.int64(-k), k % 2 == 0, f"s{k}", x, 2.0**-1074 * k, 1e300 * x]
        for k, x in enumerate(specials)
    ]
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), ["i", "j", "flag", "name", "x", "sub", "big"], rows)
    want = "i,j,flag,name,x,sub,big\n" + "".join(
        ",".join(cli._fmt(v) for v in row) + "\n" for row in rows
    )
    assert path.read_text(encoding="utf-8") == want
    cli._write_csv(str(path), ["x"], [])
    assert path.read_text(encoding="utf-8") == "x\n"


def test_csv_writer_refuses_a_column_of_mixed_kinds(tmp_path):
    with pytest.raises(AssertionError, match="mixed column"):
        cli._write_csv(str(tmp_path / "t.csv"), ["x"], [[1.5], [2]])


def test_usage_errors_exit_one(tmp_path):
    assert run("quench", "--n", "7", "--bogus-flag") == 1
    assert run("quench", "--out", str(tmp_path / "q.csv")) == 1  # missing --n
    assert run("disorder", "--out", str(tmp_path / "d.csv")) == 1  # missing --n
    assert run("quench", "--n", "7", "--delta1", "2", "--delta2", "3", "--out",
               str(tmp_path / "q.csv")) == 1  # upward quench rejected
    assert run("disorder", "--n", "5", "--realizations", "0",
               "--out", str(tmp_path / "d.csv")) == 1
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("argv, delta1", [
    (["disorder", "--n", "7", "--sigma", "0,0.2", "--realizations", "2", "--jobs", "1"], "0.5"),
    (["scan-n", "--n", "3,5"], "0.9"),
], ids=["disorder", "scan-n"])
def test_finite_delta1_at_most_one_is_refused_before_a_draw(tmp_path, capsys, monkeypatch,
                                                            argv, delta1):
    # the spec refuses it, so no member is blamed and none is drawn
    drawn, realize = [], model.realize_couplings
    monkeypatch.setattr(model, "realize_couplings",
                        lambda spec: drawn.append(spec) or realize(spec))
    assert run(*argv, "--delta1", delta1, "--out", str(tmp_path / "r.csv")) == 1
    err = capsys.readouterr().err
    assert f"above 1 (antiferromagnetic Ising side), got {delta1}" in err
    assert "realization" not in err and "n=" not in err
    assert drawn == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["inf", "INF", "Infinity", " inf "])
def test_delta1_reads_every_spelling_of_infinity(tmp_path, text):
    out = tmp_path / "q.csv"
    assert run("quench", "--n", "5", "--delta1", text, "--t-max-horizon", "1",
               "--out", str(out)) == 0
    manifest = json.loads((tmp_path / "q.csv.manifest.json").read_text())
    assert manifest["config"]["engine"] == "freefermion"
    assert manifest["config"]["spec"]["delta1"] == "inf"


@pytest.mark.parametrize("argv", [
    ("quench", "--n", "5", "--t-max-horizon", "-1"),
    # a negative horizon never reaches the peak search of an empty grid
    ("disorder", "--n", "5", "--realizations", "2", "--jobs", "1", "--t-max-horizon", "-1"),
    ("scan-n", "--n", "5", "--jobs", "1", "--t-max-horizon", "0"),
    ("scan-n", "--n", "5", "--jobs", "1", "--t-max-horizon", "-1"),
])
def test_horizon_below_a_search_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "horizon" in err and "Traceback" not in err
    assert not out.exists()


def test_zero_horizon_disorder_is_refused_before_a_draw(tmp_path, capsys, monkeypatch):
    # a grid of t = 0 alone holds no peak: disorder refuses it, as scan-n
    # does, before any realization is drawn
    drawn, realize = [], model.realize_couplings
    monkeypatch.setattr(model, "realize_couplings",
                        lambda spec: drawn.append(spec) or realize(spec))
    assert run("disorder", "--n", "5", "--sigma", "0,0.2", "--realizations", "2",
               "--jobs", "1", "--t-max-horizon", "0", "--grid-step", "0.1",
               "--out", str(tmp_path / "d.csv")) == 1
    err = capsys.readouterr().err
    assert "positive time horizon" in err and "Traceback" not in err
    assert drawn == [] and list(tmp_path.iterdir()) == []


def test_zero_horizon_scan_is_refused_before_any_set_up(tmp_path, capsys, monkeypatch):
    # a grid of t = 0 alone holds no peak: scan-n refuses it, as disorder
    # does, before any size draws its couplings or searches its ground state
    calls = []
    for module, name in ((model, "realize_couplings"), (exactdiag, "ground_mixture")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    assert run("scan-n", "--n", "13,15", "--delta1", "3", "--jobs", "1",
               "--t-max-horizon", "0", "--out", str(tmp_path / "s.csv")) == 1
    err = capsys.readouterr().err
    assert "positive time horizon" in err and "Traceback" not in err
    assert "n=13" not in err
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_overflowing_finite_delta1_is_a_numerical_fault(tmp_path, capsys):
    # at delta1 = 1e300 the ground search's Lanczos step overflows and the
    # run stops, pointing to the Ising limit; at 1e100 it still runs and
    # matches that limit
    argv = ["quench", "--n", "6", "--t-max-horizon", "4"]
    assert run(*argv, "--delta1", "1e300", "--out", str(tmp_path / "huge.csv")) == 3
    assert "--delta1 inf" in capsys.readouterr().err
    assert not (tmp_path / "huge.csv").exists()
    curves = []
    for delta1 in ("1e100", "inf"):
        assert run(*argv, "--delta1", delta1, "--out", str(tmp_path / "q.csv")) == 0
        header, rows = read_csv(tmp_path / "q.csv")
        curves.append(np.array(col(header, rows, "fef")))
    np.testing.assert_allclose(*curves, rtol=0, atol=1e-12)


@pytest.mark.parametrize("delta1", ["1e308", "1.7e308"])
def test_overflowing_sector_entries_are_a_numerical_fault_without_a_warning(
        tmp_path, capsys, delta1):
    # the diagonal (J delta / 2) z.z sums overflow before any Lanczos step;
    # with warnings raised as errors the run still exits 3 by name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("quench", "--n", "5", "--delta1", delta1,
                   "--out", str(tmp_path / "q.csv")) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "entries overflow" in err and "--delta1 inf" in err
    assert list(tmp_path.iterdir()) == []


def test_sector_entries_summing_opposite_infinities_are_a_numerical_fault(tmp_path, capsys):
    # at j = 1e12 and delta1 = 1e300 every bond's J delta / 2 overflows, and
    # a diagonal entry sums them with both signs to NaN: the run exits 3 by
    # name, with warnings raised as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("quench", "--n", "3", "--j", "1e12", "--delta1", "1e300",
                   "--out", str(tmp_path / "q.csv")) == cli.EXIT_NUMERICAL
    assert "entries overflow" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("horizon", ["0", "-0.0"])
def test_zero_horizon_with_a_subnormal_step_is_the_single_point_grid(tmp_path, capsys, horizon):
    # half of the step 5e-324 rounds to 0, yet the grid still holds t = 0:
    # quench writes its one row, and scan-n refuses it by name
    flags = ["--t-max-horizon", horizon, "--grid-step", "5e-324"]
    assert run("quench", "--n", "5", *flags, "--out", str(tmp_path / "q.csv")) == 0
    assert len(read_csv(tmp_path / "q.csv")[1]) == 1
    assert run("scan-n", "--n", "3,5", "--jobs", "1", *flags,
               "--out", str(tmp_path / "s.csv")) == cli.EXIT_USAGE
    assert "positive time horizon" in capsys.readouterr().err


def test_phases_beyond_the_largest_float_are_a_numerical_fault(tmp_path, capsys):
    # a grid of t = 0 and 1.1e308 overflows the phases on free fermions,
    # on the correlator route and on exact diagonalization: each exits 3 by
    # name
    flags = ["--t-max-horizon", "1.2e308", "--grid-step", "1.1e308"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in ([], ["--delta1", "3"], ["--engine", "ed"]):
            assert run("quench", "--n", "5", *flags, *route,
                       "--out", str(tmp_path / "q.csv")) == cli.EXIT_NUMERICAL, route
            assert "evolution phases overflow" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_phases_without_digits_are_a_numerical_fault(tmp_path, capsys):
    # up to t = 1e20 the phases reach about 3e20 rad, whose ulp is 2^16
    # rad: on free fermions, on the correlator route and on both exact
    # diagonalization routes the run exits 3, naming frequency and time
    flags = ["--t-max-horizon", "1e20", "--grid-step", "1e17"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in ([], ["--delta1", "3"], ["--engine", "ed"], ["--delta1", "3", "--delta2", "0.5"]):
            assert run("quench", "--n", "5", *flags, *route,
                       "--out", str(tmp_path / "q.csv")) == cli.EXIT_NUMERICAL, route
            err = capsys.readouterr().err
            assert "evolution phases overflow their digits: frequencies up to" in err, route
            assert "at times up to" in err and "beyond 2^52" in err, route
    assert list(tmp_path.iterdir()) == []


def test_gram_route_overflow_is_a_numerical_fault_without_a_warning(tmp_path, capsys):
    # couplings of 1e155 and more overflow X X^T of the bipartite Gram
    # route: quench, ed-compare and scan-n exit 3 by name before eigh, with
    # no warning, where the product's inf made eigh fail with exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["quench", "--n", "5", "--engine", "ed", "--j", "1e160"],
                     ["quench", "--n", "5", "--engine", "ed", "--j", "1e155"],
                     ["ed-compare", "--n", "3,5", "--j", "1e300"],
                     ["scan-n", "--n", "3,5", "--engine", "ed", "--j", "1e300", "--jobs", "1"]):
            assert run(*argv, "--out", str(tmp_path / "x.csv")) == cli.EXIT_NUMERICAL, argv
            assert "Gram matrix X X^T overflows" in capsys.readouterr().err, argv
    assert list(tmp_path.iterdir()) == []


def test_ed_compare_refuses_an_infinite_horizon_as_quench_does(tmp_path, capsys):
    # at j = 5e-324 the default horizon 2n/(pi j) is infinite: ed-compare
    # refuses it with quench's message, before a grid is built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["ed-compare", "--n", "3,5"], ["quench", "--n", "5"]):
            assert run(*argv, "--j", "5e-324", "--out", str(tmp_path / "x.csv")) == cli.EXIT_USAGE
            assert "time horizon must be finite, got inf" in capsys.readouterr().err, argv
    assert list(tmp_path.iterdir()) == []


def test_dense_evolution_phase_overflow_is_a_numerical_fault_without_a_warning(
        tmp_path, capsys):
    # at n = 3 the sector entries of delta2 = 1e308 stay finite, but energy
    # times time does not: the run exits 3 by name, for quench and scan-n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["quench", "--n", "3"], ["scan-n", "--n", "3,5", "--jobs", "1"]):
            assert run(*argv, "--delta2", "1e308",
                       "--out", str(tmp_path / "x.csv")) == cli.EXIT_NUMERICAL
            assert "evolution phases overflow" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_disorder_statistics_of_huge_peak_times_stay_finite(tmp_path):
    # at j = 1e-300 the peak times are about 1.7e300, whose squares
    # overflow: the spread is taken of exactly scaled times, so the
    # summary is finite and its other columns are those of j = 1 scaled
    argv = ["disorder", "--n", "5", "--realizations", "2", "--jobs", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--j", "1e-300", "--out", str(tmp_path / "tiny.csv")) == 0
    header, rows = read_csv(tmp_path / "tiny.csv")
    times = np.array(col(header, rows, "mean_peak_time"))
    spread = np.array(col(header, rows, "stderr_peak_time"))
    assert np.all(np.isfinite(spread)) and np.all(spread[1:] > 1e297)
    assert run(*argv, "--out", str(tmp_path / "unit.csv")) == 0
    unit_header, unit_rows = read_csv(tmp_path / "unit.csv")
    np.testing.assert_allclose(times * 1e-300, col(unit_header, unit_rows, "mean_peak_time"),
                               rtol=1e-9)
    np.testing.assert_allclose(spread * 1e-300, col(unit_header, unit_rows, "stderr_peak_time"),
                               rtol=1e-6)


def test_summary_statistics_keep_the_bits_of_unscaled_numpy():
    # wherever the plain mean and spread are finite, the scaled ones have
    # their bits: times beyond 1 are scaled by an exact power of two
    rng = np.random.default_rng(5)
    for values in (rng.uniform(0.25, 1.0, 100), rng.uniform(0.0, 300.0, 7),
                   np.array([3.5]), np.array([0.0, 0.0]), 1e150 * rng.uniform(1, 2, 5)):
        mean, spread = cli._mean_and_stderr(values)
        assert mean == float(values.mean())
        want = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
        assert spread == want


@pytest.mark.parametrize("flags, names", [
    (("--sigma", "nan"), "disorder_sigma"),
    (("--j", "inf"), "coupling j"),
    (("--delta2", "nan"), "delta2"),
    (("--grid-step", "1e-12"), "exceeds the cap"),
    (("--t-max-horizon", "inf"), "must be finite"),
])
def test_quench_rejects_non_finite_and_unbounded_input(tmp_path, capsys, flags, names):
    out = tmp_path / "q.csv"
    assert run("quench", "--n", "5", *flags, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert names in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    # pi j overflows, which would make the default horizon 2n/(pi j) zero
    (("--j", "1e308"), "coupling j (--j) must be positive with a finite band edge 4j"),
    # a drawn bond j (1 + d) overflows, though j does not
    (("--j", "1e307", "--sigma", "1e10"), "no finite band edge 4|J|; lower --j or --sigma"),
], ids=["j", "drawn-bond"])
def test_couplings_without_a_finite_band_edge_are_refused(tmp_path, capsys, flags, message):
    out = tmp_path / "q.csv"
    assert run("quench", "--n", "9", *flags, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # below the edge the default grid keeps its 2,001 points
    assert run("quench", "--n", "9", "--j", "4e307", "--out", str(out)) == 0
    assert len(read_csv(out)[1]) == 2001


def test_disorder_bytes_independent_of_jobs_and_block_size(tmp_path, monkeypatch):
    for sigmas, blocks in [
        # sigma = 0 has one member, 0.3 five: blocks of 2, 2 and 2 members
        ("0,0.3", [[(0.0, 0), (0.3, 0)], [(0.3, 1), (0.3, 2)], [(0.3, 3), (0.3, 4)]]),
        # unsorted, sigma = 0 in the middle: 11 members in blocks of 4, 4
        # and 3, so block boundaries fall inside sigma = 0.3 and 0.1
        ("0.3,0,0.1", [[(0.3, 0), (0.3, 1), (0.3, 2), (0.3, 3)],
                       [(0.3, 4), (0.0, 0), (0.1, 0), (0.1, 1)],
                       [(0.1, 2), (0.1, 3), (0.1, 4)]]),
    ]:
        monkeypatch.undo()
        argv = ["disorder", "--n", "7", "--sigma", sigmas, "--realizations", "5", "--seed", "11"]
        out = tmp_path / sigmas
        out.mkdir()
        assert run(*argv, "--jobs", "1", "--out", str(out / "whole.csv")) == 0
        # two workers (on two cores or more): two blocks of the (sigma,
        # realization) list
        assert run(*argv, "--jobs", "2", "--out", str(out / "b.csv")) == 0
        # three workers, mapped in this process: three contiguous blocks of
        # the (sigma, realization) list, which cut across sigmas
        seen = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: _InlinePool(seen, max_workers))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert run(*argv, "--jobs", "3", "--out", str(out / "c.csv")) == 0
        assert [b["members"] for b in seen[0]["items"]] == blocks
        for suffix in (".csv", "_timeseries.csv"):
            want = (out / f"whole{suffix}").read_bytes()
            for name in "bc":
                assert (out / f"{name}{suffix}").read_bytes() == want


def test_disorder_block_size_bounds_stacked_eigenbases_and_fills_workers(monkeypatch):
    # Neel chains on free fermions stack, of any length and disorder;
    # a finite delta1 or exact diagonalization does not
    assert entangle.stacks(model.ChainSpec(n=241, disorder_sigma=0.3), "freefermion")
    assert not entangle.stacks(model.ChainSpec(n=7, delta1=3.0), "freefermion")
    assert not entangle.stacks(model.ChainSpec(n=7), "exactdiag")
    # stacking realizations make one contiguous block per worker (on
    # eight cores; workers never exceed them)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)

    def sizes(spec, engine, members, jobs):
        cut, workers = cli._plan([spec] * members, engine, jobs)
        assert [k for block in cut for k in block] == list(range(members))
        assert workers == min(jobs, members, 8)
        return [len(block) for block in cut]

    ensemble = model.ChainSpec(n=7, disorder_sigma=0.3)
    assert sizes(ensemble, "freefermion", 100, 1) == [100]
    assert sizes(ensemble, "freefermion", 100, 2) == [50, 50]
    assert sizes(ensemble, "freefermion", 100, 8) == [13, 12] * 4
    assert sizes(ensemble, "freefermion", 5, 8) == [1] * 5
    # other routes refine their members one by one anyway: one per block
    for jobs in (1, 8):
        assert sizes(model.ChainSpec(n=7, delta1=3.0), "freefermion", 100, jobs) == [1] * 100
        assert sizes(ensemble, "exactdiag", 100, jobs) == [1] * 100


@pytest.mark.parametrize("command", ["scan-n", "disorder"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, command, jobs):
    out = tmp_path / "x.csv"
    assert run(command, "--n", "7", "--jobs", jobs, "--out", str(out)) == 1
    assert "--jobs: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the worker count and the
    tasks, and maps in this process."""

    def __init__(self, seen, max_workers):
        seen.append({"workers": max_workers})
        self.record = seen[-1]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        self.record["items"] = items = list(items)
        return map(fn, items)


def test_workers_never_exceed_cores_or_tasks(tmp_path, monkeypatch):
    seen, planned, plan = [], [], cli._plan
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _InlinePool(seen, max_workers))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_plan", lambda *args: planned.append(plan(*args)) or planned[-1])
    assert run("scan-n", "--n", "3,5,7", "--jobs", "64", "--out", str(tmp_path / "s.csv")) == 0
    assert run("scan-n", "--n", "5", "--jobs", "64", "--out", str(tmp_path / "one.csv")) == 0
    assert run("disorder", "--n", "7", "--sigma", "0.3", "--realizations", "6",
               "--seed", "4", "--jobs", "64", "--out", str(tmp_path / "d.csv")) == 0
    # a single task runs in this process; the disorder blocks are sized
    # for two workers, three realizations each; each pool takes the
    # plan's worker count
    assert [r["workers"] for r in seen] == [2, 2]
    assert [workers for _, workers in planned] == [2, 1, 2]
    assert [b["members"] for b in seen[1]["items"]] == [
        [(0.3, 0), (0.3, 1), (0.3, 2)], [(0.3, 3), (0.3, 4), (0.3, 5)]]
    assert cli._plan([model.ChainSpec(n=7, disorder_sigma=0.3)] * 100, "freefermion", 64) == (
        [range(0, 50), range(50, 100)], 2)


def _inject_fault(monkeypatch, cls, method, when):
    original = getattr(cls, method)

    def faulty(self, *args):
        if when(self):
            raise NumericalFaultError("injected fault")
        return original(self, *args)

    monkeypatch.setattr(cls, method, faulty)


def _inject_chunk_fault(monkeypatch, spec):
    """Fault the X-state assembly of every chunk of the stacked ensemble
    kernel that holds the realization of ``spec``."""
    target = freefermion._chain(model.realize_couplings(spec)).two_s[0]
    x_state = freefermion._x_state

    def faulty(moments, chains, ts):
        if any(np.array_equal(s, target) for s in chains.two_s):
            raise NumericalFaultError("injected fault")
        return x_state(moments, chains, ts)

    monkeypatch.setattr(freefermion, "_x_state", faulty)


def test_disorder_failure_names_the_realization(tmp_path, monkeypatch, capsys):
    # seed 17, realization 3: sub-seed 17 ^ 3 = 18
    _inject_chunk_fault(monkeypatch, model.ChainSpec(n=7, disorder_sigma=0.2, seed=18))
    argv = ["disorder", "--n", "7", "--sigma", "0.2", "--realizations", "5",
            "--seed", "17", "--jobs", "1", "--out", str(tmp_path / "d.csv")]
    assert run(*argv) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "disorder n=7 sigma=0.2 realization 3 sub-seed=18: injected fault" in err


def test_disorder_failure_outside_the_first_chunk_names_the_realization(
    tmp_path, monkeypatch, capsys
):
    # 2,001 grid points at n = 7: five realizations per chunk, so
    # realization 7 of 9 (sub-seed 17 ^ 7 = 22) lies in the second chunk
    spec = model.ChainSpec(n=7, disorder_sigma=0.2, seed=22)
    _, _, ts = entangle.resolve_grid(spec)
    assert freefermion._chain(model.realize_couplings(spec)).chunk_points // len(ts) == 5
    _inject_chunk_fault(monkeypatch, spec)
    argv = ["disorder", "--n", "7", "--sigma", "0.2", "--realizations", "9",
            "--seed", "17", "--jobs", "1", "--out", str(tmp_path / "d.csv")]
    assert run(*argv) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "disorder n=7 sigma=0.2 realization 7 sub-seed=22: injected fault" in err


def test_disorder_lockstep_failure_names_the_realization(tmp_path, monkeypatch, capsys):
    target = freefermion._chain(model.realize_couplings(
        model.ChainSpec(n=7, disorder_sigma=0.2, seed=18))).two_s[0]
    _inject_fault(monkeypatch, freefermion.ChainStack, "end_spin_at",
                  lambda stack: any(np.array_equal(s, target) for s in stack.two_s))
    argv = ["disorder", "--n", "7", "--sigma", "0.2", "--realizations", "5",
            "--seed", "17", "--jobs", "1", "--out", str(tmp_path / "d.csv")]
    assert run(*argv) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "realization 3 sub-seed=18: injected fault" in err


def test_scan_failure_names_the_size(tmp_path, monkeypatch, capsys):
    _inject_fault(monkeypatch, entangle.CurveEvaluator, "_chunks",
                  lambda ev: 5 in [spec.n for spec in ev.specs])
    assert run("scan-n", "--n", "3,5", "--jobs", "1", "--out", str(tmp_path / "s.csv")) \
        == cli.EXIT_NUMERICAL
    assert "scan-n n=5 sigma=0 sub-seed=5: injected fault" in capsys.readouterr().err


@pytest.mark.parametrize("argv, seed, label", [
    (["scan-n", "--n", "3,5,7", "--delta1", "3"], 5, "scan-n n=5 sigma=0 sub-seed=5"),
    # seed 17, realization 2: sub-seed 17 ^ 2 = 19
    (["disorder", "--n", "5", "--delta1", "3", "--sigma", "0.2", "--realizations", "3",
      "--seed", "17"], 19, "disorder n=5 sigma=0.2 realization 2 sub-seed=19"),
], ids=["scan-n", "disorder"])
def test_ground_search_failure_names_the_member(tmp_path, monkeypatch, capsys, argv, seed, label):
    # an evaluator's set-up fails on one member: the error names it, with
    # the exit code of its type
    ground_mixture = exactdiag.ground_mixture

    def faulty(realization, delta1):
        if realization.seed_used == seed:
            raise ConvergenceError("injected non-convergence")
        return ground_mixture(realization, delta1)

    monkeypatch.setattr(exactdiag, "ground_mixture", faulty)
    assert run(*argv, "--jobs", "1", "--out", str(tmp_path / "x.csv")) == cli.EXIT_VALIDATION
    assert f"{label}: injected non-convergence" in capsys.readouterr().err


def test_scan_lockstep_failure_names_the_size(tmp_path, monkeypatch, capsys):
    # the grid scans do not use the stack: only the block's lockstep
    # refinement meets the fault
    _inject_fault(monkeypatch, freefermion.ChainStack, "end_spin_at",
                  lambda stack: 25 in stack.n)
    assert run("scan-n", "--n", "9,25,49", "--jobs", "1", "--out", str(tmp_path / "s.csv")) \
        == cli.EXIT_NUMERICAL
    assert "scan-n n=25 sigma=0 sub-seed=25: injected fault" in capsys.readouterr().err


def test_serial_runs_leave_the_worker_pool_unimported(tmp_path):
    # importing the CLI, building its parser and a --jobs 1 run never load
    # concurrent.futures.process (and with it multiprocessing)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = textwrap.dedent(f"""
        import sys
        from xxzquench import cli

        cli.build_parser()
        loaded = ["concurrent.futures.process" in sys.modules]
        argv = ["scan-n", "--n", "3,5", "--jobs", "1", "--out", {str(tmp_path / "s.csv")!r}]
        assert cli.main(argv) == 0
        loaded.append("concurrent.futures.process" in sys.modules)
        print(*loaded)
    """)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split()[-2:] == ["False", "False"]


# Values for the CLI's numeric flags: non-finite, subnormal, huge and -0.0
# ones, or as often ordinary ones
_FLOATS = st.one_of(
    st.sampled_from(["-0.0", "5e-324", "1e-310", "1e-300", "1e-12", "1e12", "1e300", "1e308",
                     "inf", "-inf", "nan"]),
    st.sampled_from(["0", "0.05", "0.3", "0.9", "1", "2.5", "3", "-1"]))
_INTS = st.one_of(st.sampled_from(["-1", "18446744073709551616", "1e3", "nan"]),
                  st.sampled_from(["0", "1", "2", "7"]))
_PHYSICS = {"--j": _FLOATS, "--delta1": _FLOATS, "--delta2": _FLOATS, "--seed": _INTS,
            "--t-max-horizon": _FLOATS, "--grid-step": _FLOATS}
_SURFACE = {
    "quench": (["quench", "--n", "5"], {**_PHYSICS, "--sigma": _FLOATS}),
    "scan-n": (["scan-n", "--n", "3,5"], {**_PHYSICS, "--sigma": _FLOATS, "--jobs": _INTS}),
    "disorder": (["disorder", "--n", "5", "--realizations", "2"], {
        **_PHYSICS, "--jobs": _INTS, "--realizations": _INTS,
        "--sigma": st.lists(_FLOATS, min_size=1, max_size=3).map(",".join)}),
    "ed-compare": (["ed-compare", "--n", "3,5"], {
        "--j": _FLOATS, "--delta1": _FLOATS, "--seed": _INTS, "--grid-points": _INTS}),
    "purify": (["purify"], {"--threshold": _FLOATS}),
}


def _finite_data(path: str) -> bool:
    """Whether every computed value of a data file is finite; the echoed
    delta1 column of scan-n may read inf."""
    if path.endswith(".json"):
        def numbers(x):
            if isinstance(x, dict):
                return [v for value in x.values() for v in numbers(value)]
            if isinstance(x, list):
                return [v for value in x for v in numbers(value)]
            return [x] if isinstance(x, float) else []
        with open(path, encoding="utf-8") as fh:
            return all(math.isfinite(x) for x in numbers(json.load(fh)))
    header, rows = read_csv(path)
    return all(math.isfinite(float(value)) for row in rows for name, value in zip(header, row)
               if name not in ("delta1", "engine"))


@pytest.mark.parametrize("command", list(_SURFACE))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_surface_exits_with_a_documented_code_and_finite_data(command, data):
    # up to three of the numeric and list flags: main returns 0-3 with
    # RuntimeWarnings raised as errors, and exit 0 leaves finite data; one
    # core, so no --jobs forks a worker
    argv, flags = _SURFACE[command]
    argv = list(argv)
    for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=3,
                                   unique=True), label="flags"):
        argv += [flag, data.draw(flags[flag], label=flag)]
    if command == "purify":
        argv += ["--fef", data.draw(_FLOATS, label="--fef")]
    with tempfile.TemporaryDirectory() as out, mock.patch.object(cli.os, "cpu_count", lambda: 1):
        code = run(*argv, "--out", os.path.join(out, "x.json" if command == "purify" else "x.csv"))
        assert code in (0, 1, 2, 3)
        if code == 0:
            files = [os.path.join(out, f) for f in os.listdir(out) if "manifest" not in f]
            assert files and all(_finite_data(f) for f in files), argv
