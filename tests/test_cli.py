import json
import math

import numpy as np
import pytest

from xxzquench import cli, entangle, freefermion, model
from xxzquench.errors import NumericalFaultError


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


def test_quench_engine_cap_refusal(tmp_path, capsys):
    out = tmp_path / "q.csv"
    assert run("quench", "--n", "17", "--delta2", "0.5", "--out", str(out)) == 1
    assert "capped at 15" in capsys.readouterr().err
    assert not out.exists()


def test_quench_engine_auto_selection(tmp_path):
    out = tmp_path / "qed.csv"
    assert run("quench", "--n", "5", "--delta1", "3", "--t-max-horizon", "1",
               "--grid-step", "0.5", "--out", str(out)) == 0
    doc = json.loads((tmp_path / "qed.csv.manifest.json").read_text())
    assert doc["config"]["engine"] == "exactdiag"


def test_scan_single_size_anchor(tmp_path):
    out = tmp_path / "s.csv"
    assert run("scan-n", "--n", "9", "--jobs", "1", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert len(rows) == 1
    assert abs(col(header, rows, "fef_at_tmax")[0] - 0.9117) < 5e-4
    assert col(header, rows, "engine", str)[0] == "freefermion"
    runtimes = json.loads((tmp_path / "s.csv.manifest.json").read_text())["runtimes_ms"]
    assert "9" in runtimes


def test_scan_finite_quenches_use_exact_engine(tmp_path):
    out = tmp_path / "s.csv"
    assert run("scan-n", "--n", "3,5", "--delta1", "3", "--delta2", "0",
               "--jobs", "1", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert col(header, rows, "engine", str) == ["exactdiag", "exactdiag"]
    assert all(f > 0.5 for f in col(header, rows, "fef_at_tmax"))
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
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("scan-n", "--n", "3,5,7,9", "--jobs", "1", "--out", str(a)) == 0
    assert run("scan-n", "--n", "3,5,7,9", "--jobs", "2", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


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
    out = tmp_path / "e.csv"
    assert run("ed-compare", "--n", "3,5", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert max(col(header, rows, "max_dev")) < 1e-8


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


def test_ed_compare_rejects_large_chains(tmp_path):
    assert run("ed-compare", "--n", "15", "--out", str(tmp_path / "e.csv")) == 1


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


def test_purify_requires_exactly_one_source(tmp_path):
    assert run("purify", "--out", str(tmp_path / "p.json")) == 1
    assert run("purify", "--fef", "0.7", "--record", "x.csv",
               "--out", str(tmp_path / "p.json")) == 1


def test_usage_errors_exit_one(tmp_path):
    assert run("quench", "--n", "7", "--bogus-flag") == 1
    assert run("quench", "--out", str(tmp_path / "q.csv")) == 1  # missing --n
    assert run("quench", "--n", "7", "--delta1", "0", "--out",
               str(tmp_path / "q.csv")) == 1  # upward quench rejected


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


def test_disorder_bytes_independent_of_jobs_and_block_size(tmp_path, monkeypatch):
    argv = ["disorder", "--n", "7", "--sigma", "0,0.3", "--realizations", "5",
            "--seed", "11"]
    assert run(*argv, "--jobs", "1", "--out", str(tmp_path / "whole.csv")) == 0
    # two workers: blocks of 3 and 2 realizations
    assert run(*argv, "--jobs", "2", "--out", str(tmp_path / "c.csv")) == 0
    # blocks of 2, 2 and 1 realizations: 5 is not a multiple of the block size
    monkeypatch.setattr(cli, "DISORDER_BLOCK", 2)
    assert run(*argv, "--jobs", "1", "--out", str(tmp_path / "a.csv")) == 0
    assert run(*argv, "--jobs", "2", "--out", str(tmp_path / "b.csv")) == 0
    for suffix in (".csv", "_timeseries.csv"):
        want = (tmp_path / f"whole{suffix}").read_bytes()
        for name in "abc":
            assert (tmp_path / f"{name}{suffix}").read_bytes() == want


def test_disorder_block_size_bounds_stacked_eigenbases_and_fills_workers():
    assert cli._block_size(7, "freefermion", 100, 1) == cli.DISORDER_BLOCK
    for n in (101, 241):
        size = cli._block_size(n, "freefermion", 100, 1)
        assert 1 <= size < cli.DISORDER_BLOCK
        assert size * freefermion.eigenbasis_bytes(n) <= freefermion.CHUNK_BYTES
    assert cli._block_size(13, "exactdiag", 100, 1) == 1
    # every worker gets a block
    assert cli._block_size(7, "freefermion", 100, 2) == 50
    assert cli._block_size(7, "freefermion", 100, 8) == 13
    assert cli._block_size(7, "freefermion", 5, 8) == 1


def _inject_fault(monkeypatch, cls, method, when):
    original = getattr(cls, method)

    def faulty(self, *args):
        if when(self):
            raise NumericalFaultError("injected fault")
        return original(self, *args)

    monkeypatch.setattr(cls, method, faulty)


def test_disorder_failure_names_the_realization(tmp_path, monkeypatch, capsys):
    # seed 17, realization 3: sub-seed 17 ^ 3 = 18
    _inject_fault(monkeypatch, entangle.CurveEvaluator, "fef_series",
                  lambda ev: ev.spec.seed == 18 and ev.spec.disorder_sigma == 0.2)
    argv = ["disorder", "--n", "7", "--sigma", "0.2", "--realizations", "5",
            "--seed", "17", "--jobs", "1", "--out", str(tmp_path / "d.csv")]
    assert run(*argv) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "disorder n=7 sigma=0.2 realization 3 sub-seed=18: injected fault" in err


def test_disorder_lockstep_failure_names_the_realization(tmp_path, monkeypatch, capsys):
    target = freefermion._chain(model.realize_couplings(
        model.ChainSpec(n=7, disorder_sigma=0.2, seed=18))).energies
    _inject_fault(monkeypatch, freefermion.ChainStack, "end_spin_at",
                  lambda stack: any(np.array_equal(e, target) for e in stack.energies))
    argv = ["disorder", "--n", "7", "--sigma", "0.2", "--realizations", "5",
            "--seed", "17", "--jobs", "1", "--out", str(tmp_path / "d.csv")]
    assert run(*argv) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "realization 3 sub-seed=18: injected fault" in err


def test_scan_failure_names_the_size(tmp_path, monkeypatch, capsys):
    _inject_fault(monkeypatch, entangle.CurveEvaluator, "fef_series",
                  lambda ev: ev.spec.n == 5)
    assert run("scan-n", "--n", "3,5", "--jobs", "1", "--out", str(tmp_path / "s.csv")) \
        == cli.EXIT_NUMERICAL
    assert "scan-n n=5 sigma=0 sub-seed=5: injected fault" in capsys.readouterr().err
