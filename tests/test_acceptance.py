"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  Criteria 3, 4 and 5 share one full size scan computed once per
session.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

import oracles
from xxzquench import cli, entangle, exactdiag, freefermion, model, purify
from xxzquench.purify import BellDiagonal

SQRT2 = math.sqrt(2.0)


def report(tag, ok, detail):
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def anchor9():
    t0 = time.perf_counter()
    result = entangle.find_tmax("freefermion", model.ChainSpec(n=9))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def anchor151():
    t0 = time.perf_counter()
    result = entangle.find_tmax("freefermion", model.ChainSpec(n=151))
    return result, time.perf_counter() - t0


# Chain of the size scan behind criteria 3-5; only its length n varies.
SCAN_SPEC = model.ChainSpec(n=3)


@pytest.fixture(scope="module")
def full_scan():
    sizes = cli.default_scan_sizes()
    assert all(n % 2 == 1 for n in sizes) and max(sizes) == 241
    t0 = time.perf_counter()
    records = {
        n: entangle.find_tmax("freefermion", dataclasses.replace(SCAN_SPEC, n=n))
        for n in sizes
    }
    return records, time.perf_counter() - t0


def test_criterion_01_nine_site_anchor(anchor9):
    result, elapsed = anchor9
    ok = abs(result.fef_at_tmax - 0.9117) <= 5e-4 and elapsed < 1.0
    assert report(
        "1", ok,
        f"n=9 fef(t_max)={result.fef_at_tmax:.6f} (want 0.9117 +- 0.0005), "
        f"runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_02_long_chain_anchor(anchor151):
    result, elapsed = anchor151
    ok = abs(result.fef_at_tmax - 0.544) <= 2e-3 and elapsed < 30.0
    assert report(
        "2", ok,
        f"n=151 fef(t_max)={result.fef_at_tmax:.6f} (want 0.544 +- 0.002), "
        f"runtime {elapsed:.2f}s (< 30s)",
    )


def test_criterion_03_threshold_persistence(full_scan):
    records, elapsed = full_scan
    worst_n = min(records, key=lambda n: records[n].fef_at_tmax)
    worst = records[worst_n].fef_at_tmax
    ok = all(r.fef_at_tmax > 0.5 for r in records.values()) and elapsed < 600.0
    assert report(
        "3", ok,
        f"fef(t_max) > 0.5 for all {len(records)} odd sizes up to 241 "
        f"(minimum {worst:.6f} at n={worst_n}), scan runtime {elapsed:.1f}s (< 600s)",
    )


def test_criterion_04_power_law_fit(full_scan):
    records, _ = full_scan
    points = [(n, r.fef_at_tmax) for n, r in records.items() if n >= 25]
    fit = entangle.fit_power_law(points)
    ok = 0.13 <= fit.exponent <= 0.31 and 1.33 <= fit.amplitude <= 1.51
    assert report(
        "4", ok,
        f"fit over odd n in [25, 241] ({len(points)} points): "
        f"amplitude {fit.amplitude:.4f} (band [1.33, 1.51]), "
        f"exponent {fit.exponent:.4f} (band [0.13, 0.31])",
    )


def test_criterion_05a_tmax_below_ballistic_bound(full_scan):
    records, _ = full_scan
    margin = min(n / math.pi - r.t_max for n, r in records.items() if n >= 25)
    ok = margin > 0
    assert report(
        "5a", ok,
        f"every t_max below n/pi over odd n in [25, 241] "
        f"(smallest gap {margin:.3f}/J)",
    )


def test_criterion_05b_tmax_slope(full_scan):
    records, _ = full_scan
    ns = np.array([n for n in records if n >= 25], dtype=float)
    tm = np.array([records[int(n)].t_max for n in ns])
    slope = float(np.polyfit(ns, tm, 1)[0])
    # Hopping A_{k,k+1} = J gives mode energies 2J cos q, so the fastest
    # group velocity is 2J.  The end-to-end coherence needs amplitude from
    # the middle of the chain at both ends, n/2 sites away: t_max -> n/(4J).
    # The front arrives later than ballistic by a delay growing like
    # n^(1/3), which can only raise the fitted slope above 1/(4J).
    target = 1.0 / (4.0 * SCAN_SPEC.j)
    ok = target <= slope <= 1.1 * target
    assert report(
        "5b", ok,
        f"t_max vs n slope {slope:.4f} over odd n in [25, 241], required in "
        f"[1/(4J), 1.1/(4J)] = [{target:.4f}, {1.1 * target:.4f}] "
        f"(two fronts at group velocity 2J each covering n/2)",
    )


def test_criterion_06_purification_weak_source(anchor151):
    result, _ = anchor151
    trace = purify.purify_until(
        BellDiagonal.from_fidelity(result.fef_at_tmax), threshold=0.99
    )
    ok = (
        trace.iterations == 5
        and abs(trace.final_fidelity - 0.996) <= 2e-3
        and 325.0 <= trace.expected_pairs <= 397.0
    )
    assert report(
        "6", ok,
        f"n=151 source f={result.fef_at_tmax:.4f}: {trace.iterations} iterations "
        f"(want 5), final {trace.final_fidelity:.4f} (0.996 +- 0.002), "
        f"pairs {trace.expected_pairs:.1f} (band [325, 397])",
    )


@pytest.fixture(scope="module")
def strong_trace(anchor9):
    result, _ = anchor9
    return purify.purify_until(
        BellDiagonal.from_fidelity(result.fef_at_tmax), threshold=0.99
    )


def test_criterion_07a_purification_strong_source(strong_trace):
    trace = strong_trace
    ok = trace.iterations == 1 and abs(trace.final_fidelity - 0.991) <= 1e-3
    assert report(
        "7a", ok,
        f"n=9 source: {trace.iterations} iteration (want 1), "
        f"final {trace.final_fidelity:.4f} (0.991 +- 0.001)",
    )


def test_criterion_07b_purification_strong_source_pairs(strong_trace):
    trace = strong_trace
    # One recurrence round on the from_fidelity(f) source succeeds with
    # p = f^2 + (1 - f)^2 and costs 2/p pairs (purify.PAIR_ACCOUNTING_NOTE).
    # The band is 2/p over criterion 1's anchor band f = 0.9117 +- 5e-4;
    # 2/p falls as f rises.
    def pairs(f):
        return 2.0 / (f * f + (1.0 - f) ** 2)

    low, high = pairs(0.9117 + 5e-4), pairs(0.9117 - 5e-4)
    _, p_dense = oracles.recurrence_step_dense(trace.steps[0].input_state)
    oracle_dev = abs(trace.expected_pairs - 2.0 / p_dense)
    ok = low <= trace.expected_pairs <= high and oracle_dev <= 1e-12
    assert report(
        "7b", ok,
        f"n=9 source expected pairs {trace.expected_pairs:.4f}, required band "
        f"[{low:.4f}, {high:.4f}] (2/p for f in [0.9112, 0.9122]); success "
        f"probability {trace.steps[0].success_probability:.4f}, 2/p from the "
        f"16x16 oracle to {oracle_dev:.2e} (<= 1e-12)",
    )


def test_criterion_08_cross_engine_agreement():
    worst = 0.0
    for n in (3, 5, 7, 9, 11):
        spec = model.ChainSpec(n=n)
        ts = np.linspace(0.0, entangle.default_horizon(spec), 50)
        ff = entangle.CurveEvaluator(spec, "freefermion").series(ts)
        ed = entangle.CurveEvaluator(spec, "exactdiag").series(ts)
        worst = max(worst, max(float(np.max(np.abs(ff[k] - ed[k]))) for k in range(3)))
    ok = worst <= 1e-8
    assert report(
        "8", ok,
        f"free-fermion vs exact-diagonalization (a, b, c) on 50-point grids, "
        f"odd n in 3..11: max deviation {worst:.2e} (<= 1e-8)",
    )


def test_criterion_09_three_site_closed_form():
    spec = model.ChainSpec(n=3)
    real = model.realize_couplings(spec)
    ts = np.linspace(0.0, 3.0, 301)
    a, b, c = freefermion.end_spin_series(real, ts)
    sin2 = np.sin(SQRT2 * ts) ** 2
    dev_criterion = float(np.max(np.abs(np.maximum(b + c, b - c) - sin2)))
    dev_fef = float(np.max(np.abs(np.maximum(a, b + np.abs(c)) - np.maximum(a, sin2))))
    result = entangle.find_tmax("freefermion", spec)
    t_ok = abs(result.t_max - math.pi / (2 * SQRT2)) <= 1e-6
    peak_ok = abs(result.fef_at_tmax - 1.0) <= 1e-10
    ok = dev_criterion <= 1e-10 and dev_fef <= 1e-10 and t_ok and peak_ok
    assert report(
        "9", ok,
        f"n=3: max(b+c, b-c) = sin^2(sqrt(2) J t) to {dev_criterion:.2e}, "
        f"fef = max(a, sin^2) to {dev_fef:.2e} on [0, 3]; "
        f"t_max = {result.t_max:.7f} (pi/(2 sqrt(2)) +- 1e-6), "
        f"peak fef = {result.fef_at_tmax:.12f} (1 +- 1e-10)",
    )


def test_criterion_10_even_chain_separability():
    worst = 0.0
    for n in (4, 6, 8):
        real = model.realize_couplings(model.ChainSpec(n=n))
        ts = np.linspace(0.0, 2 * n / math.pi, 200)
        a, b, c = freefermion.end_spin_series(real, ts)
        worst = max(worst, float(np.max(np.maximum(0.0, np.abs(c) - a))))
    ok = worst <= 1e-10
    assert report(
        "10", ok,
        f"negativity at all sampled times for n in (4, 6, 8): "
        f"max {worst:.2e} (<= 1e-10)",
    )


def test_criterion_11_disorder_robustness(tmp_path):
    out = tmp_path / "disorder.csv"
    code = cli.main(
        ["disorder", "--n", "7", "--sigma", "0,0.1,0.2,0.3",
         "--realizations", "100", "--seed", "20260809", "--jobs", "2",
         "--out", str(out)]
    )
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    idx = {name: k for k, name in enumerate(header)}
    by_sigma = {float(r[idx["sigma"]]): r for r in rows}
    clean_f = float(by_sigma[0.0][idx["mean_peak_fef"]])
    clean_t = float(by_sigma[0.0][idx["mean_peak_time"]])
    f01 = float(by_sigma[0.1][idx["mean_peak_fef"]])
    t01 = float(by_sigma[0.1][idx["mean_peak_time"]])
    height_ok = abs(f01 - clean_f) <= 0.05 * clean_f
    time_ok = abs(t01 - clean_t) <= 0.10 * clean_t
    peaks = [float(by_sigma[s][idx["mean_peak_fef"]]) for s in (0.0, 0.1, 0.2, 0.3)]
    curve_peaks = [
        float(by_sigma[s][idx["meancurve_peak_fef"]]) for s in (0.0, 0.1, 0.2, 0.3)
    ]
    ordered = all(x > y for x, y in zip(peaks, peaks[1:])) and all(
        x > y for x, y in zip(curve_peaks, curve_peaks[1:])
    )
    ok = height_ok and time_ok and ordered
    assert report(
        "11", ok,
        f"n=7, 100 realizations: sigma=0.1 mean peak {f01:.4f} vs clean "
        f"{clean_f:.4f} ({abs(f01 / clean_f - 1) * 100:.1f}%, <= 5%), peak time "
        f"{t01:.4f} vs {clean_t:.4f} ({abs(t01 / clean_t - 1) * 100:.1f}%, <= 10%); "
        f"peak heights ordered for sigma 0 > 0.1 > 0.2 > 0.3: {ordered}",
    )


def test_criterion_12a_propagator_properties():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(8):
        n = int(rng.integers(2, 120))
        sigma = float(rng.choice([0.0, 0.2]))
        real = model.realize_couplings(
            model.ChainSpec(n=n, disorder_sigma=sigma, seed=int(rng.integers(1 << 30)))
        )
        t1, t2 = rng.uniform(0.0, 40.0, 2)
        f1 = oracles.propagator(real, float(t1))
        f2 = oracles.propagator(real, float(t2))
        f12 = oracles.propagator(real, float(t1 + t2))
        worst = max(
            worst,
            float(np.max(np.abs(f1 @ f1.conj().T - np.eye(n)))),
            float(np.max(np.abs(f12 - f1 @ f2))),
        )
    ok = worst <= 1e-9
    assert report(
        "12a", ok, f"propagator unitarity and group law: max defect {worst:.2e} (<= 1e-9)"
    )


def test_criterion_12b_rdm_properties():
    real = model.realize_couplings(model.ChainSpec(n=7, delta1=3.0, delta2=0.5))
    state0 = exactdiag.ground_mixture(real, 3.0)
    worst = 0.0
    for t in np.linspace(0.0, 14.0, 8):
        state = oracles.evolve(state0, real, 0.5, float(t))
        rho = oracles.two_site_matrix(state, 1, 7)
        worst = max(
            worst,
            float(np.max(np.abs(rho - rho.conj().T))),
            abs(float(np.trace(rho).real) - 1.0),
            max(0.0, -float(np.min(np.linalg.eigvalsh(rho)))),
        )
    ok = worst <= 1e-9
    assert report(
        "12b", ok,
        f"reduced density matrix trace/hermiticity/positivity: "
        f"max defect {worst:.2e} (<= 1e-9)",
    )


def test_criterion_12c_recurrence_oracle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        state = BellDiagonal.from_weights(rng.dirichlet([1.0] * 4))
        got, p_got = purify.recurrence_step(state)
        want, p_want = oracles.recurrence_step_dense(state)
        worst = max(
            worst,
            float(np.max(np.abs(got.as_array() - want.as_array()))),
            abs(p_got - p_want),
        )
    ok = worst <= 1e-12
    assert report(
        "12c", ok,
        f"closed-form recurrence vs 16x16 brute-force oracle on 1000 random "
        f"Bell-diagonal inputs: max deviation {worst:.2e} (<= 1e-12)",
    )


def test_criterion_12d_bit_identical_reruns(tmp_path):
    argv = ["scan-n", "--n", "3,7,11", "--seed", "5"]
    paths = [tmp_path / f"s{i}.csv" for i in range(3)]
    assert cli.main(argv + ["--jobs", "1", "--out", str(paths[0])]) == 0
    assert cli.main(argv + ["--jobs", "1", "--out", str(paths[1])]) == 0
    assert cli.main(argv + ["--jobs", "2", "--out", str(paths[2])]) == 0
    same_rerun = paths[0].read_bytes() == paths[1].read_bytes()
    same_jobs = paths[0].read_bytes() == paths[2].read_bytes()
    manifest = json.loads((tmp_path / "s0.csv.manifest.json").read_text())
    config_complete = manifest["config"]["n_list"] == [3, 7, 11] and \
        manifest["config"]["seed"] == 5
    ok = same_rerun and same_jobs and config_complete
    assert report(
        "12d", ok,
        f"bit-identical rerun from manifest configuration: rerun={same_rerun}, "
        f"thread-count invariance={same_jobs}",
    )
