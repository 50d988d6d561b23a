import math
import tracemalloc

import numpy as np
import pytest

import oracles
from xxzquench import exactdiag, freefermion, model
from xxzquench.errors import NumericalFaultError
from xxzquench.model import NeelOrder

SQRT2 = math.sqrt(2.0)


def homogeneous(n, j=1.0):
    return model.realize_couplings(model.ChainSpec(n=n, j=j))


def disordered(n, sigma=0.2, seed=11):
    return model.realize_couplings(
        model.ChainSpec(n=n, disorder_sigma=sigma, seed=seed)
    )


def test_propagator_identity_at_t0():
    for real in (homogeneous(6), disordered(9)):
        for propagator in (oracles.propagator, oracles.eigen_propagator):
            np.testing.assert_allclose(propagator(real, 0.0), np.eye(real.n), atol=0)


def test_three_site_closed_forms():
    real = homogeneous(3)
    for t in (0.31, 0.7731, 1.9, 3.3):
        f = oracles.propagator(real, t)
        np.testing.assert_allclose(
            f[0, 1], -1j * (SQRT2 / 2) * math.sin(SQRT2 * t), atol=1e-14
        )
        np.testing.assert_allclose(
            f[0, 0], math.cos(SQRT2 * t / 2) ** 2, atol=1e-14
        )
        np.testing.assert_allclose(
            f[2, 0], -math.sin(SQRT2 * t / 2) ** 2, atol=1e-14
        )


def test_mode_sum_matches_eigen_route():
    real = homogeneous(25)
    a = oracles.mode_sum_propagator(real, 3.7)
    b = oracles.eigen_propagator(real, 3.7)
    assert np.max(np.abs(a - b)) < 1e-10


def test_mode_sum_rejects_disorder():
    with pytest.raises(ValueError):
        oracles.mode_sum_propagator(disordered(5), 1.0)


def test_propagator_unitary_and_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(2, 242))
        t = float(rng.uniform(0.0, 100.0))
        real = homogeneous(n) if rng.random() < 0.5 else disordered(n, seed=int(rng.integers(1 << 30)))
        f = oracles.propagator(real, t)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(n), atol=1e-10)
        assert np.max(np.abs(f - f.T)) < 1e-10


def test_propagator_group_property():
    for real in (homogeneous(17), disordered(13)):
        t1, t2 = 1.3, 2.9
        f12 = oracles.propagator(real, t1 + t2)
        f1 = oracles.propagator(real, t1)
        f2 = oracles.propagator(real, t2)
        assert np.max(np.abs(f12 - f1 @ f2)) < 1e-9


def test_second_moments_at_t0():
    for n in (3, 7, 11):
        real = homogeneous(n)
        state = model.neel_state(NeelOrder.N1, n)
        m = oracles.second_moments(real, state, 0.0)
        assert m.occ_first == 0.0  # site 1 starts down in N1
        assert m.occ_last == 0.0   # odd n: site n starts down too
        assert m.cross_fl == 0.0 and m.cross_lf == 0.0


def test_second_moments_three_sites():
    real = homogeneous(3)
    for t in (0.4, 1.1, 2.6):
        s = 0.5 * math.sin(SQRT2 * t) ** 2
        m1 = oracles.second_moments(real, model.neel_state(NeelOrder.N1, 3), t)
        np.testing.assert_allclose(m1.occ_first, s, atol=1e-13)
        np.testing.assert_allclose(m1.occ_last, s, atol=1e-13)
        np.testing.assert_allclose(m1.cross_fl, s, atol=1e-13)
        m2 = oracles.second_moments(real, model.neel_state(NeelOrder.N2, 3), t)
        np.testing.assert_allclose(m2.cross_fl, -s, atol=1e-13)


def test_moment_invariants():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(2, 60))
        real = homogeneous(n)
        state = model.neel_state(NeelOrder.N2, n)
        m = oracles.second_moments(real, state, float(rng.uniform(0, 20)))
        assert 0.0 <= m.occ_first <= 1.0
        assert 0.0 <= m.occ_last <= 1.0
        assert m.cross_fl == m.cross_lf.conjugate()


def test_end_spin_t0_mixture():
    for n in (3, 9, 15):
        s = freefermion.end_spin_state(homogeneous(n), 0.0)
        assert (s.a, s.b, s.c) == (0.5, 0.0, 0.0)


def test_end_spin_three_site_closed_form():
    real = homogeneous(3)
    for t in np.linspace(0.0, 3.0, 13):
        s = freefermion.end_spin_state(real, float(t))
        sin2 = math.sin(SQRT2 * t) ** 2
        np.testing.assert_allclose(s.a, 0.5 - sin2 / 2, atol=1e-12)
        np.testing.assert_allclose(s.b, sin2 / 2, atol=1e-12)
        np.testing.assert_allclose(s.c, sin2 / 2, atol=1e-12)
    peak = freefermion.end_spin_state(real, math.pi / (2 * SQRT2))
    np.testing.assert_allclose([peak.a, peak.b, peak.c], [0.0, 0.5, 0.5], atol=1e-12)


def test_components_agree_for_odd_chains():
    rng = np.random.default_rng(23)
    for n in (3, 5, 9, 15, 31):
        real = homogeneous(n)
        ts = rng.uniform(0.0, 2 * n / math.pi, 8)
        a1, b1, c1 = oracles.neel_component_series(real, ts, NeelOrder.N1)
        a2, b2, c2 = oracles.neel_component_series(real, ts, NeelOrder.N2)
        np.testing.assert_allclose(a1, a2, atol=1e-10)
        np.testing.assert_allclose(b1, b2, atol=1e-10)
        np.testing.assert_allclose(c1, c2, atol=1e-10)


def test_even_chains_are_separable():
    for n in (2, 4, 6, 8):
        real = homogeneous(n)
        ts = np.linspace(0.0, 2 * n / math.pi, 60)
        a, b, c = freefermion.end_spin_series(real, ts)
        negv = np.maximum(0.0, np.abs(c) - a)
        assert np.max(negv) <= 1e-10
        assert np.max(np.abs(c)) <= 1e-10


def test_matches_exact_diagonalization():
    # delta1 = inf, delta2 = 0: both engines must coincide entry-wise
    for n in (3, 5, 7, 9, 11, 13):
        spec = model.ChainSpec(n=n)
        real = model.realize_couplings(spec)
        ts = np.linspace(0.0, 2 * n / math.pi, 25)
        a, b, c = freefermion.end_spin_series(real, ts)
        evo = exactdiag.QuenchEvolution(real, spec.delta1, spec.delta2)
        ae, be, ce = evo.end_spin_series(ts)
        assert np.max(np.abs(a - ae)) < 1e-8
        assert np.max(np.abs(b - be)) < 1e-8
        assert np.max(np.abs(c - ce)) < 1e-8


def test_end_spin_state_validation():
    with pytest.raises(NumericalFaultError):
        freefermion.EndSpinState(a=0.3, b=0.3, c=0.0, t=0.0)  # broken trace
    with pytest.raises(NumericalFaultError):
        freefermion.EndSpinState(a=0.1, b=0.4, c=0.45, t=0.0)  # |c| > b
    with pytest.raises(NumericalFaultError):
        freefermion.EndSpinState(a=-0.1, b=0.6, c=0.0, t=0.0)
    # the trace tolerance is 1e-12: half of it again fails, half of it passes
    with pytest.raises(NumericalFaultError, match="trace violated"):
        freefermion.EndSpinState(a=0.25 + 0.75e-12, b=0.25, c=0.0, t=0.0)
    freefermion.EndSpinState(a=0.25 + 0.25e-12, b=0.25, c=0.0, t=0.0)


def test_end_spin_matrix():
    s = freefermion.EndSpinState(a=0.1, b=0.4, c=0.25, t=1.0)
    rho = s.matrix()
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-15


def test_time_must_be_nonnegative():
    real = homogeneous(5)
    with pytest.raises(ValueError):
        oracles.propagator(real, -0.1)
    with pytest.raises(ValueError):
        freefermion.end_spin_state(real, -1.0)


KERNEL_CHAINS = {
    "homogeneous-9": lambda: homogeneous(9),
    "homogeneous-30": lambda: homogeneous(30),
    "disordered-9": lambda: disordered(9, sigma=0.8, seed=3),
    "disordered-31": lambda: disordered(31, sigma=0.8, seed=7),
}


def test_kernel_disorder_draws_include_negative_bonds():
    for key in ("disordered-9", "disordered-31"):
        assert min(KERNEL_CHAINS[key]().couplings) < 0.0


@pytest.mark.parametrize("initial", ["mixture", NeelOrder.N1, NeelOrder.N2])
@pytest.mark.parametrize("key", sorted(KERNEL_CHAINS))
def test_series_matches_propagator_oracle(key, initial, monkeypatch):
    real = KERNEL_CHAINS[key]()
    # 38 points in chunks of 7: five full chunks and a partial one, with
    # t = 0 inside the first; the engine evaluates the mixture, and a
    # single Neel order goes through its end-row kernel alone
    monkeypatch.setattr(freefermion._chain(real), "chunk_points", 7)
    ts = np.concatenate([[0.3], [0.0], np.linspace(0.1, 2.0 * real.n, 36)])

    def series(ts):
        if initial == "mixture":
            return np.stack(freefermion.end_spin_series(real, ts))
        return oracles.neel_component_series(real, ts, initial)

    got = series(ts)
    expect = oracles.propagator_end_spin(real, ts, initial)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)
    assert np.array_equal(got[:, 1], expect[:, 1])  # exact unit rows at t = 0
    one = series(ts[-1:])
    np.testing.assert_allclose(
        one, oracles.propagator_end_spin(real, ts[-1:], initial), rtol=0, atol=1e-12
    )


def test_end_rows_exact_at_t0():
    for real in (homogeneous(7), disordered(12, sigma=0.8, seed=3)):
        rows = freefermion._chain(real).end_rows(np.array([1.1, 0.0]))
        unit = np.zeros((4, real.n))
        unit[0, 0] = unit[1, -1] = 1.0
        assert np.array_equal(rows[:, 1], unit)
        f = oracles.eigen_propagator(real, 1.1)
        # f = C - i S, stacked [C_1, C_n, S_1, S_n]
        expect = np.stack([f[0].real, f[-1].real, -f[0].imag, -f[-1].imag])
        np.testing.assert_allclose(rows[:, 0], expect, rtol=0, atol=1e-13)


def test_series_work_memory_independent_of_grid():
    # n = 241 over 20,000 points: the whole-grid complex rows this kernel
    # replaced peaked near 300 MB
    real = homogeneous(241)
    ts = np.linspace(0.0, 150.0, 20_000)
    freefermion.end_spin_series(real, ts[:2])  # build the cached chain outside the trace
    tracemalloc.start()
    try:
        freefermion.end_spin_series(real, ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = 3 * ts.nbytes
    # 16 KiB covers the per-chunk moment stacks and index objects
    assert peak <= freefermion.CHUNK_BYTES + outputs + (16 << 10)


def test_chunk_points_follow_budget(monkeypatch):
    real = disordered(9)
    default = freefermion.HoppingChain(real).chunk_points
    monkeypatch.setattr(freefermion, "CHUNK_BYTES", freefermion.CHUNK_BYTES // 4)
    assert freefermion.HoppingChain(real).chunk_points == default // 4
    monkeypatch.setattr(freefermion, "CHUNK_BYTES", 1)
    assert freefermion.HoppingChain(real).chunk_points == 1


def test_end_spin_state_takes_one_pass(monkeypatch):
    calls = []
    end_rows = freefermion.HoppingChain.end_rows

    def counted(self, ts):
        calls.append(len(ts))
        return end_rows(self, ts)

    monkeypatch.setattr(freefermion.HoppingChain, "end_rows", counted)
    real = disordered(9, sigma=0.8, seed=3)
    s = freefermion.end_spin_state(real, 2.3)
    assert calls == [1]
    a, b, c = freefermion.end_spin_series(real, np.array([2.3]))
    assert (s.a, s.b, s.c) == (a[0], b[0], c[0])


@pytest.mark.parametrize("component", [0, 1])
def test_end_spin_state_checks_coherence_imaginary_part(component, monkeypatch):
    end_moments = freefermion.HoppingChain.end_moments

    def shifted(scale):
        def moments(self, ts, occupied):
            out = end_moments(self, ts, occupied)
            out[3, :, component] += scale * 1e-10  # COHERENCE_IMAG_TOL
            return out
        return moments

    real = homogeneous(7)
    monkeypatch.setattr(freefermion.HoppingChain, "end_moments", shifted(1.5))
    with pytest.raises(NumericalFaultError, match="imaginary part"):
        freefermion.end_spin_state(real, 1.3)
    monkeypatch.setattr(freefermion.HoppingChain, "end_moments", shifted(0.5))
    freefermion.end_spin_state(real, 1.3)


def test_neel_components_are_cached_read_only():
    assert freefermion._neel_components.cache_info().maxsize <= 16
    occupied, sign = freefermion._neel_components(7)
    assert freefermion._neel_components(7)[0] is occupied
    for array in (occupied, sign):
        with pytest.raises(ValueError):
            array[0] = 0.0
    for k, order in enumerate((NeelOrder.N1, NeelOrder.N2)):
        state = model.neel_state(order, 7)
        assert list(np.nonzero(occupied[:, k])[0] + 1) == list(state.up_sites)
        assert sign[k] == (1.0 if state.m_up % 2 == 1 else -1.0)


@pytest.mark.parametrize("n", [7, 12, 31])
def test_chain_stack_matches_single_time_series_bitwise(n):
    reals = [homogeneous(n)] + [disordered(n, sigma=0.8, seed=s) for s in range(5)]
    stack = freefermion.ChainStack([freefermion._chain(r) for r in reals])
    ts = np.array([0.0, 0.4, 1.7, 1.7, 9.3, 2.0 * n])
    got = stack.end_spin_at(ts)
    for k, (real, t) in enumerate(zip(reals, ts)):
        want = freefermion.end_spin_series(real, np.array([t]))
        assert [g[k] for g in got] == [w[0] for w in want]


@pytest.mark.parametrize("factor", [0.5, 1.5])
def test_chain_stack_runs_the_positivity_checks(monkeypatch, factor):
    # occupations 1/2 and a real <c+_n c_1> with |<c+_n c_1>|^2 = 1/4 + delta
    # give a = -delta, b = 1/2 + delta and, the two Neel orders having
    # opposite parity signs at odd n, c = 0; delta is the literal
    # POSITIVITY_TOL scaled
    delta = factor * 1e-9
    moments = np.array([0.5, 0.5, math.sqrt(0.25 + delta), 0.0])
    monkeypatch.setattr(freefermion, "_end_moments", lambda rows, occupied: np.broadcast_to(
        moments[:, None, None, None], rows.shape[:-1] + (occupied.shape[1],)))
    stack = freefermion.ChainStack([freefermion._chain(homogeneous(7))])
    if factor < 1:
        stack.end_spin_at(np.array([1.0]))
        return
    with pytest.raises(NumericalFaultError, match="negative end-spin probability"):
        stack.end_spin_at(np.array([1.0]))


@pytest.mark.parametrize("factor", [0.5, 1.5])
def test_series_and_stack_check_coherence_imaginary_part(monkeypatch, factor):
    end_moments = freefermion._end_moments

    def shifted(rows, occupied):
        out = end_moments(rows, occupied)
        out[3] += factor * 1e-10  # COHERENCE_IMAG_TOL
        return out

    monkeypatch.setattr(freefermion, "_end_moments", shifted)
    real = homogeneous(7)
    ts = np.array([0.0, 0.7, 1.3])
    stack = freefermion.ChainStack([freefermion._chain(real)] * 3)
    for evaluate in (lambda: freefermion.end_spin_series(real, ts), lambda: stack.end_spin_at(ts)):
        if factor < 1:
            evaluate()
            continue
        with pytest.raises(NumericalFaultError, match="imaginary part") as info:
            evaluate()
        assert "t=0.0" in str(info.value)


X_GRID = np.linspace(0.0, 5.0, 20)


@pytest.mark.parametrize("factor", [0.5, 1.5])
@pytest.mark.parametrize("fault, message", [
    ("trace", "trace error"),
    ("a", "negative end-spin probability"),
    ("c", "exceeds its bound"),
])
def test_x_series_check_names_the_failing_point(fault, message, factor):
    # one point of a valid series is moved out by the literal tolerance
    # (1e-9 for the trace and for positivity) times factor
    delta = factor * 1e-9
    a, b, c = np.full(20, 0.25), np.full(20, 0.25), np.full(20, 0.1)
    k = 13
    if fault == "trace":
        a[k] += delta / 2
    elif fault == "a":
        a[k], b[k] = -delta, 0.5 + delta
    else:
        c[k] = -(b[k] + delta)
    if factor < 1:
        freefermion.check_x_series(a, b, c, X_GRID)
        return
    with pytest.raises(NumericalFaultError, match=message) as info:
        freefermion.check_x_series(a, b, c, X_GRID)
    assert f"t={float(X_GRID[k])!r}" in str(info.value)


def test_x_series_check_trips_on_nan():
    a, b, c = np.full(3, 0.25), np.full(3, 0.25), np.zeros(3)
    b[1] = np.nan
    with pytest.raises(NumericalFaultError, match="trace error") as info:
        freefermion.check_x_series(a, b, c, X_GRID[:3])
    assert f"t={float(X_GRID[1])!r}" in str(info.value)


def test_both_engines_route_through_the_x_check(monkeypatch):
    seen = []
    check = freefermion.check_x_series

    def recording(a, b, c, ts):
        seen.append(list(ts))
        check(a, b, c, ts)

    monkeypatch.setattr(freefermion, "check_x_series", recording)
    monkeypatch.setattr(exactdiag, "check_x_series", recording)
    real = homogeneous(7)
    ts = np.linspace(0.0, 4.0, 9)
    freefermion.end_spin_series(real, ts)
    exactdiag.QuenchEvolution(real, 3.0, 0.5).end_spin_series(ts)
    freefermion.ChainStack([freefermion._chain(real)] * 2).end_spin_at(ts[:2])
    assert seen == [list(ts), list(ts), list(ts[:2])]
