import math
import tracemalloc

import numpy as np
import pytest

import oracles
from xxzquench import entangle, exactdiag, freefermion, model
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
        a1, b1, c1 = oracles.engine_component_series(real, ts, NeelOrder.N1)
        a2, b2, c2 = oracles.engine_component_series(real, ts, NeelOrder.N2)
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
    with pytest.raises(NumericalFaultError, match="end-spin trace error"):
        freefermion.EndSpinState(a=0.25 + 0.75e-12, b=0.25, c=0.0, t=0.0)
    freefermion.EndSpinState(a=0.25 + 0.25e-12, b=0.25, c=0.0, t=0.0)


@pytest.mark.parametrize("field", ["a", "b", "c"])
def test_end_spin_state_refuses_nan(field):
    values = {"a": 0.1, "b": 0.4, "c": 0.25, "t": 1.0, field: math.nan}
    with pytest.raises(NumericalFaultError, match="t=1.0"):
        freefermion.EndSpinState(**values)


def test_end_spin_matrix():
    s = freefermion.EndSpinState(a=0.1, b=0.4, c=0.25, t=1.0)
    rho = oracles.end_spin_matrix(s)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-15


def test_time_must_be_nonnegative():
    real = homogeneous(5)
    with pytest.raises(ValueError):
        oracles.propagator(real, -0.1)
    with pytest.raises(ValueError):
        freefermion.end_spin_state(real, -1.0)


def test_end_spin_state_refuses_a_nan_time_as_input():
    # NaN is bad input, refused where the time enters; an infinite time
    # still reaches the phase check, a numerical fault
    real = model.realize_couplings(model.ChainSpec(n=9))
    with pytest.raises(ValueError, match="time must be >= 0, got nan"):
        freefermion.end_spin_state(real, math.nan)
    with pytest.raises(NumericalFaultError, match="phases"):
        freefermion.end_spin_state(real, math.inf)


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
    # t = 0 inside the first; the engine evaluates order N2, and order N1
    # is read from the complement of its moments
    monkeypatch.setattr(freefermion._chain(real), "chunk_points", 7)
    ts = np.concatenate([[0.3], [0.0], np.linspace(0.1, 2.0 * real.n, 36)])

    def series(ts):
        if initial == "mixture":
            return np.stack(freefermion.end_spin_series(real, ts))
        return oracles.engine_component_series(real, ts, initial)

    got = series(ts)
    expect = oracles.propagator_end_spin(real, ts, initial)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)
    assert np.array_equal(got[:, 1], expect[:, 1])  # exact moments at t = 0
    one = series(ts[-1:])
    np.testing.assert_allclose(
        one, oracles.propagator_end_spin(real, ts[-1:], initial), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("n", [240, 241])
def test_uniform_chain_at_scan_scale_matches_dense_propagator(n):
    # the closed-form modes against the dense eigh of the hopping matrix at
    # the largest default scan sizes, at 40 times of the default grid: read
    # from the whole grid (angle addition) and evaluated on their own
    spec = model.ChainSpec(n=n)
    real = model.realize_couplings(spec)
    _, _, grid = entangle.resolve_grid(spec)
    pick = np.linspace(0, len(grid) - 1, 40).astype(int)
    want = oracles.propagator_end_spin(real, grid[pick], "mixture")
    on_grid = np.stack(freefermion.end_spin_series(real, grid))[:, pick]
    alone = np.stack(freefermion.end_spin_series(real, grid[pick]))
    assert np.max(np.abs(on_grid - want)) <= 1e-12
    assert np.max(np.abs(alone - want)) <= 1e-12


def test_end_moments_exact_at_t0():
    for real in (homogeneous(7), disordered(12, sigma=0.8, seed=3)):
        # the engine's moments are order N2's; N1's are their complement
        n2 = freefermion._end_moments(freefermion._chain(real), np.array([1.1, 0.0]), None)[:, 0]
        n1 = np.array([[1.0], [1.0], [0.0], [0.0]]) - n2
        for order, moments in ((NeelOrder.N1, n1), (NeelOrder.N2, n2)):
            state = model.neel_state(order, real.n)
            # at t = 0: the initial occupations of sites 1 and n, no coherence
            unit = [1 in state.up_sites, real.n in state.up_sites, 0.0, 0.0]
            assert np.array_equal(moments[:, 1], np.array(unit, dtype=float))
            m = oracles.second_moments(real, state, 1.1)
            expect = [m.occ_first, m.occ_last, m.cross_lf.real, m.cross_lf.imag]
            np.testing.assert_allclose(moments[:, 0], expect, rtol=0, atol=1e-13)


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


@pytest.mark.parametrize("n, few, many", [(201, 8, 48), (301, 4, 40)])
def test_disordered_stack_set_up_stays_within_its_charge_and_flat_in_the_batch(n, few, many):
    # chains that are not uniform take their SVD in batches of
    # _svd_batch(n) chains, 4 at n = 201 and 1 at n = 301: the traced peak
    # of drawing and building a stack stays within stack_bytes, and once a
    # batch is full grows with K by no more than the charge's O(K n) term
    # (one SVD of all 40 chains at n = 301 would add 19 MiB to 4's)
    assert freefermion._svd_batch(201) == 4 and freefermion._svd_batch(301) == 1

    def peak(k):
        specs = [model.ChainSpec(n=n, disorder_sigma=0.3, seed=s) for s in range(k)]
        tracemalloc.start()
        try:
            freefermion.ChainStack([model.realize_couplings(spec) for spec in specs])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    low, high = peak(few), peak(many)
    assert low <= freefermion.stack_bytes(n, few) and high <= freefermion.stack_bytes(n, many)
    flat = (freefermion.stack_bytes(n, many, uniform=True)
            - freefermion.stack_bytes(n, few, uniform=True))
    assert high - low <= flat, (low, high, flat)


def test_svd_batches_keep_every_members_bits(monkeypatch):
    # the same disordered chains in batches of 1, 2 or all 5 of them
    members = [disordered(n, seed=s) for n in (6, 9) for s in range(5)]
    want = freefermion.ChainStack(members)
    for budget in (24 * 5 ** 2, 2 * 24 * 5 ** 2):
        monkeypatch.setattr(freefermion, "CHUNK_BYTES", budget)
        got = freefermion.ChainStack(members)
        for key in ("two_s", "weights", "start", "sign"):
            assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), (budget, key)


def test_grid_basis_is_built_once_per_member_block_of_a_series(monkeypatch):
    # a 1,000-point uniform grid in windows of 576 points, one member per
    # block: each block builds its grid basis once, before its two windows,
    # and the series keeps the bits of one window per member
    stack = freefermion.ChainStack([disordered(9, seed=s) for s in range(5)])
    ts = np.linspace(0.0, 20.0, 1000)
    whole = [chunk for _, _, chunk in stack.series(ts)]
    built, grid_bases = [], freefermion._grid_bases
    monkeypatch.setattr(freefermion, "_grid_bases",
                        lambda chains, h: built.append(len(chains.n)) or grid_bases(chains, h))
    stack.chunk_points = 600
    windows = [(rows, cols, chunk) for rows, cols, chunk in stack.series(ts)]
    assert built == [1] * 5 and len(windows) == 10
    for rows, cols, chunk in windows:
        for got, want in zip(chunk, whole[0]):
            assert got.tobytes() == want[rows, cols].tobytes()


def test_chunk_points_follow_budget(monkeypatch):
    real = disordered(9)
    default = freefermion.ChainStack([real]).chunk_points
    monkeypatch.setattr(freefermion, "CHUNK_BYTES", freefermion.CHUNK_BYTES // 4)
    assert freefermion.ChainStack([real]).chunk_points == default // 4
    monkeypatch.setattr(freefermion, "CHUNK_BYTES", 1)
    assert freefermion.ChainStack([real]).chunk_points == 1


def test_end_spin_state_takes_one_pass(monkeypatch):
    calls = []
    end_moments = freefermion._end_moments

    def counted(chains, ts, bases):
        calls.append(ts.size)
        return end_moments(chains, ts, bases)

    monkeypatch.setattr(freefermion, "_end_moments", counted)
    real = disordered(9, sigma=0.8, seed=3)
    s = freefermion.end_spin_state(real, 2.3)
    assert calls == [1]
    a, b, c = freefermion.end_spin_series(real, np.array([2.3]))
    assert (s.a, s.b, s.c) == (a[0], b[0], c[0])


@pytest.mark.parametrize("component", [0, 1])
def test_end_spin_state_checks_coherence_imaginary_part(component, monkeypatch):
    # a fault in the imaginary part of order N1 (component 0) or N2 (1);
    # the engine holds N2's moments, whose Im<c+_n c_1> is minus N1's
    end_moments = freefermion._end_moments

    def shifted(scale):
        def moments(chains, ts, bases):
            out = end_moments(chains, ts, bases)
            out[3] += (2 * component - 1) * scale * 1e-10  # COHERENCE_IMAG_TOL
            return out
        return moments

    real = homogeneous(7)
    monkeypatch.setattr(freefermion, "_end_moments", shifted(1.5))
    with pytest.raises(NumericalFaultError, match="imaginary part"):
        freefermion.end_spin_state(real, 1.3)
    monkeypatch.setattr(freefermion, "_end_moments", shifted(0.5))
    freefermion.end_spin_state(real, 1.3)


@pytest.mark.parametrize("n", [7, 12, 31])
def test_chain_stack_matches_single_time_series_bitwise(n):
    reals = [homogeneous(n)] + [disordered(n, sigma=0.8, seed=s) for s in range(5)]
    stack = freefermion.ChainStack(reals)
    ts = np.array([0.0, 0.4, 1.7, 1.7, 9.3, 2.0 * n])
    got = stack.end_spin_at(ts)
    for k, (real, t) in enumerate(zip(reals, ts)):
        want = freefermion.end_spin_series(real, np.array([t]))
        assert [g[k] for g in got] == [w[0] for w in want]


def test_length_mixed_stack_matches_single_time_series_bitwise():
    # the default scan-n sizes, plus even chains, in one stack: per-length
    # products give each member the bits of its own series (a product over
    # zero-padded rows would move some of them)
    sizes = list(range(3, 50, 2)) + list(range(59, 240, 10)) + [241, 2, 12, 120]
    reals = [disordered(n, sigma=0.3, seed=n) for n in sizes]
    rng = np.random.default_rng(7)
    stack = freefermion.ChainStack(reals)
    for ts in [np.zeros(len(sizes))] + [rng.uniform(0.0, 80.0, len(sizes)) for _ in range(4)]:
        got = stack.end_spin_at(ts)
        for k, (real, t) in enumerate(zip(reals, ts)):
            want = freefermion.end_spin_series(real, np.array([t]))
            assert [g[k] for g in got] == [w[0] for w in want]


def _series_bytes(stack, ts):
    abc = np.empty((3, len(stack.n), len(ts)))
    for members, times, chunk in stack.series(ts):
        abc[:, members, times] = chunk
    return abc.tobytes()


def test_member_of_a_length_mixed_stack_is_its_stack_of_one():
    # odd and even disordered chains in one stack, zero-padded to n = 241:
    # a member taken out is trimmed to its own width, so its arrays, its
    # chunk_points (the scan windows and grid sub-blocks) and its series'
    # bytes are those of the stack of its realization alone
    sizes = [3, 4, 9, 12, 31, 241, 2, 120]
    reals = [disordered(n, sigma=0.3, seed=n) for n in sizes]
    stack = freefermion.ChainStack(reals)
    # longer than any member's chunk, so every member's series splits in time
    ts = np.arange(freefermion.ChainStack(reals[:1]).chunk_points + 700) * 0.013
    for k, real in enumerate(reals):
        part, alone = stack[k:k + 1], freefermion.ChainStack([real])
        assert part.chunk_points == alone.chunk_points
        for key in ("n", "two_s", "weights", "start", "sign", "odd", "rows"):
            got, want = np.asarray(getattr(part, key)), np.asarray(getattr(alone, key))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), key
        assert _series_bytes(part, ts) == _series_bytes(alone, ts)


@pytest.mark.parametrize("factor", [0.5, 1.5])
def test_chain_stack_runs_the_positivity_checks(monkeypatch, factor):
    # occupations 1/2 and a real <c+_n c_1> with |<c+_n c_1>|^2 = 1/4 + delta
    # give a = -delta, b = 1/2 + delta and |c| = sqrt(1/4 + delta) < b;
    # delta is the literal POSITIVITY_TOL scaled
    delta = factor * 1e-9
    moments = np.array([0.5, 0.5, math.sqrt(0.25 + delta), 0.0])
    monkeypatch.setattr(freefermion, "_end_moments", lambda chains, ts, bases: np.broadcast_to(
        moments[:, None, None], (4, len(chains.n), ts.shape[-1])))
    stack = freefermion._chain(homogeneous(7))
    if factor < 1:
        stack.end_spin_at(np.array([1.0]))
        return
    with pytest.raises(NumericalFaultError, match="negative end-spin probability"):
        stack.end_spin_at(np.array([1.0]))


@pytest.mark.parametrize("factor", [0.5, 1.5])
def test_series_and_stack_check_coherence_imaginary_part(monkeypatch, factor):
    end_moments = freefermion._end_moments

    def shifted(chains, ts, bases):
        out = end_moments(chains, ts, bases)
        out[3] += factor * 1e-10  # COHERENCE_IMAG_TOL
        return out

    monkeypatch.setattr(freefermion, "_end_moments", shifted)
    real = homogeneous(7)
    ts = np.array([0.0, 0.7, 1.3])
    stack = freefermion.ChainStack([real] * 3)
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
    # (1e-12 for the trace, 1e-9 for positivity) times factor
    delta = factor * (1e-12 if fault == "trace" else 1e-9)
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


@pytest.mark.parametrize("faults, message, k", [
    # the trace is checked first, whichever fault comes earlier in time
    ({"a": 4, "c": 2, "trace": 13}, "trace error", 13),
    ({"c": 3, "a": 9}, "negative end-spin probability", 9),
])
def test_fused_x_check_names_the_check_that_fails_first(faults, message, k):
    a, b, c = np.full(20, 0.25), np.full(20, 0.25), np.full(20, 0.1)
    delta = 1.5e-9
    if "trace" in faults:
        a[faults["trace"]] += delta / 2
    if "a" in faults:
        a[faults["a"]], b[faults["a"]] = -delta, 0.5 + delta
    if "c" in faults:
        c[faults["c"]] = -(b[faults["c"]] + delta)
    with pytest.raises(NumericalFaultError, match=message) as fused:
        freefermion.check_x_series(a, b, c, X_GRID)
    assert f"t={float(X_GRID[k])!r}" in str(fused.value)
    with pytest.raises(NumericalFaultError) as sequential:
        oracles.check_x_series_sequential(a, b, c, X_GRID)
    assert str(fused.value) == str(sequential.value)


def test_even_chain_coherence_is_positive_zero():
    # n = 8: order N2 carries the parity sign -1 and a zero cross moment,
    # so its c is -0.0 before the +0.0 the X-state assembly adds
    _, _, c = freefermion.end_spin_series(disordered(8), np.linspace(0.0, 3.0, 7))
    assert np.all(c == 0.0) and not np.any(np.signbit(c))


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
        seen.append(np.ravel(ts).tolist())  # a chunk (K, T) of the free-fermion kernel
        check(a, b, c, ts)

    monkeypatch.setattr(freefermion, "check_x_series", recording)
    real = homogeneous(7)
    ts = np.linspace(0.0, 4.0, 9)
    freefermion.end_spin_series(real, ts)
    exactdiag.QuenchEvolution(real, 3.0, 0.5).end_spin_series(ts)
    freefermion.ChainStack([real] * 2).end_spin_at(ts[:2])
    assert seen == [list(ts), list(ts), list(ts[:2])]


@pytest.mark.parametrize("real, delta1", [
    *((homogeneous(n), 3.0) for n in range(2, 12)),
    *((disordered(n, sigma=0.3, seed=n), 2.0) for n in range(2, 12)),
    (homogeneous(8), 1000.0),  # two flip-symmetric components of M = 4
], ids=[*(f"n{n}" for n in range(2, 12)), *(f"n{n}-disordered" for n in range(2, 12)), "pair"])
def test_correlator_route_matches_exact_diagonalization_per_size(real, delta1):
    evolution = exactdiag.QuenchEvolution(real, delta1, 0.0)
    found = exactdiag.correlators(evolution.initial)
    assert len(found) == len(evolution._prepped)
    ts = np.linspace(0.0, 2.0 * real.n / math.pi + 2.0, 301)
    got = np.stack(freefermion.CorrelatorQuench(real, found).end_spin_series(ts))
    assert np.max(np.abs(got - np.stack(evolution.end_spin_series(ts)))) <= 1e-12


@pytest.mark.parametrize("n", range(2, 13))
def test_neel_correlators_wick_factorize_to_the_closed_form(n):
    # the ideal Neel mixture through its correlators gives the sublattice
    # closed form: its pair correlator factorizes by Wick's theorem
    real = disordered(n, sigma=0.3, seed=n)
    quench = freefermion.CorrelatorQuench(real, exactdiag.correlators(exactdiag.neel_mixture(n)))
    ts = np.linspace(0.0, 2.0 * n / math.pi, 257)
    got = np.stack(quench.end_spin_series(ts))
    assert np.max(np.abs(got - np.stack(freefermion.end_spin_series(real, ts)))) <= 1e-12


def test_corrupted_two_point_correlator_trips_the_occupation_check():
    real = disordered(7, seed=3)
    (weight, m_up, g2, g4), = exactdiag.correlators(exactdiag.ground_mixture(real, 3.0))
    freefermion.CorrelatorQuench(real, [(weight, m_up, g2, g4)])
    g2 = g2.copy()
    g2[3, 3] += 1e-8  # sum_k <n_k> is then M + 1e-8
    with pytest.raises(NumericalFaultError, match="occupations of a sector-3 component"):
        freefermion.CorrelatorQuench(real, [(weight, m_up, g2, g4)])


def test_phases_are_refused_from_two_to_the_52_on():
    # below 2^52 rad a phase keeps a fraction of a radian; from 2^52 on its
    # ulp is 1 rad or more, and it is refused before any product; NaN
    # times pass to the checks, and the n = 40001 grid's 1e5 rad passes
    freefermion._check_phases(1.0, np.array([0.0, 2.0**52 - 1.0]))
    freefermion._check_phases(2.0, np.array([np.nan]))
    freefermion._check_phases(4.0, np.arange(0.0, 25_451.0, 50.0))
    for rate, t in [(1.0, 2.0**52), (4.0, 1e20), (1e300, 1e300)]:
        with pytest.raises(NumericalFaultError, match="phases overflow their digits"):
            freefermion._check_phases(rate, np.array([0.0, t]))
