import math

import numpy as np
import pytest

import oracles
from xxzquench import entangle, exactdiag, freefermion, model
from xxzquench.errors import NumericalFaultError
from xxzquench.model import NeelOrder


def homogeneous(n, j=1.0):
    return model.realize_couplings(model.ChainSpec(n=n, j=j))


def dense_full_hamiltonian(n, j, delta):
    """Kronecker-product construction over the full 2^n space (oracle)."""
    sx = np.array([[0, 1], [1, 0]], dtype=float)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0])

    def site_op(op, k):
        out = np.eye(1)
        for s in range(n):
            out = np.kron(out, op if s == k else np.eye(2))
        return out

    h = np.zeros((2**n, 2**n), dtype=complex)
    for k in range(n - 1):
        h += (j / 2) * (
            site_op(sx, k) @ site_op(sx, k + 1)
            + site_op(sy, k) @ site_op(sy, k + 1)
            + delta * site_op(sz, k) @ site_op(sz, k + 1)
        )
    return h.real


def test_sector_dimensions_sum_to_full_space():
    for n in range(2, 14):
        total = sum(exactdiag.sector_basis(n, m).dim for m in range(n + 1))
        assert total == 2**n


def test_sector_basis_ordering_and_index():
    basis = exactdiag.sector_basis(5, 2)
    assert basis.dim == math.comb(5, 2)
    states = [int(s) for s in basis.states]
    assert states == sorted(states)
    for i, p in enumerate(states):
        assert bin(p).count("1") == 2
        assert basis.index[p] == i


def test_two_site_exchange_block():
    ham = exactdiag.build_sector_hamiltonian(homogeneous(2, j=1.3), 0.0, 1)
    np.testing.assert_allclose(ham.matrix, [[0.0, 1.3], [1.3, 0.0]], atol=0)


def test_three_site_sector_against_dense_oracle():
    real = homogeneous(3)
    ham = exactdiag.build_sector_hamiltonian(real, 1.0, 1)
    # basis ascending: patterns 0b001, 0b010, 0b100 (up at site 1, 2, 3)
    np.testing.assert_allclose(np.diag(ham.matrix), [0.0, -1.0, 0.0], atol=0)
    assert ham.matrix[0, 1] == 1.0 and ham.matrix[1, 2] == 1.0
    assert ham.matrix[0, 2] == 0.0

    full = dense_full_hamiltonian(3, 1.0, 1.0)
    mags = [bin(p).count("1") for p in range(8)]
    # full-space basis ordering above is most-significant qubit = site 1;
    # compare eigenvalues of the one-up sector, which are basis agnostic
    idx = [p for p in range(8) if mags[p] == 1]
    sector = full[np.ix_(idx, idx)]
    np.testing.assert_allclose(
        np.linalg.eigvalsh(sector), np.linalg.eigvalsh(ham.matrix), atol=1e-12
    )


def test_full_spectrum_against_dense_oracle():
    real = model.realize_couplings(
        model.ChainSpec(n=5, delta1=4.0, delta2=1.5, disorder_sigma=0.15, seed=8)
    )
    for delta in (0.0, 1.5):
        got = np.sort(
            np.concatenate(
                [
                    np.linalg.eigvalsh(
                        exactdiag.build_sector_hamiltonian(real, delta, m).matrix
                    )
                    for m in range(6)
                ]
            )
        )
        want = np.linalg.eigvalsh(
            dense_full_hamiltonian(5, 1.0, delta)
            if real.homogeneous
            else _dense_disordered(real, delta)
        )
        np.testing.assert_allclose(got, want, atol=1e-10)


def _dense_disordered(real, delta):
    sx = np.array([[0, 1], [1, 0]], dtype=float)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0])
    n = real.n

    def site_op(op, k):
        out = np.eye(1)
        for s in range(n):
            out = np.kron(out, op if s == k else np.eye(2))
        return out

    h = np.zeros((2**n, 2**n), dtype=complex)
    for k, jk in enumerate(real.couplings):
        h += (jk / 2) * (
            site_op(sx, k) @ site_op(sx, k + 1)
            + site_op(sy, k) @ site_op(sy, k + 1)
            + delta * site_op(sz, k) @ site_op(sz, k + 1)
        )
    return h.real


def test_infinite_delta_rejected():
    with pytest.raises(ValueError):
        exactdiag.build_sector_hamiltonian(homogeneous(7), math.inf, 3)


def test_site_cap():
    with pytest.raises(ValueError):
        exactdiag.sector_basis(16, 8)


def test_neel_mixture_structure():
    state = exactdiag.ground_mixture(homogeneous(5), math.inf)
    assert state.origin == "ideal-neel-mixture"
    assert len(state.components) == 2
    weights = sorted(c.weight for c in state.components)
    assert weights == [0.5, 0.5]
    sectors = sorted(c.m_up for c in state.components)
    assert sectors == [2, 3]
    for comp in state.components:
        # basis state: exactly one unit amplitude
        assert np.count_nonzero(comp.amplitudes) == 1


def test_large_delta_ground_state_is_nearly_neel():
    state = exactdiag.ground_mixture(homogeneous(5), 50.0)
    assert state.origin == "degenerate-ground-multiplet"
    assert len(state.components) == 2
    for comp in state.components:
        order = NeelOrder.N1 if comp.m_up == 2 else NeelOrder.N2
        pattern = sum(1 << (s - 1) for s in model.neel_state(order, 5).up_sites)
        basis = exactdiag.sector_basis(5, comp.m_up)
        overlap = abs(comp.amplitudes[basis.index[pattern]]) ** 2
        assert overlap > 0.99


def test_moderate_delta_ground_pair_is_degenerate():
    real = homogeneous(9)
    spectra = {
        m: np.linalg.eigvalsh(exactdiag.build_sector_hamiltonian(real, 3.0, m).matrix)
        for m in range(10)
    }
    state = exactdiag.ground_mixture(real, 3.0)
    assert sorted(c.m_up for c in state.components) == [4, 5]
    e4, e5 = spectra[4][0], spectra[5][0]
    assert abs(e4 - e5) < 1e-10 * abs(e4)


def test_ground_mixture_rejects_small_delta1():
    with pytest.raises(ValueError):
        exactdiag.ground_mixture(homogeneous(5), 0.8)


def test_evolve_identity_at_t0():
    real = homogeneous(5)
    state = exactdiag.neel_mixture(5)
    assert oracles.evolve(state, real, 0.7, 0.0) is state


def test_energy_conservation():
    real = homogeneous(7)
    state = exactdiag.neel_mixture(7)
    e_initial = oracles.energy_expectation(state, real, 0.4)
    evolved = oracles.evolve(state, real, 0.4, 5.0)
    e_final = oracles.energy_expectation(evolved, real, 0.4)
    assert abs(e_initial - e_final) < 1e-10


def test_norm_preserved_and_sector_kept():
    real = homogeneous(7)
    state = exactdiag.ground_mixture(real, 3.0)
    for t in (0.5, 7.0, 4 * 7.0):
        evolved = oracles.evolve(state, real, 0.0, t)
        for before, after in zip(state.components, evolved.components):
            assert after.m_up == before.m_up
            assert abs(np.linalg.norm(after.amplitudes) - 1.0) < 1e-10


def test_cross_engine_single_time():
    spec = model.ChainSpec(n=7)
    real = model.realize_couplings(spec)
    state = oracles.evolve(exactdiag.neel_mixture(7), real, 0.0, 1.3)
    ed = oracles.two_spin_rdm(state, 1, 7, t=1.3)
    ff = freefermion.end_spin_state(real, 1.3)
    assert abs(ed.a - ff.a) < 1e-8
    assert abs(ed.b - ff.b) < 1e-8
    assert abs(ed.c - ff.c) < 1e-8


def test_rdm_at_t0_is_classical_neel_pair():
    for n in (3, 5, 9):
        rho = oracles.two_site_matrix(exactdiag.neel_mixture(n), 1, n)
        np.testing.assert_allclose(rho, np.diag([0.5, 0.0, 0.0, 0.5]), atol=0)


def test_three_site_peak_is_pure_triplet():
    real = homogeneous(3)
    t_peak = math.pi / (2 * math.sqrt(2))
    state = oracles.evolve(exactdiag.neel_mixture(3), real, 0.0, t_peak)
    s = oracles.two_spin_rdm(state, 1, 3, t=t_peak)
    np.testing.assert_allclose([s.a, s.b, s.c], [0.0, 0.5, 0.5], atol=1e-12)


def test_rdm_is_physical_everywhere():
    real = model.realize_couplings(model.ChainSpec(n=6, delta1=3.0, delta2=0.7))
    state0 = exactdiag.ground_mixture(real, 3.0)
    rng = np.random.default_rng(4)
    for _ in range(6):
        t = float(rng.uniform(0, 24))
        i = int(rng.integers(1, 6))
        j = int(rng.integers(i + 1, 7))
        rho = oracles.two_site_matrix(oracles.evolve(state0, real, 0.7, t), i, j)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-9


def test_two_spin_rdm_validates_sites():
    state = exactdiag.neel_mixture(5)
    with pytest.raises(ValueError):
        oracles.two_site_matrix(state, 3, 3)
    with pytest.raises(ValueError):
        oracles.two_site_matrix(state, 0, 5)


def test_mixed_state_validation():
    vec = np.array([1.0, 0.0, 0.0])
    good = exactdiag.PureComponent(weight=1.0, m_up=1, amplitudes=vec)
    with pytest.raises(ValueError):
        exactdiag.MixedState(n=3, components=(
            exactdiag.PureComponent(weight=0.7, m_up=1, amplitudes=vec),
        ))
    with pytest.raises(NumericalFaultError):
        exactdiag.MixedState(n=3, components=(
            exactdiag.PureComponent(weight=1.0, m_up=1, amplitudes=2 * vec),
        ))
    exactdiag.MixedState(n=3, components=(good,))


def test_finite_quench_square_point_exceeds_half():
    # the (3 -> 0) quench at n = 9
    spec = model.ChainSpec(n=9, delta1=3.0, delta2=0.0)
    result = entangle.find_tmax("exactdiag", spec)
    assert result.fef_at_tmax > 0.5


def test_quench_family_ordering():
    # ideal start + free propagation beats (3 -> 0) beats (inf -> 1),
    # and every small odd chain stays above the purifiability threshold
    for n in (5, 7, 9, 11):
        f_analytic = entangle.find_tmax("freefermion", model.ChainSpec(n=n)).fef_at_tmax
        f_finite_d1 = entangle.find_tmax(
            "exactdiag", model.ChainSpec(n=n, delta1=3.0, delta2=0.0)
        ).fef_at_tmax
        f_finite_d2 = entangle.find_tmax(
            "exactdiag", model.ChainSpec(n=n, delta2=1.0)
        ).fef_at_tmax
        assert f_analytic > f_finite_d1 > f_finite_d2 > 0.5


BATCH_CASES = [
    # disordered couplings at sigma = 0.8, ideal Neel start
    *[model.ChainSpec(n=n, disorder_sigma=0.8, seed=10 + n) for n in (3, 5, 7, 9)],
    # finite delta1, post-quench delta2 in {0, 0.5}
    model.ChainSpec(n=7, delta1=3.0, delta2=0.0),
    model.ChainSpec(n=9, delta1=2.5, delta2=0.5, disorder_sigma=0.8, seed=4),
    model.ChainSpec(n=5, delta2=0.5, disorder_sigma=0.8, seed=6),
]


def test_batch_cases_include_negative_couplings():
    draws = [c for spec in BATCH_CASES for c in model.realize_couplings(spec).couplings]
    assert min(draws) < 0


@pytest.mark.parametrize(
    "spec", BATCH_CASES, ids=lambda s: f"n{s.n}-d{s.delta1}-{s.delta2}-s{s.disorder_sigma}"
)
def test_batched_series_matches_per_point_oracle(spec):
    real = model.realize_couplings(spec)
    evolution = exactdiag.QuenchEvolution(real, spec.delta1, spec.delta2)
    # several chunks, the last one short, then a length-1 grid
    evolution.chunk_points = 7
    for ts in (np.linspace(0.0, 2.0 * spec.n, 38), np.array([1.7])):
        assert len(ts) == 1 or len(ts) % evolution.chunk_points != 0
        got = evolution.end_spin_series(ts)
        want = oracles.end_pair_per_point(evolution.initial, real, spec.delta2, ts)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_chunk_length_follows_byte_budget(monkeypatch):
    real = homogeneous(9)
    default = exactdiag.QuenchEvolution(real, 3.0, 0.0).chunk_points
    monkeypatch.setattr(exactdiag, "CHUNK_BYTES", exactdiag.CHUNK_BYTES // 4)
    assert exactdiag.QuenchEvolution(real, 3.0, 0.0).chunk_points == default // 4
    monkeypatch.setattr(exactdiag, "CHUNK_BYTES", 1)
    assert exactdiag.QuenchEvolution(real, 3.0, 0.0).chunk_points == 1


FAULT_TS = np.linspace(0.0, 5.0, 20)
FAULT_INDEX = 10  # inside the second 7-point chunk
FAULT_T = float(FAULT_TS[FAULT_INDEX])


def _fault(entries):
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    for (i, j), value in entries.items():
        rho[i, j] += value
    return rho


# each fault exceeds the documented tolerance by half, written as a literal
# so that a loosened constant misses it (the constants are pinned in
# test_tolerance_constants_are_pinned)
RDM = 1.5 * 1e-9
XS = 1.5 * 1e-10


@pytest.mark.parametrize("bad_rho, message", [
    (_fault({(0, 1): RDM}), "not Hermitian"),
    (_fault({(0, 0): RDM}), "trace error"),
    (np.diag([0.5 + RDM, -RDM, 0.0, 0.5]).astype(complex), "negative eigenvalue"),
    (_fault({(0, 1): XS, (1, 0): XS}), "X structure"),
    (_fault({(1, 2): 1j * XS, (2, 1): -1j * XS}), "imaginary part"),
    (_fault({(0, 0): RDM / 2, (3, 3): -RDM / 2}), "diagonal pairs"),
])
def test_fault_checks_raise_inside_a_chunk(bad_rho, message):
    # the full 4x4 checks live in the oracle: a stack of end-pair matrices
    # over the grid passes them, and one corrupted matrix raises, naming
    # its time
    real = homogeneous(7)
    initial = exactdiag.ground_mixture(real, 3.0)
    rho = np.stack([
        oracles.two_site_matrix(oracles.evolve(initial, real, 0.5, float(t)), 1, 7)
        for t in FAULT_TS
    ])
    oracles.x_state_series(rho, FAULT_TS)
    rho[FAULT_INDEX] = bad_rho
    with pytest.raises(NumericalFaultError, match=message) as info:
        oracles.x_state_series(rho, FAULT_TS)
    assert f"t={FAULT_T!r}" in str(info.value)


def test_norm_drift_raises_inside_a_chunk():
    evolution = exactdiag.QuenchEvolution(homogeneous(7), 3.0, 0.5)
    evolution.chunk_points = 7
    (rep,) = evolution._prepped  # the one flip representative
    drift = 1.5 * 1e-10  # NORM_DRIFT_TOL
    evolution._prepped[0] = rep._replace(coeffs=[c * (1 + drift) for c in rep.coeffs])
    with pytest.raises(NumericalFaultError, match="norm drift"):
        evolution.end_spin_series(FAULT_TS[FAULT_INDEX:])


def test_trace_fault_raises_through_the_shared_check():
    # a representative weight off by 1.5x the literal trace tolerance keeps
    # every norm but breaks 2a + 2b = 1 at every point
    evolution = exactdiag.QuenchEvolution(homogeneous(7), 3.0, 0.5)
    evolution.end_spin_series(FAULT_TS)
    (rep,) = evolution._prepped
    evolution._prepped[0] = rep._replace(weight=rep.weight * (1 + 1.5 * 1e-9))
    with pytest.raises(NumericalFaultError, match="trace error") as info:
        evolution.end_spin_series(FAULT_TS[FAULT_INDEX:])
    assert f"t={FAULT_T!r}" in str(info.value)


def test_tolerance_constants_are_pinned():
    assert exactdiag.NORM_DRIFT_TOL == 1e-10
    assert exactdiag.FLIP_CLOSURE_TOL == 1e-10
    assert freefermion.TRACE_TOL == 1e-9
    assert freefermion.POSITIVITY_TOL == 1e-9
    assert freefermion.COHERENCE_IMAG_TOL == 1e-10
    assert oracles.RDM_TOL == 1e-9
    assert oracles.X_STRUCTURE_TOL == 1e-10


def test_evolver_cache_is_small():
    assert exactdiag._evolver.cache_info().maxsize <= 4


def test_homogeneous_neel_start_diagonalizes_one_reflection_block(monkeypatch):
    # n=13, M=7 (dimension 1,716) splits into reflection blocks of 868 and
    # 848; the Neel pattern is mirror-symmetric, so only the even block and
    # only one flip representative are evolved
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def record(matrix, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, matrix.shape[0]))
            return _original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    exactdiag._evolver.cache_clear()
    exactdiag.QuenchEvolution(homogeneous(13), math.inf, 0.0)
    assert calls == [("eigh", 868)]


def _disordered(n):
    return model.realize_couplings(model.ChainSpec(n=n, disorder_sigma=0.8, seed=5))


@pytest.mark.parametrize("real, delta1, blocks", [
    # sectors of 35 patterns with 3 mirror-symmetric ones: blocks of 19 and 16
    (homogeneous(7), math.inf, [(1, 19)]),
    (homogeneous(7), 3.0, [(1, 19)]),
    # no 6-site pattern with 3 up spins is mirror-symmetric: blocks of 10 and
    # 10; the even-n ground state is reflection-odd
    (homogeneous(6), 3.0, [(-1, 10)]),
    # the two even-n Neel orders are mirror images: both blocks
    (homogeneous(6), math.inf, [(1, 10), (-1, 10)]),
    # no reflection symmetry: one block, the whole sector
    (_disordered(7), 3.0, [(1, 35)]),
], ids=["neel7", "ground7", "ground6", "neel6", "disordered7"])
def test_parity_blocks_reached_by_the_representative(real, delta1, blocks):
    (rep,) = exactdiag.QuenchEvolution(real, delta1, 0.5)._prepped
    assert rep.weight == 1.0
    assert [(b.parity, len(b.energies)) for b in rep.blocks] == blocks


def _rotated(vec, angle):
    """Unit vector at the given angle from vec, towards its first basis state."""
    away = np.zeros_like(vec)
    away[0] = 1.0
    away -= vec[0] * vec
    away /= np.linalg.norm(away)
    return np.cos(angle) * vec + np.sin(angle) * away


@pytest.mark.parametrize("factor", [0.5, 1.5])
def test_flip_closure_check(monkeypatch, factor):
    real = homogeneous(7)
    state = exactdiag.ground_mixture(real, 3.0)
    first, partner = state.components
    moved = _rotated(partner.amplitudes, factor * 1e-10)  # FLIP_CLOSURE_TOL
    corrupted = exactdiag.MixedState(n=7, components=(
        first, exactdiag.PureComponent(weight=0.5, m_up=partner.m_up, amplitudes=moved),
    ))
    monkeypatch.setattr(exactdiag, "ground_mixture", lambda *args: corrupted)
    if factor < 1:
        exactdiag.QuenchEvolution(real, 3.0, 0.5)
        return
    with pytest.raises(NumericalFaultError, match="not closed under spin flip"):
        exactdiag.QuenchEvolution(real, 3.0, 0.5)


@pytest.mark.parametrize("couplings, delta1, sectors", [
    # at n=8, delta1=1000 the two Neel-like states of M=4 split by 1.6e-8,
    # inside the degeneracy tolerance
    ((1.0,) * 7, 1000.0, [4, 4]),
    # ferromagnetic end bonds: a flip-odd level 3e-6 above the ground state
    # mixes into eigh's vector at 1.6e-9
    ((-1.0,) + (1.0,) * 7 + (-1.0,), 3.0, [5]),
], ids=["pair", "near-degenerate"])
def test_half_filled_ground_components_are_flip_eigenvectors(couplings, delta1, sectors):
    real = model.CouplingRealization(couplings=couplings, seed_used=0)
    state = exactdiag.ground_mixture(real, delta1)
    assert [c.m_up for c in state.components] == sectors
    for comp in state.components:
        v = comp.amplitudes
        assert min(np.linalg.norm(v - v[::-1]), np.linalg.norm(v + v[::-1])) < 1e-13
    evolution = exactdiag.QuenchEvolution(real, delta1, 0.0)
    assert len(evolution._prepped) == len(sectors)
    ts = np.linspace(0.0, 8.0, 9)
    got = evolution.end_spin_series(ts)
    want = oracles.end_pair_per_point(evolution.initial, real, 0.0, ts)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
