import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import oracles
import xxzquench
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


def test_sector_basis_matches_the_enumerated_patterns():
    for n in range(1, exactdiag.MAX_SITES + 1):
        for m in range(n + 1):
            states = exactdiag.sector_basis(n, m).states
            assert states.dtype == np.uint64
            assert states.tolist() == oracles.sector_patterns(n, m)


def test_sector_bases_of_one_length_share_one_popcount():
    # the set bits of all 2^n patterns are counted once per n, not per M
    exactdiag.sector_basis.cache_clear()
    exactdiag._popcounts.cache_clear()
    for m in range(8):
        exactdiag.sector_basis(7, m)
    info = exactdiag._popcounts.cache_info()
    assert (info.misses, info.hits) == (1, 7)
    assert info.maxsize == exactdiag.MAX_SITES + 1
    with pytest.raises(ValueError):
        exactdiag._popcounts(7)[0] = 1


def test_sector_basis_ordering_and_index():
    basis = exactdiag.sector_basis(5, 2)
    assert basis.dim == math.comb(5, 2)
    states = [int(s) for s in basis.states]
    assert states == sorted(states)
    index = {p: i for i, p in enumerate(states)}
    for i, p in enumerate(states):
        assert bin(p).count("1") == 2
        assert index[p] == i == np.searchsorted(basis.states, p)


def test_two_site_exchange_block():
    real = homogeneous(2, j=1.3)
    np.testing.assert_allclose(
        oracles.sector_hamiltonian(real, 0.0, 1), [[0.0, 1.3], [1.3, 0.0]], atol=0
    )
    # flip and reflection both swap the two patterns: the singlet-like
    # (odd, odd) and the triplet-like (even, even) orbit states
    ham = exactdiag.build_sector_hamiltonian(real, 0.0, 1)
    assert [oracles.block_matrix(b).tolist() for b in ham.blocks] == [[[-1.3]], [[1.3]]]


def test_three_site_sector_against_dense_oracle():
    real = homogeneous(3)
    h = oracles.sector_hamiltonian(real, 1.0, 1)
    # basis ascending: patterns 0b001, 0b010, 0b100 (up at site 1, 2, 3)
    np.testing.assert_allclose(np.diag(h), [0.0, -1.0, 0.0], atol=0)
    assert h[0, 1] == 1.0 and h[1, 2] == 1.0
    assert h[0, 2] == 0.0

    full = dense_full_hamiltonian(3, 1.0, 1.0)
    mags = [bin(p).count("1") for p in range(8)]
    # full-space basis ordering above is most-significant qubit = site 1;
    # compare eigenvalues of the one-up sector, which are basis agnostic
    idx = [p for p in range(8) if mags[p] == 1]
    sector = full[np.ix_(idx, idx)]
    np.testing.assert_allclose(
        np.linalg.eigvalsh(sector), np.linalg.eigvalsh(h), atol=1e-12
    )


def test_full_spectrum_against_dense_oracle():
    real = model.realize_couplings(
        model.ChainSpec(n=5, delta1=4.0, delta2=1.5, disorder_sigma=0.15, seed=8)
    )
    for delta in (0.0, 1.5):
        # the oracle's sectors, and the engine's realized blocks of every sector
        got = np.sort(np.concatenate(
            [np.linalg.eigvalsh(oracles.sector_hamiltonian(real, delta, m)) for m in range(6)]
        ))
        blocks = np.sort(np.concatenate([
            np.linalg.eigvalsh(oracles.block_matrix(block))
            for m in range(6)
            for block in exactdiag.build_sector_hamiltonian(real, delta, m).blocks
        ]))
        np.testing.assert_allclose(blocks, got, atol=1e-12)
        want = np.linalg.eigvalsh(
            dense_full_hamiltonian(5, 1.0, delta)
            if len(set(real.couplings)) == 1
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
        states = [int(p) for p in exactdiag.sector_basis(5, comp.m_up).states]
        overlap = abs(comp.amplitudes[states.index(pattern)]) ** 2
        assert overlap > 0.99


def test_moderate_delta_ground_pair_is_degenerate():
    real = homogeneous(9)
    spectra = {
        m: np.linalg.eigvalsh(oracles.sector_hamiltonian(real, 3.0, m)) for m in range(10)
    }
    state = exactdiag.ground_mixture(real, 3.0)
    assert sorted(c.m_up for c in state.components) == [4, 5]
    e4, e5 = spectra[4][0], spectra[5][0]
    assert abs(e4 - e5) < 1e-10 * abs(e4)


def test_lanczos_converges_the_two_lowest_levels():
    # a lowest level far below the rest, found in a few steps, and a second
    # level 1e-4 below the third, which converges last: the degeneracy guard
    # reads the second level, so it must be converged too.  Its vector is
    # good to the residual over that gap, 1e-14 * 100 / 1e-4.
    spectrum = np.concatenate([[-50.0, 1.0, 1.0 + 1e-4], np.linspace(2.0, 100.0, 197)])
    values, vectors = exactdiag._lanczos(lambda x: spectrum * x, np.sin(np.arange(1.0, 201.0)))
    np.testing.assert_allclose(values, [-50.0, 1.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.abs(vectors[:, :2]), np.eye(2), rtol=0, atol=1e-8)


def test_lanczos_stops_once_its_lowest_level_converges_above_the_threshold():
    # the spectrum of the test above: the lowest level converges in a few
    # steps, the second last, so a threshold below -50 ends the run early,
    # one above changes nothing
    spectrum = np.concatenate([[-50.0, 1.0, 1.0 + 1e-4], np.linspace(2.0, 100.0, 197)])
    start = np.sin(np.arange(1.0, 201.0))
    calls = []

    def counted(x):
        calls.append(1)
        return spectrum * x

    full = exactdiag._lanczos(counted, start)
    steps = len(calls)
    for above, ended in ((-60.0, True), (-40.0, False)):
        calls.clear()
        values, _ = exactdiag._lanczos(counted, start, above)
        assert (len(calls) < steps) == ended
        assert abs(values[0] - full[0][0]) <= 1e-12
        if not ended:
            np.testing.assert_array_equal(values, full[0])


def test_ground_search_runs_lanczos_only_where_the_ground_level_may_lie(monkeypatch):
    # n = 11, delta1 = 3, uniform: sectors M = 5 and 4 (two reflection
    # blocks each) are searched; the Gershgorin bounds of M <= 3 lie above
    lanczos, runs = exactdiag._lanczos, []

    def counted(apply, start, *args):
        runs.append(len(start))
        return lanczos(apply, start, *args)

    monkeypatch.setattr(exactdiag, "_lanczos", counted)
    exactdiag.ground_mixture(homogeneous(11), 3.0)
    assert sorted(runs) == [160, 170, 226, 236]


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


def _in_fresh_process(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(xxzquench.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    return done.stdout


@pytest.mark.parametrize("n", [11, 13])
@pytest.mark.parametrize("delta2", [0.0, 0.5], ids=["gram", "dense"])
def test_series_memory_stays_within_its_charge_and_flat_in_the_grid(n, delta2):
    # a chunk's arrays are made and freed per chunk: the traced peak of a
    # series above its three outputs stays within the 4 CHUNK_BYTES that
    # run_bytes charges for them, and does not grow from 2,000 to 20,000
    # points (about 14 and 141 chunks at n=11, 53 and 527 at n=13)
    real = model.realize_couplings(model.ChainSpec(n=n, delta1=3.0))
    evolution = exactdiag.QuenchEvolution(real, 3.0, delta2)

    def work(points):
        ts = np.linspace(0.0, 20.0, points)
        tracemalloc.start()
        try:
            evolution.end_spin_series(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - 3 * ts.nbytes

    few, many = work(2_000), work(20_000)
    assert many <= 4 * exactdiag.CHUNK_BYTES
    assert many - few <= exactdiag.CHUNK_BYTES // 16, (few, many)


@pytest.mark.parametrize("n", [11, 13])
def test_gram_route_releases_its_temporaries(n):
    # the bipartite (Gram) route frees each half-angle array and right-hand
    # side once it is used: a 20,000-point series peaks at most 1.5
    # CHUNK_BYTES above its outputs (2.02 while they lived to the end)
    real = model.realize_couplings(model.ChainSpec(n=n, delta1=3.0))
    evolution = exactdiag.QuenchEvolution(real, 3.0, 0.0)
    ts = np.linspace(0.0, 20.0, 20_000)
    evolution.end_spin_series(ts[:10])
    tracemalloc.start()
    try:
        evolution.end_spin_series(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 3 * ts.nbytes <= 1.5 * exactdiag.CHUNK_BYTES


def test_finite_delta1_quench_leaves_numpy_random_unimported(tmp_path):
    # the ground search starts from a fixed sequence, not a random draw,
    # so a quench never pays for importing numpy.random
    argv = ["quench", "--n", "7", "--delta1", "3", "--out", str(tmp_path / "q.csv")]
    out = _in_fresh_process(
        f"""
        import sys
        from xxzquench import cli

        assert cli.main({argv!r}) == 0
        print("numpy.random" in sys.modules)
        """
    )
    assert out.split()[-1] == "False"


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
    evolution._prepped[0] = rep._replace(weight=rep.weight * (1 + 1.5 * 1e-12))
    with pytest.raises(NumericalFaultError, match="trace error") as info:
        evolution.end_spin_series(FAULT_TS[FAULT_INDEX:])
    assert f"t={FAULT_T!r}" in str(info.value)


def test_tolerance_constants_are_pinned():
    assert exactdiag.NORM_DRIFT_TOL == 1e-10
    assert exactdiag.FLIP_CLOSURE_TOL == 1e-10
    assert exactdiag.LANCZOS_RESIDUAL_TOL == 1e-14
    assert freefermion.TRACE_TOL == 1e-12
    assert freefermion.POSITIVITY_TOL == 1e-9
    assert freefermion.COHERENCE_IMAG_TOL == 1e-10
    assert oracles.RDM_TOL == 1e-9
    assert oracles.X_STRUCTURE_TOL == 1e-10


def test_evolver_cache_is_small():
    assert exactdiag._evolver.cache_info().maxsize <= 4


def _record_diagonalizations(monkeypatch) -> list:
    """(name, shape) of every later eigh, eigvalsh and svd call, in order."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def record(matrix, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, matrix.shape))
            return _original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    return calls


def test_homogeneous_neel_start_diagonalizes_one_reflection_block(monkeypatch):
    # n=13, M=6 (dimension 1,716): odd n has no self-conjugate sector, so
    # the reflection alone splits it, into blocks of 848 (odd) and 868
    # (even); the Neel pattern is mirror-symmetric, so only the even block
    # and only one flip representative are evolved.  At delta2 = 0 the
    # block couples its 434 orbits of each grade, and one eigh of the
    # 434 x 434 Gram matrix of that part replaces the eigh of the block.
    calls = _record_diagonalizations(monkeypatch)
    exactdiag._evolver.cache_clear()
    evolution = exactdiag.QuenchEvolution(homogeneous(13), math.inf, 0.0)
    assert calls == [("eigh", (434, 434))]
    (rep,) = evolution._prepped
    assert [(_block_index(homogeneous(13), rep.m_up, b), b.dim)
            for b in rep.blocks] == [(1, 868)]


@pytest.mark.parametrize("n", [6, 7])
def test_second_quench_on_the_same_chain_reuses_its_blocks(monkeypatch, n):
    # the Neel start needs no ground search, so every eigh is of H(delta2):
    # the two flip x reflection blocks of 7 at n=6 that the Neel pair
    # reaches, the reflection-even one at n=7.  The cache keeps one block,
    # the last one built, so a second quench reuses the one block of n=7
    # and diagonalizes both blocks of n=6 again, to the same series
    calls = _record_diagonalizations(monkeypatch)
    exactdiag._evolver.cache_clear()
    first = exactdiag.QuenchEvolution(homogeneous(n), math.inf, 0.5)
    assert len(calls) == len(first._prepped[0].blocks) == (2 if n == 6 else 1)
    calls.clear()
    second = exactdiag.QuenchEvolution(homogeneous(n), math.inf, 0.5)
    assert len(calls) == (2 if n == 6 else 0)
    if n == 7:
        assert [b for rep in second._prepped for b in rep.blocks] == first._prepped[0].blocks
    ts = np.linspace(0.0, 3.0, 7)
    for got, want in zip(second.end_spin_series(ts), first.end_spin_series(ts)):
        np.testing.assert_array_equal(got, want)


def _block_index(real, m_up, evolver) -> int:
    """Position of an evolver's block among its sector's blocks."""
    blocks = exactdiag._sector_blocks(real, m_up)
    (k,) = [k for k, block in enumerate(blocks) if block.orbit is evolver.orbit]
    return k


def test_each_parity_block_is_diagonalized_once(monkeypatch):
    # n=8, delta1=1000: the ground pair of M=4 (dimension 70) gives two flip
    # representatives; M = n/2 splits under flip x reflection into blocks of
    # 20 (flip-odd, reflection-odd), 15, 12 and 23 (flip-even,
    # reflection-even), and the pair lies in the first and the last.  The
    # ground search is matrix-free and diagonalizes only its Lanczos
    # projections, none larger than the largest symmetry block it searches
    # (28, a reflection block of M=3), and each block of H(delta2 = 0)
    # takes one eigh of the Gram matrix of its grade-0 by grade-1 part
    # (10 x 10 and 13 x 10) over the smaller grade, 10 x 10 in both
    real = model.CouplingRealization(couplings=(1.0,) * 7, seed_used=0)
    calls = _record_diagonalizations(monkeypatch)
    initial = exactdiag.ground_mixture(real, 1000.0)
    assert calls and all(c[1][0] <= 28 for c in calls)
    calls.clear()
    monkeypatch.setattr(exactdiag, "ground_mixture", lambda *args: initial)
    exactdiag._evolver.cache_clear()
    evolution = exactdiag.QuenchEvolution(real, 1000.0, 0.0)
    assert [[(_block_index(real, 4, b), b.dim) for b in rep.blocks]
            for rep in evolution._prepped] == [[(0, 20)], [(3, 23)]]
    assert calls == [("eigh", (10, 10)), ("eigh", (10, 10))]


@pytest.mark.parametrize("sigma, kept", [
    # the spin flip alone: every orbit is a flip pair, in both blocks
    (0.3, [(1716, 13728), (1716, 13728)]),
    # flip x reflection: a few pair orbits sit outside a block, with their hops
    (0.0, [(890, 7120), (826, 6416), (826, 6416), (890, 7120)]),
], ids=["disordered", "homogeneous"])
def test_blocks_keep_only_their_representatives_triples(sigma, kept):
    # n = 14, M = 7 has 24,024 hops and 3,432 diagonal entries, 27,456
    # triples over the sector; a block keeps one row per orbit, its lowest
    # pattern's, so a flip block about half of them and a flip x
    # reflection block about a quarter
    states = exactdiag.sector_basis(14, 7).states
    bits = (states[:, None] >> np.arange(14, dtype=np.uint64)) & np.uint64(1)
    assert np.count_nonzero(bits[:, :-1] != bits[:, 1:]) + len(states) == 27456
    real = model.realize_couplings(model.ChainSpec(n=14, disorder_sigma=sigma, seed=4))
    blocks = exactdiag._sector_blocks(real, 7)
    assert [(b.dim, len(b.rows)) for b in blocks] == kept


def test_second_chain_realizes_its_sectors_without_pattern_work(monkeypatch):
    # two disordered chains of one length share every block structure: the
    # second reads the cached structure, and each realized block holds the
    # first's pattern arrays and only its own values
    first, second = (
        model.realize_couplings(model.ChainSpec(n=10, disorder_sigma=0.3, seed=seed))
        for seed in (1, 2)
    )
    before = [exactdiag.build_sector_hamiltonian(first, 3.0, m) for m in range(11)]
    misses = exactdiag._blocks.cache_info().misses
    calls = []

    def counting(name, original):
        return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

    # the pattern work of a block structure looks patterns up and finds hops
    for name in ("searchsorted", "nonzero", "flatnonzero"):
        monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
    after = [exactdiag.build_sector_hamiltonian(second, 3.0, m) for m in range(11)]
    assert calls == [] and exactdiag._blocks.cache_info().misses == misses
    for old, new in zip(before, after):
        for a, b in zip(old.blocks, new.blocks):
            assert all(getattr(a, k) is getattr(b, k)
                       for k in ("orbit", "coef", "rows", "cols", "bonds", "weights", "zz"))
            hops = np.asarray(second.couplings)[b.bonds] * b.weights
            np.testing.assert_array_equal(b.values[: len(hops)], hops)


@pytest.mark.parametrize("n", [11, 13])
@pytest.mark.parametrize("sigma", [0.0, 0.3], ids=["homogeneous", "disordered"])
def test_ground_search_stays_within_its_memory_charge(n, sigma):
    # from cold caches, the traced peak of a ground search (its Lanczos
    # bases, the tridiagonal checks and the block structures it builds and
    # keeps) stays within run_bytes(n, evolve=False)
    real = model.realize_couplings(
        model.ChainSpec(n=n, delta1=3.0, disorder_sigma=sigma, seed=4)
    )
    exactdiag._blocks.cache_clear()
    exactdiag.sector_basis.cache_clear()
    tracemalloc.start()
    try:
        exactdiag.ground_mixture(real, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= exactdiag.run_bytes(n, evolve=False)


@pytest.mark.parametrize("delta2", [0.0, 0.5])
def test_palindromic_neel_start_never_forms_the_sector_matrix(delta2):
    # the two Neel orders of n=8 are mirror images and flip images of each
    # other, so the one flip representative reaches the two blocks of M=4
    # whose characters agree on flip and reflection: 20 (both odd) and 23
    # (both even); each block is realized in its orbit coordinates: the
    # dense sector matrix has no form outside the test oracles
    assert not hasattr(exactdiag.SectorHamiltonian, "matrix")
    exactdiag._evolver.cache_clear()
    evolution = exactdiag.QuenchEvolution(homogeneous(8), math.inf, delta2)
    (rep,) = evolution._prepped
    assert [(_block_index(homogeneous(8), 4, b), b.dim) for b in rep.blocks] == [
        (0, 20), (3, 23)
    ]
    evolution.end_spin_series(np.linspace(0.0, 4.0, 5))


def _chain(couplings):
    return model.CouplingRealization(couplings=tuple(couplings), seed_used=0)


def _disordered(n):
    return model.realize_couplings(model.ChainSpec(n=n, disorder_sigma=0.8, seed=5))


# Blocks of a sector with both symmetries run (flip, reflection) = (odd,
# odd), (odd, even), (even, odd), (even, even); with one, odd then even.
@pytest.mark.parametrize("real, m_up, block, call", [
    # rectangular parts with zero modes: n=7 reflection blocks of M=3 (16
    # and 19 orbits, 11 x 8 and 8 x 8 grade parts); the Gram matrix is
    # taken over the smaller grade
    (homogeneous(7), 3, 1, ("eigh", (8, 8))),
    (homogeneous(7), 3, 0, ("eigh", (8, 8))),
    # n=12, M=6: the Neel blocks (252 and 242 of the 924 states, 121 x 131
    # and 121 x 121) and the other two (220 and 210, 105 x 115 and
    # 105 x 105); at n = 0 mod 4 both symmetries keep grades
    (homogeneous(12), 6, 3, ("eigh", (121, 121))),
    (homogeneous(12), 6, 0, ("eigh", (121, 121))),
    (homogeneous(12), 6, 1, ("eigh", (105, 105))),
    (homogeneous(12), 6, 2, ("eigh", (105, 105))),
    # a disordered chain has one-pattern orbits: the whole sector of 126,
    # 66 x 60
    (_disordered(9), 4, 0, ("eigh", (60, 60))),
    # a palindromic disordered chain, with negative bonds
    (_chain([0.7, -1.3, 0.4, 0.4, -1.3, 0.7]), 3, 1, ("eigh", (8, 8))),
    # n = 2 mod 4 at M = n/2: flip and reflection each swap the grades of
    # an orbit's patterns, so the blocks are not bipartite and take eigh
    (homogeneous(6), 3, 3, ("eigh", (7, 7))),
    (homogeneous(6), 3, 0, ("eigh", (7, 7))),
    (homogeneous(6), 3, 1, ("eigh", (3, 3))),
    (homogeneous(10), 5, 3, ("eigh", (71, 71))),
    (homogeneous(10), 5, 0, ("eigh", (71, 71))),
    (homogeneous(10), 5, 2, ("eigh", (55, 55))),
    # the same for the flip alone on a disordered chain: half of 20 states
    (_disordered(6), 3, 0, ("eigh", (10, 10))),
], ids=["n7-even", "n7-odd", "n12-even", "n12-odd", "n12-flip-odd-refl-even",
        "n12-flip-even-refl-odd", "disordered9", "palindromic7", "n6-even", "n6-odd",
        "n6-flip-odd-refl-even", "n10-even", "n10-odd", "n10-flip-even-refl-odd",
        "disordered6"])
def test_sublattice_eigenbasis_against_dense_eigh(monkeypatch, real, m_up, block, call):
    calls = _record_diagonalizations(monkeypatch)
    exactdiag._evolver.cache_clear()
    evolver = exactdiag._evolver(real, 0.0, m_up, block)
    assert calls == [call]
    v = oracles.orbit_matrix(exactdiag._sector_blocks(real, m_up)[block])
    h = v.T @ oracles.sector_hamiltonian(real, 0.0, m_up) @ v
    size = len(h)
    if evolver.u is None:
        energies, modes = evolver.energies, evolver.modes
        assert modes.shape == (size, size) and energies.shape == (size,)
        assert np.max(np.abs(h @ modes - modes * energies)) <= 1e-12
        assert np.max(np.abs(modes.T @ modes - np.eye(size))) <= 1e-12
    else:
        # X over the smaller grade's rows, and its Gram eigenbasis
        u, root, x = evolver.u, evolver.root, evolver.x
        p = len(root)
        assert x.shape == (p, size - p) and p <= size - p and u.shape == (p, p)
        rows, cols = evolver.order[:p], evolver.order[p:]
        np.testing.assert_allclose(x, h[np.ix_(rows, cols)], rtol=0, atol=1e-14)
        assert np.max(np.abs(x @ (x.T @ u) - u * root**2)) <= 1e-12
        assert np.max(np.abs(u.T @ u - np.eye(p))) <= 1e-12
        # energies +-sqrt(lam), and a zero mode per extra orbit of the larger grade
        energies = np.concatenate([root, -root, np.zeros(size - 2 * p)])
    want_e, want_v = np.linalg.eigh(h)
    np.testing.assert_allclose(np.sort(energies), want_e, rtol=0, atol=1e-12)
    for t in (0.3, 2.0, 11.7):
        got = _block_propagator(evolver, t)
        want = (want_v * np.exp(-1j * want_e * t)) @ want_v.T
        assert np.max(np.abs(got - want)) <= 1e-12


def _block_propagator(evolver, t: float) -> np.ndarray:
    """exp(-iHt) of one block in its orbit coordinates, column by column
    from the engine's own start and chunk evolution of each unit vector."""
    dim = evolver.dim
    order = np.arange(dim) if evolver.u is None else evolver.order
    columns = np.zeros((dim, dim), dtype=complex)
    for j, start in enumerate(np.eye(dim)):
        amp = exactdiag._amplitudes(evolver, exactdiag._start(evolver, start), np.array([t]))
        columns[order, j] = amp[:, 0] - 1j * amp[:, 1]
    return columns


@pytest.mark.parametrize("real, delta1, blocks", [
    # sectors of 35 patterns with 3 mirror-symmetric ones: blocks of 16
    # (odd) and 19 (even)
    (homogeneous(7), math.inf, [(1, 19)]),
    (homogeneous(7), 3.0, [(1, 19)]),
    # n=6, M=3 under flip x reflection: blocks of 7, 3, 3 and 7; the even-n
    # ground state is flip-odd and reflection-odd
    (homogeneous(6), 3.0, [(0, 7)]),
    # the two even-n Neel orders are mirror and flip images of each other:
    # the blocks whose characters agree on both
    (homogeneous(6), math.inf, [(0, 7), (3, 7)]),
    # n=12: the same two blocks, 242 and 252 of 924 states; the ground
    # state lies in the second
    (homogeneous(12), math.inf, [(0, 242), (3, 252)]),
    (homogeneous(12), 3.0, [(3, 252)]),
    # no reflection symmetry and no self-conjugate sector: one block, the
    # whole sector
    (_disordered(7), 3.0, [(0, 35)]),
], ids=["neel7", "ground7", "ground6", "neel6", "neel12", "ground12", "disordered7"])
def test_parity_blocks_reached_by_the_representative(real, delta1, blocks):
    (rep,) = exactdiag.QuenchEvolution(real, delta1, 0.5)._prepped
    assert rep.weight == 1.0
    assert [(_block_index(real, rep.m_up, b), b.dim) for b in rep.blocks] == blocks


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
