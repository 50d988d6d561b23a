"""Property tests over random couplings and times (hypothesis).

Examples are derandomized and bounded so the suite stays fast and
repeatable; couplings range over both signs, as large disorder draws do.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from xxzquench import exactdiag, freefermion, model
from xxzquench.errors import NumericalFaultError
from xxzquench.model import NeelOrder

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

bond = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_subnormal=False)


@st.composite
def chains(draw, min_n, max_n):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    couplings = draw(st.lists(bond, min_size=n - 1, max_size=n - 1))
    return model.CouplingRealization(couplings=tuple(couplings), seed_used=0)


times = st.lists(
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False), min_size=1, max_size=12
)


@PROPERTY_SETTINGS
@given(real=chains(3, 9), ts=times)
def test_free_fermions_match_exact_diagonalization(real, ts):
    # delta1 = inf, delta2 = 0: the two engines must agree entry-wise
    ts = np.asarray(ts)
    ff = np.stack(freefermion.end_spin_series(real, ts))
    evolution = exactdiag.QuenchEvolution(real, math.inf, 0.0)
    ed = np.stack(evolution.end_spin_series(ts))
    assert np.max(np.abs(ff - ed)) < 1e-8


@PROPERTY_SETTINGS
@given(
    real=chains(2, 60),
    ts=times,
    initial=st.sampled_from(["mixture", NeelOrder.N1, NeelOrder.N2]),
)
def test_x_state_invariants_along_trajectories(real, ts, initial):
    ts = np.asarray(ts)
    if initial == "mixture":
        a, b, c = freefermion.end_spin_series(real, ts)
    else:
        a, b, c = oracles.neel_component_series(real, ts, initial)
    assert np.max(np.abs(2 * a + 2 * b - 1.0)) <= 1e-12
    assert np.min(a) >= -1e-12
    assert np.max(np.abs(c) - b) <= 1e-12


# bonds bounded away from zero: a cut chain has a degenerate ground manifold
signed_bond = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.floats(min_value=0.25, max_value=2.0, allow_nan=False),
    st.booleans(),
)


@st.composite
def symmetry_chains(draw, min_n, max_n):
    """Homogeneous, random palindromic and random (non-palindromic) chains."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    kind = draw(st.sampled_from(["homogeneous", "palindromic", "generic"]))
    bonds = n - 1
    if kind == "homogeneous":
        couplings = [draw(signed_bond)] * bonds
    elif kind == "palindromic":
        head = draw(st.lists(signed_bond, min_size=n // 2, max_size=n // 2))
        couplings = head + head[::-1][bonds % 2:]
    else:
        couplings = draw(st.lists(signed_bond, min_size=bonds, max_size=bonds))
    return model.CouplingRealization(couplings=tuple(couplings), seed_used=0)


delta1s = st.one_of(
    st.just(math.inf),
    st.floats(min_value=1.0, max_value=4.0, exclude_min=True, allow_nan=False),
)


def _prepared(real, delta1, delta2):
    # a ground manifold beyond a degenerate pair (near the isotropic point
    # on chains with ferromagnetic bonds) is a documented refusal
    try:
        return exactdiag.QuenchEvolution(real, delta1, delta2)
    except NumericalFaultError as exc:
        assume("ground manifold of dimension" not in str(exc))
        raise


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(
    real=symmetry_chains(2, 9),
    delta1=delta1s,
    delta2=st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    ts=times,
)
def test_symmetry_reduced_series_matches_two_component_oracle(real, delta1, delta2, ts):
    # one flip representative in its reflection blocks against every
    # component evolved in its whole sector, point by point
    evolution = _prepared(real, delta1, delta2)
    evolution.chunk_points = 5
    ts = np.asarray(ts)
    got = np.stack(evolution.end_spin_series(ts))
    want = np.stack(oracles.end_pair_per_point(evolution.initial, real, delta2, ts))
    assert np.max(np.abs(got - want)) <= 1e-12


def kron_hamiltonian(real, delta):
    """XXZ matrix over all 2^n patterns from Pauli Kronecker products (oracle)."""
    n = real.n
    paulis = (
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, -1j], [1j, 0.0]]),
        np.diag([1.0, -1.0]),
    )
    h = np.zeros((2**n, 2**n), dtype=complex)
    for k, jk in enumerate(real.couplings):
        for op, scale in zip(paulis, (1.0, 1.0, delta)):
            pair = np.kron(np.kron(np.eye(2**k), np.kron(op, op)), np.eye(2 ** (n - k - 2)))
            h += 0.5 * jk * scale * pair
    return h.real


@PROPERTY_SETTINGS
@given(
    real=symmetry_chains(2, 8),
    delta1=st.floats(min_value=1.0, max_value=4.0, exclude_min=True, allow_nan=False),
)
def test_ground_mixture_is_flip_closed_and_sector_energies_match(real, delta1):
    n = real.n
    full = kron_hamiltonian(real, delta1)
    # Kronecker index bit 1 is a down spin at that site
    ups = n - np.array([bin(p).count("1") for p in range(2**n)])
    oracle = {}
    for m in range(n + 1):
        idx = np.nonzero(ups == m)[0]
        oracle[m] = np.linalg.eigvalsh(full[np.ix_(idx, idx)])[0]
        sector = exactdiag.build_sector_hamiltonian(real, delta1, m).matrix
        assert abs(np.linalg.eigvalsh(sector)[0] - oracle[m]) <= 1e-10
    try:
        state = exactdiag.ground_mixture(real, delta1)
    except NumericalFaultError as exc:
        assume("ground manifold of dimension" not in str(exc))
        raise
    e0 = min(oracle.values())
    for comp in state.components:
        sector = exactdiag.build_sector_hamiltonian(real, delta1, comp.m_up).matrix
        assert abs(comp.amplitudes @ sector @ comp.amplitudes - e0) <= 1e-10
    comps = state.components
    if len(comps) == 2 and comps[0].m_up != comps[1].m_up:
        assert comps[1].m_up == n - comps[0].m_up
        np.testing.assert_array_equal(comps[1].amplitudes, comps[0].amplitudes[::-1])
    else:
        # the self-conjugate sector: each component is its own partner
        for comp in comps:
            assert 2 * comp.m_up == n
            v = comp.amplitudes
            assert min(np.linalg.norm(v - v[::-1]), np.linalg.norm(v + v[::-1])) <= 1e-10
