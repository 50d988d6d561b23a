"""Property tests over random couplings and times (hypothesis).

Examples are derandomized and bounded so the suite stays fast and
repeatable; couplings range over both signs, as large disorder draws do.
"""

import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from xxzquench import cli, entangle, exactdiag, freefermion, model
from xxzquench.errors import NumericalFaultError
from xxzquench.model import NeelOrder

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

bond = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_subnormal=False)


@st.composite
def chains(draw, min_n, max_n, bonds=bond):
    """Homogeneous chains, which take the closed-form modes, and random ones."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if draw(st.sampled_from(["homogeneous", "generic"])) == "homogeneous":
        couplings = [draw(bonds)] * (n - 1)
    else:
        couplings = draw(st.lists(bonds, min_size=n - 1, max_size=n - 1))
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
        a, b, c = oracles.engine_component_series(real, ts, initial)
    assert np.max(np.abs(2 * a + 2 * b - 1.0)) <= 1e-12
    assert np.min(a) >= -1e-12
    assert np.max(np.abs(c) - b) <= 1e-12


@PROPERTY_SETTINGS
@given(real=chains(2, 40), data=st.data())
def test_sublattice_closed_form_matches_dense_propagator(real, data):
    # t in [0, 2n/pi], the default horizon at J = 1, with t = 0 always in
    horizon = 2.0 * real.n / math.pi
    drawn = data.draw(st.lists(st.floats(min_value=0.0, max_value=horizon), max_size=8))
    ts = np.array([0.0, *drawn])
    got = np.stack(freefermion.end_spin_series(real, ts))
    want = oracles.propagator_end_spin(real, ts, "mixture")
    assert np.max(np.abs(got - want)) <= 1e-12
    for order in (NeelOrder.N1, NeelOrder.N2):
        one = oracles.engine_component_series(real, ts, order)
        assert np.max(np.abs(one - oracles.propagator_end_spin(real, ts, order))) <= 1e-12
    zero = ts == 0.0
    assert np.array_equal(got[:, zero], want[:, zero])
    if real.n % 2 == 0:
        assert np.all(got[2] == 0.0)
    # a stack mixing this chain with another of its length, one time each
    other = model.CouplingRealization(
        couplings=tuple(data.draw(st.lists(bond, min_size=real.n - 1, max_size=real.n - 1))),
        seed_used=0,
    )
    members = [real, other] * len(ts)
    stacked = freefermion.ChainStack(members)
    at = np.repeat(ts, 2)
    a, b, c = stacked.end_spin_at(at)
    for k, (r, t) in enumerate(zip(members, at)):
        single = freefermion.end_spin_series(r, np.array([t]))
        assert (a[k], b[k], c[k]) == tuple(x[0] for x in single)


# bonds bounded away from zero: a cut chain has a degenerate ground manifold
signed_bond = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.floats(min_value=0.25, max_value=2.0, allow_nan=False),
    st.booleans(),
)


def _mode_sums(two_s, first, last, odd):
    """first^2, last^2 and first * last of every mode, summed over the
    modes of one doubled singular value (the zero mode's is 0), in the
    descending order of ``two_s``."""
    s = np.append(two_s, 0.0) if odd else two_s
    starts = np.flatnonzero(np.diff(s, prepend=np.inf) < -1e-13)
    return np.add.reduceat(np.stack([first**2, last**2, first * last]), starts, axis=-1)


@PROPERTY_SETTINGS
@given(n=st.integers(min_value=2, max_value=241),
       j=st.one_of(signed_bond, st.sampled_from([0.0, -0.0])))
def test_uniform_closed_form_matches_the_sublattice_svd(n, j):
    # s and the end rows of the standing waves against LAPACK's SVD of the
    # same block: each mode's P_1k^2, P_nk^2 and P_1k P_nk, or on even
    # chains Q_nk^2 and P_1k Q_nk.  At J = +-0 every s is 0 and LAPACK's
    # modes are any basis, so the sums over equal s are compared; there Q
    # pairs with P in any order, and only its norm is fixed
    couplings = np.full((1, n - 1), j)
    with mock.patch.object(freefermion, "_sublattice_svd", side_effect=AssertionError):
        two_s, first, last, zero = freefermion._end_modes(
            [(j,) * (n - 1)], np.array([n]), np.zeros(n // 2, dtype=int), np.arange(n // 2))
    p, s, qt = freefermion._sublattice_svd(couplings)
    odd = n % 2
    assert np.max(np.abs(two_s - 2.0 * s)) <= 1e-13
    assert np.all(np.diff(two_s) <= 0.0)
    if odd:  # the zero mode's column of P follows the m modes
        first, last = np.append(first, zero[0]), np.append(last, zero[1])
    got = _mode_sums(two_s, first, last, odd)
    want = _mode_sums(two_s, p[0, 0], p[0, -1] if odd else qt[0, :, -1], odd)
    if j == 0.0 and not odd:
        got, want = got[:2], want[:2]
    assert np.max(np.abs(got - want)) <= 1e-13


@st.composite
def uniform_grids(draw):
    """A window of an np.arange grid that may start mid-grid, or an
    np.linspace grid, of at least two sub-blocks and not a whole number
    of them; t = 0 is in some."""
    block = freefermion.GRID_BLOCK
    points = draw(st.integers(min_value=2 * block, max_value=6 * block).filter(
        lambda k: k % block))
    if draw(st.booleans()):
        step = draw(st.floats(min_value=1e-3, max_value=0.05))
        first = draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=2000)))
        return np.arange(0.0, (first + points - 0.5) * step, step)[first:]
    start = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=60.0)))
    return np.linspace(start, start + draw(st.floats(min_value=0.1, max_value=60.0)), points)


@PROPERTY_SETTINGS
@given(real=chains(2, 60, signed_bond), ts=uniform_grids())
def test_uniform_grid_path_matches_dense_propagator(real, ts):
    assert freefermion._uniform_step(ts) is not None
    got = np.stack(freefermion.end_spin_series(real, ts))
    want = oracles.propagator_end_spin(real, ts, "mixture")
    assert np.max(np.abs(got - want)) <= 1e-12
    zero = ts == 0.0
    assert np.array_equal(got[:, zero], want[:, zero])


def _stack_series(stack, ts):
    abc = np.empty((3, len(stack.n), len(ts)))
    for rows, cols, chunk in stack.series(ts):
        abc[:, rows, cols] = chunk
    return abc


@PROPERTY_SETTINGS
@given(data=st.data(), ts=uniform_grids())
def test_one_order_kernel_on_uniform_grids(data, ts):
    # 1-4 chains of lengths 2..61, odd and even mixed, with signed bonds,
    # over a uniform grid of 64 points or more, with t = 0 in some
    members = [
        model.CouplingRealization(couplings=tuple(data.draw(st.lists(
            signed_bond, min_size=n - 1, max_size=n - 1))), seed_used=0)
        for n in data.draw(st.lists(st.integers(min_value=2, max_value=61),
                                    min_size=1, max_size=4))
    ]
    stack = freefermion.ChainStack(members)
    step = freefermion._uniform_step(ts)
    assert step is not None
    grid = freefermion._end_moments(stack, ts, freefermion._grid_bases(stack, step))
    point = freefermion._end_moments(stack, ts, None)
    zero = ts == 0.0
    # each Neel order on its own, N1 from the complement of N2's moments:
    # the grid path, the point path and the full propagator agree
    for k, real in enumerate(members):
        for order in (NeelOrder.N1, NeelOrder.N2):
            want = oracles.propagator_end_spin(real, ts, order)
            on_grid = oracles.component_x_state(grid[:, k], real.n, order)
            off_grid = oracles.component_x_state(point[:, k], real.n, order)
            assert np.max(np.abs(on_grid - off_grid)) <= 1e-12
            assert np.max(np.abs(on_grid - want)) <= 1e-12
            assert np.max(np.abs(off_grid - want)) <= 1e-12
            assert np.array_equal(on_grid[:, zero], want[:, zero])
    # a member's series is that of its stack of one, bit for bit
    series = _stack_series(stack, ts)
    for k, real in enumerate(members):
        assert _same_bits(series[:, k], _stack_series(freefermion.ChainStack([real]), ts)[:, 0])
    # with members enough to fill every chunk, the traced work of the
    # series stays within the chunk_points budget
    full = freefermion.ChainStack(members * (stack.chunk_points // (len(members) * len(ts)) + 2))
    out = np.empty((3, len(full.n), len(ts)))
    tracemalloc.start()
    try:
        for rows, cols, chunk in full.series(ts):
            out[:, rows, cols] = chunk
            del chunk  # the budget holds one chunk, so a consumer drops it
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= freefermion.CHUNK_BYTES + (16 << 10)


@PROPERTY_SETTINGS
@given(parity=st.sampled_from(["odd", "even", "mixed"]), ts=uniform_grids(), data=st.data())
def test_stack_series_bytes_do_not_depend_on_chunk_points(parity, ts, data):
    # 1-4 chains of odd, even or mixed lengths 2..61 on a uniform grid: the
    # windows start on the grid's sub-blocks, so a series split by any
    # budget, down to one point, has the bytes of the unsplit series
    sizes = data.draw(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4))
    sizes = [2 * m + {"odd": 1, "even": 0, "mixed": k % 2}[parity]
             for k, m in enumerate(sizes)]
    members = [
        model.CouplingRealization(couplings=tuple(data.draw(st.lists(
            signed_bond, min_size=n - 1, max_size=n - 1))), seed_used=0)
        for n in sizes
    ]
    stack = freefermion.ChainStack(members)
    stack.chunk_points = len(members) * len(ts)
    whole = _stack_series(stack, ts)
    stack.chunk_points = data.draw(st.integers(min_value=1, max_value=len(members) * len(ts)))
    assert _stack_series(stack, ts).tobytes() == whole.tobytes()


@PROPERTY_SETTINGS
@given(real=chains(2, 60, signed_bond), ts=uniform_grids(), data=st.data())
def test_grid_with_one_time_moved_or_nan_takes_the_point_path(real, ts, data):
    chain = freefermion._chain(real)
    k = data.draw(st.integers(min_value=0, max_value=len(ts) - 1))
    ts[k] += data.draw(st.floats(min_value=1e-9, max_value=0.5))
    assert freefermion._uniform_step(ts) is None
    want = oracles.x_state_plain(oracles.end_moments_plain(chain, ts[None]), real.n, ts[None])
    assert _same_bits(np.stack(freefermion.end_spin_series(real, ts)), np.stack(want)[:, 0])
    ts[k] = np.nan
    with pytest.raises(NumericalFaultError):
        freefermion.end_spin_series(real, ts)


@PROPERTY_SETTINGS
@given(n=st.integers(min_value=3, max_value=41), data=st.data())
def test_stacked_ensemble_matches_per_realization_series_bitwise(n, data):
    # K chains of one length over a shared grid, a uniform one of 64 points
    # or more (angle addition) or a short one (the point path), scanned in
    # member chunks of c whole rows: K = 1, or either side of a chunk edge
    ts = data.draw(st.one_of(uniform_grids(), times.map(np.array)))
    c = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.sampled_from([1, c, c + 1, 2 * c + 1]))
    members = [
        model.CouplingRealization(couplings=tuple(data.draw(st.lists(
            signed_bond, min_size=n - 1, max_size=n - 1))), seed_used=0)
        for _ in range(k)
    ]
    stack = freefermion.ChainStack(members)
    assert stack.chunk_points >= (c + 1) * len(ts)
    stack.chunk_points = c * len(ts) + data.draw(st.integers(min_value=0, max_value=len(ts) - 1))
    got, chunks = np.empty((3, k, len(ts))), 0
    for rows, cols, abc in stack.series(ts):
        got[:, rows, cols] = abc
        chunks += 1
    assert chunks == -(-k // c)
    for m, real in enumerate(members):
        assert _same_bits(got[:, m], np.stack(freefermion.end_spin_series(real, ts)))
    # the lockstep, each member at a time of its own
    at = ts[data.draw(st.lists(st.integers(min_value=0, max_value=len(ts) - 1),
                               min_size=k, max_size=k))]
    lockstep = stack.end_spin_at(at)
    for m, (real, t) in enumerate(zip(members, at)):
        single = freefermion.end_spin_series(real, np.array([t]))
        assert all(_same_bits(x[m], y[0]) for x, y in zip(lockstep, single))


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
    # one flip representative in its symmetry blocks against every
    # component evolved in its whole sector, point by point
    evolution = _prepared(real, delta1, delta2)
    evolution.chunk_points = 5
    ts = np.asarray(ts)
    got = np.stack(evolution.end_spin_series(ts))
    want = np.stack(oracles.end_pair_per_point(evolution.initial, real, delta2, ts))
    assert np.max(np.abs(got - want)) <= 1e-12


def bipartite_blocks(real) -> list[tuple[int, int]]:
    """(sector, block) of every block that H(delta2 = 0) splits by grade,
    largest first."""
    found = [
        (m, k)
        for m in range(real.n + 1)
        for k in range(len(exactdiag._sector_blocks(real, m)))
        if exactdiag._evolver(real, 0.0, m, k).u is not None
    ]
    return sorted(found, key=lambda mk: -exactdiag._sector_blocks(real, mk[0])[mk[1]].dim)


def block_start_evolution(real, m_up, block, rng) -> exactdiag.QuenchEvolution:
    """A delta2 = 0 quench from a random unit vector of a block of sector
    m_up, with its flip partner in sector n - m_up (in sector n/2 the
    block's flip character makes it its own)."""
    orbits = exactdiag._sector_blocks(real, m_up)[block]
    vector = rng.standard_normal(orbits.dim)
    v = orbits.coef * (vector / np.linalg.norm(vector))[orbits.orbit]
    if 2 * m_up == real.n:
        comps = (exactdiag.PureComponent(weight=1.0, m_up=m_up, amplitudes=v),)
    else:
        comps = (
            exactdiag.PureComponent(weight=0.5, m_up=m_up, amplitudes=v),
            exactdiag.PureComponent(weight=0.5, m_up=real.n - m_up, amplitudes=v[::-1]),
        )
    state = exactdiag.MixedState(n=real.n, components=comps)
    with mock.patch.object(exactdiag, "ground_mixture", lambda *args: state):
        return exactdiag.QuenchEvolution(real, math.inf, 0.0)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(real=symmetry_chains(4, 10), data=st.data())
def test_bipartite_blocks_match_two_component_oracle(real, data):
    # the Gram route of the delta2 = 0 blocks split by grade, from starts on
    # both grades (a finite-delta1 ground state, or a random unit vector of
    # any such block), against every component evolved in its whole
    # sector, out to three times the default horizon; the one-pattern
    # blocks of n = 2 and 3 are swept below
    if data.draw(st.booleans(), label="ground start"):
        delta1 = data.draw(st.floats(min_value=1.0, max_value=4.0, exclude_min=True))
        evolution = _prepared(real, delta1, 0.0)
    else:
        m_up, block = data.draw(st.sampled_from(bipartite_blocks(real)))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        evolution = block_start_evolution(real, m_up, block, rng)
    assume(all(b.u is not None for rep in evolution._prepped for b in rep.blocks))
    horizon = 3 * entangle.default_horizon(model.ChainSpec(n=real.n))
    ts = np.asarray(data.draw(st.lists(st.floats(min_value=0.0, max_value=horizon),
                                       min_size=3, max_size=8)))
    evolution.chunk_points = data.draw(st.sampled_from([1, 3, evolution.chunk_points]))
    got = np.stack(evolution.end_spin_series(ts))
    want = np.stack(oracles.end_pair_per_point(evolution.initial, real, 0.0, ts))
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("real", [
    # n=2 and 3: blocks with an empty grade (one pattern, M = 0 or n)
    model.CouplingRealization(couplings=(0.8,), seed_used=0),
    model.CouplingRealization(couplings=(1.0, -0.6), seed_used=0),
    # n=7: rectangular grade parts with zero modes, on a palindromic chain
    model.CouplingRealization(couplings=(0.7, -1.3, 0.4, 0.4, -1.3, 0.7), seed_used=0),
], ids=["n2", "n3", "n7"])
def test_every_bipartite_block_matches_two_component_oracle(real):
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, 3 * entangle.default_horizon(model.ChainSpec(n=real.n)), 9)
    blocks = bipartite_blocks(real)
    assert len(blocks) >= 2
    for m_up, block in blocks:
        evolution = block_start_evolution(real, m_up, block, rng)
        got = np.stack(evolution.end_spin_series(ts))
        want = np.stack(oracles.end_pair_per_point(evolution.initial, real, 0.0, ts))
        assert np.max(np.abs(got - want)) <= 1e-12


@PROPERTY_SETTINGS
@given(
    real=chains(2, 11, signed_bond),
    delta1=st.floats(min_value=1.0, max_value=4.0, exclude_min=True, allow_nan=False),
    ts=uniform_grids(),
    data=st.data(),
)
def test_correlator_route_matches_exact_diagonalization(real, delta1, ts, data):
    # the ground multiplet's correlators, contracted with two rows of the
    # free propagator, against the evolution of its flip representatives
    evolution = _prepared(real, delta1, 0.0)
    quench = freefermion.CorrelatorQuench(real, exactdiag.correlators(evolution.initial))
    if data.draw(st.booleans()):  # a grid with one time moved
        k = data.draw(st.integers(min_value=0, max_value=len(ts) - 1))
        ts[k] += data.draw(st.floats(min_value=1e-9, max_value=0.5))
    quench.chunk_points = data.draw(st.sampled_from([1, 7, 64, quench.chunk_points]))
    got = np.stack(quench.end_spin_series(ts))
    want = np.stack(evolution.end_spin_series(ts))
    assert np.max(np.abs(got - want)) <= 1e-12


@PROPERTY_SETTINGS
@given(
    real=chains(2, 11, signed_bond),
    delta1=st.floats(min_value=1.0, max_value=4.0, exclude_min=True, allow_nan=False),
)
def test_correlators_match_the_row_by_row_scatter_bitwise(real, delta1):
    # each order's rows scattered at once hold the values of one row at a
    # time, so G2 and G4 keep their bits; the Neel mixture too
    for state in (_prepared(real, delta1, 0.0).initial, exactdiag.neel_mixture(real.n)):
        got, want = exactdiag.correlators(state), oracles.correlators_rowwise(state)
        assert [x[:2] for x in got] == [x[:2] for x in want]
        for g, w in zip(got, want):
            assert _same_bits(g[2], w[2]) and _same_bits(g[3], w[3])


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
        sector = oracles.sector_hamiltonian(real, delta1, m)
        assert abs(np.linalg.eigvalsh(sector)[0] - oracle[m]) <= 1e-10
    try:
        state = exactdiag.ground_mixture(real, delta1)
    except NumericalFaultError as exc:
        assume("ground manifold of dimension" not in str(exc))
        raise
    e0 = min(oracle.values())
    for comp in state.components:
        sector = oracles.sector_hamiltonian(real, delta1, comp.m_up)
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


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(
    real=symmetry_chains(2, 11),
    ferromagnetic_ends=st.booleans(),
    delta1=st.floats(min_value=1.0, max_value=1000.0, exclude_min=True, allow_nan=False),
)
def test_lanczos_ground_multiplet_matches_dense_oracle(real, ferromagnetic_ends, delta1):
    if ferromagnetic_ends:
        bonds = list(real.couplings)
        bonds[0], bonds[-1] = -abs(bonds[0]), -abs(bonds[-1])
        real = model.CouplingRealization(couplings=tuple(bonds), seed_used=0)
    try:
        want = oracles.dense_ground_mixture(real, delta1)
    except NumericalFaultError as exc:
        assert "ground manifold of dimension" in str(exc)
        with pytest.raises(NumericalFaultError, match="ground manifold of dimension"):
            exactdiag.ground_mixture(real, delta1)
        return
    got = exactdiag.ground_mixture(real, delta1)
    assert sorted(c.m_up for c in got.components) == sorted(c.m_up for c in want.components)
    for comp in got.components:
        v = comp.amplitudes
        # the oracle's component of the same sector with the nearest projector
        dist, u = min(
            ((np.max(np.abs(np.outer(v, v) - np.outer(w.amplitudes, w.amplitudes))), k)
             for k, w in enumerate(want.components) if w.m_up == comp.m_up),
        )
        u = want.components[u].amplitudes
        assert dist <= 1e-12
        h = oracles.sector_hamiltonian(real, delta1, comp.m_up)
        assert abs(v @ h @ v - u @ h @ u) <= 1e-12 * abs(u @ h @ u)


@st.composite
def disordered_chains(draw, min_n, max_n):
    """Chains drawn as a disorder ensemble draws them, J_k = 1 + d_k with
    d_k ~ Normal(0, sigma): at sigma near 1.2 some bonds are negative."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    sigma = draw(st.floats(min_value=0.0, max_value=1.2, exclude_min=True))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return model.realize_couplings(model.ChainSpec(n=n, disorder_sigma=sigma, seed=seed))


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(
    real=st.one_of(symmetry_chains(2, 11), disordered_chains(2, 11)),
    delta1=st.one_of(
        st.floats(min_value=1.0, max_value=1.001, exclude_min=True),
        st.floats(min_value=1.0, max_value=1000.0, exclude_min=True),
    ),
)
def test_ground_search_skips_match_the_full_search(real, delta1):
    # blocks skipped by their Gershgorin bound and runs stopped once their
    # lowest level converged above the ground level change no bit of the
    # multiplet, nor the refusal of one larger than a pair
    try:
        want = oracles.lanczos_ground_mixture(real, delta1)
    except NumericalFaultError as exc:
        with pytest.raises(NumericalFaultError) as got:
            exactdiag.ground_mixture(real, delta1)
        assert str(got.value) == str(exc)
        return
    got = exactdiag.ground_mixture(real, delta1)
    assert [(c.weight, c.m_up, c.amplitudes.tobytes()) for c in got.components] == [
        (c.weight, c.m_up, c.amplitudes.tobytes()) for c in want.components
    ]


@PROPERTY_SETTINGS
@given(
    real=st.one_of(symmetry_chains(2, 10), disordered_chains(2, 10)),
    delta=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1000.0)),
)
def test_gershgorin_bound_lies_below_every_block_level(real, delta):
    # over every realized block, hops that land on their own orbit included;
    # the margin covers the rounding of the bound and of eigvalsh
    for m in range(real.n + 1):
        for block in exactdiag.build_sector_hamiltonian(real, delta, m).blocks:
            lowest = np.linalg.eigvalsh(oracles.block_matrix(block))[0]
            assert exactdiag._gershgorin(block) <= lowest + 1e-12 * np.max(np.abs(block.values))


@PROPERTY_SETTINGS
@given(
    n=st.integers(min_value=2, max_value=11),
    data=st.data(),
    delta=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4.0, allow_nan=False)),
)
def test_sector_hamiltonian_matches_pattern_by_pattern_builder(n, data, delta):
    # the engine's blocks put back into the sector, sum_b V_b H_b V_b^T,
    # against the pattern-by-pattern matrix of every sector
    bonds = data.draw(st.lists(signed_bond, min_size=n - 1, max_size=n - 1))
    real = model.CouplingRealization(couplings=tuple(bonds), seed_used=0)
    for m in range(n + 1):
        ham = exactdiag.build_sector_hamiltonian(real, delta, m)
        want = oracles.sector_hamiltonian(real, delta, m)
        got = np.zeros_like(want)
        for block in ham.blocks:
            v = oracles.orbit_matrix(block)
            got += v @ oracles.block_matrix(block) @ v.T
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@PROPERTY_SETTINGS
@given(
    real=symmetry_chains(2, 10),
    data=st.data(),
    delta=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4.0, allow_nan=False)),
)
def test_symmetry_blocks_scattered_from_entries_match_dense_projection(real, data, delta):
    # each block the engine realizes from its bond-indexed structure (one
    # row of triples per orbit, from its lowest pattern) against V^T H V of
    # the pattern-by-pattern sector matrix, over every sector
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    odd_sites = sum(1 << k for k in range(0, real.n, 2))
    for m in range(real.n + 1):
        ham = exactdiag.build_sector_hamiltonian(real, delta, m)
        blocks = ham.blocks
        grades = np.array([bin(int(p) & odd_sites).count("1") % 2 for p in ham.basis.states])
        projectors = oracles.block_projectors(real, m)
        assert len(blocks) == len(projectors)
        assert sum(block.dim for block in blocks) == ham.basis.dim
        h = oracles.sector_hamiltonian(real, delta, m)
        # the end-pair readout of a random vector of each block against the
        # sector's, and no cross terms between blocks
        vectors = []
        for block in blocks:
            x = rng.standard_normal(block.dim) + 1j * rng.standard_normal(block.dim)
            x /= np.linalg.norm(x)
            first, second, value = block.pairs
            got = [*(block.ends @ np.abs(x) ** 2),
                   value @ (x[first] * x[second].conj()).real]
            vectors.append(block.coef * x[block.orbit])
            want = _end_pair_forms(real.n, m, vectors[-1], vectors[-1])
            assert np.max(np.abs(np.array(got) - want)) <= 1e-14
        for i, j in itertools.combinations(range(len(blocks)), 2):
            assert np.max(np.abs(_end_pair_forms(real.n, m, vectors[i], vectors[j]))) <= 1e-14
        for block, projector in zip(blocks, projectors):
            v = oracles.orbit_matrix(block)
            assert np.max(np.abs(v.T @ v - np.eye(block.dim))) <= 1e-14
            assert np.max(np.abs(projector @ v - v)) <= 1e-14
            want = v.T @ h @ v
            assert np.max(np.abs(oracles.block_matrix(block) - want)) <= 1e-14
            # each orbit's grade is its lowest pattern's, and ``graded`` says
            # whether every pattern shares it
            lowest = [np.flatnonzero(block.orbit == a)[0] for a in range(block.dim)]
            np.testing.assert_array_equal(block.grade, grades[lowest])
            inside = block.orbit >= 0
            assert block.graded == np.array_equal(grades[inside], block.grade[block.orbit[inside]])
            r, c, value = block.rows, block.cols, block.values
            # any split of the orbits into rows and columns, scattered on
            # its own, as the sublattice path takes its grade-0 by grade-1
            # part
            order = np.array(data.draw(st.permutations(range(block.dim))), dtype=np.intp)
            split = data.draw(st.integers(min_value=0, max_value=block.dim))
            rows, cols = order[:split], order[split:]
            place = np.full(block.dim, -1)
            place[rows], place[cols] = np.arange(len(rows)), np.arange(len(cols))
            keep = np.isin(r, rows) & np.isin(c, cols)
            part = np.zeros((len(rows), len(cols)))
            np.add.at(part, (place[r[keep]], place[c[keep]]), value[keep])
            assert np.max(np.abs(part - want[np.ix_(rows, cols)]), initial=0.0) <= 1e-14


def _end_pair_forms(n, m_up, psi, phi) -> np.ndarray:
    """<phi|O|psi> for the end pair's (uu + dd), (ud + du) and symmetric
    ud-du coherence O, from the pair's 4x4 matrix traced over the rest."""
    gid, loc, groups = oracles._pair_scatter(n, m_up, 1, n)
    z, y = np.zeros((groups, 4), dtype=complex), np.zeros((groups, 4), dtype=complex)
    z[gid, loc], y[gid, loc] = psi, phi
    rho = z.T @ y.conj()
    return np.array([rho[0, 0] + rho[3, 3], rho[1, 1] + rho[2, 2], (rho[1, 2] + rho[2, 1]) / 2])


def _same_bits(x, y):
    """Equal values and equal signs of zero, so -0.0 and 0.0 differ."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and np.array_equal(np.signbit(x), np.signbit(y)) \
        and np.array_equal(x, y)


@PROPERTY_SETTINGS
@given(real=chains(2, 40), data=st.data())
def test_moment_assembly_matches_plain_form_bitwise(real, data):
    # a stack of this chain and others of its length, each over its own
    # times with t = 0 among them
    k = data.draw(st.integers(min_value=1, max_value=3))
    members = [real] + [
        model.CouplingRealization(
            couplings=tuple(data.draw(st.lists(bond, min_size=real.n - 1, max_size=real.n - 1))),
            seed_used=0,
        )
        for _ in range(k - 1)
    ]
    stack = freefermion.ChainStack(members)
    drawn = data.draw(st.lists(
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        min_size=k * 3, max_size=k * 3,
    ))
    ts = np.array(drawn).reshape(k, 3)
    ts[0, 0] = 0.0
    moments = freefermion._end_moments(stack, ts, None)
    want = oracles.end_moments_plain(stack, ts)
    assert moments.shape == want.shape == (4, k, 3)
    assert _same_bits(moments, want)
    got = freefermion._x_state(moments, stack, ts)
    expect = oracles.x_state_plain(want, real.n, ts)
    for g, w in zip(got, expect):
        assert _same_bits(g, w)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_length_mixed_stack_matches_single_chains_bitwise(data):
    # 1-6 chains of lengths 2..60, odd and even mixed, homogeneous (the
    # closed form) or not (the SVD), each at its own time with t = 0 among
    # them: every member's (a, b, c) has the bits of its own chain's
    # series at that time
    k = data.draw(st.integers(min_value=1, max_value=6))
    members = [data.draw(chains(n, n, signed_bond))
               for n in data.draw(st.lists(st.integers(min_value=2, max_value=60),
                                           min_size=k, max_size=k))]
    ts = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
                                     min_size=k, max_size=k)))
    ts[data.draw(st.integers(min_value=0, max_value=k - 1))] = 0.0
    got = freefermion.ChainStack(members).end_spin_at(ts)
    for m, (real, t) in enumerate(zip(members, ts)):
        want = freefermion.end_spin_series(real, np.array([t]))
        for g, w in zip(got, want):
            assert _same_bits(g[m], w[0])


@PROPERTY_SETTINGS
@given(data=st.data())
def test_stack_set_up_matches_each_members_stack_of_one_bitwise(data):
    # 1-8 homogeneous chains of either sign of J (the closed form, J = +-0
    # included) and disordered ones (the SVD), odd and even, of 1-3
    # lengths n = 2..61 in any order, in one stack built in one pass: its
    # two_s, weights, start and sign have the bits of the same stack built
    # chain by chain, and a member's those of its own stack of one
    lengths = data.draw(st.lists(st.integers(min_value=2, max_value=61), min_size=1, max_size=3))
    bonds = st.one_of(signed_bond, st.sampled_from([0.0, -0.0]))
    members = [data.draw(chains(n, n, bonds))
               for n in data.draw(st.lists(st.sampled_from(lengths), min_size=1, max_size=8))]
    stack = freefermion.ChainStack(members)
    keys = ("two_s", "weights", "start", "sign")
    for key, want in zip(keys, oracles.chain_stack_arrays(members)):
        assert _same_bits(getattr(stack, key), want), key
    for k, real in enumerate(members):
        alone = freefermion.ChainStack([real])
        m, rows = real.n // 2, alone.rows
        assert _same_bits(stack.two_s[k, :m], alone.two_s[0])
        assert _same_bits(stack.weights[k, :, :rows + 1], alone.weights[0])
        assert _same_bits(stack.start[k], alone.start[0])
        assert _same_bits(stack.sign[k], alone.sign[0])


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(n=st.integers(min_value=2, max_value=61), data=st.data())
def test_disorder_blocks_across_sigmas_match_each_members_stack_of_one_bitwise(n, data):
    # one to four sigmas in any order, 0 included or not, and a few
    # realizations each, flattened to the (sigma, realization) list and cut
    # into blocks at random places: every member's grid and refined peak
    # have the bits of its own stack of one, and each block's curves, a
    # running sum per sigma it starts and the leading ones it carries, are
    # those of the members' own curves
    sigmas = data.draw(st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.8]),
                                min_size=1, max_size=4, unique=True))
    realizations = data.draw(st.integers(min_value=1, max_value=3))
    members = [(sigma, r) for sigma in sigmas for r in range(1 if sigma == 0.0 else realizations)]
    cuts = data.draw(st.sets(st.integers(min_value=1, max_value=max(1, len(members) - 1)),
                             max_size=3)) if len(members) > 1 else set()
    base = model.ChainSpec(n=n, disorder_sigma=max(sigmas),
                           seed=data.draw(st.integers(min_value=0, max_value=2**16)))
    _, _, ts = entangle.search_grid(base, None, None)

    def block(part):
        return cli._disorder_block({"spec": base, "engine": "freefermion", "ts": ts,
                                    "members": part})

    own = [entangle.CurveEvaluator([dataclasses.replace(
        base, disorder_sigma=sigma, seed=model.sub_seed(base.seed, r))], "freefermion"
    ).fef_series(ts)[0] for sigma, r in members]
    edges = [0, *sorted(cuts), len(members)]
    blocks = [block(members[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    for (lo, hi), got in zip(zip(edges, edges[1:]), blocks):
        starts = [k for k in range(lo, hi) if members[k][1] == 0]
        lead = starts[0] if starts else hi
        assert len(got["carried"]) == lead - lo
        for curve, k in zip(got["carried"], range(lo, lead)):
            assert _same_bits(curve, own[k]), members[k]
        assert len(got["sums"]) == len(starts)
        for total, k, end in zip(got["sums"], starts, starts[1:] + [hi]):
            assert _same_bits(total, np.sum(own[k:end], axis=0)), members[k]
    peak_t, peak_f = (np.concatenate([b[key] for b in blocks]) for key in ("peak_t", "peak_f"))
    for k, member in enumerate(members):
        alone = block([member])
        if member[1] == 0:
            assert _same_bits(alone["sums"][0], np.sum(own[k:k + 1], axis=0)), member
        else:
            assert _same_bits(alone["carried"][0], own[k]), member
        assert _same_bits(peak_t[k], alone["peak_t"][0]), member
        assert _same_bits(peak_f[k], alone["peak_f"][0]), member


class _Pool:
    """Stands in for ProcessPoolExecutor: records its worker count and maps
    in this process."""

    def __init__(self, max_workers):
        _Pool.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@settings(PROPERTY_SETTINGS, max_examples=80)
@given(data=st.data(), jobs=st.one_of(st.integers(min_value=1, max_value=9),
                                      st.integers(min_value=1, max_value=2**64)),
       cores=st.integers(min_value=1, max_value=8),
       route=st.sampled_from(["stack", "correlator", "exactdiag"]),
       kept=st.integers(min_value=0, max_value=2**40))
def test_plan_cuts_staffs_and_charges_every_member_once(data, jobs, cores, route, kept):
    # members of distinct lengths (a size scan) or of one length with mixed
    # sigmas (an ensemble), on a route that stacks or not: every member is
    # in one block; a stacking list gets a block per worker, dealt exactly
    # when the lengths differ, any other member a block of its own; the
    # pool gets the plan's workers; the one memory check charges the kept
    # bytes of that many blocks plus every worker at the largest block
    top = 61 if route == "stack" else exactdiag.MAX_SITES
    count = data.draw(st.integers(min_value=1, max_value=14), label="members")
    if data.draw(st.booleans(), label="one length"):
        n = data.draw(st.integers(min_value=2, max_value=top), label="n")
        sigmas = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]), min_size=count,
                                    max_size=count), label="sigmas")
        specs = [model.ChainSpec(n=n, disorder_sigma=s, seed=k) for k, s in enumerate(sigmas)]
    else:
        lengths = data.draw(st.lists(st.integers(min_value=2, max_value=top), min_size=count,
                                     max_size=count, unique=True), label="lengths")
        sigma = data.draw(st.sampled_from([0.0, 0.2]), label="sigma")
        specs = [model.ChainSpec(n=n, disorder_sigma=sigma) for n in sorted(lengths)]
    if route == "correlator":
        specs = [dataclasses.replace(spec, delta1=3.0) for spec in specs]
    engine = "exactdiag" if route == "exactdiag" else "freefermion"
    workers = max(1, min(jobs, count, cores))

    asked = []

    def plan(have):
        with mock.patch.object(cli.os, "cpu_count", lambda: cores), \
                mock.patch.object(cli, "_physical_memory", lambda: have):
            return cli._plan(specs, engine, jobs,
                             lambda blocks: asked.append(blocks) or (kept, "kept curves"))

    cut, planned = plan(None)
    assert planned == workers and asked == [len(cut)]
    assert sorted(k for block in cut for k in block) == list(range(count))
    if route == "stack":  # as even as the members allow
        assert len(cut) == min(jobs, count, cores)
        assert 1 <= min(map(len, cut)) and max(map(len, cut)) - min(map(len, cut)) <= 1
        if len({spec.n for spec in specs}) > 1:
            assert cut == [range(b, count, workers) for b in range(workers)]
        else:
            assert all(block.step == 1 for block in cut)
            assert [k for block in cut for k in block] == list(range(count))
    else:
        assert cut == [range(k, k + 1) for k in range(count)]
    charge = kept + workers * max(entangle.block_charge([specs[k] for k in block], engine)[0]
                                  for block in cut)
    assert plan(charge) == (cut, workers)
    with pytest.raises(cli.UsageError, match="of physical memory") as refused:
        plan(charge - 1)
    assert ("kept curves" in str(refused.value)) == (kept > 0)
    _Pool.workers = []
    with mock.patch("concurrent.futures.ProcessPoolExecutor", _Pool):
        assert list(cli._run_parallel(len, cut, workers)) == [len(block) for block in cut]
    assert _Pool.workers == ([] if workers == 1 else [workers])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(route=st.sampled_from(["stack", "correlator"]), data=st.data())
def test_refined_peaks_match_the_oracle_and_follow_the_time_unit(route, data):
    # Brent's refinement of each member's first grid peak, on the free-fermion
    # stack and on the correlator route: within xtol/2 of golden section run
    # to 1e-12 on the same bracket, never below the grid value, and at
    # j = 2^k exactly 2^-k times the time at j = 1.  Bonds take both signs
    # at large sigma.
    n = data.draw(st.integers(2, 15 if route == "stack" else 9), label="n")
    sigma = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5)), label="sigma")
    seed = data.draw(st.integers(0, 2**31 - 3), label="seed")
    k = data.draw(st.integers(-40, 40), label="k")
    delta1 = math.inf if route == "stack" else data.draw(st.floats(1.5, 5.0), label="delta1")
    # the stack's three members in one evaluator, a correlator member alone
    blocks = [range(3)] if route == "stack" else [range(r, r + 1) for r in range(3)]
    for block in blocks:
        peaks = []
        for j in (1.0, 2.0**k):
            evaluator = entangle.CurveEvaluator([
                model.ChainSpec(n=n, j=j, delta1=delta1, disorder_sigma=sigma, seed=seed + r)
                for r in block])
            _, _, ts = entangle.search_grid(evaluator.specs[0])
            found = [entangle.first_peak([(ts, curve)], any_height_fallback=True,
                                         argmax_fallback=True)
                     for curve in evaluator.fef_series(ts)]
            peaks.append((evaluator, found, *entangle.refine_peaks(evaluator, found)))
        (evaluator, found, t, f, _), (_, _, t_k, f_k, _) = peaks
        np.testing.assert_array_equal(t_k, t * 2.0**-k)
        np.testing.assert_array_equal(f_k, f)
        lo, _, hi, grid_f = np.array([peak for peak, _, _ in found]).T
        assert np.all(f >= grid_f)
        refined = np.array([refinable for _, refinable, _ in found])
        if n > 2 and refined.any():  # an n = 2 curve is flat to rounding, its peaks noise
            part = evaluator[np.flatnonzero(refined)]
            want, _ = oracles.golden_section_max(lambda ts: entangle._fef(*part.end_spin_at(ts)),
                                                 lo[refined], hi[refined], 1e-12)
            assert np.max(np.abs(t[refined] - want)) <= 0.5 * entangle.REFINE_RESOLUTION


# Relations that need no oracle, and so hold past the dense cap too.  The
# reversal is exact up to the rounding of phases of up to 1,000 rad here:
# 3.3e-14 at most over 300 examples, checked at the 1e-12 of the
# propagator checks.


@PROPERTY_SETTINGS
@given(route=st.sampled_from(["stack", "correlator"]), data=st.data())
def test_chain_reversal_leaves_the_end_spin_state(route, data):
    # site j -> n + 1 - j swaps the two end spins, whose X state is
    # symmetric in them: the reversed bonds give the same (a, b, c), on the
    # free-fermion stack (its grid and point paths) and on the correlator
    # route from a finite delta1
    n = data.draw(st.integers(2, 15), label="n")
    bonds = data.draw(st.lists(signed_bond, min_size=n - 1, max_size=n - 1), label="bonds")
    ts = np.array(data.draw(st.one_of(times, uniform_grids())), dtype=float)
    if route == "stack":
        def evaluate(real):
            return _stack_series(freefermion.ChainStack([real]), ts)[:, 0]
    else:
        delta1 = data.draw(st.floats(1.5, 5.0), label="delta1")

        def evaluate(real):
            quench = freefermion.CorrelatorQuench(
                real, exactdiag.correlators(exactdiag.ground_mixture(real, delta1)))
            return np.stack(quench.end_spin_series(ts))

    forward, backward = (evaluate(model.CouplingRealization(couplings=tuple(b), seed_used=0))
                         for b in (bonds, bonds[::-1]))
    assert np.max(np.abs(backward - forward)) <= 1e-12


@PROPERTY_SETTINGS
@given(real=chains(2, 61, signed_bond), ts=st.one_of(times, uniform_grids()))
def test_negated_bonds_leave_the_neel_quench_bit_identical(real, ts):
    # the sublattice gauge c_j -> (-1)^j c_j maps every J to -J and keeps
    # the Neel mixture and delta2 = 0, so (a, b, c) keep their bits; from a
    # finite delta1 the same gauge also flips delta, so it is not claimed
    ts = np.array(ts, dtype=float)
    negated = model.CouplingRealization(couplings=tuple(-j for j in real.couplings), seed_used=0)
    assert _same_bits(np.stack(freefermion.end_spin_series(negated, ts)),
                      np.stack(freefermion.end_spin_series(real, ts)))
