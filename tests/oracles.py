"""Brute-force oracles that the tests check the engines against.

None of this is on the program's path.  Each oracle takes the slow and
obvious route to a quantity that an engine computes fast:

- exact diagonalization: the sector patterns enumerated by combinations
  of up sites, the sector Hamiltonian built pattern by pattern and the
  dense form of each block the engine realizes, the ground multiplet from
  dense spectra of every sector, the projector onto each flip x
  reflection block of a sector from dense permutation matrices (the
  engine's one orbit basis must span its range), the ground multiplet
  from a full Lanczos search of every block, step-by-step evolution
  of every component in its whole sector, and the full 4x4 reduced
  density matrix of any two sites, with every check a 4x4 matrix admits
  (Hermiticity, trace, positivity, X structure, real coherence,
  flip-symmetric diagonal pairs);
- free fermions: the propagator exp(-iAt) as a full matrix, from the
  eigendecomposition of the dense hopping matrix or from the closed
  standing-wave mode sum, and from it the end-site moments and end-spin
  state of a single Neel order, independent of the engine's sublattice
  closed form; the engine's moment -> X-state assembly for one length,
  written plainly with its three checks one after another; a chain
  stack's arrays built chain by chain; and the dense
  4x4 matrix and Bell weights of an end-spin X state;
- purification: the recurrence round on the 16x16 two-pair density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from xxzquench import exactdiag, freefermion, model
from xxzquench.errors import NumericalFaultError
from xxzquench.exactdiag import MixedState, PureComponent
from xxzquench.freefermion import EndSpinState, _check
from xxzquench.model import NeelOrder
from xxzquench.purify import BellDiagonal

RDM_TOL = 1e-9
X_STRUCTURE_TOL = 1e-10

# --- exact diagonalization ------------------------------------------------


def sector_patterns(n: int, m_up: int) -> list[int]:
    """The n-site patterns with m_up set bits, ascending, one combination
    of up sites at a time."""
    return sorted(sum(1 << b for b in comb) for comb in combinations(range(n), m_up))


def sector_hamiltonian(realization, delta: float, m_up: int) -> np.ndarray:
    """XXZ matrix in one sector, pattern by pattern and bond by bond."""
    basis = exactdiag.sector_basis(realization.n, m_up)
    h = np.zeros((basis.dim, basis.dim))
    cpl = realization.couplings
    index = {int(p): i for i, p in enumerate(basis.states)}
    for i, pat in enumerate(index):
        diag = 0.0
        for k in range(realization.n - 1):
            b1 = (pat >> k) & 1
            b2 = (pat >> (k + 1)) & 1
            z1 = 1.0 if b1 else -1.0
            z2 = 1.0 if b2 else -1.0
            diag += cpl[k] * delta / 2.0 * z1 * z2
            if b1 != b2:
                j = index[pat ^ ((1 << k) | (1 << (k + 1)))]
                h[i, j] += cpl[k]
        h[i, i] = diag
    return h


def block_matrix(block) -> np.ndarray:
    """The dense (dim, dim) form of a realized block's entries, its triples
    added one at a time."""
    h = np.zeros((block.dim, block.dim))
    np.add.at(h, (block.rows, block.cols), block.values)
    return h


def dense_ground_mixture(realization, delta1: float) -> MixedState:
    """Ground multiplet of H(delta1) from dense spectra of the sectors
    M <= n/2, under the engine's rule (every level within the degeneracy
    tolerance of the minimum, at most a pair).

    Vectors come from ``eigh`` of the one sector holding the minimum; the
    flip partner in sector n-M is the reversed vector, and vectors of the
    self-conjugate sector M = n/2 are made flip eigenvectors (a degenerate
    pair there is first rotated onto them).
    """
    n = realization.n
    matrices = {m: sector_hamiltonian(realization, delta1, m) for m in range(n // 2 + 1)}
    spectra = {m: np.linalg.eigvalsh(h) for m, h in matrices.items()}
    e0 = min(float(e[0]) for e in spectra.values())
    tol = max(exactdiag.GROUND_DEGENERACY_RTOL * abs(e0), exactdiag.GROUND_DEGENERACY_ATOL)
    levels = {m: np.nonzero(e - e0 <= tol)[0] for m, e in spectra.items()}
    size = sum(len(k) * (1 if 2 * m == n else 2) for m, k in levels.items())
    if size > 2:
        raise NumericalFaultError(
            f"ground manifold of dimension {size} at delta1={delta1}; "
            f"expected at most a degenerate pair"
        )
    (m,) = (m for m, k in levels.items() if len(k))
    ground = np.linalg.eigh(matrices[m])[1][:, levels[m]]
    if 2 * m != n:
        multiplet = [(m, ground[:, 0]), (n - m, ground[::-1, 0])]
    else:
        if ground.shape[1] == 2:
            # the pair spans a flip-closed plane: take the flip eigenvectors
            ground = ground @ np.linalg.eigh(ground.T @ ground[::-1])[1]
        # a level of the other flip parity close above mixes into eigh's
        # vector by round-off over the gap; the projection removes it
        ground = ground + np.sign(np.sum(ground * ground[::-1], axis=0)) * ground[::-1]
        ground /= np.linalg.norm(ground, axis=0)
        multiplet = [(m, v) for v in ground.T]
    w = 1.0 / len(multiplet)
    comps = tuple(
        PureComponent(weight=w, m_up=m, amplitudes=np.ascontiguousarray(v)) for m, v in multiplet
    )
    return MixedState(n=n, components=comps, origin="degenerate-ground-multiplet")


def lanczos_ground_mixture(realization, delta1: float) -> MixedState:
    """The engine's ground multiplet from its search without a threshold:
    a Lanczos run in every block of every sector M <= n/2, each until its
    two lowest Ritz pairs converge, then every level within the degeneracy
    tolerance of the minimum, at most a pair, with the flip partner of a
    component outside M = n/2."""
    n = realization.n
    found = []
    for m in range(n // 2, -1, -1):
        ham = exactdiag.build_sector_hamiltonian(realization, delta1, m)
        start = np.sin(np.arange(1.0, ham.basis.dim + 1.0))
        for block in ham.blocks:
            values, vectors = exactdiag._lanczos(
                lambda x, b=block: np.bincount(b.rows, b.values * x[b.cols], minlength=b.dim),
                np.bincount(block.orbit + 1, block.coef * start, minlength=block.dim + 1)[1:],
            )
            found.append((m, values, block.coef * vectors[:, block.orbit]))
    e0 = min(float(values[0]) for _, values, _ in found)
    tol = max(exactdiag.GROUND_DEGENERACY_RTOL * abs(e0), exactdiag.GROUND_DEGENERACY_ATOL)
    multiplet = [(m, v) for m, values, vectors in found for v in vectors[values - e0 <= tol]]
    size = sum(1 if 2 * m == n else 2 for m, _ in multiplet)
    if size > 2:
        raise NumericalFaultError(
            f"ground manifold of dimension {size} at delta1={delta1}; "
            f"expected at most a degenerate pair"
        )
    if size > len(multiplet):
        ((m, v),) = multiplet
        multiplet.append((n - m, v[::-1]))
    w = 1.0 / len(multiplet)
    comps = tuple(
        PureComponent(weight=w, m_up=m, amplitudes=np.ascontiguousarray(v)) for m, v in multiplet
    )
    return MixedState(n=n, components=comps, origin="degenerate-ground-multiplet")


def block_projectors(realization, m_up: int) -> list[np.ndarray]:
    """The nonzero projectors P_chi = (1/|G|) sum_g chi(g) Pi_g of one
    sector, from dense permutation matrices built pattern by pattern.

    G is generated by the spin flip (every pattern to its complement) in
    the half-filled sector and the site reflection (bit string reversed)
    on palindromic couplings, and P_chi is the product of (1 + chi_s S)/2
    over those generators S.  The characters run flip-odd first, then
    reflection-odd first within each flip parity.
    """
    n = realization.n
    states = [int(p) for p in exactdiag.sector_basis(n, m_up).states]
    index = {p: i for i, p in enumerate(states)}
    eye = np.eye(len(states))

    def permutation(image) -> np.ndarray:
        matrix = np.zeros_like(eye)
        for i, p in enumerate(states):
            matrix[index[image(p)], i] = 1.0
        return matrix

    generators = []
    if 2 * m_up == n:
        generators.append(permutation(lambda p: p ^ ((1 << n) - 1)))
    if list(realization.couplings) == list(reversed(realization.couplings)):
        generators.append(permutation(lambda p: int(format(p, f"0{n}b")[::-1], 2)))
    projectors = []
    for signs in product((-1.0, 1.0), repeat=len(generators)):
        projector = eye
        for sign, generator in zip(signs, generators):
            projector = projector @ (eye + sign * generator) / 2.0
        if np.trace(projector) > 0.5:
            projectors.append(projector)
    return projectors


def orbit_matrix(block) -> np.ndarray:
    """The (sector dim, block dim) matrix V of an engine block's orbit
    states: V[p, orbit_p] = coef_p for each pattern p inside the block."""
    inside = np.flatnonzero(block.orbit >= 0)
    v = np.zeros((len(block.orbit), block.dim))
    v[inside, block.orbit[inside]] = block.coef[inside]
    return v


@lru_cache(maxsize=8)
def _sector_eig(realization, delta2: float, m_up: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(sector_hamiltonian(realization, delta2, m_up))


def evolve(state: MixedState, realization, delta2: float, t: float) -> MixedState:
    """Evolve each component within its own whole sector under H(delta2)."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if t == 0.0:
        return state
    comps = []
    for comp in state.components:
        energies, modes = _sector_eig(realization, delta2, comp.m_up)
        psi = modes @ (np.exp(-1j * energies * t) * (modes.T @ comp.amplitudes))
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > exactdiag.NORM_DRIFT_TOL:
            raise NumericalFaultError(f"norm drift {norm - 1.0} during evolution")
        comps.append(PureComponent(weight=comp.weight, m_up=comp.m_up, amplitudes=psi))
    return MixedState(n=state.n, components=tuple(comps), origin=state.origin)


def energy_expectation(state: MixedState, realization, delta: float) -> float:
    """<H(delta)> of a mixed state, sector by sector."""
    total = 0.0
    for comp in state.components:
        ham = sector_hamiltonian(realization, delta, comp.m_up)
        total += comp.weight * float(
            np.real(np.vdot(comp.amplitudes, ham @ comp.amplitudes))
        )
    return total


@lru_cache(maxsize=64)
def _pair_scatter(n: int, m_up: int, site_i: int, site_j: int):
    """Mapping from sector patterns to (interior group, local pair index).

    Grouping by the interior configuration turns the partial trace into a
    stack of rank-one updates: rho = sum_g outer(z_g, z_g*).
    """
    basis = exactdiag.sector_basis(n, m_up)
    bi, bj = site_i - 1, site_j - 1
    groups: dict[int, int] = {}
    gid = np.empty(basis.dim, dtype=np.intp)
    loc = np.empty(basis.dim, dtype=np.intp)
    for idx, pat in enumerate(int(p) for p in basis.states):
        si = (pat >> bi) & 1
        sj = (pat >> bj) & 1
        rest = pat & ~((1 << bi) | (1 << bj))
        gid[idx] = groups.setdefault(rest, len(groups))
        loc[idx] = 3 - 2 * si - sj  # (up,up)=0 (up,down)=1 (down,up)=2 (down,down)=3
    return gid, loc, len(groups)


def two_site_matrix(state: MixedState, site_i: int, site_j: int) -> np.ndarray:
    """4x4 reduced density matrix of sites (i, j), traced over the rest."""
    if not 1 <= site_i < site_j <= state.n:
        raise ValueError(f"need 1 <= i < j <= {state.n}, got ({site_i}, {site_j})")
    rho = np.zeros((4, 4), dtype=complex)
    for comp in state.components:
        gid, loc, n_groups = _pair_scatter(state.n, comp.m_up, site_i, site_j)
        z = np.zeros((n_groups, 4), dtype=complex)
        z[gid, loc] = comp.amplitudes
        rho += comp.weight * (z.T @ z.conj())
    return rho


# Entries of a 4x4 pair matrix outside the X pattern (diagonal, 1-2, 2-1).
_OFF_X = np.ones((4, 4), dtype=bool)
_OFF_X[np.diag_indices(4)] = False
_OFF_X[1, 2] = _OFF_X[2, 1] = False


def x_state_series(rho: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c) of a stack of 4x4 pair states, shape (T, 4, 4).

    Each matrix must be a density matrix (Hermitian, unit trace, positive)
    of X form with a real coherence and flip-symmetric diagonal pairs, all
    up to round-off; the first violation beyond tolerance raises.
    """
    _check(
        np.max(np.abs(rho - rho.conj().swapaxes(1, 2)), axis=(1, 2)),
        RDM_TOL, "reduced density matrix not Hermitian by", ts,
    )
    _check(
        np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0),
        RDM_TOL, "reduced density matrix trace error", ts,
    )
    _check(
        -np.linalg.eigvalsh(rho)[:, 0],
        RDM_TOL, "reduced density matrix negative eigenvalue", ts,
    )
    _check(
        np.max(np.abs(rho[:, _OFF_X]), axis=1),
        X_STRUCTURE_TOL, "reduced state deviates from X structure by", ts,
    )
    _check(np.abs(rho[:, 1, 2].imag), X_STRUCTURE_TOL, "coherence imaginary part", ts)
    outer_pair = np.abs(rho[:, 0, 0] - rho[:, 3, 3])
    inner_pair = np.abs(rho[:, 1, 1] - rho[:, 2, 2])
    _check(
        np.maximum(outer_pair, inner_pair),
        RDM_TOL, "X-state diagonal pairs differ by", ts,
    )
    a = 0.5 * (rho[:, 0, 0].real + rho[:, 3, 3].real)
    b = 0.5 * (rho[:, 1, 1].real + rho[:, 2, 2].real)
    return a, b, rho[:, 1, 2].real


def two_spin_rdm(state: MixedState, site_i: int, site_j: int, t: float = 0.0) -> EndSpinState:
    """Reduced two-spin state of sites (i, j), checked and projected onto
    the X form of the end-spin family."""
    rho = two_site_matrix(state, site_i, site_j)
    a, b, c = x_state_series(rho[None], np.array([t]))
    return EndSpinState(a=float(a[0]), b=float(b[0]), c=float(c[0]), t=t)


def end_pair_per_point(initial: MixedState, realization, delta2: float, ts) -> tuple:
    """(a, b, c) of the end pair, one whole-sector evolution and full
    partial trace per time."""
    states = [
        two_spin_rdm(evolve(initial, realization, delta2, float(t)), 1, realization.n, t=float(t))
        for t in ts
    ]
    return tuple(np.array([getattr(s, k) for s in states]) for k in "abc")


def correlators_rowwise(state: MixedState) -> list:
    """``exactdiag.correlators`` one site set at a time: per flip
    representative, each row of c_k psi and of c_l c_m psi, l < m, is
    gathered, signed and scattered on its own, with its Jordan-Wigner signs
    read from the pattern before any bit is cleared."""
    n, found = state.n, []
    for weight, comp in exactdiag._flip_representatives(state):
        states = exactdiag.sector_basis(n, comp.m_up).states
        ups = (states >> np.arange(n, dtype=np.uint64)[:, None]) & np.uint64(1)
        signs = 1.0 - 2.0 * ((np.cumsum(ups, axis=0) - ups) % 2)
        grams = []
        for order in (1, 2):
            sites = [list(c) for c in combinations(range(n), order)]
            target = (exactdiag.sector_basis(n, comp.m_up - order).states
                      if comp.m_up >= order else [])
            rows = np.zeros((len(sites), len(target)))
            for row, at in zip(rows, sites):
                hit = np.flatnonzero(ups[at].all(axis=0))
                cleared = states[hit] ^ np.uint64(sum(1 << k for k in at))
                sign = signs[at][:, hit].prod(axis=0)
                row[np.searchsorted(target, cleared)] = sign * comp.amplitudes[hit]
            grams.append(rows @ rows.T)
        found.append((weight, comp.m_up, *grams))
    return found


# --- free fermions -------------------------------------------------------


@lru_cache(maxsize=8)
def _hopping_eig(realization) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the dense n x n hopping matrix A, built here."""
    n = realization.n
    a = np.zeros((n, n))
    for k, jk in enumerate(realization.couplings):
        a[k, k + 1] = a[k + 1, k] = jk
    return np.linalg.eigh(a)


def eigen_propagator(realization, t: float) -> np.ndarray:
    """f(t) = exp(-i A t) as a full matrix, from the eigendecomposition of
    the dense hopping matrix; exactly the identity at t = 0."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if t == 0.0:
        return np.eye(realization.n, dtype=complex)
    energies, modes = _hopping_eig(realization)
    return (modes * np.exp(-1j * energies * t)) @ modes.T


def mode_sum_propagator(realization, t: float) -> np.ndarray:
    """Homogeneous-chain f(t) from the closed standing-wave sum over
    q_m = pi m / (n+1) with energies 2 J cos(q_m); the identity at t = 0."""
    if len(set(realization.couplings)) != 1:
        raise ValueError("mode sum is only valid for homogeneous couplings")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    n = realization.n
    if t == 0.0:
        return np.eye(n, dtype=complex)
    q = np.pi * np.arange(1, n + 1) / (n + 1)
    energies = 2.0 * realization.couplings[0] * np.cos(q)
    s = np.sin(np.outer(np.arange(1, n + 1), q))
    return (2.0 / (n + 1)) * (s * np.exp(-1j * energies * t)) @ s.T


def propagator(realization, t: float) -> np.ndarray:
    """f(t) by the mode sum on homogeneous chains, else by eigendecomposition."""
    if len(set(realization.couplings)) == 1:
        return mode_sum_propagator(realization, t)
    return eigen_propagator(realization, t)


@dataclass(frozen=True)
class SecondMoments:
    """End-site moments of one Neel order: the occupations <c+_1 c_1> and
    <c+_n c_n>, <c+_1 c_n> and its conjugate <c+_n c_1>."""

    occ_first: float
    occ_last: float
    cross_fl: complex
    cross_lf: complex


def second_moments(realization, which: model.NeelState, t: float) -> SecondMoments:
    """End-site moments of one Neel order at time t, summed over its
    occupied sites p from the full propagator: <c+_i c_j> =
    sum_p conj(f_{i,p}) f_{j,p}; exact at t = 0."""
    if which.n != realization.n:
        raise ValueError(f"state is for n={which.n}, realization for n={realization.n}")
    f = eigen_propagator(realization, t)
    occ = np.asarray(which.up_sites) - 1
    f1, fn = f[0, occ], f[-1, occ]
    cross = complex(np.sum(fn * f1.conj()))
    return SecondMoments(
        float(np.sum(np.abs(f1) ** 2)), float(np.sum(np.abs(fn) ** 2)), cross.conjugate(), cross
    )


def _component_x_state(o1, on, cross, sign):
    """(a, b, c) of one Neel order from its end-site moments."""
    a = o1 * on - np.abs(cross) ** 2 - 0.5 * (o1 + on - 1.0)
    return a, 0.5 - a, sign * cross.real


def _parity_sign(state: model.NeelState) -> float:
    """The sign (-1)^(M+1) the string puts on the coherence."""
    return 1.0 if state.m_up % 2 == 1 else -1.0


def neel_component_series(realization, ts, order: NeelOrder) -> np.ndarray:
    """(a, b, c) rows of one Neel order alone, point by point from the full
    propagator matrix."""
    state = model.neel_state(order, realization.n)
    moments = [second_moments(realization, state, float(t)) for t in ts]
    return np.stack(_component_x_state(
        np.array([m.occ_first for m in moments]),
        np.array([m.occ_last for m in moments]),
        np.array([m.cross_lf for m in moments]),
        _parity_sign(state),
    ))


def propagator_end_spin(realization, ts, initial) -> np.ndarray:
    """(a, b, c) rows of one Neel order, or of their "mixture", built point
    by point from the full propagator matrix."""
    orders = [NeelOrder.N1, NeelOrder.N2] if initial == "mixture" else [initial]
    return sum(neel_component_series(realization, ts, order) for order in orders) / len(orders)


def bell_weights(state: EndSpinState) -> BellDiagonal:
    """Exact Bell decomposition of the end-spin X state: the inner block
    splits into psi+/psi- with weights b +- c, and the coherence-free outer
    block spreads evenly over the phi pair."""
    return BellDiagonal(state.b + state.c, state.b - state.c, state.a, state.a)


def end_spin_matrix(state: EndSpinState) -> np.ndarray:
    """Dense 4x4 density matrix of an end-spin X state in the (uu, ud, du,
    dd) basis."""
    a, b, c = state.a, state.b, state.c
    return np.array([
        [a, 0.0, 0.0, 0.0],
        [0.0, b, c, 0.0],
        [0.0, c, b, 0.0],
        [0.0, 0.0, 0.0, a],
    ])


# --- free-fermion moment assembly in its plain form -----------------------
# The engine's moment -> X-state layer for a stack of one length, written
# plainly: one product of the weights with trig rows that end in a row of
# ones, and the three X-state checks run one after another.


def end_moments_plain(chains, ts: np.ndarray) -> np.ndarray:
    """Moment stack (4, K, T) of ``freefermion._end_moments`` off the grid
    path, for a stack of one length over the times ``ts`` (K, T)."""
    (members, m, rows), = chains.groups  # one length
    n = int(chains.n[0])
    phase = chains.two_s[:, :, None] * ts[:, None, :]
    trig = [np.cos(phase)] + ([np.sin(phase)] if n % 2 == 0 else []) + [np.ones_like(ts)[:, None]]
    moments = np.moveaxis(chains.weights @ np.concatenate(trig, axis=1), 1, 0)
    zero = ts == 0.0
    if np.any(zero):
        moments[:, zero] = 0.0
        neel = model.neel_state(NeelOrder.N2, n)
        moments[:2, zero] = np.array([[1 in neel.up_sites], [n in neel.up_sites]], dtype=float)
    return moments


def chain_stack_arrays(realizations) -> tuple[np.ndarray, ...]:
    """``two_s``, ``weights``, ``start`` and ``sign`` of
    ``freefermion.ChainStack(realizations)`` built chain by chain: each
    chain's own modes, from the uniform open chain's standing waves or
    from its SVD alone, and its end-site weights of the sublattice sums,
    each written as one loop iteration, padded to the longest chain."""
    k, width = len(realizations), max(r.n for r in realizations) // 2
    rows = width * (1 if all(r.n % 2 for r in realizations) else 2)
    two_s, weights = np.zeros((k, width)), np.zeros((k, 4, rows + 1))
    start, sign = np.zeros((k, 4)), np.empty(k)
    for i, real in enumerate(realizations):
        n, couplings = real.n, np.array(real.couplings, dtype=float)
        m, odd = n // 2, n % 2
        if np.all(couplings == couplings[0]):
            j, modes = couplings[0], np.arange(1, m + 1)
            two_s[i, :m] = 4.0 * abs(j) * np.sin(np.pi * (n + 1 - 2 * modes) / (2 * (n + 1)))
            first = 2.0 / np.sqrt(n + 1) * np.sin(np.pi * modes / (n + 1))
            last = np.where(modes % 2, first, -first)
            if odd:
                root = np.sqrt(2.0 / (n + 1))
                first, last = np.append(first, root), np.append(last, root * (-1) ** m)
            else:
                last = last * np.copysign(1.0, j)
        else:
            p, s, qt = freefermion._sublattice_svd(couplings[None])
            two_s[i, :m], first = 2.0 * s[0], p[0, 0]
            last = p[0, -1] if odd else qt[0, :, -1]
        if odd:  # column m is the zero mode
            ends = np.stack([first**2, last**2, first * last, np.zeros_like(first)])
            weights[i, :, :m], zero_mode = 0.5 * ends[:, :m], ends[:, m]
        else:
            weights[i, 0, :m] = 0.5 * first**2
            weights[i, 1, :m] = -0.5 * last**2
            weights[i, 3, m:2 * m] = -0.5 * first * last
            zero_mode = np.zeros(4)
        weights[i, :, m if odd else 2 * m] = 0.5 * (np.array([1.0, 1.0, 0.0, 0.0]) + zero_mode)
        neel = model.neel_state(NeelOrder.N2, n)
        start[i, :2] = [1 in neel.up_sites, n in neel.up_sites]
        sign[i] = _parity_sign(neel)
    return two_s, weights, start, sign


def check_x_series_sequential(a, b, c, ts) -> None:
    """The X-state check of ``freefermion.check_x_series`` as three passes."""
    _check(np.abs(2.0 * a + 2.0 * b - 1.0), freefermion.TRACE_TOL, "end-spin trace error", ts)
    _check(-a, freefermion.POSITIVITY_TOL, "negative end-spin probability", ts)
    _check(
        np.abs(c) - b, freefermion.POSITIVITY_TOL,
        "end-spin coherence exceeds its bound b by", ts,
    )


def x_state_plain(moments: np.ndarray, n: int, ts: np.ndarray) -> tuple:
    """(a, b, c) of ``freefermion._x_state`` from the moments of order N2,
    checked by :func:`check_x_series_sequential`."""
    occ_first, occ_last, cross_re, cross_im = moments
    if n % 2 == 1:
        _check(np.abs(cross_im), freefermion.COHERENCE_IMAG_TOL, "coherence imaginary part", ts)
    a = (
        occ_first * occ_last
        - (cross_re**2 + cross_im**2)
        - 0.5 * (occ_first + occ_last - 1.0)
    )
    b = 0.5 - a
    c = _parity_sign(model.neel_state(NeelOrder.N2, n)) * cross_re + 0.0
    check_x_series_sequential(a, b, c, ts)
    return a, b, c


# --- engine views (not oracles) --------------------------------------------


def component_x_state(moments: np.ndarray, n: int, order: NeelOrder) -> np.ndarray:
    """(a, b, c) rows of one Neel order from the engine's moments (4, T) of
    order N2.  The orders fill complementary sublattices, so their
    one-particle correlations satisfy G_N1 = 1 - G_N2, and N1's end moments
    are (1 - <n_1>, 1 - <n_n>, -Re, -Im) of N2's.  Checking each order
    against the oracles above checks that relation as well."""
    o1, on, cross_re, cross_im = moments
    if order == NeelOrder.N1:
        o1, on, cross_re, cross_im = 1.0 - o1, 1.0 - on, -cross_re, -cross_im
    state = model.neel_state(order, n)
    return np.stack(_component_x_state(o1, on, cross_re + 1j * cross_im, _parity_sign(state)))


def engine_component_series(realization, ts, order: NeelOrder) -> np.ndarray:
    """(a, b, c) rows of one Neel order from the free-fermion engine's own
    moments of order N2, on the path its series takes for ``ts``; the
    engine evaluates order N2 alone (see :func:`component_x_state`)."""
    ts = np.asarray(ts, dtype=float)
    chain, step = freefermion._chain(realization), freefermion._uniform_step(ts)
    moments = freefermion._end_moments(
        chain, ts, None if step is None else freefermion._grid_bases(chain, step))
    return component_x_state(moments[:, 0], realization.n, order)


# --- purification ---------------------------------------------------------
# Qubit order (A1, B1, A2, B2); pair 1 is the kept source, pair 2 the
# measured target.  psi+ is first rotated onto the protocol fixed point
# phi+ by an X on Bob's qubit of each pair, and rotated back afterwards.

_E0 = np.array([1.0, 0.0])
_E1 = np.array([0.0, 1.0])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])

_BELL_VECTORS = (
    np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),   # psi+
    np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0),  # psi-
    np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),   # phi+
    np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0),  # phi-
)


def _cnot(control: int, target: int, n_qubits: int = 4) -> np.ndarray:
    dim = 2**n_qubits
    u = np.zeros((dim, dim))
    for s in range(dim):
        if (s >> (n_qubits - 1 - control)) & 1:
            u[s ^ (1 << (n_qubits - 1 - target)), s] = 1.0
        else:
            u[s, s] = 1.0
    return u


_ROTATE_B = np.kron(np.eye(2), _X)
_BILATERAL_CNOT = _cnot(0, 2) @ _cnot(1, 3)
_PROJ_00 = np.kron(np.eye(4), np.kron(np.outer(_E0, _E0), np.outer(_E0, _E0)))
_PROJ_11 = np.kron(np.eye(4), np.kron(np.outer(_E1, _E1), np.outer(_E1, _E1)))


def _bell_diagonal_matrix(state: BellDiagonal) -> np.ndarray:
    return sum(w * np.outer(v, v) for w, v in zip(state.as_array(), _BELL_VECTORS))


def recurrence_step_dense(state: BellDiagonal) -> tuple[BellDiagonal, float]:
    """Same round as :func:`xxzquench.purify.recurrence_step`, via the 16x16
    density matrix.

    Builds the two-pair product state, applies the bilateral CNOT,
    projects the target pair on coincident outcomes, renormalizes, traces
    the target pair out and undoes the local rotation.
    """
    pair = _ROTATE_B @ _bell_diagonal_matrix(state) @ _ROTATE_B.T
    full = np.kron(pair, pair)
    full = _BILATERAL_CNOT @ full @ _BILATERAL_CNOT.T
    kept = _PROJ_00 @ full @ _PROJ_00 + _PROJ_11 @ full @ _PROJ_11
    p = float(np.trace(kept).real)
    kept /= p
    reduced = np.trace(kept.reshape(4, 4, 4, 4), axis1=1, axis2=3)
    reduced = _ROTATE_B @ reduced @ _ROTATE_B.T
    weights = np.array([float((v @ reduced @ v).real) for v in _BELL_VECTORS])
    return BellDiagonal.from_weights(weights), p
