"""Brute-force oracles that the tests check the engines against.

None of this is on the program's path.  Each oracle takes the slow and
obvious route to a quantity that an engine computes fast:

- exact diagonalization: step-by-step evolution of every component in its
  whole sector, and the full 4x4 reduced density matrix of any two sites,
  with every check a 4x4 matrix admits (Hermiticity, trace, positivity, X
  structure, real coherence, flip-symmetric diagonal pairs);
- free fermions: the propagator exp(-iAt) as a full matrix, from the
  eigendecomposition or from the closed standing-wave mode sum, and the
  end-spin state of a single Neel order;
- purification: the recurrence round on the 16x16 two-pair density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=8)
def _sector_eig(realization, delta2: float, m_up: int) -> tuple[np.ndarray, np.ndarray]:
    ham = exactdiag.build_sector_hamiltonian(realization, delta2, m_up)
    return np.linalg.eigh(ham.matrix)


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
        ham = exactdiag.build_sector_hamiltonian(realization, delta, comp.m_up)
        total += comp.weight * float(
            np.real(np.vdot(comp.amplitudes, ham.matrix @ comp.amplitudes))
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


# --- free fermions -------------------------------------------------------


def eigen_propagator(realization, t: float) -> np.ndarray:
    """f(t) = exp(-i A t) as a full matrix, from the hopping chain's
    eigendecomposition; exactly the identity at t = 0."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if t == 0.0:
        return np.eye(realization.n, dtype=complex)
    chain = freefermion._chain(realization)
    return (chain.modes * np.exp(-1j * chain.energies * t)) @ chain.modes.T


def mode_sum_propagator(realization, t: float) -> np.ndarray:
    """Homogeneous-chain f(t) from the closed standing-wave sum over
    q_m = pi m / (n+1) with energies 2 J cos(q_m); the identity at t = 0."""
    if not realization.homogeneous:
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
    if realization.homogeneous:
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


def _occupied(state: model.NeelState) -> np.ndarray:
    """(n, 1) 0/1 column of the sites one Neel state occupies."""
    occupied = np.zeros((state.n, 1))
    occupied[np.asarray(state.up_sites) - 1, 0] = 1.0
    return occupied


def second_moments(realization, which: model.NeelState, t: float) -> SecondMoments:
    """End-site moments of one Neel order at time t, from the engine's end rows."""
    if which.n != realization.n:
        raise ValueError(f"state is for n={which.n}, realization for n={realization.n}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    occ_first, occ_last, cross_re, cross_im = freefermion._chain(realization).end_moments(
        np.array([t], dtype=float), _occupied(which)
    )[:, 0, 0]
    cross = complex(cross_re, cross_im)
    return SecondMoments(float(occ_first), float(occ_last), cross.conjugate(), cross)


def _component_x_state(o1, on, cross, sign):
    """(a, b, c) of one Neel order from its end-site moments."""
    a = o1 * on - np.abs(cross) ** 2 - 0.5 * (o1 + on - 1.0)
    return a, 0.5 - a, sign * cross.real


def _parity_sign(state: model.NeelState) -> float:
    """The sign (-1)^(M+1) the string puts on the coherence."""
    return 1.0 if state.m_up % 2 == 1 else -1.0


def neel_component_series(realization, ts, order: NeelOrder) -> np.ndarray:
    """(a, b, c) rows of one Neel order alone, from the engine's end-row
    kernel; the engine itself only evaluates the mixture."""
    state = model.neel_state(order, realization.n)
    o1, on, cross_re, cross_im = freefermion._chain(realization).end_moments(
        np.asarray(ts, dtype=float), _occupied(state)
    )[..., 0]
    return np.stack(_component_x_state(o1, on, cross_re + 1j * cross_im, _parity_sign(state)))


def propagator_end_spin(realization, ts, initial) -> np.ndarray:
    """(a, b, c) rows of one Neel order, or of their "mixture", built point
    by point from the full propagator matrix."""
    orders = [NeelOrder.N1, NeelOrder.N2] if initial == "mixture" else [initial]
    out = np.zeros((3, len(ts)))
    for order in orders:
        state = model.neel_state(order, realization.n)
        occ = np.asarray(state.up_sites) - 1
        for i, t in enumerate(ts):
            f = eigen_propagator(realization, float(t))
            f1, fn = f[0, occ], f[-1, occ]
            out[:, i] += _component_x_state(
                np.sum(np.abs(f1) ** 2), np.sum(np.abs(fn) ** 2), np.sum(fn * f1.conj()),
                _parity_sign(state),
            )
    return out / len(orders)


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
