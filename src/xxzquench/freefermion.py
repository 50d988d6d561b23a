"""Post-quench dynamics at zero anisotropy via free fermions.

At delta = 0 the planar exchange maps onto non-interacting lattice
fermions hopping on the open chain (Jordan-Wigner with string convention
c+_k = (prod_{l<k} -sigma^z_l) sigma^+_k, so a fermion sits on every
up spin).  All end-spin observables then reduce to second moments of the
single-particle propagator

    f(t) = exp(-i A t),   A_{k,k+1} = A_{k+1,k} = J_k,

which for homogeneous couplings equals the double-sine mode sum over
standing waves q_m = pi m / (n+1) with energies E_m = 2 J cos(q_m).

The reduced state of the two end spins, starting from either Neel order
or their equal mixture, is an X state with matrix elements

    rho = [[a, 0, 0, 0],
           [0, b, c, 0],
           [0, c, b, 0],
           [0, 0, 0, a]]      (basis up-up, up-down, down-up, down-down)

with 2a + 2b = 1.  Because the string between the two ends covers the
whole chain interior, the coherence c collapses to a single second
moment weighted by the conserved fermion parity, c = (-1)^(M+1)
Re<c+_n c_1>, rather than a full determinant; a follows from Wick
factorization of the pair occupation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalFaultError
from .model import CouplingRealization, NeelOrder, neel_state

# Tolerances of the X-state check both engines run on every point.
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-9
COHERENCE_IMAG_TOL = 1e-10
# Byte budget of the work arrays of one chunk of a batched time series,
# shared by both engines; peak memory then stays flat in the grid length.
CHUNK_BYTES = 1 << 20
# Real (T, n) arrays alive at the peak of a free-fermion chunk: the four
# end rows, the four site products and one temporary.
_CHUNK_ROWS = 9


@dataclass(frozen=True)
class EndSpinState:
    """X-state parameters (a, b, c) of the two end spins at time t."""

    a: float
    b: float
    c: float
    t: float

    def __post_init__(self):
        if abs(2 * self.a + 2 * self.b - 1.0) > 1e-12:
            raise NumericalFaultError(
                f"trace violated: 2a + 2b = {2 * self.a + 2 * self.b!r}"
            )
        if self.a < -POSITIVITY_TOL or self.b < -POSITIVITY_TOL:
            raise NumericalFaultError(f"negative probability: a={self.a} b={self.b}")
        if abs(self.c) > self.b + POSITIVITY_TOL:
            raise NumericalFaultError(
                f"inner block not positive semidefinite: |c|={abs(self.c)} > b={self.b}"
            )

    def matrix(self) -> np.ndarray:
        """Dense 4x4 density matrix in the (uu, ud, du, dd) basis."""
        a, b, c = self.a, self.b, self.c
        return np.array(
            [
                [a, 0.0, 0.0, 0.0],
                [0.0, b, c, 0.0],
                [0.0, c, b, 0.0],
                [0.0, 0.0, 0.0, a],
            ]
        )


def _check(deviation: np.ndarray, tol: float, what: str, ts: np.ndarray) -> None:
    """Raise at the first point whose deviation exceeds tol (NaN included)."""
    bad = ~(deviation <= tol)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericalFaultError(
            f"{what} {deviation[k]:.3e} beyond {tol:g} at t={float(ts[k])!r}"
        )


def check_x_series(a: np.ndarray, b: np.ndarray, c: np.ndarray, ts: np.ndarray) -> None:
    """Check that each (a, b, c) over the times ``ts`` is a density matrix.

    The X state has unit trace 2a + 2b and eigenvalues a, a and b +- |c|,
    so it is checked that |2a + 2b - 1|, -a and |c| - b stay within their
    tolerances; the first failing point raises, naming its t.  Both
    engines run this on every point they evaluate.
    """
    _check(np.abs(2.0 * a + 2.0 * b - 1.0), TRACE_TOL, "end-spin trace error", ts)
    _check(-a, POSITIVITY_TOL, "negative end-spin probability", ts)
    _check(np.abs(c) - b, POSITIVITY_TOL, "end-spin coherence exceeds its bound b by", ts)


class HoppingChain:
    """Eigendecomposition of the tridiagonal hopping matrix of one realization.

    Diagonalizing once costs O(n^3) and every propagator row afterwards is
    O(n^2), which is what a fine time scan wants.  The same path serves
    homogeneous and disordered couplings.
    """

    def __init__(self, realization: CouplingRealization):
        self.realization = realization
        self.n = realization.n
        a = np.zeros((self.n, self.n))
        for k, jk in enumerate(realization.couplings):
            a[k, k + 1] = jk
            a[k + 1, k] = jk
        self.energies, self.modes = np.linalg.eigh(a)
        self.chunk_points = max(1, CHUNK_BYTES // (_CHUNK_ROWS * 8 * self.n))

    def end_rows(self, ts: np.ndarray) -> np.ndarray:
        """Rows 1 and n of f(t) over ``ts`` as real parts, shape (4, T, n);
        see :func:`_end_rows`."""
        ts = np.asarray(ts, dtype=float)
        return _end_rows(self.energies[None], self.modes[None], ts[None])[:, 0]

    def end_moments(self, ts: np.ndarray, occupied: np.ndarray) -> np.ndarray:
        """End-site moments over ``ts`` for k initial states, shape (4, T, k).

        ``occupied`` is an (n, k) 0/1 matrix whose columns mark each
        state's initially occupied sites; see :func:`_end_moments`.
        """
        return _end_moments(self.end_rows(ts), occupied)


def _end_rows(energies: np.ndarray, modes: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Rows 1 and n of f(t) for K chains, each over its own T times.

    ``energies`` is (K, n), ``modes`` (K, n, n) and ``ts`` (K, T); the
    result is real, shape (4, K, T, n).  With f = C - i S the stack is
    [C_1, C_n, S_1, S_n], per chain one real product
    [cos(E t) u_1; cos(E t) u_n; sin(E t) u_1; sin(E t) u_n] @ U^T, where
    u_1 and u_n are the end rows of the mode matrix U.  Times equal to
    zero are short-circuited to exact unit rows so that t = 0
    observables are free of eigenbasis round-off.
    """
    k, n = energies.shape
    u1, un = modes[:, None, 0], modes[:, None, -1]
    phase = ts[:, :, None] * energies[:, None, :]
    w = np.empty((k, 4) + phase.shape[1:])
    np.cos(phase, out=w[:, 0])
    np.multiply(w[:, 0], un, out=w[:, 1])
    w[:, 0] *= u1
    np.sin(phase, out=phase)
    np.multiply(phase, u1, out=w[:, 2])
    np.multiply(phase, un, out=w[:, 3])
    del phase
    rows = (w.reshape(k, -1, n) @ modes.transpose(0, 2, 1)).reshape(w.shape)
    rows = rows.swapaxes(0, 1)
    zero = ts == 0.0
    if np.any(zero):
        rows[:, zero] = 0.0
        rows[0, zero, 0] = 1.0
        rows[1, zero, -1] = 1.0
    return rows


def _end_moments(rows: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    """End-site moments from a stack of end rows, shape (4, ..., k).

    The four rows are <c+_1 c_1>, <c+_n c_n> and the real and imaginary
    parts of <c+_n c_1>, each the Heisenberg-picture sum over occupied p,
    e.g. <c+_n c_1> = sum_p f_{n,p} conj(f_{1,p}).
    """
    c1, cn, s1, sn = rows
    site = np.empty(rows.shape)
    np.multiply(c1, c1, out=site[0])
    site[0] += s1 * s1
    np.multiply(cn, cn, out=site[1])
    site[1] += sn * sn
    np.multiply(cn, c1, out=site[2])
    site[2] += sn * s1
    np.multiply(cn, s1, out=site[3])
    site[3] -= sn * c1
    return site @ occupied


class ChainStack:
    """Hopping chains of one length from the Neel mixture, evaluated
    together at one time each.

    The eigenbases are stacked, so the end-spin state of K chains at K
    different times is one (K, 4, n) @ (K, n, n) product rather than K
    calls.  Every member's value is computed by the same operations as
    :func:`end_spin_series` at that single time, so the two agree bit for
    bit, and it passes the same checks.
    """

    def __init__(self, chains: list[HoppingChain]):
        self.energies = np.stack([c.energies for c in chains])
        self.modes = np.stack([c.modes for c in chains])
        self.n = chains[0].n

    def end_spin_at(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) of chain k at time ``ts[k]``, each of shape (K,)."""
        ts = np.asarray(ts, dtype=float)
        occupied, _ = _neel_components(self.n)
        moments = _end_moments(_end_rows(self.energies, self.modes, ts[:, None]), occupied)
        return _x_state(moments[:, :, 0], self.n, ts)


def eigenbasis_bytes(n: int) -> int:
    """Bytes of the eigenbasis one n-site chain keeps: energies and modes."""
    return 8 * n * (n + 1)


# Each entry holds an n x n eigenbasis (0.5 MB at n=241); callers work
# through one realization at a time, so a few entries serve every hit.
@lru_cache(maxsize=8)
def _chain(realization: CouplingRealization) -> HoppingChain:
    return HoppingChain(realization)


# a disorder ensemble asks for the same few n once per evaluation
@lru_cache(maxsize=16)
def _neel_components(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupied columns and parity signs (-1)^(M+1) of the two Neel orders,
    read-only because they are shared between calls.

    Column k of the (n, 2) 0/1 matrix marks the initially occupied (up)
    sites of order N1 (k = 0) or N2 (k = 1).
    """
    states = [neel_state(order, n) for order in (NeelOrder.N1, NeelOrder.N2)]
    occupied = np.zeros((n, len(states)))
    for k, state in enumerate(states):
        occupied[np.asarray(state.up_sites) - 1, k] = 1.0
    sign = np.array([1.0 if s.m_up % 2 == 1 else -1.0 for s in states])
    occupied.flags.writeable = False
    sign.flags.writeable = False
    return occupied, sign


def _x_state(
    moments: np.ndarray, n: int, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c) of the Neel mixture of an n-site chain from its moments.

    ``moments`` is a (4, T, 2) stack from :func:`_end_moments`, one column
    per Neel order, evaluated at the T times ``ts``.  Each component is
    assembled on its own and the mixture is their element-wise average;
    the result must pass :func:`check_x_series`.
    """
    occ_first, occ_last, cross_re, cross_im = moments
    if n % 2 == 1:
        # for odd chains the cross moment is real up to round-off; the
        # imaginary part is discarded after this check
        _check(
            np.max(np.abs(cross_im), axis=-1), COHERENCE_IMAG_TOL,
            "coherence imaginary part", ts,
        )
    a = (
        occ_first * occ_last
        - (cross_re**2 + cross_im**2)
        - 0.5 * (occ_first + occ_last - 1.0)
    )
    b = 0.5 - a
    c = _neel_components(n)[1] * cross_re
    a, b, c = a.mean(axis=-1), b.mean(axis=-1), c.mean(axis=-1)
    check_x_series(a, b, c, ts)
    return a, b, c


def end_spin_series(
    realization: CouplingRealization, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c) of the end-spin X state over a time grid.

    The mixture is the element-wise average of the two Neel components.
    By the global spin-flip symmetry the components coincide, but both are
    computed explicitly, from their own occupied sites, and the agreement
    is left to the test suite rather than assumed.  The grid is evaluated
    ``chunk_points`` at a time, so work memory does not grow with it.
    """
    ts = np.asarray(ts, dtype=float)
    chain = _chain(realization)
    occupied, _ = _neel_components(realization.n)
    a, b, c = np.empty(len(ts)), np.empty(len(ts)), np.empty(len(ts))
    for lo in range(0, len(ts), chain.chunk_points):
        part = slice(lo, lo + chain.chunk_points)
        a[part], b[part], c[part] = _x_state(
            chain.end_moments(ts[part], occupied), realization.n, ts[part]
        )
    return a, b, c


def end_spin_state(realization: CouplingRealization, t: float) -> EndSpinState:
    """End-spin X state at a single time; see :func:`end_spin_series`."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    a, b, c = end_spin_series(realization, np.array([t], dtype=float))
    return EndSpinState(a=float(a[0]), b=float(b[0]), c=float(c[0]), t=float(t))
