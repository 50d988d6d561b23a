"""Post-quench dynamics at zero anisotropy via free fermions.

At delta = 0 the planar exchange maps onto non-interacting lattice
fermions hopping on the open chain (Jordan-Wigner with string convention
c+_k = (prod_{l<k} -sigma^z_l) sigma^+_k, so a fermion sits on every
up spin).  All end-spin observables then reduce to second moments of the
single-particle propagator

    f(t) = exp(-i A t),   A_{k,k+1} = A_{k+1,k} = J_k.

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

The open chain is bipartite (Lieb, Schultz & Mattis 1961): A only couples
odd sites to even sites, A = [[0, B], [B^T, 0]] over (odd, even), and each
Neel order fills exactly one sublattice.  With the full SVD
B = P diag(s) Q^T, cos(At) keeps each sublattice (P cos(st) P^T and
Q cos(st) Q^T) and sin(At) swaps them (P sin(st) Q^T), so orthogonality
collapses every end-site moment to one sum over modes, e.g.
<c+_1 c_1> = sum_k P_1k^2 cos^2(s_k t) for the order on the odd sites.
A time point then costs O(n): one cos(2st) row, plus sin(2st) on even
chains, times a fixed (modes x 4) weight matrix; uniform grids get those
rows by angle addition (:func:`_grid_osc`).  By the same supports Im<c+_n c_1>
= 0 on odd chains and Re<c+_n c_1> = 0, hence c = 0, on even ones.

The same propagator carries any other start: from a ground multiplet of
finite delta1, :class:`CorrelatorQuench` contracts rows 1 and n of f(t)
with the start's two- and four-point correlators, which the Neel orders
Wick-factorize into the closed form above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalFaultError
from .model import CouplingRealization, NeelOrder, neel_state

# Tolerances of the X-state check both engines run on every point.
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-9
COHERENCE_IMAG_TOL = 1e-10
# Byte budget of the work arrays of one chunk of a batched time series,
# shared by both engines; peak memory then stays flat in the grid length.
CHUNK_BYTES = 1 << 20
# Largest distance of a correlator's summed occupation from its up-spin count
OCCUPATION_TOL = 1e-10
# Sub-block length of a uniform grid, and its tolerance in ulps of its largest time
GRID_BLOCK, GRID_ULPS = 32, 4


@dataclass(frozen=True)
class EndSpinState:
    """X-state parameters (a, b, c) of the two end spins at time t, checked
    as one point by :func:`check_x_series`, the rule every point of a
    series passes; NaN fails it."""

    a: float
    b: float
    c: float
    t: float

    def __post_init__(self):
        check_x_series(*np.array([[self.a], [self.b], [self.c], [self.t]], dtype=float))


def _check(deviation: np.ndarray, tol: float, what: str, ts: np.ndarray) -> None:
    """Raise at the first point whose deviation exceeds tol (NaN included)."""
    ok = deviation <= tol
    if not ok.all():
        k = int(np.argmin(ok))
        raise NumericalFaultError(
            f"{what} {deviation[k]:.3e} beyond {tol:g} at t={float(ts[k])!r}"
        )


def check_x_series(a: np.ndarray, b: np.ndarray, c: np.ndarray, ts: np.ndarray) -> None:
    """Check that each (a, b, c) over the times ``ts`` is a density matrix.

    The X state has unit trace 2a + 2b and eigenvalues a, a and b +- |c|,
    so it is checked that |2a + 2b - 1|, -a and |c| - b stay within their
    tolerances.  The three deviations are tested together in one pass;
    only when that fails are they checked one by one, in that order, so
    the first failing check raises, naming its first failing t.  Both
    engines run this on every point they evaluate, and
    :class:`EndSpinState` on its one point.
    """
    trace = np.abs(2.0 * a + 2.0 * b - 1.0)
    excess = np.abs(c) - b
    if ((trace <= TRACE_TOL) & (-a <= POSITIVITY_TOL) & (excess <= POSITIVITY_TOL)).all():
        return
    _check(trace, TRACE_TOL, "end-spin trace error", ts)
    _check(-a, POSITIVITY_TOL, "negative end-spin probability", ts)
    _check(excess, POSITIVITY_TOL, "end-spin coherence exceeds its bound b by", ts)


def _sublattice_svd(realization: CouplingRealization) -> tuple[np.ndarray, ...]:
    """Full SVD P diag(s) Q^T of the block B of the hopping matrix whose rows
    are the odd sites 1, 3, ... and whose columns are the even sites 2, 4, ..."""
    a = np.diag(realization.couplings, 1) + np.diag(realization.couplings, -1)
    return np.linalg.svd(a[0::2, 1::2])


class HoppingChain:
    """End-site weights of the sublattice SVD of one realization's hopping
    matrix: O(n) numbers, kept from one O(n^3) decomposition.

    The arrays carry a leading axis of one chain, so that a chain is a
    :class:`ChainStack` of one.  ``two_s`` (1, m) holds the doubled
    singular values 2 s_k of B.  Row k of ``weights`` (1, rows, 4) maps
    cos(2 s_k t), and on even chains in the second half of the rows
    sin(2 s_k t), to the oscillating parts of the four end-site moments
    of order N2, which fills the odd sites; order N1 fills the even sites
    and sees them with the opposite sign.  ``base`` (1, 4, 2) holds the
    constant parts of both orders and ``start`` (1, 4, 2) their values at
    t = 0; ``sign`` (1, 2) the orders' parity signs, ``odd`` (1,) n % 2,
    and ``rows`` the number of trigonometric columns a time point needs.
    """

    def __init__(self, realization: CouplingRealization):
        n = self.n = realization.n
        p, s, qt = _sublattice_svd(realization)
        m = len(s)
        zero_mode = np.zeros(4)
        if n % 2 == 1:
            # sites 1 and n are odd; column m of P is the zero mode
            ends = np.stack([p[0] ** 2, p[-1] ** 2, p[0] * p[-1], np.zeros(m + 1)], axis=1)
            weights = 0.5 * ends[:m]
            zero_mode = ends[m]
        else:
            # site n is even: its row of Q is column n of Q^T
            p1, qn = p[0], qt[:, -1]
            weights = np.zeros((2 * m, 4))
            weights[:m, 0] = 0.5 * p1**2
            weights[:m, 1] = -0.5 * qn**2
            weights[m:, 3] = -0.5 * p1 * qn
        # cos^2 = (1 + cos 2st)/2 and sin^2 = (1 - cos 2st)/2; the rows of P
        # and Q are orthonormal, so the constant parts only need the zero mode
        base = 0.5 * (np.array([[1.0], [1.0], [0.0], [0.0]]) + np.outer(zero_mode, (-1.0, 1.0)))
        self.two_s, self.weights, self.base = 2.0 * s[None], weights[None], base[None]
        occupied, sign = _neel_components(n)
        self.start = np.zeros((1, 4, 2))
        self.start[0, :2] = occupied[::n - 1]
        self.sign, self.odd = sign[None], np.array([n % 2 == 1])
        self.rows, self.groups = len(weights), ((slice(None), m, self.weights),)
        # floats per time point at the peak of a point-path chunk: phases, trig
        # rows, oscillating parts and moments (angle addition needs fewer)
        self.chunk_points = max(1, CHUNK_BYTES // (8 * (m + len(weights) + 4 + 8)))


def _grid_osc(chains: HoppingChain | ChainStack, ts: np.ndarray) -> np.ndarray | None:
    """Oscillating parts (K, T, 4) by angle addition, or None unless each
    row has at least 2 GRID_BLOCK points that lie within GRID_ULPS ulps of
    its largest time of ts[0] + h j.  Each sub-block of GRID_BLOCK points
    rotates the weights by alpha = 2s tau at its actual start time tau, and
    one basis [cos 2sjh | -sin 2sjh] over the offsets serves them all."""
    points = ts.shape[-1]
    if points < 2 * GRID_BLOCK:
        return None
    h = (ts[:, -1:] - ts[:, :1]) / (points - 1)
    drift = np.abs(ts - (ts[:, :1] + h * np.arange(points)))
    if not np.all(drift <= GRID_ULPS * np.spacing(np.abs(ts).max(axis=-1, keepdims=True))):
        return None
    osc = np.empty((len(ts), -(-points // GRID_BLOCK) * GRID_BLOCK, 4))
    for members, m, weights in chains.groups:
        two_s = chains.two_s[members, None, :m]
        beta = h[members, :, None] * np.arange(GRID_BLOCK)[:, None] * two_s
        basis = np.concatenate((np.cos(beta), -np.sin(beta)), axis=-1)[:, None]
        alpha = (ts[members, ::GRID_BLOCK, None] * two_s)[..., None]
        cos_a, sin_a = np.cos(alpha), np.sin(alpha)
        # [w_c cos a + w_s sin a ; w_c sin a - w_s cos a], w_s only on even chains
        w_c, w_s = weights[:, None, :m], weights[:, None, m:]
        rotated = np.concatenate((w_c * cos_a, w_c * sin_a), axis=-2)
        if w_s.shape[-2]:
            rotated += np.concatenate((w_s * sin_a, -w_s * cos_a), axis=-2)
        osc[members] = (basis @ rotated).reshape(len(two_s), -1, 4)
    return osc[:, :points]


def _end_moments(chains: HoppingChain | ChainStack, ts: np.ndarray) -> np.ndarray:
    """End-site moments of both Neel orders for K chains, each over its own
    T times ``ts`` (K, T); shape (4, K, T, 2).

    The rows are <c+_1 c_1>, <c+_n c_n> and the real and imaginary parts
    of <c+_n c_1>; column 0 is order N1 and column 1 order N2.  Uniform
    grids take :func:`_grid_osc`; other times (single points, the lockstep
    refinement) one (T, rows) @ (rows, 4) product per length, batched over
    its chains, of a cos(2st) row (and sin) per point.  The oscillating
    parts enter order N1 with a minus sign; the padding of ``two_s`` is
    never read.  The moments are stored order-major, (4, 2, K, T), so that
    each order's row is contiguous, and returned as a view with the order
    axis last.  Times equal to zero are set exactly to the initially
    occupied sites, free of round-off.
    """
    osc = _grid_osc(chains, ts)
    if osc is None:
        width = chains.two_s.shape[-1]
        phase = ts[..., None] * chains.two_s[:, None, :]
        trig = np.empty(phase.shape[:-1] + (chains.rows,))
        np.cos(phase, out=trig[..., :width])
        if chains.rows > width:
            np.sin(phase, out=trig[..., width:])
        del phase
        osc = np.empty(ts.shape + (4,))
        for members, m, weights in chains.groups:
            if weights.shape[-2] == m:  # odd: the cos columns
                part = trig[members, :, :m]
            elif m == width:  # even and unpadded: cos and sin side by side
                part = trig[members]
            else:
                part = np.concatenate(
                    (trig[members, :, :m], trig[members, :, width:width + m]), axis=-1)
            osc[members] = part @ weights
    moments = np.empty((4, 2) + ts.shape)
    for q in range(4):
        np.subtract(chains.base[:, q, 0, None], osc[..., q], out=moments[q, 0])
        np.add(osc[..., q], chains.base[:, q, 1, None], out=moments[q, 1])
    zero = ts == 0.0
    if np.any(zero):
        np.copyto(moments, chains.start.transpose(1, 2, 0)[..., None], where=zero)
    return np.moveaxis(moments, 1, -1)


class ChainStack:
    """Hopping chains from the Neel mixture, of any lengths, evaluated
    together at one time each.

    ``two_s`` is zero-padded to the longest member, so one cos (and one
    sin if a member is even) serves the stack.  The weights are stacked
    per length, one (k, 1, rows) @ (k, rows, 4) product each: a product
    over zero-padded rows would sum in another order.  Every member's
    value is computed by the same operations as :func:`end_spin_series`
    at that single time, so the two agree bit for bit, and it passes the
    same checks.
    """

    def __init__(self, chains: list[HoppingChain]):
        self.n = np.array([c.n for c in chains])
        self.base, self.start, self.sign, self.odd = (
            np.concatenate([getattr(c, key) for c in chains])
            for key in ("base", "start", "sign", "odd")
        )
        self.two_s = np.zeros((len(chains), self.n.max() // 2))
        self.rows = self.two_s.shape[1] * (1 if self.odd.all() else 2)
        self.groups = []
        for n in sorted({c.n for c in chains}):
            members = np.flatnonzero(self.n == n)
            group = [chains[k] for k in members]
            if members[-1] - members[0] == len(members) - 1:
                members = slice(members[0], members[-1] + 1)
            self.two_s[members, :n // 2] = np.concatenate([c.two_s for c in group])
            self.groups.append((members, n // 2, np.concatenate([c.weights for c in group])))

    def end_spin_at(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) of chain k at time ``ts[k]``, each of shape (K,)."""
        ts = np.asarray(ts, dtype=float)
        return _x_state(_end_moments(self, ts[:, None])[:, :, 0], self, ts)


# Each entry holds O(n) numbers (5 KB at n=241); callers work through one
# realization at a time, so a few entries serve every hit.
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
    moments: np.ndarray, chains: HoppingChain | ChainStack, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c) of the Neel mixture from the moments of ``chains``.

    ``moments`` is a (4, P, 2) stack from :func:`_end_moments`, one column
    per Neel order, at the P times ``ts``: P points of one chain, or one of
    each of P stacked chains, whose parity signs and odd flags broadcast
    against them.  Each component is assembled on its own column and the
    mixture is the average of the two columns, (0 + x0 + x1) / 2: the
    additions of a length-2 ``mean``, which starts from +0.0 and so turns
    a sum of two -0.0 into +0.0.  The result must pass
    :func:`check_x_series`.
    """
    occ_first, occ_last, cross_re, cross_im = moments
    # for odd chains the cross moment is real up to round-off; the
    # imaginary part is discarded after this check
    imag = np.maximum(np.abs(cross_im[..., 0]), np.abs(cross_im[..., 1]))
    _check(np.where(chains.odd, imag, 0.0), COHERENCE_IMAG_TOL, "coherence imaginary part", ts)
    a = (
        occ_first * occ_last
        - (cross_re**2 + cross_im**2)
        - 0.5 * (occ_first + occ_last - 1.0)
    )
    b = 0.5 - a
    c = chains.sign * cross_re
    a, b, c = [(0.0 + x[..., 0] + x[..., 1]) / 2 for x in (a, b, c)]
    check_x_series(a, b, c, ts)
    return a, b, c


def end_spin_series(
    realization: CouplingRealization, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c) of the end-spin X state over a time grid.

    The mixture is the element-wise average of the two Neel components.
    By the global spin-flip symmetry the components coincide, but both are
    computed explicitly, each from the sublattice it fills, and the agreement
    is left to the test suite rather than assumed.  The grid is evaluated
    ``chunk_points`` at a time, so work memory does not grow with it.
    """
    ts = np.asarray(ts, dtype=float)
    chain = _chain(realization)
    a, b, c = np.empty(len(ts)), np.empty(len(ts)), np.empty(len(ts))
    for lo in range(0, len(ts), chain.chunk_points):
        part = slice(lo, lo + chain.chunk_points)
        a[part], b[part], c[part] = _x_state(
            _end_moments(chain, ts[None, part])[:, 0], chain, ts[part]
        )
    return a, b, c


def end_spin_state(realization: CouplingRealization, t: float) -> EndSpinState:
    """End-spin X state at a single time; see :func:`end_spin_series`."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    a, b, c = end_spin_series(realization, np.array([t], dtype=float))
    return EndSpinState(a=float(a[0]), b=float(b[0]), c=float(c[0]), t=float(t))


class CorrelatorQuench:
    """Prepared quench to delta2 = 0 from any flip-closed start, such as a
    ground multiplet of finite delta1, given by its correlators.

    After the quench the fermions hop freely whatever the state,
    c_i(t) = sum_j f_ij(t) c_j with f = exp(-iAt) (Barouch and McCoy,
    Phys. Rev. A 3, 786 (1971)).  So each flip representative of sector M
    needs only G2[j, k] = <c+_j c_k> and G4, the Gram matrix of the
    vectors c_l c_m psi over the site pairs l < m (in
    ``itertools.combinations`` order), with rows 1 and n of f:

    - <n_1> and <n_n> contract G2 with a row of f on both sides, and the
      coherence is (-1)^(M+1) Re<c+_1 c_n>, as for the Neel orders;
    - <n_1 n_n> = ||c_n(t) c_1(t) psi||^2 = g^H G4 g with
      g_lm = f_nl f_1m - f_nm f_1l.

    The flip partner's share equals the representative's, so
    a = (1 - <n_1> - <n_n>)/2 + <n_1 n_n> and b = 1/2 - a.  All of it is
    linear in the correlators, which are summed once with the orbit
    weights, so a point costs O(n^4) whatever the sector's dimension.
    The rows of f come from the sublattice SVD: cos(At) keeps each
    sublattice and sin(At) swaps them, so f_e(t) is [cos st | sin st]
    times a fixed (2m x n) kernel, plus the zero mode of odd chains.
    Each correlator's summed occupation must be M within OCCUPATION_TOL,
    and every point passes :func:`check_x_series`.
    """

    def __init__(self, realization: CouplingRealization, correlators):
        n = realization.n
        p, s, qt = _sublattice_svd(realization)
        m = len(s)
        modes = np.empty((n, m))  # mode k of B: P on the odd sites, Q on the even ones
        modes[0::2], modes[1::2] = p[:, :m], qt[:m].T
        ends = [0, n - 1]
        same = (np.arange(n) % 2 == np.array(ends)[:, None] % 2)[:, None]
        w = modes[ends, :, None] * modes.T  # (end, mode, site)
        kernel = np.concatenate([np.where(same, w, 0.0), np.where(same, 0.0, -1j * w)], axis=1)
        zero = np.zeros((2, n))
        if n % 2:
            zero[:, 0::2] = np.outer(p[[0, -1], m], p[:, m])  # both ends are odd sites
        self.s, self.zero = s, zero.ravel()
        self.kernel = kernel.transpose(1, 0, 2).reshape(2 * m, 2 * n)
        # summed G2 for the occupations, and signed by (-1)^(M+1) for the coherence
        self.g2, self.g4 = np.zeros((2, n, n)), 0.0
        for weight, m_up, g2, g4 in correlators:
            drift = abs(np.trace(g2) - m_up)
            if not drift <= OCCUPATION_TOL:
                raise NumericalFaultError(
                    f"occupations of a sector-{m_up} component sum to M only within "
                    f"{drift:.3e}, beyond {OCCUPATION_TOL:g}"
                )
            self.g2 += weight * np.stack([g2, (-1.0) ** (m_up + 1) * g2])
            self.g4 = self.g4 + weight * g4
        self.pairs = np.triu_indices(n, 1)
        # floats per time point at the peak of a chunk: trig rows, f, the
        # contracted two-point rows and the pair coefficients g
        self.chunk_points = max(1, CHUNK_BYTES // (8 * (10 * len(self.pairs[0]) + 32 * n)))

    def _end_pair(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        phase = ts[:, None] * self.s
        f = np.concatenate([np.cos(phase), np.sin(phase)], axis=1) @ self.kernel + self.zero
        first, last = f.reshape(len(ts), 2, -1).transpose(1, 0, 2)
        left, right = np.stack([first, last, first]).conj(), np.stack([first, last, last])
        occ_first, occ_last, c = ((left @ self.g2[[0, 0, 1]]) * right).real.sum(axis=-1)
        lo, hi = self.pairs
        g = last[:, lo] * first[:, hi] - last[:, hi] * first[:, lo]
        parts = np.concatenate([g.real, g.imag])
        both = np.einsum("ij,ij->i", parts @ self.g4, parts)
        both = both[: len(ts)] + both[len(ts):]
        a = 0.5 * (1.0 - occ_first - occ_last) + both
        return a, 0.5 - a, c

    def end_spin_series(
        self, ts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) over the times ``ts``, ``chunk_points`` at a time."""
        ts = np.asarray(ts, dtype=float)
        abc = np.empty((3, len(ts)))
        for lo in range(0, len(ts), self.chunk_points):
            part = slice(lo, lo + self.chunk_points)
            abc[:, part] = self._end_pair(ts[part])
        a, b, c = abc
        check_x_series(a, b, c, ts)
        return a, b, c
