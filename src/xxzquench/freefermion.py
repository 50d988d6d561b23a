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

from collections.abc import Iterator
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
    """Raise at the first point whose deviation exceeds tol (NaN included),
    in row-major order over ``deviation`` and its times ``ts``, of one shape."""
    ok = deviation <= tol
    if not ok.all():
        k = np.unravel_index(np.argmin(ok), ok.shape)
        raise NumericalFaultError(
            f"{what} {deviation[k]:.3e} beyond {tol:g} at t={float(ts[k])!r}"
        )


def check_x_series(a: np.ndarray, b: np.ndarray, c: np.ndarray, ts: np.ndarray) -> None:
    """Check that each (a, b, c) over the times ``ts`` is a density matrix.

    The four arrays share one shape: a series (T,), or a chunk (K, T) of
    K members.  The X state has unit trace 2a + 2b and eigenvalues a, a
    and b +- |c|, so it is checked that |2a + 2b - 1|, -a and |c| - b stay
    within their tolerances.  The three deviations are tested together in
    one pass; only when that fails are they checked one by one, in that
    order, so the first failing check raises, naming its first failing t
    (in a chunk, the first failing member's).  Both
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


def chunked_series(
    end_pair, chunk_points: int, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c) of a prepared quench over the times ``ts``, from its
    ``end_pair`` of each chunk of ``chunk_points`` times, so that work
    memory does not grow with the grid, and checked by
    :func:`check_x_series`."""
    ts = np.asarray(ts, dtype=float)
    abc = np.empty((3, len(ts)))
    for lo in range(0, len(ts), chunk_points):
        part = slice(lo, lo + chunk_points)
        abc[:, part] = end_pair(ts[part])
    a, b, c = abc
    check_x_series(a, b, c, ts)
    return a, b, c


def _sublattice_svd(couplings: np.ndarray) -> tuple[np.ndarray, ...]:
    """Full SVDs P diag(s) Q^T of the blocks B of the hopping matrices whose
    rows are the odd sites 1, 3, ... and whose columns are the even sites
    2, 4, ..., one per row of ``couplings`` (..., n - 1), in one batched
    call.  B holds the bonds J_1, J_3, ... on its diagonal and J_2, J_4,
    ... just below it."""
    n = couplings.shape[-1] + 1
    b = np.zeros(couplings.shape[:-1] + ((n + 1) // 2, n // 2))
    diagonal, below = np.arange(n // 2), np.arange((n - 1) // 2)
    b[..., diagonal, diagonal] = couplings[..., 0::2]
    b[..., below + 1, below] = couplings[..., 1::2]
    return np.linalg.svd(b)


class ChainStack:
    """End-site weights of the sublattice SVDs of K hopping chains from the
    Neel mixture, of any lengths: O(n) numbers per chain, kept from one
    batched O(n^3) decomposition per length.  The Neel members of an
    :class:`~xxzquench.entangle.CurveEvaluator` (a disorder ensemble, a
    block of scan sizes) are one stack; :func:`end_spin_series` evaluates
    a chain as its own stack of one (:func:`_chain`).

    The arrays are member-major.  ``two_s`` (K, width) holds the doubled
    singular values 2 s_k of B, zero-padded to the longest member, so that
    one cos row (and one sin row if a member is even) serves the stack.
    Row k of ``weights`` (K, rows, 4) maps cos(2 s_k t), and on even chains
    row m + k maps sin(2 s_k t), to the oscillating parts of the four
    end-site moments of order N2, which fills the odd sites; order N1 fills
    the even sites and sees them with the opposite sign.  ``base`` (K, 4, 2)
    holds the constant parts of both orders and ``start`` (K, 4, 2) their
    values at t = 0; ``sign`` (K, 2) the orders' parity signs and ``odd``
    (K,) n % 2.  ``groups`` holds per length its members, m = n // 2 and
    its rows of ``weights``: products run per length, as a product over
    zero-padded rows would sum in another order.  So every member's values
    come from the same operations whatever stack it is in, and agree bit
    for bit with those of its own stack of one.
    """

    def __init__(self, realizations: list[CouplingRealization]):
        n = np.array([r.n for r in realizations])
        k, width = len(n), n.max() // 2
        rows = width * (1 if np.all(n % 2) else 2)
        self._assemble(n, np.zeros((k, width)), np.zeros((k, rows, 4)),
                       np.empty((k, 4, 2)), np.zeros((k, 4, 2)), np.empty((k, 2)))
        # the arrays are filled in place, one length at a time
        for members, m, _ in self.groups:
            length = int(n[members][0])
            p, s, qt = _sublattice_svd(
                np.array([realizations[i].couplings for i in np.arange(k)[members]]))
            zero_mode = np.zeros((len(s), 4))
            if length % 2 == 1:
                # sites 1 and n are odd; column m of P is the zero mode
                first, last = p[:, 0], p[:, -1]
                ends = np.stack([first**2, last**2, first * last, np.zeros_like(first)], axis=-1)
                self.weights[members, :m] = 0.5 * ends[:, :m]
                zero_mode = ends[:, m]
            else:
                # site n is even: its row of Q is column n of Q^T
                p1, qn = p[:, 0], qt[:, :, -1]
                self.weights[members, :m, 0] = 0.5 * p1**2
                self.weights[members, :m, 1] = -0.5 * qn**2
                self.weights[members, m:2 * m, 3] = -0.5 * p1 * qn
            # cos^2 = (1 + cos 2st)/2 and sin^2 = (1 - cos 2st)/2; the rows of P
            # and Q are orthonormal, so the constant parts only need the zero mode
            constant = np.array([[1.0], [1.0], [0.0], [0.0]])
            self.base[members] = 0.5 * (constant + zero_mode[..., None] * np.array([-1.0, 1.0]))
            self.two_s[members, :m] = 2.0 * s
            occupied, self.sign[members] = _neel_components(length)
            self.start[members, :2] = occupied[::length - 1]

    def _assemble(self, n, two_s, weights, base, start, sign) -> None:
        self.n, self.two_s, self.weights = n, two_s, weights
        self.base, self.start, self.sign, self.odd = base, start, sign, n % 2 == 1
        width = two_s.shape[1]
        # trigonometric columns of a time point: cos, then sin if a member is even
        self.rows = width * (1 if self.odd.all() else 2)
        self.groups = []
        for length in sorted(set(n.tolist())):
            members = np.flatnonzero(n == length)
            if members[-1] - members[0] == len(members) - 1:
                members = slice(members[0], members[-1] + 1)
            m = length // 2
            self.groups.append((members, m, m if length % 2 else 2 * m))
        # floats per time point and member at the peak of a point-path chunk:
        # phases, trig rows, oscillating parts and moments (angle addition
        # needs fewer)
        self.chunk_points = max(1, CHUNK_BYTES // (8 * (width + self.rows + 4 + 8)))

    def __getitem__(self, members) -> ChainStack:
        """The ``members`` (a slice or an index array) as a stack of their
        own, trimmed to their longest member: its arrays, and so its
        ``chunk_points`` and series, are those of a stack built from their
        realizations."""
        n = self.n[members]
        width = n.max() // 2
        part = ChainStack.__new__(ChainStack)
        part._assemble(n, self.two_s[members, :width],
                       self.weights[members, :width * (1 if np.all(n % 2) else 2)],
                       *(x[members] for x in (self.base, self.start, self.sign)))
        return part

    def series(self, ts: np.ndarray) -> Iterator[tuple[slice, slice, tuple[np.ndarray, ...]]]:
        """(a, b, c) of every member over the shared times ``ts``, chunk by
        chunk: yields the member and time slices of a chunk and its three
        (k, t) arrays.

        A chunk holds min(T, chunk_points) times of as many members as the
        same ``chunk_points`` budget allows, so work memory stays flat in
        the grid and in the ensemble, and a grid longer than the budget is
        split in time, one member at a time.  Over members of one length a
        member's values are those of its own stack of one, bit for bit.
        """
        ts = np.asarray(ts, dtype=float)
        span = max(1, min(len(ts), self.chunk_points))
        count = self.chunk_points // span
        for lo in range(0, len(self.n), count):
            part = self if count >= len(self.n) else self[lo:lo + count]
            for t0 in range(0, len(ts), span):
                window = ts[t0:t0 + span]
                times = np.broadcast_to(window, (len(part.n), len(window)))
                moments = _end_moments(part, times)
                yield slice(lo, lo + count), slice(t0, t0 + span), _x_state(moments, part, times)

    def end_spin_at(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) of member k at time ``ts[k]``, each of shape (K,)."""
        ts = np.asarray(ts, dtype=float)[:, None]
        return tuple(x[:, 0] for x in _x_state(_end_moments(self, ts), self, ts))


def _grid_osc(chains: ChainStack, ts: np.ndarray) -> np.ndarray | None:
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
    for members, m, rows in chains.groups:
        two_s = chains.two_s[members, None, :m]
        beta = h[members, :, None] * np.arange(GRID_BLOCK)[:, None] * two_s
        basis = np.concatenate((np.cos(beta), -np.sin(beta)), axis=-1)[:, None]
        alpha = (ts[members, ::GRID_BLOCK, None] * two_s)[..., None]
        cos_a, sin_a = np.cos(alpha), np.sin(alpha)
        # [w_c cos a + w_s sin a ; w_c sin a - w_s cos a], w_s only on even chains
        w_c, w_s = chains.weights[members, None, :m], chains.weights[members, None, m:rows]
        rotated = np.concatenate((w_c * cos_a, w_c * sin_a), axis=-2)
        if w_s.shape[-2]:
            rotated += np.concatenate((w_s * sin_a, -w_s * cos_a), axis=-2)
        osc[members] = (basis @ rotated).reshape(len(two_s), -1, 4)
    return osc[:, :points]


def _end_moments(chains: ChainStack, ts: np.ndarray) -> np.ndarray:
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
        for members, m, rows in chains.groups:
            if rows == m:  # odd: the cos columns
                part = trig[members, :, :m]
            elif m == width:  # even and unpadded: cos and sin side by side
                part = trig[members]
            else:
                part = np.concatenate(
                    (trig[members, :, :m], trig[members, :, width:width + m]), axis=-1)
            osc[members] = part @ chains.weights[members, :rows]
    moments = np.empty((4, 2) + ts.shape)
    for q in range(4):
        np.subtract(chains.base[:, q, 0, None], osc[..., q], out=moments[q, 0])
        np.add(osc[..., q], chains.base[:, q, 1, None], out=moments[q, 1])
    zero = ts == 0.0
    if np.any(zero):
        np.copyto(moments, chains.start.transpose(1, 2, 0)[..., None], where=zero)
    return np.moveaxis(moments, 1, -1)


# Each entry holds O(n) numbers (5 KB at n=241).  Only the library's
# end_spin_series and end_spin_state read it, a chain at a time, so a few
# entries serve every hit; the commands' evaluators build their own stacks.
@lru_cache(maxsize=8)
def _chain(realization: CouplingRealization) -> ChainStack:
    return ChainStack([realization])


# each stack asks once per length it holds
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
    moments: np.ndarray, chains: ChainStack, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c) of the Neel mixture from the moments of ``chains``.

    ``moments`` is a (4, K, T, 2) stack from :func:`_end_moments`, one
    column per Neel order, of the K members of ``chains`` over their times
    ``ts`` (K, T).  Each component is assembled on its own column and the
    mixture is the average of the two columns, (0 + x0 + x1) / 2: the
    additions of a length-2 ``mean``, which starts from +0.0 and so turns
    a sum of two -0.0 into +0.0.  The result must pass
    :func:`check_x_series`; a failure names the first failing member's time.
    """
    occ_first, occ_last, cross_re, cross_im = moments
    # for odd chains the cross moment is real up to round-off; the
    # imaginary part is discarded after this check
    imag = np.maximum(np.abs(cross_im[..., 0]), np.abs(cross_im[..., 1]))
    _check(np.where(chains.odd[:, None], imag, 0.0), COHERENCE_IMAG_TOL,
           "coherence imaginary part", ts)
    a = (
        occ_first * occ_last
        - (cross_re**2 + cross_im**2)
        - 0.5 * (occ_first + occ_last - 1.0)
    )
    b = 0.5 - a
    c = chains.sign[:, None] * cross_re
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
    by :meth:`ChainStack.series` of the realization's stack of one,
    ``chunk_points`` at a time, so work memory does not grow with it.
    """
    ts = np.asarray(ts, dtype=float)
    a, b, c = np.empty(len(ts)), np.empty(len(ts)), np.empty(len(ts))
    for _, times, chunk in _chain(realization).series(ts):
        a[times], b[times], c[times] = (x[0] for x in chunk)
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
        p, s, qt = _sublattice_svd(np.array(realization.couplings))
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
        return chunked_series(self._end_pair, self.chunk_points, ts)
