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
Only s and the rows of sites 1 and n are needed: a uniform chain takes
them in closed form from its standing waves (:func:`_end_modes`), any
other chain from LAPACK's SVD of B.
A time point then costs O(n): one cos(2st) row, plus sin(2st) on even
chains, and a row of ones, under a fixed (4 x rows) weight matrix whose
last column holds the constant parts; uniform grids get those rows by
angle addition (:func:`_grid_rows`).  By the same supports Im<c+_n c_1>
= 0 on odd chains and Re<c+_n c_1> = 0, hence c = 0, on even ones.

Because the two Neel orders fill complementary sublattices, their
one-particle correlations satisfy G_N1(t) = 1 - G_N2(t): N1's end moments
are (1 - <n_1>, 1 - <n_n>, -Re, -Im) of N2's, so a is the same, and on
odd chains, where the orders' parity signs are opposite, so is c.  The
mixture's X state is therefore order N2's, and only N2 is evaluated.

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
from .model import CouplingRealization

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
    in row-major order over ``deviation`` and its times ``ts``, which
    broadcast to its shape."""
    ok = deviation <= tol
    if not ok.all():
        k = np.unravel_index(np.argmin(ok), ok.shape)
        t = np.broadcast_to(ts, ok.shape)[k]
        raise NumericalFaultError(f"{what} {deviation[k]:.3e} beyond {tol:g} at t={float(t)!r}")


def _check_phases(rate: float, ts: np.ndarray) -> None:
    """Refuse times ``ts`` at which a phase of frequency up to ``rate``
    reaches 2^52 rad, whose ulp is 1 rad, or overflows, before any product
    is taken; NaN times pass to the checks."""
    t = float(np.abs(ts).max(initial=0.0))
    if rate * t >= 2.0**52:
        raise NumericalFaultError(
            f"evolution phases overflow their digits: frequencies up to {rate:.3e} at times "
            f"up to {t:.3e} reach {rate * t:.3e} rad, beyond 2^52")


def check_x_series(a: np.ndarray, b: np.ndarray, c: np.ndarray, ts: np.ndarray) -> None:
    """Check that each (a, b, c) over the times ``ts`` is a density matrix.

    The three arrays share one shape: a series (T,), or a chunk (K, T) of
    K members, whose times ``ts`` broadcast to it.  The X state has unit
    trace 2a + 2b and eigenvalues a, a and b +- |c|, so it is checked that
    |2a + 2b - 1|, -a and |c| - b stay within their tolerances.  The three
    deviations are tested together in one pass; only when that fails are
    they checked one by one, in that order, so the first failing check
    raises, naming its first failing t (in a chunk, the first failing
    member's).  Both engines run this on every point they evaluate, and
    :class:`EndSpinState` on its one point.
    """
    trace = np.abs(2.0 * a + 2.0 * b - 1.0)
    excess = np.abs(c) - b
    if ((trace <= TRACE_TOL) & (-a <= POSITIVITY_TOL) & (excess <= POSITIVITY_TOL)).all():
        return
    _check(trace, TRACE_TOL, "end-spin trace error", ts)
    _check(-a, POSITIVITY_TOL, "negative end-spin probability", ts)
    _check(excess, POSITIVITY_TOL, "end-spin coherence exceeds its bound b by", ts)


class OneChainQuench:
    """A prepared quench of one chain with the interface of a
    :class:`ChainStack` of one member.  A subclass gives ``chunk_points``
    and the rows (a, b, c) of a chunk of times, ``_end_pair``."""

    def end_spin_series(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) over the times ``ts``, chunk by chunk, so that work
        memory does not grow with the grid, checked by :func:`check_x_series`."""
        ts = np.asarray(ts, dtype=float)
        abc = np.empty((3, len(ts)))
        for lo in range(0, len(ts), self.chunk_points):
            part = slice(lo, lo + self.chunk_points)
            abc[:, part] = self._end_pair(ts[part])
        a, b, c = abc
        check_x_series(a, b, c, ts)
        return a, b, c

    def series(self, ts: np.ndarray) -> Iterator[tuple[int, slice, tuple[np.ndarray, ...]]]:
        """(member 0, times, (a, b, c)) of each chunk of ``ts`` in turn."""
        for lo in range(0, len(ts), self.chunk_points):
            times = slice(lo, lo + self.chunk_points)
            yield 0, times, self.end_spin_series(ts[times])

    def end_spin_at(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) of the one member at the time ``ts[0]``, each (1,)."""
        return self.end_spin_series(ts)

    def __getitem__(self, members) -> OneChainQuench:
        """Member 0 alone, which is the quench itself."""
        if np.arange(1)[members].tolist() != [0]:
            raise IndexError(f"a quench of one chain has member 0 alone, not {members!r}")
        return self


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


def _svd_batch(n: int) -> int:
    """Chains of length n per SVD batch of :func:`_end_modes`: as many as
    keep a batch's blocks, P and Q^T, 3 ((n + 1) // 2)^2 doubles per chain,
    within CHUNK_BYTES, and at least one."""
    return max(1, CHUNK_BYTES // (24 * ((n + 1) // 2) ** 2))


def _end_modes(bonds: list, n: np.ndarray, member: np.ndarray, mode: np.ndarray) -> tuple:
    """Doubled singular values 2 s of the sublattice blocks of K chains of
    the lengths ``n`` (K,), one bond sequence each in ``bonds``, and the
    rows of their modes at sites 1 and n, flat over the (``member``,
    ``mode``) pairs of every member's m = n // 2 modes in turn, each
    member's in descending order of s: (F,) arrays, F = sum(m).  Also the
    zero mode's rows at sites 1 and n, (2, K), 0 on even chains.  Row 1 is
    P's; row n is P's on odd chains and Q's on even ones.

    A chain whose bonds all equal J has the standing waves of the uniform
    open chain (Lieb, Schultz & Mattis 1961), taken for every length at
    once in O(F): s_k = 2|J| cos(pi k/(n + 1)), and mode k is (2/sqrt(n +
    1)) sin(pi k j/(n + 1)) at site j, on Q's sites times the sign of J
    (+-1 even at J = +-0.0); the zero mode is sqrt(2/(n + 1)) sin(pi j/2).
    Every other chain takes the batched SVD of :func:`_sublattice_svd`, in
    batches of :func:`_svd_batch` chains of one length, so the set-up holds
    one batch's O(n^2) at a time.  The path is chosen per chain, and a
    chain's values come from elementwise operations or from its own SVD,
    which gives the same bits in a batch of any size, so they are those of
    a stack of its own."""
    # NaN equals nothing, in the tuple's count as in numpy
    uniform = np.array([c[0] == c[0] and c.count(c[0]) == len(c) for c in bonds], dtype=bool)
    two_s, first, last = np.empty((3, len(member)))
    zero = np.zeros((2, len(n)))
    for length in sorted(set(n[~uniform].tolist())):
        every, m, batch = np.flatnonzero(~uniform & (n == length)), length // 2, _svd_batch(length)
        for lo in range(0, len(every), batch):
            chains = every[lo:lo + batch]
            p, s, qt = _sublattice_svd(np.array([bonds[k] for k in chains.tolist()]))
            at = np.searchsorted(member, chains)[:, None] + np.arange(m)
            two_s[at], first[at] = 2.0 * s, p[:, 0, :m]
            last[at] = p[:, -1, :m] if length % 2 else qt[:, :, -1]
            if length % 2:  # column m of P is the zero mode
                zero[:, chains] = p[:, [0, -1], m].T
            del p, s, qt  # freed before the next batch
    closed = uniform[member]
    n_k, k = n[member[closed]], mode[closed] + 1
    j = np.array([c[0] for c in bonds], dtype=float)[member[closed]]
    # cos(pi k/(n + 1)) as the sine of its complement, accurate near the band centre
    cos = np.sin(np.pi * (n_k + 1 - 2 * k) / (2 * (n_k + 1)))
    two_s[closed] = 4.0 * np.abs(j) * cos
    wave = 2.0 / np.sqrt(n_k + 1) * np.sin(np.pi * k / (n_k + 1))
    first[closed] = wave
    # site n: sin(pi k n/(n + 1)) = (-1)^(k + 1) sin(pi k/(n + 1)), times the
    # sign of J on Q's sites
    last[closed] = np.where(k % 2, wave, -wave) * np.where(n_k % 2, 1.0, np.copysign(1.0, j))
    odd = uniform & (n % 2 == 1)
    root = np.sqrt(2.0 / (n[odd] + 1))
    zero[0, odd], zero[1, odd] = root, np.where(n[odd] // 2 % 2, -root, root)
    return two_s, first, last, zero


def stack_bytes(n: int, members: int = 1, uniform: bool = False) -> int:
    """Estimated peak bytes of drawing and building a :class:`ChainStack` of
    ``members`` chains of length n.  Every chain holds O(n) numbers, its
    bonds, flat modes and weights, and its Python objects: traced, the
    set-up of 2,000 chains peaked at 51-58 doubles per chain at n = 2 and
    3, and at 7-10 n per chain besides the SVD batch from n = 31 up (n =
    401 to 40,001 for uniform ones), which 16 n + 64 covers; a block of
    the 1,000 sizes 3..2,001, charged 245 MiB as 1,000 chains of
    n = 2,001, peaked at 70 MiB.  A chain that is not uniform also takes
    the batched SVD of :func:`_end_modes`, one batch of :func:`_svd_batch`
    chains at a time: the batch's blocks, P and Q^T, 3 (n // 2)^2 doubles
    per chain, and LAPACK's workspace, 6-7 (n // 2)^2 more.  The growth of
    ru_maxrss of a build in a fresh process, at n = 801, 1,601, 2,001 and
    3,201 for K = 1 to 8 (a chain per batch), was 8.1-9.8 of these units
    whatever K, which 3 per chain of a batch plus 8 covers."""
    flat = 8 * members * (16 * n + 64)
    if uniform:
        return flat
    return flat + 8 * (3 * min(members, _svd_batch(n)) + 8) * (n // 2) ** 2


class ChainStack:
    """End-site weights of the sublattice SVDs of K hopping chains from the
    Neel mixture, of any lengths: O(n) numbers per chain, from
    :func:`_end_modes`, a closed form for a uniform chain and batched
    O(n^3) SVDs, a few chains of one length at a time, for the others.  The Neel members of an
    :class:`~xxzquench.entangle.CurveEvaluator` (a disorder ensemble, a
    block of scan sizes) are one stack; :func:`end_spin_series` evaluates
    a chain as its own stack of one (:func:`_chain`).

    The stack holds order N2, which fills the odd sites: the mixture's X
    state is that of either order (see :func:`_x_state`).  The arrays are
    member-major.  ``two_s`` (K, width) holds the doubled singular values
    2 s_k of B, zero-padded to the longest member.  Row q of ``weights``
    (K, 4, 1 + rows) maps a member's trig rows to end-site moment q:
    column k weighs cos(2 s_k t), on even chains column m + k weighs
    sin(2 s_k t), and the column after them, m or 2m, holds the constant
    part, which the products take against a row of ones.  ``start``
    (K, 4) holds the moments at t = 0, ``sign`` (K,) the parity sign
    (-1)^(M+1) and ``odd`` (K,) n % 2.

    Whatever does not depend on the length takes one vectorized pass over
    the whole stack: the set-up (the closed forms, the weights, ``start``
    and ``sign``, over flat (member, mode) index arrays), the cos rows of
    the point path (:func:`_point_rows`) and a sub-stack's slices.  What
    still runs per length is the SVD batches of the chains that are not
    uniform, and per run of equal consecutive lengths, ``groups``, the sin
    rows of even chains, the grid path's rows (:func:`_grid_rows`) and
    every product of trig rows with weights: a product over zero-padded
    rows would sum in another order.  ``groups`` holds each run's members
    (a slice), m = n // 2 and its trig rows.  So every member's values
    come from the same operations whatever stack it is in, and agree bit
    for bit with those of its own stack of one.
    """

    def __init__(self, realizations: list[CouplingRealization]):
        bonds = [r.couplings for r in realizations]
        n = np.array([len(c) + 1 for c in bonds])
        k, m, odd = len(n), n // 2, n % 2 == 1
        # every member's modes in turn, as flat (member, mode) pairs
        member = np.repeat(np.arange(k), m)
        mode = np.arange(len(member)) - (np.cumsum(m) - m)[member]
        two_s, first, last, zero = _end_modes(bonds, n, member, mode)
        ends = np.where(odd, m, 2 * m)  # trig rows of each member, then its row of ones
        weights = np.zeros((k, 4, m.max() * (1 if odd.all() else 2) + 1))
        # cos^2 = (1 + cos 2st)/2 and sin^2 = (1 - cos 2st)/2; sites 1 and n
        # of an odd chain are odd, on an even chain site n is even (Q's row)
        o, e = odd[member], ~odd[member]
        weights[member, 0, mode] = 0.5 * first**2
        weights[member, 1, mode] = np.where(o, 0.5, -0.5) * last**2
        weights[member[o], 2, mode[o]] = 0.5 * (first[o] * last[o])
        weights[member[e], 3, m[member[e]] + mode[e]] = -0.5 * first[e] * last[e]
        # the rows of P and Q are orthonormal, so the constant parts, in the
        # column after a member's trig rows, only need the zero mode
        zero_mode = np.stack([zero[0]**2, zero[1]**2, zero[0] * zero[1], np.zeros(k)], axis=1)
        weights[np.arange(k), :, ends] = 0.5 * (np.array([1.0, 1.0, 0.0, 0.0]) + zero_mode)
        padded = np.zeros((k, m.max()))
        padded[member, mode] = two_s
        # order N2 fills the odd sites 1, 3, ...: site n iff n is odd, and its
        # (n + 1) // 2 fermions give the parity sign (-1)^(M+1)
        start = np.zeros((k, 4))
        start[:, 0], start[:, 1] = 1.0, odd
        self._assemble(n, padded, weights, start, np.where((n + 1) // 2 % 2, 1.0, -1.0), odd, ends)

    def _assemble(self, n, two_s, weights, start, sign, odd, ends) -> None:
        """Take the arrays of the members ``n``, trimmed to the longest."""
        width = int(n.max()) // 2
        # trigonometric rows of a time point: cos, then sin if a member is even
        self.rows = width if odd.all() else 2 * width
        self.n, self.two_s, self.weights = n, two_s[:, :width], weights[:, :, :self.rows + 1]
        self.start, self.sign, self.odd = start, sign, odd
        self._ones = (np.arange(len(n)), ends)
        edges = [0, *(np.flatnonzero(n[1:] != n[:-1]) + 1).tolist(), len(n)]
        lengths, trig_rows = n.tolist(), ends.tolist()
        self.groups = [(slice(lo, hi), lengths[lo] // 2, trig_rows[lo])
                       for lo, hi in zip(edges, edges[1:])]
        # floats per time point and member held at the peak of a chunk: the
        # trig rows (a grid basis, 1 + 2m rows over at least 2 GRID_BLOCK
        # points, holds no more), the rotated weights 4(1 + 2m), their
        # even-chain product 4m and the sub-block angles 2m of each
        # GRID_BLOCK points, the moments, and a length's product or the X
        # state's temporaries
        floats = 1 + self.rows + (10 * width + 4) / GRID_BLOCK + 4 + 4
        self.chunk_points = max(1, int(CHUNK_BYTES // (8 * floats)))

    def __getitem__(self, members) -> ChainStack:
        """The ``members`` (a slice or an index array) as a stack of their
        own, trimmed to their longest member: its arrays, and so its
        ``chunk_points`` and series, are those of a stack built from their
        realizations."""
        part = ChainStack.__new__(ChainStack)
        part._assemble(*(x[members] for x in (self.n, self.two_s, self.weights, self.start,
                                                 self.sign, self.odd, self._ones[1])))
        return part

    def series(self, ts: np.ndarray) -> Iterator[tuple[slice, slice, tuple[np.ndarray, ...]]]:
        """(a, b, c) of every member over the shared times ``ts``, chunk by
        chunk: yields the member and time slices of a chunk and its three
        (k, t) arrays; the caller drops a chunk before asking for the next.

        A chunk holds min(T, chunk_points) times of as many members as the
        budget allows, so work memory stays flat in the grid and in the
        ensemble; a longer grid is split in time, one member at a time.  A
        grid found uniform (:func:`_uniform_step`) is split on multiples of
        GRID_BLOCK points, so every window's sub-blocks are the grid's and
        no value depends on the budget.  A member's values are those of its
        own stack of one, bit for bit.
        """
        ts = np.asarray(ts, dtype=float)
        step = _uniform_step(ts)
        span = max(1, min(len(ts), self.chunk_points))
        if step is not None and span < len(ts):
            span = max(GRID_BLOCK, span - span % GRID_BLOCK)
        count = max(1, self.chunk_points // span)
        for lo in range(0, len(self.n), count):
            part = self if count >= len(self.n) else self[lo:lo + count]
            bases = None if step is None else _grid_bases(part, step)
            for t0 in range(0, len(ts), span):
                window = ts[t0:t0 + span]
                yield slice(lo, lo + count), slice(t0, t0 + span), _x_state(
                    _end_moments(part, window, bases), part, window)

    def end_spin_at(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) of member k at time ``ts[k]``, each of shape (K,)."""
        ts = np.asarray(ts, dtype=float)[:, None]
        return tuple(x[:, 0] for x in _x_state(_end_moments(self, ts, None), self, ts))


def _uniform_step(ts: np.ndarray) -> float | None:
    """Step h of a whole grid ``ts`` (T,) of at least 2 GRID_BLOCK points
    that lie within GRID_ULPS ulps of its largest time of ts[0] + h j, else None."""
    points = len(ts)
    if points < 2 * GRID_BLOCK:
        return None
    h = (ts[-1] - ts[0]) / (points - 1)
    drift = np.arange(points) * h  # one array of the grid's length, updated in place
    drift += ts[0]
    drift -= ts
    if not np.all(np.abs(drift, out=drift) <= GRID_ULPS * np.spacing(max(ts.max(), -ts.min()))):
        return None
    return h


def _point_rows(chains: ChainStack, ts: np.ndarray) -> np.ndarray:
    """Trig rows (K, rows + 1, T) of the members of ``chains`` at the times
    ``ts``, shared (T,) or per member (K, T).  Member k's first rows_k + 1
    rows are cos(2 s_j t) over its m modes, sin(2 s_j t) over them on an
    even chain, and a row of ones; the rest are never read.  The cos rows,
    over the zero-padded ``two_s``, and the rows of ones take one pass over
    the whole stack; the sin rows of even chains take one pass per run,
    as they start at the run's own m."""
    k, width = chains.two_s.shape
    trig = np.empty((k, chains.rows + 1, ts.shape[-1]))
    phase = trig[:, :width]
    np.multiply(chains.two_s[:, :, None], ts[..., None, :], out=phase)
    np.cos(phase, out=phase)
    for members, m, rows in chains.groups:
        if rows > m:
            sin = trig[members, m:rows]
            np.multiply(chains.two_s[members, :m, None],
                        ts if ts.ndim == 1 else ts[members, None], out=sin)
            np.sin(sin, out=sin)
    trig[chains._ones] = 1.0
    return trig


def _grid_bases(chains: ChainStack, h: float) -> list[np.ndarray]:
    """The basis [cos 2sjh; -sin 2sjh; 1] (k, 2m + 1, GRID_BLOCK) over the
    offsets j of a sub-block of a grid of step h, one per run of
    ``chains.groups``; it depends on the grid's step alone, so a series
    builds it once for all of its windows."""
    bases = []
    for members, m, _ in chains.groups:
        two_s = chains.two_s[members, :m]
        basis = np.empty((len(two_s), 2 * m + 1, GRID_BLOCK))
        basis[:, 2 * m] = 1.0
        beta = basis[:, m:2 * m]
        np.multiply(two_s[:, :, None], h * np.arange(GRID_BLOCK), out=beta)
        np.cos(beta, out=basis[:, :m])
        np.sin(beta, out=beta)
        np.negative(beta, out=beta)
        bases.append(basis)
    return bases


def _grid_rows(two_s: np.ndarray, weights: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Rotated weights (K, 4 x blocks, 2m + 1) of K chains of one length,
    m = two_s.shape[-1], over a window ``ts`` from a sub-block edge of a
    uniform grid, whose product with the run's basis from
    :func:`_grid_bases` is their moments by angle addition, one sub-block
    after another.

    Each sub-block rotates the weights by alpha = 2s tau at its actual
    start time tau, and the one basis over the offsets serves them all;
    the constant part rides on its row of ones."""
    k, m = two_s.shape
    alpha = (ts[::GRID_BLOCK, None] * two_s[:, None, :])[:, None]
    cos_a = np.cos(alpha)
    sin_a = np.sin(alpha, out=alpha)
    # [w_c cos a + w_s sin a, w_c sin a - w_s cos a, constant], w_s only on even chains
    w_c, w_s = weights[:, :, None, :m], weights[:, :, None, m:-1]
    rotated = np.empty((k, 4, alpha.shape[2], 2 * m + 1))
    np.multiply(w_c, cos_a, out=rotated[..., :m])
    np.multiply(w_c, sin_a, out=rotated[..., m:2 * m])
    if w_s.shape[-1]:
        rotated[..., :m] += w_s * sin_a
        rotated[..., m:2 * m] -= w_s * cos_a
    rotated[..., 2 * m] = weights[:, :, -1:]
    return rotated.reshape(k, -1, 2 * m + 1)


def _end_moments(chains: ChainStack, ts: np.ndarray, bases: list | None) -> np.ndarray:
    """End-site moments of Neel order N2 for the K members of ``chains``
    over the times ``ts``; shape (4, K, T).

    ``ts`` is one window (T,) that all members share, or times of each
    member (K, T); ``bases`` are the runs' grid bases (:func:`_grid_bases`)
    at the step of the window's uniform grid (:func:`_uniform_step`), or
    None.  The rows are <c+_1 c_1>, <c+_n c_n>
    and the real and imaginary parts of <c+_n c_1>.  Each run of one
    length takes one product of its members' ``weights`` with trig rows
    that end in a row of ones, so the constant part is summed with the
    oscillating ones: on a uniform window those of :func:`_grid_rows`,
    otherwise those of :func:`_point_rows` at each time, filled for the
    whole stack before the products.  The products fill member-major
    storage (K, 4, T), so each member's component row is contiguous, and
    the moments are its (4, K, T) view.  Times equal to zero are set
    exactly to the initially occupied sites, free of round-off.
    """
    _check_phases(float(chains.two_s.max()), ts)
    if bases is None:
        trig = _point_rows(chains, ts)
        moments = np.empty((len(chains.n), 4, ts.shape[-1]))
        for members, m, rows in chains.groups:
            np.matmul(chains.weights[members, :, :1 + rows], trig[members, :1 + rows],
                      out=moments[members])
    else:
        moments = None
        for (members, m, rows), basis in zip(chains.groups, bases):
            rotated = _grid_rows(chains.two_s[members, :m],
                                 chains.weights[members, :, :1 + rows], ts)
            part = (rotated @ basis).reshape(len(basis), 4, -1)
            if len(chains.groups) == 1:
                moments = part
            else:
                if moments is None:
                    moments = np.empty((len(chains.n),) + part.shape[1:])
                moments[members] = part
    moments = moments[..., :ts.shape[-1]]
    zero = ts == 0.0
    if np.any(zero):
        np.copyto(moments, chains.start[:, :, None], where=zero[..., None, :])
    return moments.transpose(1, 0, 2)


# Each entry holds O(n) numbers (5 KB at n=241).  Only the library's
# end_spin_series and end_spin_state read it, a chain at a time, so a few
# entries serve every hit; the commands' evaluators build their own stacks.
@lru_cache(maxsize=8)
def _chain(realization: CouplingRealization) -> ChainStack:
    return ChainStack([realization])


def _x_state(
    moments: np.ndarray, chains: ChainStack, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c) of the Neel mixture from the moments of ``chains``.

    ``moments`` is the (4, K, T) stack of order N2 from :func:`_end_moments`
    of the K members of ``chains`` over their times ``ts``, a shared window
    (T,) or a time per member (K, 1).  The orders fill complementary
    sublattices, so their one-particle correlations satisfy
    G_N1(t) = 1 - G_N2(t): N1's moments are (1 - <n_1>, 1 - <n_n>, -Re,
    -Im) of N2's, which gives the same a.  On odd chains the two orders'
    parity signs are opposite, so c is the same too; on even chains
    Re<c+_n c_1> = 0 and c = 0.  The mixture is therefore order N2's X
    state; adding +0.0 to c turns a zero coherence under a negative sign
    into +0.0.  The result must pass :func:`check_x_series`; a failure
    names the first failing member's time.
    """
    occ_first, occ_last, cross_re, cross_im = moments
    # for odd chains the cross moment is real up to round-off; the
    # imaginary part is discarded after this check
    _check(np.where(chains.odd[:, None], np.abs(cross_im), 0.0), COHERENCE_IMAG_TOL,
           "coherence imaginary part", ts)
    a = (
        occ_first * occ_last
        - (cross_re**2 + cross_im**2)
        - 0.5 * (occ_first + occ_last - 1.0)
    )
    b = 0.5 - a
    c = chains.sign[:, None] * cross_re + 0.0
    del moments, occ_first, occ_last, cross_re, cross_im  # freed before the check
    check_x_series(a, b, c, ts)
    return a, b, c


def end_spin_series(
    realization: CouplingRealization, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c) of the end-spin X state over a time grid.

    The two Neel orders fill complementary sublattices, so their
    one-particle correlations satisfy G_N1(t) = 1 - G_N2(t) and both give
    the same X state: the mixture's is order N2's (see :func:`_x_state`),
    and the test suite checks each order against the full propagator.  The
    grid is evaluated chunk by chunk by :meth:`ChainStack.series` of the
    realization's stack of one, so work memory does not grow with it.
    """
    ts = np.asarray(ts, dtype=float)
    a, b, c = np.empty(len(ts)), np.empty(len(ts)), np.empty(len(ts))
    for _, times, chunk in _chain(realization).series(ts):
        a[times], b[times], c[times] = (x[0] for x in chunk)
        del chunk  # freed before the next chunk is computed
    return a, b, c


def end_spin_state(realization: CouplingRealization, t: float) -> EndSpinState:
    """End-spin X state at a single time; see :func:`end_spin_series`."""
    if not t >= 0:  # NaN too
        raise ValueError(f"time must be >= 0, got {t}")
    a, b, c = end_spin_series(realization, np.array([t], dtype=float))
    return EndSpinState(a=float(a[0]), b=float(b[0]), c=float(c[0]), t=float(t))


class CorrelatorQuench(OneChainQuench):
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
        _check_phases(float(self.s.max(initial=0.0)), ts)
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
