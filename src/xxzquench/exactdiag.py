"""Full Hilbert-space engine for arbitrary anisotropy quenches.

Total z magnetization is conserved, so the Hamiltonian splits into
sectors of fixed up-spin count M.  Each sector is built over the ordered
list of bit patterns with M set bits (bit k-1 holds site k, set = up) in
one pass per bond, which keeps the diagonal and one (row, partner,
coupling) entry per hop; the dense sector matrix is formed only for the
ground search.

Two further symmetries cut the dense work where the engine is set up.
The global spin flip F (every pattern to its complement) commutes with
H(delta) for any couplings; it maps sector M onto sector n-M by reversing
the ascending basis.  So ground spectra are computed for M <= n/2 only,
and of each flip-related pair of initial components only one is evolved;
the partner's end-pair matrix is the representative's conjugated by
sigma^x (x) sigma^x.  The site reflection R (site k to n+1-k) commutes
with H when the couplings are palindromic, as on homogeneous chains;
there H(delta2) is diagonalized only in the reflection-parity blocks the
initial state reaches (one block for an odd-n Neel start or a
nondegenerate sector ground state).  Other chains, disordered ones
included, take the same route with one-pattern orbits, i.e. flip only.
Each block is scattered straight from the sector's entries into the
block's orbit coordinates, diagonalized once, and reused across all time
points of a scan.

At delta2 = 0 every hop moves one up spin between an odd and an even
site, so it changes the grade (up spins on odd sites) mod 2: the sector
matrix is bipartite (Lieb, Schultz and Mattis 1961).  When every orbit
of a block has a single grade (odd n, non-palindromic chains, and even n
with M even), the block is [[0, X], [X^T, 0]] over its two grades and
one SVD of X gives its eigenbasis, energies +-s and zero modes for the
unpaired columns.  Other blocks, and every block at delta2 > 0, take a
dense ``eigh``.

This module is the oracle for the free-fermion route (they must agree
entry-wise whenever delta2 = 0 and the chain starts from the ideal Neel
mixture) and the only route for finite delta1 or delta2 > 0.  Dense
sector matrices in the ground search cap the usable chain length at 15
sites; longer chains belong to the free-fermion engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import NumericalFaultError
from .freefermion import CHUNK_BYTES, _check, check_x_series
from .model import CouplingRealization, NeelOrder, neel_state

MAX_SITES = 15
GROUND_DEGENERACY_RTOL = 1e-10
GROUND_DEGENERACY_ATOL = 1e-12
NORM_DRIFT_TOL = 1e-10
# largest distance of a multiplet component from (minus) its flip partner
FLIP_CLOSURE_TOL = 1e-10
# A reflection-parity block holding at most this norm of the initial
# amplitude is not evolved; the dropped part moves end-pair entries by at
# most twice this.
PARITY_LEAK_TOL = 1e-13

@dataclass(eq=False)
class SectorBasis:
    """Ordered bit-pattern basis of one magnetization sector."""

    n: int
    m_up: int
    states: np.ndarray           # ascending uint64 patterns, M bits set
    index: dict[int, int]        # pattern -> position

    @property
    def dim(self) -> int:
        return len(self.states)


@dataclass(eq=False)
class SectorHamiltonian:
    """Real symmetric XXZ Hamiltonian restricted to one sector, as entries:
    the diagonal, and per off-diagonal entry its row, its column (the hop
    partner) and its value (the bond's coupling)."""

    basis: SectorBasis
    diagonal: np.ndarray
    rows: np.ndarray
    partners: np.ndarray
    hops: np.ndarray
    delta: float
    couplings: CouplingRealization

    @property
    def matrix(self) -> np.ndarray:
        """The dense (dim, dim) matrix, built anew on each access."""
        h = np.zeros((self.basis.dim, self.basis.dim))
        h[self.rows, self.partners] = self.hops
        np.fill_diagonal(h, self.diagonal)
        return h


@dataclass(frozen=True)
class PureComponent:
    """One normalized pure state confined to a magnetization sector."""

    weight: float
    m_up: int
    amplitudes: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class MixedState:
    """Statistical mixture of sector-tagged pure states."""

    n: int
    components: tuple[PureComponent, ...]
    origin: str = ""

    def __post_init__(self):
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {total}, not 1")
        for c in self.components:
            if c.weight < 0:
                raise ValueError("mixture weights must be nonnegative")
            norm = np.linalg.norm(c.amplitudes)
            if abs(norm - 1.0) > 1e-12:
                raise NumericalFaultError(f"component norm {norm} drifted from 1")


@lru_cache(maxsize=256)
def sector_basis(n: int, m_up: int) -> SectorBasis:
    """All n-site patterns with exactly m_up set bits, ascending."""
    if n > MAX_SITES:
        raise ValueError(
            f"dense sectors are capped at {MAX_SITES} sites (requested n={n}); "
            f"use the free-fermion engine for longer chains"
        )
    if not 0 <= m_up <= n:
        raise ValueError(f"up-spin count {m_up} outside [0, {n}]")
    pats = sorted(sum(1 << b for b in comb) for comb in combinations(range(n), m_up))
    states = np.asarray(pats, dtype=np.uint64)
    return SectorBasis(n=n, m_up=m_up, states=states, index={p: i for i, p in enumerate(pats)})


def build_sector_hamiltonian(
    realization: CouplingRealization, delta: float, m_up: int
) -> SectorHamiltonian:
    """XXZ entries in one sector.

    Diagonal entries collect (J_k delta / 2) z_k z_{k+1}; each adjacent
    up-down pair contributes an off-diagonal J_k to its exchanged partner.
    One pass per bond covers every pattern; each off-diagonal entry comes
    from exactly one bond.
    """
    if math.isinf(delta):
        raise ValueError("infinite anisotropy never enters numerical matrices")
    n = realization.n
    basis = sector_basis(n, m_up)
    states = basis.states
    diag = np.zeros(basis.dim)
    rows, partners, hops = [], [], []
    cpl = realization.couplings
    ups = [(states >> k) & 1 == 1 for k in range(n)]
    for k in range(n - 1):
        z1 = np.where(ups[k], 1.0, -1.0)
        z2 = np.where(ups[k + 1], 1.0, -1.0)
        diag += cpl[k] * delta / 2.0 * z1 * z2
        hop = np.flatnonzero(ups[k] != ups[k + 1])
        rows.append(hop)
        pair = np.uint64((1 << k) | (1 << (k + 1)))
        partners.append(np.searchsorted(states, states[hop] ^ pair))
        hops.append(np.full(len(hop), cpl[k]))
    return SectorHamiltonian(
        basis=basis, diagonal=diag, rows=np.concatenate(rows),
        partners=np.concatenate(partners), hops=np.concatenate(hops),
        delta=delta, couplings=realization,
    )


def _neel_pattern(n: int, order: NeelOrder) -> int:
    return sum(1 << (s - 1) for s in neel_state(order, n).up_sites)


def neel_mixture(n: int) -> MixedState:
    """Equal mixture of the two Neel orders (the infinite-delta1 start)."""
    comps = []
    for order in (NeelOrder.N1, NeelOrder.N2):
        state = neel_state(order, n)
        basis = sector_basis(n, state.m_up)
        vec = np.zeros(basis.dim)
        vec[basis.index[_neel_pattern(n, order)]] = 1.0
        comps.append(PureComponent(weight=0.5, m_up=state.m_up, amplitudes=vec))
    return MixedState(n=n, components=tuple(comps), origin="ideal-neel-mixture")


def ground_mixture(realization: CouplingRealization, delta1: float) -> MixedState:
    """Equal-weight mixture over the degenerate ground multiplet of H(delta1).

    The infinite marker short-circuits to the ideal Neel mixture.  For
    finite delta1 the sectors M <= n/2 are built once and their spectra
    computed (sector n-M has the spectrum of M by spin flip), the global
    minimum located, and every eigenstate within the degeneracy tolerance
    collected with equal weights.  Eigenvectors come from the one sector
    holding the minimum; the flip partner in sector n-M is the reversed
    vector, and vectors of the self-conjugate sector M = n/2 are made flip
    eigenvectors (a degenerate pair there is first rotated onto them).  A
    multiplet larger than two signals a regime this simulator does not
    model.
    """
    if math.isinf(delta1):
        return neel_mixture(realization.n)
    if not delta1 > 1:
        raise ValueError(
            f"finite delta1 must exceed 1 (antiferromagnetic Ising side), got {delta1}"
        )
    n = realization.n
    half = n // 2
    spectra: dict[int, np.ndarray] = {}
    # The half-filled sector, which holds the minimum on antiferromagnetic
    # chains, is diagonalized with its vectors; the others keep their
    # matrices only while they may still hold the minimum.  As the running
    # minimum e0 falls the tolerance grows by less than e0 falls, so a
    # sector dropped here can never rejoin the multiplet.
    vectors: dict[int, np.ndarray] = {}
    candidates: dict[int, np.ndarray] = {}
    for m in range(half, -1, -1):
        matrix = build_sector_hamiltonian(realization, delta1, m).matrix
        if m == half:
            spectra[m], vectors[m] = np.linalg.eigh(matrix)
        else:
            spectra[m] = np.linalg.eigvalsh(matrix)
            candidates[m] = matrix
        e0 = min(float(e[0]) for e in spectra.values())
        tol = max(GROUND_DEGENERACY_RTOL * abs(e0), GROUND_DEGENERACY_ATOL)
        candidates = {k: h for k, h in candidates.items() if spectra[k][0] - e0 <= tol}
    levels = {m: np.nonzero(e - e0 <= tol)[0] for m, e in spectra.items()}
    size = sum(len(k) * (1 if 2 * m == n else 2) for m, k in levels.items())
    if size > 2:
        raise NumericalFaultError(
            f"ground manifold of dimension {size} at delta1={delta1}; "
            f"expected at most a degenerate pair"
        )
    (m,) = (m for m, k in levels.items() if len(k))
    if m not in vectors:
        vectors[m] = np.linalg.eigh(candidates[m])[1]
    ground = vectors[m][:, levels[m]]
    if 2 * m != n:
        multiplet = [(m, ground[:, 0]), (n - m, ground[::-1, 0])]
    else:
        if ground.shape[1] == 2:
            # the pair spans a flip-closed plane: take the flip eigenvectors
            ground = ground @ np.linalg.eigh(ground.T @ ground[::-1])[1]
        # Project each vector onto its flip parity: a level of the other
        # parity close above mixes into eigh's vector by round-off over the
        # gap, which the projection removes.
        ground = ground + np.sign(np.sum(ground * ground[::-1], axis=0)) * ground[::-1]
        ground /= np.linalg.norm(ground, axis=0)
        multiplet = [(m, v) for v in ground.T]
    w = 1.0 / len(multiplet)
    comps = tuple(
        PureComponent(weight=w, m_up=m, amplitudes=np.ascontiguousarray(v))
        for m, v in multiplet
    )
    return MixedState(n=n, components=comps, origin="degenerate-ground-multiplet")


@lru_cache(maxsize=32)
def _parity_orbits(
    n: int, m_up: int, reflect: bool
) -> tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]:
    """Reflection-parity blocks of one sector as (parity, first, mirror, scale).

    With ``reflect`` every orbit of the site reflection is listed once, by
    its lower position ``first`` and the position ``mirror`` of its image
    (the same for a mirror-symmetric pattern); without it every pattern is
    its own orbit and the even block is the whole sector.  Orbit a of the
    block of parity s spans scale_a (e_first + s e_mirror), with scale
    1/sqrt(2) on two-pattern orbits and 1/2 on one-pattern orbits, which
    only the even block holds.
    """
    basis = sector_basis(n, m_up)
    pos = np.arange(basis.dim)
    if reflect:
        reversed_bits = (int(f"{p:0{n}b}"[::-1], 2) for p in map(int, basis.states))
        mirror = np.array([basis.index[p] for p in reversed_bits])
    else:
        mirror = pos
    keep = pos <= mirror
    first, mirror = pos[keep], mirror[keep]
    pair = first != mirror
    scale = np.where(pair, math.sqrt(0.5), 0.5)
    blocks = ((1, first, mirror, scale), (-1, first[pair], mirror[pair], scale[pair]))
    for block in blocks:
        for array in block[1:]:
            array.flags.writeable = False
    return blocks


def _block(
    ham: SectorHamiltonian,
    orbits: tuple[int, np.ndarray, np.ndarray, np.ndarray],
    row_orbits: np.ndarray,
    col_orbits: np.ndarray,
) -> np.ndarray:
    """Entries of one reflection-parity block between its orbits
    ``row_orbits`` and ``col_orbits`` (positions in the block), scattered from the sector's
    entries with one ``np.bincount``; no sector matrix is formed.

    Orbit a of the block ``orbits`` = (parity, first, mirror, scale) (see
    :func:`_parity_orbits`) spans sum_p coef_p e_p over its patterns, so
    entry (a, b) sums coef_p coef_q H_pq.
    """
    parity, first, mirror, scale = orbits
    dim = ham.basis.dim
    coef = np.zeros(dim)
    coef[first] = scale
    coef[mirror] += parity * scale  # a one-pattern orbit gets 1/2 twice

    def place(orbit_list: np.ndarray) -> np.ndarray:
        """Per pattern, the place of its orbit in ``orbit_list``, else -1."""
        at = np.full(dim, -1)
        at[first[orbit_list]] = at[mirror[orbit_list]] = np.arange(len(orbit_list))
        return at

    diag = np.arange(dim)
    p = np.concatenate([ham.rows, diag])
    q = np.concatenate([ham.partners, diag])
    value = np.concatenate([ham.hops, ham.diagonal])
    r, c = place(row_orbits)[p], place(col_orbits)[q]
    keep = (r >= 0) & (c >= 0)
    p, q, r, c = p[keep], q[keep], r[keep], c[keep]
    shape = (len(row_orbits), len(col_orbits))
    flat = np.bincount(
        r * shape[1] + c, weights=coef[p] * coef[q] * value[keep], minlength=shape[0] * shape[1]
    )
    return flat.reshape(shape)


def _bipartite_eigh(
    x: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis of the symmetric matrix that holds ``x`` at rows ``a``,
    columns ``b`` (and its transpose at rows ``b``, columns ``a``) and
    zeros elsewhere, from one SVD x = U diag(s) V^T.

    Each singular triple gives energies +-s with modes (u, +-v)/sqrt(2);
    the unpaired columns of U or V are zero modes.
    """
    u, s, vt = np.linalg.svd(x)
    r = len(s)
    extra_a = len(a) - r
    energies = np.concatenate([s, -s, np.zeros(len(a) + len(b) - 2 * r)])
    modes = np.zeros((len(a) + len(b),) * 2)
    half = math.sqrt(0.5)
    modes[a, :r] = modes[a, r : 2 * r] = half * u[:, :r]
    modes[b, :r] = half * vt[:r].T
    modes[b, r : 2 * r] = -modes[b, :r]
    modes[a, 2 * r : 2 * r + extra_a] = u[:, r:]
    modes[b, 2 * r + extra_a :] = vt[r:].T
    return energies, modes


# One entry per reflection-parity block (6 MB at n=13 for the
# 868-dimensional even block of an odd-n Neel start); a quench reaches at
# most two, so keep few.
@lru_cache(maxsize=4)
def _evolver(
    realization: CouplingRealization, delta2: float, m_up: int, parity: int
) -> SimpleNamespace:
    """Eigenbasis of H(delta2) in one reflection-parity block of a sector:
    the block's orbits (see :func:`_parity_orbits`) with its ``energies``
    and ``modes``.

    The block is scattered from the sector's entries (see :func:`_block`).
    At delta2 = 0 with every orbit of a single grade (up spins on odd sites
    mod 2) the block couples only orbits of different grades, and one SVD
    of its grade-0 by grade-1 part replaces the ``eigh`` of the whole block
    (see :func:`_bipartite_eigh`); otherwise the whole block takes ``eigh``.
    """
    n = realization.n
    reflect = realization.couplings == realization.couplings[::-1]
    (orbits,) = [o for o in _parity_orbits(n, m_up, reflect) if o[0] == parity]
    _, first, mirror, scale = orbits
    ham = build_sector_hamiltonian(realization, delta2, m_up)
    odd_ups = np.zeros(ham.basis.dim, dtype=np.uint64)
    for k in range(0, n, 2):
        odd_ups ^= ham.basis.states >> np.uint64(k)
    grade = odd_ups & np.uint64(1)
    if delta2 == 0 and np.array_equal(grade[first], grade[mirror]):
        a, b = np.flatnonzero(grade[first] == 0), np.flatnonzero(grade[first] == 1)
        energies, modes = _bipartite_eigh(_block(ham, orbits, a, b), a, b)
    else:
        every = np.arange(len(first))
        energies, modes = np.linalg.eigh(_block(ham, orbits, every, every))
    for array in (energies, modes):
        array.flags.writeable = False
    return SimpleNamespace(
        parity=parity, first=first, mirror=mirror, scale=scale, energies=energies, modes=modes
    )


@lru_cache(maxsize=32)
def _end_pair_index(n: int, m_up: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the end pair (sites 1, n) reads its entries in one sector.

    Returns a (4, dim) 0/1 matrix marking the patterns of each local state
    (up-up, up-down, down-up, down-down), and the positions of the
    up-down patterns with their down-up partners, which differ only in
    the two end bits.
    """
    states = sector_basis(n, m_up).states
    first = (states & np.uint64(1)).astype(np.intp)
    last = ((states >> np.uint64(n - 1)) & np.uint64(1)).astype(np.intp)
    diag = (3 - 2 * first - last == np.arange(4)[:, None]).astype(float)
    ud = np.nonzero((first == 1) & (last == 0))[0]
    du = np.searchsorted(states, states[ud] ^ np.uint64(1 | (1 << (n - 1))))
    for array in (diag, ud, du):
        array.flags.writeable = False
    return diag, ud, du


def _flip_representatives(state: MixedState) -> list[tuple[float, PureComponent]]:
    """One component per spin-flip orbit of the mixture, with the orbit weight.

    Two equal-weight components must be psi and +-F psi, otherwise each
    component must be +-F of itself, within FLIP_CLOSURE_TOL; a mixture
    that is not closed under the flip raises.
    """

    def gap(a: PureComponent, b: PureComponent) -> float:
        if b.m_up != state.n - a.m_up:
            return math.inf
        flipped = a.amplitudes[::-1]
        return min(np.linalg.norm(b.amplitudes - flipped), np.linalg.norm(b.amplitudes + flipped))

    comps = state.components
    if len(comps) == 2 and comps[0].weight == comps[1].weight and gap(*comps) <= FLIP_CLOSURE_TOL:
        return [(comps[0].weight + comps[1].weight, comps[0])]
    for comp in comps:
        if not gap(comp, comp) <= FLIP_CLOSURE_TOL:
            raise NumericalFaultError(
                f"initial mixture not closed under spin flip: component in sector "
                f"{comp.m_up} has no flip partner within {FLIP_CLOSURE_TOL:g}"
            )
    return [(comp.weight, comp) for comp in comps]


class _Prepared(NamedTuple):
    """One flip representative: its orbit weight, sector, the parity blocks
    it reaches and its coefficients in their eigenbases."""

    weight: float
    m_up: int
    blocks: list[SimpleNamespace]
    coeffs: list[np.ndarray]


def eigenbasis_bytes(n: int) -> int:
    """Bound on the bytes of the eigenbasis one n-site quench keeps: the
    modes and energies of the parity blocks of the half-filled sector,
    together at most those of the whole sector."""
    dim = math.comb(n, n // 2)
    return 8 * dim * (dim + 1)


class QuenchEvolution:
    """Prepared quench run: ground mixture of H(delta1) evolved under H(delta2).

    The constructor keeps one representative per spin-flip orbit of the
    initial mixture, projects it onto the reflection-parity blocks of its
    sector and diagonalizes H(delta2) only in the blocks it reaches.  Time
    points are then evaluated ``chunk_points`` at a time: per block one
    real matrix product gives the real and imaginary parts of the block
    amplitudes over the chunk, which are expanded into the sector, and
    the end pair's X state (a, b, c) is gathered from those amplitudes.
    The flip partner's pair is the representative's with both end spins
    flipped, so the mixture is the average of the two.  Each
    representative's norm is checked per point, and the series passes
    :func:`~xxzquench.freefermion.check_x_series` (trace and positivity).
    """

    def __init__(
        self, realization: CouplingRealization, delta1: float, delta2: float
    ):
        self.realization = realization
        self.n = realization.n
        self.delta2 = delta2
        self.initial = ground_mixture(realization, delta1)
        reflect = realization.couplings == realization.couplings[::-1]
        self._prepped: list[_Prepared] = []
        for weight, comp in _flip_representatives(self.initial):
            amp, blocks, coeffs = comp.amplitudes, [], []
            for parity, first, mirror, scale in _parity_orbits(self.n, comp.m_up, reflect):
                projected = scale * (amp[first] + parity * amp[mirror])
                if np.linalg.norm(projected) > PARITY_LEAK_TOL:
                    blocks.append(_evolver(realization, delta2, comp.m_up, parity))
                    coeffs.append(blocks[-1].modes.T @ projected)
            self._prepped.append(_Prepared(weight, comp.m_up, blocks, coeffs))
        # the largest work array of a chunk holds the real and imaginary
        # sector amplitudes per time point
        dim_max = max(sector_basis(self.n, p.m_up).dim for p in self._prepped)
        self.chunk_points = max(1, CHUNK_BYTES // (16 * dim_max))

    def _end_pair(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) of the end pair over one chunk.

        Per representative the four diagonal weights (uu, ud, du, dd) and
        the real ud-du coherence are gathered from its amplitudes; the
        imaginary coherence and the off-X entries are not formed, since
        the flip average cancels the former and no sector reaches the
        latter.
        """
        n_t = len(ts)
        weights = np.zeros((4, n_t))
        c = np.zeros(n_t)
        for rep in self._prepped:
            diag, ud, du = _end_pair_index(self.n, rep.m_up)
            # psi = re - i im, stored as [re | im] over the chunk
            psi = np.zeros((diag.shape[1], 2 * n_t))
            for block, coeff in zip(rep.blocks, rep.coeffs):
                phase = np.outer(block.energies, ts)
                w = np.empty((len(coeff), 2 * n_t))
                np.cos(phase, out=w[:, :n_t])
                np.sin(phase, out=w[:, n_t:])
                w *= coeff[:, None]
                amp = block.modes @ w
                amp *= block.scale[:, None]
                psi[block.first] += amp
                psi[block.mirror] += block.parity * amp
            re, im = psi[:, :n_t], psi[:, n_t:]
            part = diag @ (re * re + im * im)
            _check(np.abs(np.sqrt(part.sum(axis=0)) - 1.0), NORM_DRIFT_TOL, "norm drift", ts)
            weights += rep.weight * part
            c += rep.weight * (
                np.einsum("it,it->t", re[ud], re[du]) + np.einsum("it,it->t", im[ud], im[du])
            )
        # the flip partner's pair is the representative's with both end
        # spins flipped, (uu, ud, du, dd) -> (dd, du, ud, uu), and the
        # mixture averages the two
        return 0.5 * (weights[0] + weights[3]), 0.5 * (weights[1] + weights[2]), c

    def end_spin_series(
        self, ts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ts = np.asarray(ts, dtype=float)
        a = np.empty(len(ts))
        b = np.empty(len(ts))
        c = np.empty(len(ts))
        for lo in range(0, len(ts), self.chunk_points):
            part = slice(lo, lo + self.chunk_points)
            a[part], b[part], c[part] = self._end_pair(ts[part])
        check_x_series(a, b, c, ts)
        return a, b, c
