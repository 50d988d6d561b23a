"""Full Hilbert-space engine for arbitrary anisotropy quenches.

Total z magnetization is conserved, so the Hamiltonian splits into
sectors of fixed up-spin count M.  Each sector is built over the ordered
list of bit patterns with M set bits (bit k-1 holds site k, set = up),
diagonalized densely once, and reused across all time points of a scan.

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

This module is the oracle for the free-fermion route (they must agree
entry-wise whenever delta2 = 0 and the chain starts from the ideal Neel
mixture) and the only route for finite delta1 or delta2 > 0.  Dense
sector matrices cap the usable chain length at 15 sites; longer chains
belong to the free-fermion engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
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
    """Real symmetric XXZ Hamiltonian restricted to one sector."""

    basis: SectorBasis
    matrix: np.ndarray
    delta: float
    couplings: CouplingRealization


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
    """XXZ matrix in one sector.

    Diagonal entries collect (J_k delta / 2) z_k z_{k+1}; each adjacent
    up-down pair contributes an off-diagonal J_k to its exchanged partner.
    """
    if math.isinf(delta):
        raise ValueError("infinite anisotropy never enters numerical matrices")
    n = realization.n
    basis = sector_basis(n, m_up)
    dim = basis.dim
    h = np.zeros((dim, dim))
    cpl = realization.couplings
    for i, pat in enumerate(int(p) for p in basis.states):
        diag = 0.0
        for k in range(n - 1):
            b1 = (pat >> k) & 1
            b2 = (pat >> (k + 1)) & 1
            z1 = 1.0 if b1 else -1.0
            z2 = 1.0 if b2 else -1.0
            diag += cpl[k] * delta / 2.0 * z1 * z2
            if b1 != b2:
                j = basis.index[pat ^ ((1 << k) | (1 << (k + 1)))]
                h[i, j] += cpl[k]
        h[i, i] = diag
    return SectorHamiltonian(basis=basis, matrix=h, delta=delta, couplings=realization)


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


@dataclass(frozen=True, eq=False)
class _ParityBlock:
    """Eigenbasis of H(delta2) in one reflection-parity block of a sector."""

    parity: int
    first: np.ndarray
    mirror: np.ndarray
    scale: np.ndarray
    energies: np.ndarray
    modes: np.ndarray


class _SectorEvolver:
    """Cached eigendecompositions of H(delta2) in the reflection-parity
    blocks :class:`QuenchEvolution` evolves."""

    def __init__(self, realization: CouplingRealization, delta2: float):
        self.realization = realization
        self.delta2 = delta2
        self.reflect = realization.couplings == realization.couplings[::-1]
        self._blocks: dict[tuple[int, int], _ParityBlock] = {}

    def orbits(self, m_up: int):
        return _parity_orbits(self.realization.n, m_up, self.reflect)

    def blocks(self, m_up: int, parities: list[int]) -> list[_ParityBlock]:
        """Eigenbases of the given parity blocks, projected from one sector matrix."""
        missing = [
            o for o in self.orbits(m_up) if o[0] in parities and (m_up, o[0]) not in self._blocks
        ]
        if missing:
            h = build_sector_hamiltonian(self.realization, self.delta2, m_up).matrix
            for parity, first, mirror, scale in missing:
                # V^T H V summed so that one-pattern orbits reproduce H exactly
                block = (h[np.ix_(first, first)] + h[np.ix_(mirror, mirror)]) + parity * (
                    h[np.ix_(first, mirror)] + h[np.ix_(mirror, first)]
                )
                block *= np.outer(scale, scale)
                self._blocks[m_up, parity] = _ParityBlock(
                    parity, first, mirror, scale, *np.linalg.eigh(block)
                )
        return [self._blocks[m_up, p] for p in parities]

# Each entry holds the dense block eigenbases QuenchEvolution uses (6 MB
# at n=13 for the 868-dimensional even block of an odd-n Neel start); keep
# few.
@lru_cache(maxsize=4)
def _evolver(realization: CouplingRealization, delta2: float) -> _SectorEvolver:
    return _SectorEvolver(realization, delta2)


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
    blocks: list[_ParityBlock]
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
        evo = _evolver(realization, delta2)
        self._prepped: list[_Prepared] = []
        for weight, comp in _flip_representatives(self.initial):
            amp = comp.amplitudes
            projected = {
                parity: scale * (amp[first] + parity * amp[mirror])
                for parity, first, mirror, scale in evo.orbits(comp.m_up)
            }
            parities = [p for p, c in projected.items() if np.linalg.norm(c) > PARITY_LEAK_TOL]
            blocks = evo.blocks(comp.m_up, parities)
            coeffs = [b.modes.T @ projected[b.parity] for b in blocks]
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
