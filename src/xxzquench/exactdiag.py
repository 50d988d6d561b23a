"""Full Hilbert-space engine for arbitrary anisotropy quenches.

Total z magnetization is conserved, so the Hamiltonian splits into
sectors of fixed up-spin count M.  Each sector is built over the ordered
list of bit patterns with M set bits (bit k-1 holds site k, set = up),
diagonalized densely once, and reused across all time points of a scan.

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

import numpy as np

from .errors import NumericalFaultError
from .freefermion import CHUNK_BYTES, EndSpinState
from .model import CouplingRealization, NeelOrder, neel_state

MAX_SITES = 15
GROUND_DEGENERACY_RTOL = 1e-10
GROUND_DEGENERACY_ATOL = 1e-12
X_STRUCTURE_TOL = 1e-10
RDM_TOL = 1e-9
NORM_DRIFT_TOL = 1e-10

# Entries of a 4x4 pair matrix outside the X pattern (diagonal, 1-2, 2-1).
_OFF_X = np.ones((4, 4), dtype=bool)
_OFF_X[np.diag_indices(4)] = False
_OFF_X[1, 2] = _OFF_X[2, 1] = False


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
    finite delta1 every magnetization sector is built once and its spectrum
    computed, the global minimum located, and every eigenstate within the
    degeneracy tolerance collected with equal weights.  A multiplet larger
    than two signals a regime this simulator does not model.
    """
    if math.isinf(delta1):
        return neel_mixture(realization.n)
    if not delta1 > 1:
        raise ValueError(
            f"finite delta1 must exceed 1 (antiferromagnetic Ising side), got {delta1}"
        )
    n = realization.n
    spectra: dict[int, np.ndarray] = {}
    # matrices of the sectors that may still hold the ground state; as the
    # running minimum e0 falls the tolerance grows by less than e0 falls,
    # so a sector dropped here can never rejoin the multiplet
    candidates: dict[int, np.ndarray] = {}
    for m in range(n + 1):
        matrix = build_sector_hamiltonian(realization, delta1, m).matrix
        spectra[m] = np.linalg.eigvalsh(matrix)
        candidates[m] = matrix
        e0 = min(float(e[0]) for e in spectra.values())
        tol = max(GROUND_DEGENERACY_RTOL * abs(e0), GROUND_DEGENERACY_ATOL)
        candidates = {k: h for k, h in candidates.items() if spectra[k][0] - e0 <= tol}
    multiplet: list[tuple[int, np.ndarray]] = []
    for m, matrix in candidates.items():
        _, vectors = np.linalg.eigh(matrix)
        for k in np.nonzero(spectra[m] - e0 <= tol)[0]:
            multiplet.append((m, np.ascontiguousarray(vectors[:, k])))
    if len(multiplet) > 2:
        raise NumericalFaultError(
            f"ground manifold of dimension {len(multiplet)} at delta1={delta1}; "
            f"expected at most a degenerate pair"
        )
    w = 1.0 / len(multiplet)
    comps = tuple(
        PureComponent(weight=w, m_up=m, amplitudes=v) for m, v in multiplet
    )
    return MixedState(n=n, components=comps, origin="degenerate-ground-multiplet")


class _SectorEvolver:
    """Cached eigendecompositions of H(delta2), one per visited sector."""

    def __init__(self, realization: CouplingRealization, delta2: float):
        self.realization = realization
        self.delta2 = delta2
        self._eig: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def eig(self, m_up: int) -> tuple[np.ndarray, np.ndarray]:
        if m_up not in self._eig:
            ham = build_sector_hamiltonian(self.realization, self.delta2, m_up)
            self._eig[m_up] = np.linalg.eigh(ham.matrix)
        return self._eig[m_up]

    def evolve_component(self, comp: PureComponent, t: float) -> PureComponent:
        energies, modes = self.eig(comp.m_up)
        coeff = modes.T @ comp.amplitudes
        psi = modes @ (np.exp(-1j * energies * t) * coeff)
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > NORM_DRIFT_TOL:
            raise NumericalFaultError(f"norm drift {norm - 1.0} during evolution")
        return PureComponent(weight=comp.weight, m_up=comp.m_up, amplitudes=psi)


# Each entry holds dense eigenbases (about 47 MB at n=13), so keep few.
@lru_cache(maxsize=4)
def _evolver(realization: CouplingRealization, delta2: float) -> _SectorEvolver:
    return _SectorEvolver(realization, delta2)


def evolve(
    state: MixedState, realization: CouplingRealization, delta2: float, t: float
) -> MixedState:
    """Evolve each component within its own sector under H(delta2) for time t."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if t == 0.0:
        return state
    evo = _evolver(realization, delta2)
    comps = tuple(evo.evolve_component(c, t) for c in state.components)
    return MixedState(n=state.n, components=comps, origin=state.origin)


def energy_expectation(
    state: MixedState, realization: CouplingRealization, delta: float
) -> float:
    """<H(delta)> of a mixed state, sector by sector."""
    total = 0.0
    for comp in state.components:
        ham = build_sector_hamiltonian(realization, delta, comp.m_up)
        total += comp.weight * float(
            np.real(np.vdot(comp.amplitudes, ham.matrix @ comp.amplitudes))
        )
    return total


@lru_cache(maxsize=256)
def _pair_scatter(n: int, m_up: int, site_i: int, site_j: int):
    """Mapping from sector patterns to (interior group, local pair index).

    Grouping by the interior configuration turns the partial trace into a
    stack of rank-one updates: rho = sum_g outer(z_g, z_g*).
    """
    basis = sector_basis(n, m_up)
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


def _check(deviation: np.ndarray, tol: float, what: str, ts: np.ndarray) -> None:
    """Raise at the first point whose deviation exceeds tol (NaN included)."""
    bad = ~(deviation <= tol)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericalFaultError(
            f"{what} {deviation[k]:.3e} beyond {tol:g} at t={float(ts[k])!r}"
        )


def _x_state_series(
    rho: np.ndarray, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def two_spin_rdm(
    state: MixedState, site_i: int, site_j: int, t: float = 0.0
) -> EndSpinState:
    """Reduced two-spin state projected onto the X form of the end-spin family.

    Valid for the initial states this engine prepares (Neel mixtures and
    flip-symmetric ground multiplets), whose reduced pair states are exact
    X states up to round-off.  Violations beyond tolerance raise.
    """
    rho = two_site_matrix(state, site_i, site_j)
    a, b, c = _x_state_series(rho[None], np.array([t]))
    return EndSpinState(a=float(a[0]), b=float(b[0]), c=float(c[0]), t=t)


class QuenchEvolution:
    """Prepared quench run: ground mixture of H(delta1) evolved under H(delta2).

    Sector eigenbases and initial-state coefficients are computed once in
    the constructor.  Time points are then evaluated ``chunk_points`` at a
    time: per component, two real matrix products give the real and
    imaginary parts of psi(t) over the chunk, and one batched product
    gives the stack of end-pair matrices.
    """

    def __init__(
        self, realization: CouplingRealization, delta1: float, delta2: float
    ):
        self.realization = realization
        self.n = realization.n
        self.delta2 = delta2
        self.initial = ground_mixture(realization, delta1)
        evo = _evolver(realization, delta2)
        self._prepped = []
        for comp in self.initial.components:
            energies, modes = evo.eig(comp.m_up)
            coeff = modes.T @ comp.amplitudes
            gid, loc, n_groups = _pair_scatter(self.n, comp.m_up, 1, self.n)
            self._prepped.append((comp.weight, energies, modes, coeff, gid, loc, n_groups))
        # the largest work array of a chunk holds n_groups x 4 complex pair
        # amplitudes per time point
        n_groups_max = max(n_groups for *_, n_groups in self._prepped)
        self.chunk_points = max(1, CHUNK_BYTES // (4 * 16 * n_groups_max))

    def _end_spin_rho(self, ts: np.ndarray) -> np.ndarray:
        """Stack of end-pair matrices over one chunk, shape (T, 4, 4)."""
        rho = np.zeros((len(ts), 4, 4), dtype=complex)
        for weight, energies, modes, coeff, gid, loc, n_groups in self._prepped:
            phase = np.outer(energies, ts)
            re = modes @ (np.cos(phase) * coeff[:, None])
            im = modes @ (np.sin(phase) * coeff[:, None])
            # psi = re - i im, stored as z[t, group, local pair state]
            z = np.zeros((len(ts), n_groups, 4), dtype=complex)
            z.real[:, gid, loc] = re.T
            z.imag[:, gid, loc] = -im.T
            part = z.swapaxes(1, 2) @ z.conj()
            norm = np.sqrt(np.trace(part, axis1=1, axis2=2).real)
            _check(np.abs(norm - 1.0), NORM_DRIFT_TOL, "norm drift", ts)
            rho += weight * part
        return rho

    def end_spin_state(self, t: float) -> EndSpinState:
        a, b, c = self.end_spin_series(np.array([t]))
        return EndSpinState(a=float(a[0]), b=float(b[0]), c=float(c[0]), t=t)

    def end_spin_series(
        self, ts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ts = np.asarray(ts, dtype=float)
        a = np.empty(len(ts))
        b = np.empty(len(ts))
        c = np.empty(len(ts))
        for lo in range(0, len(ts), self.chunk_points):
            part = slice(lo, lo + self.chunk_points)
            a[part], b[part], c[part] = _x_state_series(
                self._end_spin_rho(ts[part]), ts[part]
            )
        return a, b, c
