"""Full Hilbert-space engine for arbitrary anisotropy quenches.

Total z magnetization is conserved, so the Hamiltonian splits into
sectors of fixed up-spin count M, each over the ordered list of bit
patterns with M set bits (bit k-1 holds site k, set = up).

Two further symmetries split each sector into blocks.  The global spin
flip F (every pattern to its complement) commutes with H(delta) for any
couplings; it maps sector M onto sector n-M by reversing the ascending
basis, and acts within the half-filled sector M = n/2.  The site
reflection R (site k to n+1-k) commutes with H when the couplings are
palindromic, as on homogeneous chains.  The group these generate in a
sector has one block per character chi, spanned by one unit orbit state
per pattern orbit, sum_g chi(g) g|p> normalized, wherever chi allows it
(Sandvik, AIP Conf. Proc. 1297, 135 (2010)).  Other chains, disordered
ones included, have one-pattern orbits outside M = n/2.  :func:`_blocks`
is the one orbit basis and the one place that knows each block's
Hamiltonian pattern: a row of bond-indexed triples per orbit, from its
lowest pattern alone, and that pattern's z.z signs.  It depends on n, M
and the reflection only, so every disordered chain of a length shares
it, and a chain only scales it (:func:`build_sector_hamiltonian`); no
dense sector matrix is ever formed.  The ground search and the evolution
both work in its coordinates, and a Lanczos step costs the block.

The ground multiplet of H(delta1) comes from one matrix-free Lanczos
search per block of each sector M <= n/2 (sector n-M has the same
spectrum by spin flip) that a Gershgorin bound does not put above the
lowest level found so far.  Of each flip-related pair of initial
components only one is evolved.  H(delta2) is diagonalized once in each
block the initial state reaches (one block for an odd-n Neel start or a
nondegenerate sector ground state) and reused across all time points of
a scan.  The end pair is read in each block's own coordinates: what it
needs commutes with F and R, so blocks add no cross terms.

At delta2 = 0 every hop moves one up spin between an odd and an even
site, so it changes the grade (up spins on odd sites) mod 2: the sector
matrix is bipartite (Lieb, Schultz and Mattis 1961).  F keeps the grade
when n/2 is even and R when n is odd or M is even.  When every orbit of
a block has a single grade, the block is [[0, X], [X^T, 0]] over its two
grades, and its propagator is a function of the Gram matrix X X^T over
the smaller grade alone: one ``eigh`` of that matrix, with X itself,
evolves the block, and no eigenbasis of the whole block is formed
(:func:`_amplitudes`).  Other blocks, and every block at delta2 > 0,
take a dense ``eigh``.

A quench to delta2 = 0 from finite delta1 needs only the ground
multiplet's two- and four-point fermion correlators (:func:`correlators`),
which the free-fermion engine evolves; the dense evolution here is its
oracle (they must agree entry-wise whenever delta2 = 0, from any delta1)
and the only route for delta2 > 0.  The ground search and the
eigenbasis of H(delta2) in a block, with its d^2 cost per time point, cap
the usable chain length at 15 sites; longer chains belong to the
free-fermion engine from the ideal Neel mixture.  A run's peak memory is
estimated before anything is allocated (:func:`run_bytes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NumericalFaultError
from .freefermion import CHUNK_BYTES, _check, _check_phases, chunked_series
from .model import CouplingRealization, NeelOrder, neel_state

MAX_SITES = 15
GROUND_DEGENERACY_RTOL = 1e-10
GROUND_DEGENERACY_ATOL = 1e-12
NORM_DRIFT_TOL = 1e-10
# largest distance of a multiplet component from (minus) its flip partner
FLIP_CLOSURE_TOL = 1e-10
# A symmetry block holding at most this norm of the initial amplitude is
# not evolved; the dropped part moves end-pair entries by at most twice
# this.
PARITY_LEAK_TOL = 1e-13
# A Lanczos run of the ground search stops once the residual estimates of
# its two lowest Ritz pairs are within this fraction of the largest entry
# of its tridiagonal matrix (an estimate of the block's norm).
LANCZOS_RESIDUAL_TOL = 1e-14
# Krylov steps per block, at most (the most seen up to n = 15 was 284, on
# a homogeneous chain at delta1 = 1000), and steps to the first
# convergence check, half the most between two.
LANCZOS_MAX_STEPS = 400
LANCZOS_CHECK_EVERY = 10

@dataclass(eq=False)
class SectorBasis:
    """Ordered bit-pattern basis of one magnetization sector."""

    n: int
    m_up: int
    states: np.ndarray           # ascending uint64 patterns, M bits set

    @property
    def dim(self) -> int:
        return len(self.states)


@dataclass(eq=False)
class SectorHamiltonian:
    """Real symmetric XXZ Hamiltonian of one sector, realized per symmetry
    block of :func:`_sector_blocks`: each block's fields with ``values``,
    this chain's entry per (``rows``, ``cols``) triple."""

    basis: SectorBasis
    blocks: tuple[SimpleNamespace, ...]


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
    patterns = np.arange(1 << n, dtype=np.uint64)
    return SectorBasis(n=n, m_up=m_up, states=patterns[_popcounts(n) == m_up])


@lru_cache(maxsize=MAX_SITES + 1)
def _popcounts(n: int) -> np.ndarray:
    """Set bits of every n-site pattern 0 .. 2^n - 1, counted once per n
    for the sectors of every M, and read-only because it is shared."""
    patterns = np.arange(1 << n, dtype=np.uint64)
    ones = np.zeros_like(patterns)
    for k in range(n):
        ones += (patterns >> np.uint64(k)) & np.uint64(1)
    ones.flags.writeable = False
    return ones


def build_sector_hamiltonian(
    realization: CouplingRealization, delta: float, m_up: int
) -> SectorHamiltonian:
    """XXZ entries of one sector, realized in each of its symmetry blocks
    from their bond-indexed structure (see :func:`_blocks`) with no
    pattern work: a hop is worth its bond's J_k times its weight, and an
    orbit's diagonal sums (J_k delta / 2) z_k z_{k+1} at its lowest pattern.
    An entry that overflows raises NumericalFaultError, with no warning.
    """
    if math.isinf(delta):
        raise ValueError("infinite anisotropy never enters numerical matrices")
    couplings = np.asarray(realization.couplings)
    # an entry that overflows, or sums opposite infinities to NaN, is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        bond_zz = couplings * delta / 2.0
        blocks = tuple(
            SimpleNamespace(**vars(b), values=np.concatenate([couplings[b.bonds] * b.weights,
                                                              b.zz @ bond_zz]))
            for b in _sector_blocks(realization, m_up)
        )
    if not all(np.isfinite(b.values).all() for b in blocks):
        raise NumericalFaultError(
            f"sector M={m_up} entries overflow at anisotropy {delta}; so large an "
            f"anisotropy is the Ising limit, --delta1 inf")
    return SectorHamiltonian(basis=sector_basis(realization.n, m_up), blocks=blocks)


def neel_mixture(n: int) -> MixedState:
    """Equal mixture of the two Neel orders (the infinite-delta1 start)."""
    comps = []
    for order in (NeelOrder.N1, NeelOrder.N2):
        state = neel_state(order, n)
        basis = sector_basis(n, state.m_up)
        vec = np.zeros(basis.dim)
        vec[np.searchsorted(basis.states, sum(1 << (s - 1) for s in state.up_sites))] = 1.0
        comps.append(PureComponent(weight=0.5, m_up=state.m_up, amplitudes=vec))
    return MixedState(n=n, components=tuple(comps), origin="ideal-neel-mixture")


# an overflow shows as an alpha or beta that is not finite, which raises
@np.errstate(over="ignore")
def _lanczos(apply, start: np.ndarray, above: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenvalues (one in dimension 1) of the symmetric
    operator ``apply`` on vectors of the length of ``start``, with their
    unit vectors as rows, or, once the lowest lies converged ``above`` a
    level, the Ritz pairs at hand, both above it.

    Lanczos (1950) with full reorthogonalization (Parlett, The Symmetric
    Eigenvalue Problem): after the three-term recurrence each new Krylov
    vector is orthogonalized once more against the whole basis, so no
    spurious copies of converged Ritz values appear.  The tridiagonal
    projection T is diagonalized after LANCZOS_CHECK_EVERY steps, then
    where the trend of its residual estimates predicts convergence, and
    the search stops once the two lowest Ritz pairs have residual
    estimates |beta s_last| within LANCZOS_RESIDUAL_TOL of the largest
    entry of T, at the latest when the basis spans the space.  At the same
    checks it also stops once the lowest Ritz value exceeds ``above`` with
    its own residual estimate within that tolerance; a run that does not
    stop so takes the same steps and checks as one without ``above``.
    """
    size = len(start)
    steps = min(size, LANCZOS_MAX_STEPS)
    basis = np.empty((steps, size))
    alpha, beta = np.empty(steps), np.empty(steps)
    q = start / np.linalg.norm(start)
    scale, check, last = 0.0, LANCZOS_CHECK_EVERY, None
    for k in range(steps):
        basis[k] = q
        w = apply(q)
        alpha[k] = q @ w
        w -= alpha[k] * q
        if k:
            w -= beta[k - 1] * basis[k - 1]
        w -= (basis[: k + 1] @ w) @ basis[: k + 1]
        beta[k] = math.sqrt(w @ w)
        if not (math.isfinite(alpha[k]) and math.isfinite(beta[k])):
            raise NumericalFaultError(
                f"Lanczos ground search overflowed at step {k + 1} (alpha={alpha[k]:.3e}, "
                f"beta={beta[k]:.3e}); so large an anisotropy is the Ising limit, --delta1 inf"
            )
        scale = max(scale, abs(alpha[k]), beta[k])
        tol = LANCZOS_RESIDUAL_TOL * scale
        if k + 1 in (check, steps) or beta[k] <= tol:
            t = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            theta, s = np.linalg.eigh(t)
            residual = beta[k] * np.max(np.abs(s[-1, :2]))
            lowest_above = theta[0] > above and beta[k] * abs(s[-1, 0]) <= tol
            if k + 1 == size or residual <= tol or lowest_above:
                return theta[:2], s[:, :2].T @ basis[: k + 1]
            # residuals fall about geometrically once converging: the next
            # check goes where that trend meets tol, at most twice as far
            ahead = LANCZOS_CHECK_EVERY
            if last and residual < last[1]:
                rate = math.log(residual / last[1]) / (k + 1 - last[0])
                ahead = min(2 * ahead, math.ceil(math.log(tol / residual) / rate))
            last, check = (k + 1, residual), k + 1 + ahead
        q = w / beta[k]
    raise ConvergenceError(
        f"Lanczos ground search not converged in {LANCZOS_MAX_STEPS} steps "
        f"(block of dimension {size})"
    )


@lru_cache(maxsize=32)
def _blocks(n: int, m_up: int, reflect: bool) -> tuple[SimpleNamespace, ...]:
    """The nonempty blocks of one sector under the group generated by the
    spin flip F (at M = n/2) and the site reflection R (if ``reflect``),
    flip-odd first, each with its orbit basis (dim, orbit, coef), the
    pattern of its Hamiltonian (rows, cols, bonds, weights, zz, grade,
    graded) and its end-pair readout (ends, pairs).

    F reverses the ascending basis and R maps each pattern to its mirror
    image.  Every group element is an involution, so p and g(p) share an
    orbit, listed by its lowest position.  The block of character chi
    keeps the orbits whose stabilizer chi leaves at 1 and spans, per
    orbit, sum_g chi(g) e_g(p) normalized: coefficient chi(g)/sqrt(|orbit|)
    on the orbit's pattern g(lowest).  ``orbit`` holds each pattern's
    orbit in the block's coordinates and ``coef`` its coefficient, -1 and
    0 for patterns outside the block.

    The group commutes with H, so an orbit's row is |orbit| times that of
    its lowest pattern p (Sandvik, AIP Conf. Proc. 1297, 135 (2010)).  Per
    hop of p over bond k to a pattern q inside, ``bonds`` holds k and
    ``weights`` |orbit| coef_p coef_q = coef_q / coef_p; ``rows`` and
    ``cols`` hold the orbits of p and q, then those of the diagonal;
    triples at one place add up.  ``zz`` holds per orbit the z_k z_{k+1}
    at p, as a (dim, n-1) matrix, and ``grade`` the up spins on odd sites
    of p mod 2; ``graded`` says whether every pattern has its orbit's
    grade.  A chain only scales these (see :func:`build_sector_hamiltonian`).

    The rest reads the end pair (sites 1, n).  F and R keep whether its
    spins agree, so ``ends`` holds per orbit its (uu + dd) and (ud + du)
    weights, the sum of coef^2 over its patterns, as a (2, dim) matrix.
    ``pairs`` holds per orbit pair i <= j the sum of coef * coef over its
    up-down patterns whose down-up partner (end bits flipped) is inside.
    """
    states = sector_basis(n, m_up).states
    pos = np.arange(len(states))
    # each pattern's position, looked up by its value
    index = np.zeros(1 << n, dtype=np.intp)
    index[states] = pos
    bits = ((states >> np.arange(n, dtype=np.uint64)[:, None]) & np.uint64(1)).astype(np.intp)
    differ = bits[0] ^ bits[-1]
    generators = [pos[::-1]] if 2 * m_up == n else []
    if reflect:
        generators.append(index[(1 << np.arange(n - 1, -1, -1)) @ bits])
    perms = [pos]
    for perm in generators:
        perms += [p[perm] for p in perms]
    perms = np.array(perms)
    lowest = perms.min(axis=0)
    is_rep = lowest == pos
    reps = np.flatnonzero(is_rep)
    # each orbit's representative, its lowest pattern: z.z signs and hops
    # (bond, which representative, partner's position); every pattern's grade
    hopping = bits[:-1, reps] ^ bits[1:, reps]
    zz = (1.0 - 2.0 * hopping).T
    grade = np.bitwise_xor.reduce(bits[::2], axis=0)
    hop_bond, hop_from = np.nonzero(hopping)
    hop_to = index[states[reps[hop_from]] ^ (np.uint64(3) << hop_bond.astype(np.uint64))]
    # the lowest pattern of each orbit whose end spins differ, and its end-flipped mate
    head = reps[differ[reps] == 1]
    mate = index[states[head] ^ np.uint64(1 | 1 << (n - 1))]
    blocks = []
    for signs in product((-1.0, 1.0), repeat=len(generators)):
        chars = np.ones(1)
        for sign in signs:
            chars = np.concatenate([chars, sign * chars])
        # |stabilizer| where chi is 1 on it, else 0
        stabilizer = chars @ (perms == pos)
        inside = stabilizer > 0
        if not inside.any():
            continue
        ids = np.cumsum(inside & is_rep) - 1
        orbit = np.where(inside, ids[lowest], -1)
        coef = np.zeros(len(pos))
        # sum_g chi(g) [g(p) = lowest] is |stabilizer| chi(g_p)
        coef[inside] = (chars @ (perms == lowest))[inside] / np.sqrt(
            len(chars) * stabilizer[inside]
        )
        dim = int(ids[-1]) + 1
        kept = inside[reps]
        hop = kept[hop_from] & inside[hop_to]
        src, dst = reps[hop_from[hop]], hop_to[hop]
        ends = np.bincount(
            differ[inside] * dim + orbit[inside], coef[inside] ** 2, minlength=2 * dim
        ).reshape(2, dim)
        # F and R commute with the end flip: orbits i < j share |orbit| = 1/coef(head)^2
        # up-down patterns (i = j half as many), each worth coef(head) coef(mate)
        i, j = orbit[head], orbit[mate]
        keep = (i >= 0) & (i <= j)
        value = coef[mate[keep]] / coef[head[keep]] * np.where(i < j, 1.0, 0.5)[keep]
        diagonal = np.arange(dim)
        block = SimpleNamespace(
            dim=dim, orbit=orbit, coef=coef, rows=np.concatenate([orbit[src], diagonal]),
            cols=np.concatenate([orbit[dst], diagonal]), bonds=hop_bond[hop],
            weights=coef[dst] / coef[src], zz=zz[kept], grade=grade[reps[kept]],
            graded=bool(np.array_equal(grade[inside], grade[lowest[inside]])),
            ends=ends, pairs=(i[keep], j[keep], value),
        )
        for array in (*vars(block).values(), *block.pairs):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        blocks.append(block)
    return tuple(blocks)


def _sector_blocks(realization: CouplingRealization, m_up: int) -> tuple[SimpleNamespace, ...]:
    """:func:`_blocks` of one sector of this chain, with the reflection on
    palindromic couplings."""
    return _blocks(realization.n, m_up, realization.couplings == realization.couplings[::-1])


def _degeneracy_tol(e0: float) -> float:
    """How far above the ground level e0 a level joins its multiplet."""
    return max(GROUND_DEGENERACY_RTOL * abs(e0), GROUND_DEGENERACY_ATOL)


def _gershgorin(block: SimpleNamespace) -> float:
    """Lower bound of a realized block's levels, min_i (h_ii - sum_{j != i}
    |h_ij|) (Gershgorin 1931), read from its triples: a hop that lands on
    its own orbit adds to the centre, and triples at one place count
    apart in the radius, which only widens it."""
    on = block.rows == block.cols
    centre = np.bincount(block.rows[on], block.values[on], minlength=block.dim)
    radius = np.bincount(block.rows[~on], np.abs(block.values[~on]), minlength=block.dim)
    return float(np.min(centre - radius))


def ground_mixture(realization: CouplingRealization, delta1: float) -> MixedState:
    """Equal-weight mixture over the degenerate ground multiplet of H(delta1).

    The infinite marker short-circuits to the ideal Neel mixture.  For
    finite delta1 each sector M <= n/2 (sector n-M has its spectrum by spin
    flip), M = n//2 first, is split into its symmetry blocks (see
    :func:`_blocks`), and a Lanczos search (:func:`_lanczos`) in each
    block's coordinates, from a fixed start, finds the block's two lowest
    levels.  Every level within the degeneracy tolerance of the global
    minimum joins the multiplet with equal weight; a multiplet larger than
    two signals a regime this simulator does not model.

    With e0 the lowest level found so far, a block whose Gershgorin bound
    (:func:`_gershgorin`) exceeds e0 + 2 tol(e0) is not searched, and a
    search stops once its lowest level has converged above that line.
    The cut-off e0 + tol(e0) never rises as e0 falls, so neither drops a
    level that the multiplet or its refusal would count, and the second
    tol is a margin far wider than the rounding of a bound or a Ritz
    value; a block that is searched to the end takes the same steps as
    without the line, so the multiplet is the same to the bit.

    The flip partner in sector n-M of a vector of sector M is the reversed
    vector; vectors of the self-conjugate sector M = n/2 are flip
    eigenvectors by construction.  A Krylov space from one start vector
    sees one vector of an eigenspace, so a degeneracy inside one block
    goes unseen; the symmetries split the known ones (the near-degenerate
    Neel-like pair of an even chain at large delta1 lies in two flip
    blocks).
    """
    if math.isinf(delta1):
        return neel_mixture(realization.n)
    if not delta1 > 1:
        raise ValueError(
            f"finite delta1 must exceed 1 (antiferromagnetic Ising side), got {delta1}"
        )
    n = realization.n
    found, e0 = [], math.inf  # (sector, levels, their vectors) per block searched
    for m in range(n // 2, -1, -1):
        ham = build_sector_hamiltonian(realization, delta1, m)
        start = np.sin(np.arange(1.0, ham.basis.dim + 1.0))
        for block in ham.blocks:
            above = e0 + 2.0 * _degeneracy_tol(e0)
            if _gershgorin(block) > above:
                continue
            values, vectors = _lanczos(
                lambda x, b=block: np.bincount(b.rows, b.values * x[b.cols], minlength=b.dim),
                np.bincount(block.orbit + 1, block.coef * start, minlength=block.dim + 1)[1:],
                above,
            )
            # a pattern outside the block reads entry -1 times coefficient 0
            found.append((m, values, block.coef * vectors[:, block.orbit]))
            e0 = min(e0, float(values[0]))
    tol = _degeneracy_tol(e0)
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
        PureComponent(weight=w, m_up=m, amplitudes=np.ascontiguousarray(v))
        for m, v in multiplet
    )
    return MixedState(n=n, components=comps, origin="degenerate-ground-multiplet")


# One entry per symmetry block (3.0 MB at n=13: U and X of the 434 + 434
# orbits of the reflection-even block that an odd-n Neel start reaches).
# A quench keeps its own blocks and no command repeats a quench, so more
# would only be stale.
@lru_cache(maxsize=1)
def _evolver(
    realization: CouplingRealization, delta2: float, m_up: int, block: int
) -> SimpleNamespace:
    """Eigenbasis of H(delta2) in one symmetry block of a sector, the
    ``block``-th of :func:`_sector_blocks`: the block's fields with its
    ``energies`` and ``modes``, or, for a bipartite block, its Gram
    eigenbasis ``u``, ``root`` and ``x`` (``u`` is None otherwise).

    The block is realized for this chain (see :func:`build_sector_hamiltonian`).
    At delta2 = 0 with every orbit of a single grade (up spins on odd sites
    mod 2) the block couples only orbits of different grades: it is
    [[0, X], [X^T, 0]], with the p orbits of its smaller grade (grade 0 on
    a tie) first and the q of the other after, and ``order`` lists the
    block's orbits that way; its ``ends`` and ``pairs`` read amplitudes in
    that order.  Only X is scattered, and one ``eigh`` of its p x p Gram
    matrix X X^T = U diag(lam) U^T replaces the ``eigh`` of the whole
    block; ``root`` is sqrt(lam), with lam clipped at the smallest normal
    double so that dividing by it needs no case for zero modes (see
    :func:`_amplitudes`).  Otherwise the whole block takes ``eigh``.
    """
    orbits = build_sector_hamiltonian(realization, delta2, m_up).blocks[block]
    r, c, value, grade = orbits.rows, orbits.cols, orbits.values, orbits.grade
    if not (delta2 == 0 and orbits.graded):
        h = np.bincount(r * orbits.dim + c, value, minlength=orbits.dim**2)
        energies, modes = np.linalg.eigh(h.reshape(orbits.dim, orbits.dim))
        for array in (energies, modes):
            array.flags.writeable = False
        return SimpleNamespace(**vars(orbits), energies=energies, modes=modes, u=None)
    small = int(np.count_nonzero(grade) < orbits.dim / 2)
    order = np.concatenate([np.flatnonzero(grade == small), np.flatnonzero(grade != small)])
    p = np.count_nonzero(grade == small)
    q = orbits.dim - p
    place = np.empty(orbits.dim, dtype=np.intp)
    place[order] = np.arange(orbits.dim)
    keep = (grade[r] == small) & (grade[c] != small)
    # X in column order: the chunk products read X^T row by row
    x = np.bincount(
        (place[c[keep]] - p) * p + place[r[keep]], value[keep], minlength=p * q
    ).reshape(q, p).T
    lam, u = np.linalg.eigh(x @ x.T)
    root = np.sqrt(np.maximum(lam, np.finfo(float).tiny))
    first, second, weight = orbits.pairs
    ends, pairs = orbits.ends[:, order], (place[first], place[second], weight)
    for array in (order, u, root, x, ends, *pairs[:2]):
        array.flags.writeable = False
    return SimpleNamespace(
        **{**vars(orbits), "ends": ends, "pairs": pairs}, order=order, u=u, root=root, x=x
    )


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


def correlators(state: MixedState) -> list[tuple[float, int, np.ndarray, np.ndarray]]:
    """Per flip representative of ``state`` its orbit weight, sector M and
    the correlators a quench to delta2 = 0 reads
    (:class:`~xxzquench.freefermion.CorrelatorQuench`): G2[j, k] =
    <c+_j c_k>, the Gram matrix of the vectors c_k psi, and G4, that of
    c_l c_m psi over the site pairs l < m.

    With a fermion on every up spin, c_k clears bit k-1 of a pattern with
    the Jordan-Wigner sign (-1)^(up spins below k); for c_l c_m, l < m,
    both signs are read from the pattern before either is cleared.
    """
    n, found = state.n, []
    for weight, comp in _flip_representatives(state):
        states = sector_basis(n, comp.m_up).states
        ups = (states >> np.arange(n, dtype=np.uint64)[:, None]) & np.uint64(1)
        signs = 1.0 - 2.0 * ((np.cumsum(ups, axis=0) - ups) % 2)
        # every pattern's M set sites, ascending, read once for both orders
        sites = np.nonzero(ups.T)[1].reshape(len(states), comp.m_up)
        grams = []
        for order in (1, 2):
            # a row per site set of this order, in combinations order
            sets = np.array(list(combinations(range(n), order)))
            row_of = np.zeros((n,) * order, dtype=np.intp)
            row_of[tuple(sets.T)] = np.arange(len(sets))
            target = sector_basis(n, comp.m_up - order).states if comp.m_up >= order else []
            rows = np.zeros((len(sets), len(target)))
            picks = np.array(list(combinations(range(comp.m_up), order)), dtype=np.intp)
            if len(picks):  # every pattern's site sets of this order, scattered at once
                at = sites[:, picks]  # (patterns, sets, order)
                cleared = states[:, None] ^ np.bitwise_or.reduce(
                    np.uint64(1) << at.astype(np.uint64), axis=-1)
                column = np.empty(1 << n, dtype=np.intp)  # a target pattern's column
                column[target] = np.arange(len(target))
                sign = signs[at, np.arange(len(states))[:, None, None]].prod(axis=-1)
                rows[row_of[tuple(np.moveaxis(at, -1, 0))], column[cleared]] = (
                    sign * comp.amplitudes[:, None])
            grams.append(rows @ rows.T)
        found.append((weight, comp.m_up, *grams))
    return found


class _Prepared(NamedTuple):
    """One flip representative: its orbit weight, sector, the symmetry
    blocks it reaches and its start in each (see :func:`_start`)."""

    weight: float
    m_up: int
    blocks: list[SimpleNamespace]
    coeffs: list[np.ndarray | tuple[np.ndarray, ...]]


def run_bytes(n: int, evolve: bool = True) -> int:
    """Estimate of the peak bytes of one n-site run, known before anything
    is allocated.  The ground search holds the largest sector's Lanczos
    basis, 5 steps^2 doubles for the ``eigh`` of its tridiagonal matrix at
    the last check (the matrix, LAPACK's copy, workspace and vectors), and
    the cached block structure (:func:`_blocks`) of the sectors M <= n/2,
    with and without the reflection, as a disorder ensemble keeps both:
    2^n patterns of at most 6 (n + 1) doubles (per pattern 3; per orbit
    its z.z signs, grade, readout and diagonal triple; per hop its row,
    column, bond, weight and value).  If it ``evolve``s here rather than on
    free fermions, it also holds the eigendecomposition of H(delta2) and
    the temporaries of one chunk of a series (phases, cos/sin weights,
    block amplitudes and the end pair's gathered rows), charged at
    4 CHUNK_BYTES.

    A dense ``eigh`` of side N peaks at about 5 N^2 doubles (the block,
    numpy's working copy, the 2 N^2 of LAPACK's dsyevd workspace and the
    modes), and a block is at most the whole sector, whose modes and
    energies take 8 d (d + 1) bytes.  Whole quenches of disordered chains
    at n = 13 and 14 grew the resident set by 5.2 times that, so the
    evolution side is taken as six times.
    """
    dim = math.comb(n, n // 2)
    steps = min(dim, LANCZOS_MAX_STEPS)
    ground = 8 * (steps * (dim + 5 * steps) + 6 * (n + 1) * 2**n)
    if not evolve:
        return ground
    return ground + 6 * 8 * dim * (dim + 1) + 4 * CHUNK_BYTES


class QuenchEvolution:
    """Prepared quench run: ground mixture of H(delta1) evolved under H(delta2).

    The constructor keeps one representative per spin-flip orbit of the
    initial mixture, projects it onto the symmetry blocks of its sector
    and diagonalizes H(delta2) only in the blocks it reaches.  Time points
    are then evaluated ``chunk_points`` at a time: per block real matrix
    products give the real and imaginary parts of the block amplitudes
    over the chunk (see :func:`_amplitudes`), and the end pair's X state
    (a, b, c) is read from them with the block's own readout (see
    :func:`_blocks`).
    Each representative's norm is checked per point, and the series
    passes :func:`~xxzquench.freefermion.check_x_series` (trace and
    positivity).
    """

    def __init__(
        self, realization: CouplingRealization, delta1: float, delta2: float
    ):
        self.realization = realization
        self.delta2 = delta2
        self.initial = ground_mixture(realization, delta1)
        self._prepped: list[_Prepared] = []
        for weight, comp in _flip_representatives(self.initial):
            blocks, coeffs = [], []
            for k, block in enumerate(_sector_blocks(realization, comp.m_up)):
                projected = np.bincount(
                    block.orbit + 1, block.coef * comp.amplitudes, minlength=block.dim + 1
                )[1:]
                if np.linalg.norm(projected) > PARITY_LEAK_TOL:
                    blocks.append(_evolver(realization, delta2, comp.m_up, k))
                    coeffs.append(_start(blocks[-1], projected))
            self._prepped.append(_Prepared(weight, comp.m_up, blocks, coeffs))
        # chunks stay sized to the whole sector's amplitudes, although the
        # chunk's arrays are the blocks': wider ones widen scan windows and peaks
        dim_max = max(len(block.coef) for rep in self._prepped for block in rep.blocks)
        self.chunk_points = max(1, CHUNK_BYTES // (16 * dim_max))

    def _end_pair(self, ts: np.ndarray) -> np.ndarray:
        """(a, b, c) of the end pair over one chunk, as rows.

        Per block the (uu + dd) and (ud + du) weights and the real ud-du
        coherence are read with the block's readout (see :func:`_blocks`);
        the flip partner's are the representative's.  The imaginary
        coherence and the off-X entries are not formed, since the flip
        average cancels the former and no sector reaches the latter.
        """
        n_t = len(ts)
        total = np.zeros((3, n_t))
        for rep in self._prepped:
            part = np.zeros((3, n_t))
            for block, coeff in zip(rep.blocks, rep.coeffs):
                amp = _amplitudes(block, coeff, ts)
                first, second, value = block.pairs
                coherence = value @ (amp[first] * amp[second])
                amp **= 2
                both = np.vstack([block.ends @ amp, coherence])
                part += both[:, :n_t] + both[:, n_t:]
            _check(np.abs(np.sqrt(part[:2].sum(axis=0)) - 1.0), NORM_DRIFT_TOL, "norm drift", ts)
            total += rep.weight * part
        # the X state shares each weight between its two diagonal entries
        total[:2] *= 0.5
        return total

    def end_spin_series(
        self, ts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return chunked_series(self._end_pair, self.chunk_points, ts)


def _start(block: SimpleNamespace, projected: np.ndarray) -> np.ndarray | tuple[np.ndarray, ...]:
    """A start given in a block's orbit coordinates, as its block evolves
    it: coefficients in the modes of a dense block; of a bipartite one
    (alpha, beta, y0), with alpha = U^T x0 and beta = U^T X y0 from its
    parts x0 and y0 on the two grades (see :func:`_evolver`)."""
    if block.u is None:
        return block.modes.T @ projected
    graded = projected[block.order]
    x0, y0 = graded[: len(block.root)], graded[len(block.root) :]
    return block.u.T @ x0, block.u.T @ (block.x @ y0), y0


def _amplitudes(block: SimpleNamespace, coeff, ts: np.ndarray) -> np.ndarray:
    """A block's amplitudes re - i im over one chunk, as [re | im] with a
    row per orbit in the block's order.

    A dense block sums its modes with cos and sin of energy times time.  A
    bipartite block H = [[0, X], [X^T, 0]] has exp(-iHt) = cos(sqrt(H^2) t)
    - i H sin(sqrt(H^2) t)/sqrt(H^2), and a function f of X^T X is f(0) +
    X^T U (f(lam) - f(0))/lam U^T X (Higham, Functions of Matrices, SIAM
    2008), so with s = sqrt(lam), c = cos(s t), sn = sin(s t)/s and
    k = 2 sin^2(s t/2)/lam = (1 - c)/lam:

        psi_p = U (c alpha) - i U (sn beta)
        psi_q = y0 - X^T U (k beta) - i X^T U (sn alpha).

    All three are taken from sin and cos of the half angle s t/2, so none
    cancels at small lam.  The products of an alpha or beta that is 0 (a
    start on one grade, as a Neel pattern) are skipped.
    """
    n_t = len(ts)
    if block.u is None:
        _check_phases(float(np.abs(block.energies).max()), ts)
        phase = block.energies[:, None] * ts
        w = np.concatenate([np.cos(phase), np.sin(phase)], axis=1)
        w *= coeff[:, None]
        return block.modes @ w
    alpha, beta, y0 = coeff
    p = len(alpha)
    _check_phases(float(block.root.max(initial=0.0)), ts)
    half = 0.5 * block.root[:, None] * ts
    sin_half = np.sin(half)
    c = 1.0 - 2.0 * np.square(sin_half)
    sin_half /= block.root[:, None]
    sn_half = sin_half * np.cos(half)
    del half  # each temporary goes once it has been used
    has_alpha, has_beta = alpha.any(), beta.any()
    amp = np.zeros((block.dim, 2 * n_t))
    on_p = slice(0 if has_alpha else n_t, 2 * n_t if has_beta else n_t)
    on_q = slice(0 if has_beta else n_t, 2 * n_t if has_alpha else n_t)
    # the right-hand sides [c alpha | sn beta] of psi_p and [k beta | sn alpha] of psi_q
    to_p = np.concatenate([c * alpha[:, None], sn_half * (2.0 * beta[:, None])], axis=1)
    del c
    amp[:p, on_p] = block.u @ to_p[:, on_p]
    del to_p
    to_q = np.concatenate(
        [np.square(sin_half) * (2.0 * beta[:, None]), sn_half * (2.0 * alpha[:, None])], axis=1
    )
    del sin_half, sn_half
    amp[p:, on_q] = block.x.T @ (block.u @ to_q[:, on_q])
    del to_q
    amp[p:, :n_t] = y0[:, None] - amp[p:, :n_t]
    return amp
