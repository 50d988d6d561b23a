"""Entanglement diagnostics: FEF, negativity, first-peak search, scaling fit.

For the end-spin X state the fully entangled fraction, the maximal
overlap with any maximally entangled two-qubit state, reduces to
max(a, b + |c|): the psi Bell pair sees the inner block b +- c, while no
rotation within the phi plane can beat a because the outer block carries
no coherence.  The purifiability criterion is fef > 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from . import exactdiag, freefermion, model
from .errors import NoPeakError
from .freefermion import EndSpinState

Engine = Literal["freefermion", "exactdiag"]

DEFAULT_GRID_STEP_CAP = 0.02
GRID_POINTS_FLOOR = 2000
REFINE_RESOLUTION = 1e-6
# About 13x the largest default grid (scan-n at n=241: 7,670 points).
MAX_GRID_POINTS = 100_000

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FefResult:
    """Fully entangled fraction and the Bell state achieving it."""

    fef: float
    argmax_bell: Literal["psi_plus", "psi_minus", "phi_pair"]


@dataclass(frozen=True)
class TmaxResult:
    """First maximum of fef(t) after the quench."""

    t_max: float
    fef_at_tmax: float
    scan_resolution: float
    refined: bool


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares power law amplitude * N^(-exponent) in log-log space."""

    amplitude: float
    exponent: float
    fit_range: tuple[int, int]
    residual: float


def fully_entangled_fraction(state: EndSpinState) -> FefResult:
    psi_branch = state.b + abs(state.c)
    if state.a >= psi_branch:
        return FefResult(fef=state.a, argmax_bell="phi_pair")
    which = "psi_plus" if state.c >= 0 else "psi_minus"
    return FefResult(fef=psi_branch, argmax_bell=which)


def _fef(a, b, c):
    """Array form of the fef rule max(a, b + |c|); one definition serves
    the grid scan and the lockstep refinement, which must agree bit for bit."""
    return np.maximum(a, b + np.abs(c))


def _negativity(a, c):
    """Array form of the negativity max(0, |c| - a) of the partial
    transpose, whose one possibly negative eigenvalue is a - |c|."""
    return np.maximum(0.0, np.abs(c) - a)


def negativity(state: EndSpinState) -> float:
    """Negativity of the partial transpose; zero exactly iff separable."""
    return float(_negativity(state.a, state.c))


def resolve_engine(spec: model.ChainSpec, requested: str = "auto") -> Engine:
    """Pick the evolution engine: every quench to delta2 = 0 runs on free
    fermions, from the Neel closed form or, for finite delta1, from the
    ground multiplet's correlators; delta2 > 0 needs exact diagonalization."""
    if requested in ("exactdiag", "ed"):
        return "exactdiag"
    if requested not in ("auto", "freefermion", "ff"):
        raise ValueError(f"unknown engine {requested!r}")
    if spec.delta2 == 0.0:
        return "freefermion"
    if requested != "auto":
        raise ValueError(
            "the free-fermion engine requires delta2 = 0; a quench to delta2 > 0 "
            "needs exact diagonalization"
        )
    return "exactdiag"


class CurveEvaluator:
    """fef(t) and (a, b, c)(t) of K member specs on one engine.

    The specs differ at most in length, coupling, disorder and seed, so
    one engine serves them all.  Construction draws each member's couplings
    and performs the one-off diagonalizations; evaluations are then cheap
    enough for dense grids and golden-section refinement.  Neel chains on
    free fermions (:func:`stacks`) share one :class:`freefermion.ChainStack`;
    any other member keeps its own prepared quench, a
    :class:`freefermion.CorrelatorQuench` of its ground multiplet's
    correlators or an :class:`exactdiag.QuenchEvolution`, and these are
    evaluated one after the other.  Either way member k's values are the ones
    ``evaluator[k:k + 1]`` gives, bit for bit.  Every evaluation of a grid,
    the first-peak scans of :func:`first_peak` included, walks the same
    chunks of it.
    """

    def __init__(self, specs: list[model.ChainSpec], engine: str = "auto"):
        self.specs = list(specs)
        self.engine: Engine = resolve_engine(self.specs[0], engine)
        realizations = [model.realize_couplings(spec) for spec in self.specs]
        self._stack, self._members = None, []
        if stacks(self.specs[0], self.engine):
            self._stack = freefermion.ChainStack(realizations)
        elif self.engine == "exactdiag":
            self._members = [exactdiag.QuenchEvolution(r, spec.delta1, spec.delta2)
                             for r, spec in zip(realizations, self.specs)]
        else:
            self._members = [
                freefermion.CorrelatorQuench(r, exactdiag.correlators(
                    exactdiag.ground_mixture(r, spec.delta1)))
                for r, spec in zip(realizations, self.specs)
            ]

    def __getitem__(self, part) -> CurveEvaluator:
        """The members ``part`` (a slice or an index array) as an evaluator
        of their own, sharing their prepared quenches."""
        keep = np.arange(len(self.specs))[part].tolist()
        sub = CurveEvaluator.__new__(CurveEvaluator)
        sub.specs, sub.engine = [self.specs[k] for k in keep], self.engine
        sub._stack = None if self._stack is None else self._stack[part]
        sub._members = [self._members[k] for k in keep] if self._members else []
        return sub

    def _chunks(self, ts: np.ndarray):
        """(members, times, (a, b, c)) chunks over the shared times ``ts``,
        each member's in time order: those of the stack's series, or each
        member's series in windows of its own ``chunk_points``.  The
        consumer drops a chunk before it asks for the next."""
        if self._stack is not None:
            yield from self._stack.series(ts)
        for k, member in enumerate(self._members):
            for lo in range(0, len(ts), member.chunk_points):
                times = slice(lo, lo + member.chunk_points)
                yield k, times, member.end_spin_series(ts[times])

    def series(self, ts: np.ndarray) -> np.ndarray:
        """(a, b, c) of every member over ``ts``, (3, K, T)."""
        abc = np.empty((3, len(self.specs), len(ts)))
        for members, times, chunk in self._chunks(ts):
            abc[:, members, times] = chunk
            del chunk
        return abc

    def fef_chunks(self, ts: np.ndarray):
        """(members, times, fef) chunks over ``ts``, those of :meth:`_chunks`
        with each (a, b, c) reduced to its fef: (members, t) of the stack,
        (t,) of member k's own quench.  Both are dropped here before the
        next chunk is computed."""
        for members, times, chunk in self._chunks(ts):
            fef = _fef(*chunk)
            del chunk
            yield members, times, fef
            del fef

    def fef_series(self, ts: np.ndarray) -> np.ndarray:
        """fef curves (K, T) of every member over ``ts``, assembled chunk by
        chunk, so only the curves outlive a chunk."""
        fef = np.empty((len(self.specs), len(ts)))
        for members, times, chunk in self.fef_chunks(ts):
            fef[members, times] = chunk
            del chunk
        return fef

    def end_spin_at(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) of member k at time ``ts[k]``, each of shape (K,)."""
        if self._stack is not None:
            return self._stack.end_spin_at(ts)
        ts = np.asarray(ts, dtype=float)
        return tuple(np.concatenate(x) for x in zip(*(
            member.end_spin_series(ts[k:k + 1]) for k, member in enumerate(self._members))))


def stacks(spec: model.ChainSpec, engine: Engine) -> bool:
    """Whether members of ``spec`` on ``engine`` share one stacked kernel
    in a :class:`CurveEvaluator`: Neel chains on free fermions, of any
    lengths, do; correlator and exact-diagonalization members do not."""
    return engine == "freefermion" and spec.ideal_neel_start


def block_charge(specs: list[model.ChainSpec], engine: Engine) -> tuple[int, str]:
    """(bytes, what) of a :class:`CurveEvaluator` of the block ``specs`` on
    ``engine``, estimated before a draw.  A chain stack (:func:`stacks`)
    is charged :func:`freefermion.stack_bytes` of every member at the
    longest length, uniform only when no member is disordered.  Any other
    member, a block of its own, is charged :func:`exactdiag.run_bytes`,
    the evolution only on exact diagonalization, and refused beyond its cap."""
    n = max(spec.n for spec in specs)
    if stacks(specs[0], engine):
        uniform = all(spec.disorder_sigma == 0.0 for spec in specs)
        return (freefermion.stack_bytes(n, len(specs), uniform),
                f"free-fermion set-up(s) of {len(specs)} chain(s) of n={n}")
    cap = exactdiag.MAX_SITES
    if n > cap:
        raise ValueError(
            f"exact diagonalization, which a finite delta1 needs for its ground state and "
            f"delta2 > 0 for its evolution, is capped at {cap} sites (2 <= n <= {cap}, got "
            f"{[spec.n for spec in specs if spec.n > cap]}); longer chains run on free "
            f"fermions from delta1=inf to delta2=0")
    return exactdiag.run_bytes(n, evolve=engine == "exactdiag"), f"exact diagonalization(s) of n={n}"


def golden_section_max(
    fun: Callable[[np.ndarray], np.ndarray], lo, hi, xtol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maxima of K functions in lockstep.

    ``lo`` and ``hi`` hold the K brackets (scalars for K = 1) and ``fun``
    maps K times, one per member, to the K values, so each step is one
    call for the whole block.  Every member follows the scalar iteration
    exactly; one whose bracket is already within ``xtol`` stops moving and
    is evaluated at its own inner point only to keep the call shape.
    Returns the bracket midpoints and their values.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    live = (b - a) > xtol
    while np.any(live):
        keep_left = fc >= fd  # the maximum is in [a, d]: drop (d, b]
        left, right = live & keep_left, live & ~keep_left
        b = np.where(left, d, b)
        a = np.where(right, c, a)
        x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = fun(np.where(live, x, c))
        c, fc, d, fd = (
            np.where(left, x, np.where(right, d, c)),
            np.where(left, fx, np.where(right, fd, fc)),
            np.where(left, c, np.where(right, x, d)),
            np.where(left, fc, np.where(right, fx, fd)),
        )
        live = (b - a) > xtol
    mid = 0.5 * (a + b)
    return mid, fun(mid)


def default_horizon(spec: model.ChainSpec) -> float:
    return 2.0 * spec.n / (math.pi * spec.j)


def default_grid_step(spec: model.ChainSpec, horizon: float) -> float:
    return min(DEFAULT_GRID_STEP_CAP / spec.j, horizon / GRID_POINTS_FLOOR)


def time_grid(horizon: float, step: float) -> np.ndarray:
    """Uniform grid 0, step, ... up to horizon, refused before allocation
    when a bound is not finite or the grid exceeds MAX_GRID_POINTS."""
    if not (math.isfinite(horizon) and math.isfinite(step)):
        raise ValueError(
            f"time horizon and grid step must be finite, got {horizon}, {step}"
        )
    if not step > 0:
        raise ValueError(f"grid step must be positive, got {step}")
    points = (horizon + 0.5 * step) / step
    if points > MAX_GRID_POINTS:
        raise ValueError(
            f"time grid of {points:.3g} points (horizon {horizon}, step {step}) "
            f"exceeds the cap of {MAX_GRID_POINTS}"
        )
    # at a zero horizon half a subnormal step rounds to 0, which would end
    # the grid before t = 0
    return np.arange(0.0, horizon + 0.5 * step, step) if horizon > 0 else np.zeros(1)


def first_peak_index(fef: np.ndarray, baseline: float) -> int | None:
    """Index of the first strict local maximum exceeding ``baseline``."""
    fef = np.asarray(fef)
    mid = fef[1:-1]
    hits = np.flatnonzero((mid > fef[:-2]) & (mid > fef[2:]) & (mid > baseline))
    return int(hits[0]) + 1 if hits.size else None


def first_peak(
    chunks, *, above_baseline: bool = True,
    any_height_fallback: bool = False, argmax_fallback: bool = False,
) -> tuple:
    """First maximum of one fef curve, read as non-empty (times, values)
    chunks in time order.  The peak is picked on the grid by these rules,
    in order:

    - the first strict local maximum above the curve's t = 0 value (of any
      height when not ``above_baseline``), confirmed at the first chunk
      that holds its right neighbour, where the reading stops;
    - ``any_height_fallback``: else the first strict local maximum of any
      height;
    - ``argmax_fallback``: else the grid maximum, which is not refined.

    Only the fallbacks read the whole grid; a curve left without a peak
    raises NoPeakError.  Returns the grid peak (t_{i-1}, t_i, t_{i+1},
    fef(t_i)) (t_i three times for the grid maximum), whether
    :func:`refine_peaks` refines it, and the number of points read.
    """
    seen_t, seen_f, points = [], [], 0
    tail_t = tail_f = np.empty(0)
    for times, values in chunks:
        if not points:
            baseline = values[0] if above_baseline else -np.inf
        seen_t.append(times)
        seen_f.append(values)
        points += len(values)
        # the scan resumes at the last point read, still unconfirmed, and
        # its left neighbour
        t, f = np.concatenate((tail_t, times)), np.concatenate((tail_f, values))
        i = first_peak_index(f, baseline)
        if i is not None:
            return (t[i - 1], t[i], t[i + 1], f[i]), True, points
        tail_t, tail_f = t[-2:], f[-2:]
    t, f = np.concatenate(seen_t), np.concatenate(seen_f)
    i = first_peak_index(f, -np.inf) if any_height_fallback else None
    if i is not None:
        return (t[i - 1], t[i], t[i + 1], f[i]), True, points
    if argmax_fallback:
        i = int(np.argmax(f))
        return (t[i], t[i], t[i], f[i]), False, points
    if any_height_fallback or not above_baseline:
        raise NoPeakError(f"no strict local maximum of fef of any height within horizon {t[-1]}")
    raise NoPeakError(f"no first maximum of fef above {baseline} within horizon {t[-1]}")


def tmax_peak(evaluator: CurveEvaluator, ts: np.ndarray) -> tuple:
    """:func:`first_peak` of the one member of ``evaluator`` over ``ts`` by
    the t_max rule: on odd chains the first strict local maximum above the
    t = 0 value, else, and on even chains always, the first of any height.
    The reading stops at the chunk that confirms it."""
    return first_peak(((ts[times], fef.ravel()) for _, times, fef in evaluator.fef_chunks(ts)),
                      above_baseline=evaluator.specs[0].n % 2 == 1, any_height_fallback=True)


def refine_peaks(evaluator: CurveEvaluator, found: list) -> tuple[np.ndarray, np.ndarray]:
    """Peak times and values, each (K,), of the K members of ``evaluator``
    from their :func:`first_peak` results ``found``.  The refinable grid
    peaks (t_{i-1}, t_i, t_{i+1}, fef(t_i)) are refined in one
    :func:`golden_section_max` lockstep, each on [t_{i-1}, t_{i+1}] to
    1e-6/j of its own coupling j; the others keep their grid point.  Golden
    section assumes a unimodal bracket, so a refined value below fef(t_i)
    gives way to the grid point."""
    lo, t, hi, fef = np.array([peak for peak, _, _ in found], dtype=float).T
    todo = np.flatnonzero([refinable for _, refinable, _ in found])
    if todo.size:
        part = evaluator[todo]
        xtol = REFINE_RESOLUTION / np.array([spec.j for spec in part.specs])
        t_ref, f_ref = golden_section_max(
            lambda ts: _fef(*part.end_spin_at(ts)), lo[todo], hi[todo], xtol)
        grid_better = f_ref < fef[todo]
        t[todo] = np.where(grid_better, t[todo], t_ref)
        fef[todo] = np.where(grid_better, fef[todo], f_ref)
    return t, fef


def resolve_grid(spec: model.ChainSpec, horizon=None, step=None) -> tuple:
    """(horizon, step, grid) of a time scan, by default up to 2n/(pi j) in
    steps of min(0.02/j, horizon/2000), at least 2,001 points whatever the
    unit of j.  A negative or non-finite horizon is refused; a zero one
    gives the single point t = 0."""
    horizon = horizon if horizon is not None else default_horizon(spec)
    if not math.isfinite(horizon):  # refused before a step is derived from it
        raise ValueError(f"time horizon must be finite, got {horizon}")
    if horizon < 0:
        raise ValueError(f"time horizon must be >= 0, got {horizon}")
    if step is None:
        step = default_grid_step(spec, horizon if horizon > 0 else 1e-9)
    return horizon, step, time_grid(horizon, step)


def search_grid(spec: model.ChainSpec, horizon=None, step=None) -> tuple:
    """:func:`resolve_grid` of a first-peak search, refused before any
    set-up when the grid holds t = 0 alone."""
    horizon, step, ts = resolve_grid(spec, horizon, step)
    if not ts[-1] > 0:
        raise ValueError(f"a first-peak search needs a positive time horizon and a grid step below "
                         f"twice it; horizon {horizon} at grid step {step} gives t = 0 alone")
    return horizon, step, ts


def find_tmax(
    engine: str,
    spec: model.ChainSpec,
    search_horizon: float | None = None,
    grid_step: float | None = None,
) -> TmaxResult:
    """The first maximum of fef(t) after the quench, ``scan-n``'s record of
    a chain of one size: :func:`tmax_peak` on the grid of :func:`search_grid`,
    which refuses a grid holding only t = 0, refined by golden section
    (:func:`refine_peaks`) to an absolute time resolution of 1e-6/j.  A
    curve without a strict local maximum on the grid raises NoPeakError.
    """
    _, step, ts = search_grid(spec, search_horizon, grid_step)
    evaluator = CurveEvaluator([spec], engine)
    try:
        found = tmax_peak(evaluator, ts)
    except NoPeakError as exc:
        exc.args = (f"{exc} (n={spec.n}, delta1={spec.delta1}, delta2={spec.delta2})",)
        raise
    (t_max,), (fef_max,) = refine_peaks(evaluator, [found])
    return TmaxResult(
        t_max=float(t_max), fef_at_tmax=float(fef_max),
        scan_resolution=step, refined=True,
    )


def fit_power_law(points: list[tuple[float, float]]) -> PowerLawFit:
    """Least-squares line in (log N, log fef); amplitude = exp(intercept).

    Two points give the exact interpolating power law with zero residual.
    """
    ns = np.array([p[0] for p in points], dtype=float)
    fs = np.array([p[1] for p in points], dtype=float)
    if not np.isfinite([ns, fs]).all():
        raise ValueError("power-law fit requires finite sizes and fef values")
    sizes = len(set(ns.tolist()))  # not np.unique, whose first call imports numpy.ma (16 ms)
    if sizes < 2:
        raise ValueError(f"need at least 2 distinct sizes to fit, got {sizes}")
    if np.any(fs <= 0):
        raise ValueError("power-law fit requires strictly positive fef values")
    if np.any(ns <= 0):
        raise ValueError("power-law fit requires strictly positive sizes")
    slope, intercept = np.polyfit(np.log(ns), np.log(fs), 1)
    resid = np.log(fs) - (slope * np.log(ns) + intercept)
    return PowerLawFit(
        amplitude=float(np.exp(intercept)),
        exponent=float(-slope),
        fit_range=(int(ns.min()), int(ns.max())),
        residual=float(np.sqrt(np.mean(resid**2))),
    )
