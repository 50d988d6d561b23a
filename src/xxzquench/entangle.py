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
    :func:`scan_first_peak`'s included, walks the same chunks of it.
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

    def fef_series(self, ts: np.ndarray) -> np.ndarray:
        """fef curves (K, T) of every member over ``ts``, assembled chunk by
        chunk, so only the curves outlive a chunk."""
        fef = np.empty((len(self.specs), len(ts)))
        for members, times, chunk in self._chunks(ts):
            fef[members, times] = _fef(*chunk)
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
    return np.arange(0.0, horizon + 0.5 * step, step)


def first_peak_index(fef: np.ndarray, baseline: float) -> int | None:
    """Index of the first strict local maximum exceeding ``baseline``."""
    fef = np.asarray(fef)
    mid = fef[1:-1]
    hits = np.flatnonzero((mid > fef[:-2]) & (mid > fef[2:]) & (mid > baseline))
    return int(hits[0]) + 1 if hits.size else None


def refine_peaks(evaluator: CurveEvaluator, peaks: list) -> tuple[np.ndarray, np.ndarray]:
    """Refine the grid peaks (t_{i-1}, t_i, t_{i+1}, fef(t_i)) of the K
    members of ``evaluator`` in one :func:`golden_section_max` lockstep,
    each on [t_{i-1}, t_{i+1}] to 1e-6/j of its own coupling j.  Golden
    section assumes a unimodal bracket, so a refined value below fef(t_i)
    gives way to the grid point.  Returns the peak times and values, each
    (K,)."""
    lo, t, hi, fef = np.array(peaks, dtype=float).T
    xtol = REFINE_RESOLUTION / np.array([spec.j for spec in evaluator.specs])
    t_ref, f_ref = golden_section_max(
        lambda ts: _fef(*evaluator.end_spin_at(ts)), lo, hi, xtol)
    grid_better = f_ref < fef
    return np.where(grid_better, t, t_ref), np.where(grid_better, fef, f_ref)


def locate_first_peak(
    curves: np.ndarray,
    ts: np.ndarray,
    evaluator: CurveEvaluator | None = None,
    *,
    any_height_fallback: bool = False,
    argmax_fallback: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """First maximum of each of K fef curves on the grid ``ts``.

    ``curves`` is (K, T).  Each member's peak is picked on the grid by
    these rules, in order:

    - the first strict local maximum above the curve's t = 0 value;
    - ``any_height_fallback``: else the first strict local maximum of any
      height;
    - ``argmax_fallback``: else the grid maximum, kept unrefined.

    A member left without a peak raises NoPeakError.  With the
    ``evaluator`` of the curves a peak at grid index i is refined on
    [t_{i-1}, t_{i+1}] by :func:`refine_peaks`, every member in lockstep.
    Returns the peak times and values, each of shape (K,).
    """
    ts = np.asarray(ts, dtype=float)
    index = np.empty(len(curves), dtype=int)
    refine = np.full(len(curves), evaluator is not None)
    for k, curve in enumerate(curves):
        i = first_peak_index(curve, curve[0])
        if i is None and any_height_fallback:
            i = first_peak_index(curve, -np.inf)
        if i is None and argmax_fallback:
            i, refine[k] = int(np.argmax(curve)), False
        if i is None:
            raise NoPeakError(f"no first maximum of fef in curve {k} of {len(curves)}")
        index[k] = i
    t_peak, f_peak = ts[index], curves[np.arange(len(curves)), index]
    if np.any(refine):
        todo = np.flatnonzero(refine)
        t_peak[todo], f_peak[todo] = refine_peaks(
            evaluator[todo],
            [(ts[i - 1], ts[i], ts[i + 1], f_peak[k]) for k, i in zip(todo, index[todo])],
        )
    return t_peak, f_peak


def resolve_grid(spec: model.ChainSpec, horizon=None, step=None) -> tuple:
    """(horizon, step, grid) of a time scan, by default up to 2n/(pi j) in
    steps of min(0.02/j, horizon/2000), at least 2,001 points whatever the
    unit of j.  A negative horizon is refused; a zero one gives the single
    point t = 0."""
    horizon = horizon if horizon is not None else default_horizon(spec)
    if horizon < 0:
        raise ValueError(f"time horizon must be >= 0, got {horizon}")
    if step is None:
        step = default_grid_step(spec, horizon if horizon > 0 else 1e-9)
    return horizon, step, time_grid(horizon, step)


def scan_first_peak(
    evaluator: CurveEvaluator, ts: np.ndarray, *,
    above_baseline: bool = True, any_height_fallback: bool = False,
) -> tuple:
    """Grid peak (t_{i-1}, t_i, t_{i+1}, fef(t_i)) of fef(t) on ``ts`` of
    the one member of ``evaluator`` (``evaluator[k:k + 1]`` for member k)
    by the rules of :func:`locate_first_peak` without the argmax fallback,
    and the number of grid points read.

    The scan reads the evaluator's own chunks of the grid, those of a
    call over the whole grid, and stops at the first chunk that confirms
    the peak, i.e. holds its right neighbour; only the fallback reads the
    whole grid.  A grid holding only t = 0 is refused.
    """
    if not ts[-1] > 0:
        raise ValueError("a first-peak search needs a positive time horizon")
    curve = np.empty((1, len(ts)))
    for member, times, chunk in evaluator._chunks(ts):
        curve[member, times] = _fef(*chunk)
        del chunk
        baseline = curve[0, 0] if above_baseline else -np.inf
        i = first_peak_index(curve[0, :times.stop], baseline)
        if i is not None:
            break
    else:
        i = first_peak_index(curve[0], -np.inf) if any_height_fallback else None
    if i is None:
        spec = evaluator.specs[0]
        raise NoPeakError(
            f"no first maximum of fef above {baseline} within horizon {ts[-1]} "
            f"(n={spec.n}, delta1={spec.delta1}, delta2={spec.delta2})"
        )
    return (ts[i - 1], ts[i], ts[i + 1], curve[0, i]), min(times.stop, len(ts))


def find_tmax(
    engine: str,
    spec: model.ChainSpec,
    search_horizon: float | None = None,
    grid_step: float | None = None,
    require_above_baseline: bool = True,
) -> TmaxResult:
    """Locate and refine the first maximum of fef(t) after the quench.

    The curve is scanned on a uniform grid by :func:`scan_first_peak`; the
    first strict local maximum exceeding the t = 0 value brackets a
    golden-section refinement by :func:`refine_peaks` down to an absolute
    time resolution of 1e-6/j.  Even chains never exceed the t = 0
    criterion boundary; ``require_above_baseline=False`` then tracks the
    first strict local maximum regardless of height.
    """
    _, step, ts = resolve_grid(spec, search_horizon, grid_step)
    evaluator = CurveEvaluator([spec], engine)
    peak, _ = scan_first_peak(evaluator, ts, above_baseline=require_above_baseline)
    (t_max,), (fef_max,) = refine_peaks(evaluator, [peak])
    return TmaxResult(
        t_max=float(t_max), fef_at_tmax=float(fef_max),
        scan_resolution=step, refined=True,
    )


def fit_power_law(points: list[tuple[float, float]]) -> PowerLawFit:
    """Least-squares line in (log N, log fef); amplitude = exp(intercept).

    Two points give the exact interpolating power law with zero residual.
    """
    if len(points) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(points)}")
    ns = np.array([p[0] for p in points], dtype=float)
    fs = np.array([p[1] for p in points], dtype=float)
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
