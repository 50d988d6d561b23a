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
    """fef(t) and (a, b, c)(t) for one spec, engine-agnostic.

    Construction performs the one-off diagonalizations; evaluations are
    then cheap enough for dense grids and golden-section refinement.  A
    free-fermion quench from the ideal Neel mixture evaluates its hopping
    chain (``_evolution`` is None); from a finite delta1 it evaluates the
    ground multiplet's correlators (:class:`freefermion.CorrelatorQuench`).
    Only hopping chains stack (:func:`stacks`): a lockstep over any other
    evaluators runs them one after the other.
    """

    def __init__(self, spec: model.ChainSpec, engine: str = "auto"):
        self.spec = spec
        self.engine: Engine = resolve_engine(spec, engine)
        self.realization = model.realize_couplings(spec)
        self._evolution = None
        if stacks(spec, self.engine):
            self._chain = freefermion._chain(self.realization)
        elif self.engine == "exactdiag":
            self._evolution = exactdiag.QuenchEvolution(
                self.realization, spec.delta1, spec.delta2
            )
        else:
            state = exactdiag.ground_mixture(self.realization, spec.delta1)
            self._evolution = freefermion.CorrelatorQuench(
                self.realization, exactdiag.correlators(state)
            )

    @property
    def chunk_points(self) -> int:
        """Grid points per chunk of the engine's series.  A scan in windows
        that start on chunk boundaries gives the same bytes as one call."""
        return (self._evolution or self._chain).chunk_points

    def series(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._evolution is None:
            return freefermion.end_spin_series(self.realization, ts)
        return self._evolution.end_spin_series(ts)

    def fef_series(self, ts: np.ndarray) -> np.ndarray:
        return _fef(*self.series(ts))

    def fef(self, t: float) -> float:
        return float(self.fef_series(np.array([t]))[0])


def stacks(spec: model.ChainSpec, engine: Engine) -> bool:
    """Whether evaluators of ``spec`` on ``engine`` share one stacked
    kernel in a lockstep: Neel chains on free fermions, of any lengths,
    do; correlator and exact-diagonalization members do not."""
    return engine == "freefermion" and spec.ideal_neel_start


def _block_fef(
    members: list[CurveEvaluator] | freefermion.ChainStack,
) -> Callable[[np.ndarray], np.ndarray]:
    """fef of member k at time ``ts[k]``, all members in one call.

    ``members`` is a chain stack, or a list of evaluators: when they all
    :func:`stacks` their chains are joined into one stack, otherwise they
    are evaluated one after the other.  Either way a member's value is the
    one its own evaluator gives.
    """
    if isinstance(members, list):
        if not all(stacks(e.spec, e.engine) for e in members):
            return lambda ts: np.array([e.fef(t) for e, t in zip(members, ts.tolist())])
        members = freefermion.ChainStack.join([e._chain for e in members])
    return lambda ts: _fef(*members.end_spin_at(ts))


def stacked_curves(
    realizations: list[model.CouplingRealization], ts: np.ndarray
) -> tuple[freefermion.ChainStack, np.ndarray]:
    """One chain stack of Neel chains on free fermions and the fef curves
    (K, T) of its members over the shared grid ``ts``, assembled chunk by
    chunk of :meth:`freefermion.ChainStack.series`; each curve is the one
    its member's own evaluator gives."""
    stack = freefermion.ChainStack(realizations)
    curves = np.empty((len(realizations), len(ts)))
    for members, times, abc in stack.series(ts):
        curves[members, times] = _fef(*abc)
    return stack, curves


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


def refine_peaks(
    members: list[CurveEvaluator] | freefermion.ChainStack, peaks: list, j
) -> tuple[np.ndarray, np.ndarray]:
    """Refine the grid peaks (t_{i-1}, t_i, t_{i+1}, fef(t_i)) of K
    members (see :func:`_block_fef`) in one :func:`golden_section_max`
    lockstep, each on [t_{i-1}, t_{i+1}] to 1e-6/j of its coupling ``j``
    (one for all, or one each).  Golden section assumes a unimodal
    bracket, so a refined value below fef(t_i) gives way to the grid
    point.  Returns the peak times and values, each (K,)."""
    lo, t, hi, fef = np.array(peaks, dtype=float).T
    xtol = REFINE_RESOLUTION / np.asarray(j, dtype=float)
    t_ref, f_ref = golden_section_max(_block_fef(members), lo, hi, xtol)
    grid_better = f_ref < fef
    return np.where(grid_better, t, t_ref), np.where(grid_better, fef, f_ref)


def locate_first_peak(
    curves: np.ndarray,
    ts: np.ndarray,
    members: list[CurveEvaluator] | freefermion.ChainStack | None = None,
    j=None,
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

    A member left without a peak raises NoPeakError.  With ``members``
    (one per curve, see :func:`_block_fef`) of coupling ``j`` a peak at
    grid index i is refined on [t_{i-1}, t_{i+1}] by :func:`refine_peaks`,
    every member in lockstep.
    Returns the peak times and values, each of shape (K,).
    """
    ts = np.asarray(ts, dtype=float)
    index = np.empty(len(curves), dtype=int)
    refine = np.full(len(curves), members is not None)
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
            [members[k] for k in todo] if isinstance(members, list) else members[todo],
            [(ts[i - 1], ts[i], ts[i + 1], f_peak[k]) for k, i in zip(todo, index[todo])],
            j,
        )
    return t_peak, f_peak


def resolve_grid(spec: model.ChainSpec, horizon=None, step=None) -> tuple:
    """(horizon, step, grid) of a time scan, by default up to 2n/(pi j) in
    steps of min(0.02/j, horizon/2000).  A negative horizon is refused; a
    zero one gives the single point t = 0."""
    horizon = horizon if horizon is not None else default_horizon(spec)
    if horizon < 0:
        raise ValueError(f"time horizon must be >= 0, got {horizon}")
    step = step if step is not None else default_grid_step(spec, max(horizon, 1e-9))
    return horizon, step, time_grid(horizon, step)


def scan_first_peak(
    evaluator: CurveEvaluator, ts: np.ndarray, *,
    above_baseline: bool = True, any_height_fallback: bool = False,
) -> tuple:
    """Grid peak (t_{i-1}, t_i, t_{i+1}, fef(t_i)) of fef(t) on ``ts`` by
    the rules of :func:`locate_first_peak` without the argmax fallback.

    The scan runs one engine chunk at a time and stops at the first chunk
    that confirms the peak, i.e. holds its right neighbour; the result is
    the one a scan of the whole grid gives; only the fallback needs it all.
    A grid holding only t = 0 is refused.
    """
    if not ts[-1] > 0:
        raise ValueError("a first-peak search needs a positive time horizon")
    curve = np.empty(len(ts))
    baseline = -np.inf
    for lo in range(0, len(ts), evaluator.chunk_points):
        hi = min(lo + evaluator.chunk_points, len(ts))
        curve[lo:hi] = evaluator.fef_series(ts[lo:hi])
        baseline = curve[0] if above_baseline else -np.inf
        # the new candidates are lo - 1 .. hi - 2, each with both neighbours
        first = max(lo - 2, 0)
        i = first_peak_index(curve[first:hi], baseline)
        if i is not None:
            i += first
            break
    else:
        i = first_peak_index(curve, -np.inf) if any_height_fallback else None
    if i is None:
        spec = evaluator.spec
        raise NoPeakError(
            f"no first maximum of fef above {baseline} within horizon {ts[-1]} "
            f"(n={spec.n}, delta1={spec.delta1}, delta2={spec.delta2})"
        )
    return ts[i - 1], ts[i], ts[i + 1], curve[i]


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
    evaluator = CurveEvaluator(spec, engine)
    peak = scan_first_peak(evaluator, ts, above_baseline=require_above_baseline)
    (t_max,), (fef_max,) = refine_peaks([evaluator], [peak], spec.j)
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
