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
    """Pick the evolution engine: free fermions need delta2 = 0 and an
    ideal Neel start; everything else goes through exact diagonalization."""
    if requested == "auto":
        if spec.delta2 == 0.0 and spec.ideal_neel_start:
            return "freefermion"
        return "exactdiag"
    if requested in ("freefermion", "ff"):
        if spec.delta2 != 0.0 or not spec.ideal_neel_start:
            raise ValueError(
                "the free-fermion engine requires delta2 = 0 and delta1 = inf"
            )
        return "freefermion"
    if requested in ("exactdiag", "ed"):
        return "exactdiag"
    raise ValueError(f"unknown engine {requested!r}")


class CurveEvaluator:
    """fef(t) and (a, b, c)(t) for one spec, engine-agnostic.

    Construction performs the one-off diagonalizations; evaluations are
    then cheap enough for dense grids and golden-section refinement.
    """

    def __init__(self, spec: model.ChainSpec, engine: str = "auto"):
        self.spec = spec
        self.engine: Engine = resolve_engine(spec, engine)
        self.realization = model.realize_couplings(spec)
        if self.engine == "exactdiag":
            self._evolution = exactdiag.QuenchEvolution(
                self.realization, spec.delta1, spec.delta2
            )
        else:
            self._chain = freefermion._chain(self.realization)

    @staticmethod
    def eigenbasis_bytes(n: int, engine: Engine) -> int:
        """Bytes an evaluator of an n-site chain keeps for its eigenbasis
        (a bound for exact diagonalization)."""
        module = freefermion if engine == "freefermion" else exactdiag
        return module.eigenbasis_bytes(n)

    @property
    def chunk_points(self) -> int:
        """Grid points per chunk of the engine's series.  A scan in windows
        that start on chunk boundaries gives the same bytes as one call."""
        if self.engine == "exactdiag":
            return self._evolution.chunk_points
        return self._chain.chunk_points

    def series(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.engine == "freefermion":
            return freefermion.end_spin_series(self.realization, ts)
        return self._evolution.end_spin_series(ts)

    def fef_series(self, ts: np.ndarray) -> np.ndarray:
        return _fef(*self.series(ts))

    def fef(self, t: float) -> float:
        return float(self.fef_series(np.array([t]))[0])


def _block_fef(evaluators: list[CurveEvaluator]) -> Callable[[np.ndarray], np.ndarray]:
    """fef of member k at time ``ts[k]``, all members in one call.

    Free-fermion members share one stacked kernel; exact-diagonalization
    members are evaluated one after the other.  Either way a member's
    value is the one its own evaluator gives at that time.
    """
    if all(e.engine == "freefermion" for e in evaluators):
        stack = freefermion.ChainStack([e._chain for e in evaluators])

        return lambda ts: _fef(*stack.end_spin_at(ts))
    return lambda ts: np.array([e.fef(t) for e, t in zip(evaluators, ts.tolist())])


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


def locate_first_peak(
    curves: np.ndarray,
    ts: np.ndarray,
    evaluators: list[CurveEvaluator] | None = None,
    *,
    above_baseline: bool = True,
    any_height_fallback: bool = False,
    argmax_fallback: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """First maximum of each of K fef curves on the grid ``ts``.

    ``curves`` is (K, T).  Each member's peak is picked on the grid by
    these rules, in order:

    - ``above_baseline``: the first strict local maximum above the
      curve's t = 0 value; when False, the first of any height;
    - ``any_height_fallback``: else the first strict local maximum of any
      height;
    - ``argmax_fallback``: else the grid maximum, kept unrefined.

    A member left without a peak raises NoPeakError.  With ``evaluators``
    (one per curve, same coupling j) a peak at grid index i is refined on
    [t_{i-1}, t_{i+1}] to 1e-6/j by :func:`golden_section_max`, every
    member in lockstep; golden section assumes a unimodal bracket, so a
    refined value below fef(t_i) gives way to the grid point.  Returns the
    peak times and values, each of shape (K,).
    """
    ts = np.asarray(ts, dtype=float)
    index = np.empty(len(curves), dtype=int)
    refine = np.full(len(curves), evaluators is not None)
    for k, curve in enumerate(curves):
        i = first_peak_index(curve, curve[0] if above_baseline else -np.inf)
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
        i = index[todo]
        t_ref, f_ref = golden_section_max(
            _block_fef([evaluators[k] for k in todo]), ts[i - 1], ts[i + 1],
            REFINE_RESOLUTION / evaluators[0].spec.j,
        )
        grid_better = f_ref < f_peak[todo]
        t_peak[todo] = np.where(grid_better, t_peak[todo], t_ref)
        f_peak[todo] = np.where(grid_better, f_peak[todo], f_ref)
    return t_peak, f_peak


def find_tmax(
    engine: str,
    spec: model.ChainSpec,
    search_horizon: float | None = None,
    grid_step: float | None = None,
    require_above_baseline: bool = True,
) -> TmaxResult:
    """Locate and refine the first maximum of fef(t) after the quench.

    The curve is scanned on a uniform grid; the first strict local maximum
    exceeding the t = 0 value brackets a golden-section refinement down to
    an absolute time resolution of 1e-6/j.  Even chains never exceed the
    t = 0 criterion boundary; ``require_above_baseline=False`` then tracks
    the first strict local maximum regardless of height.

    The scan runs one engine chunk at a time and stops at the first chunk
    that confirms the peak, i.e. holds its right neighbour; the result is
    the one a scan of the whole grid gives.
    """
    horizon = search_horizon if search_horizon is not None else default_horizon(spec)
    step = grid_step if grid_step is not None else default_grid_step(spec, horizon)
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and grid step must be positive")
    ts = time_grid(horizon, step)
    evaluator = CurveEvaluator(spec, engine)
    curve = np.empty(len(ts))
    for lo in range(0, len(ts), evaluator.chunk_points):
        hi = min(lo + evaluator.chunk_points, len(ts))
        curve[lo:hi] = evaluator.fef_series(ts[lo:hi])
        baseline = curve[0] if require_above_baseline else -np.inf
        # the new candidates are lo - 1 .. hi - 2, each with both neighbours
        if first_peak_index(curve[max(lo - 2, 0):hi], baseline) is not None:
            break
    else:
        raise NoPeakError(
            f"no first maximum of fef above {baseline} within horizon {horizon} "
            f"(n={spec.n}, delta1={spec.delta1}, delta2={spec.delta2})"
        )
    t_max, fef_max = locate_first_peak(
        curve[None, :hi], ts[:hi], [evaluator], above_baseline=require_above_baseline
    )
    return TmaxResult(
        t_max=float(t_max[0]), fef_at_tmax=float(fef_max[0]),
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
