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


def negativity(state: EndSpinState) -> float:
    """Negativity of the partial transpose; zero exactly iff separable."""
    return max(0.0, abs(state.c) - state.a)


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

    def series(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.engine == "freefermion":
            return freefermion.end_spin_series(self.realization, ts)
        return self._evolution.end_spin_series(ts)

    def fef_series(self, ts: np.ndarray) -> np.ndarray:
        a, b, c = self.series(ts)
        return np.maximum(a, b + np.abs(c))

    def fef(self, t: float) -> float:
        return float(self.fef_series(np.array([t]))[0])


def golden_section_max(
    fun: Callable[[float], float], lo: float, hi: float, xtol: float
) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
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
    for i in range(1, len(fef) - 1):
        if fef[i] > fef[i - 1] and fef[i] > fef[i + 1] and fef[i] > baseline:
            return i
    return None


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
    """
    horizon = search_horizon if search_horizon is not None else default_horizon(spec)
    step = grid_step if grid_step is not None else default_grid_step(spec, horizon)
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and grid step must be positive")
    ts = time_grid(horizon, step)
    evaluator = CurveEvaluator(spec, engine)
    curve = evaluator.fef_series(ts)
    baseline = curve[0] if require_above_baseline else -np.inf
    i = first_peak_index(curve, baseline)
    if i is None:
        raise NoPeakError(
            f"no first maximum of fef above {baseline} within horizon {horizon} "
            f"(n={spec.n}, delta1={spec.delta1}, delta2={spec.delta2})"
        )
    t_max, fef_max = golden_section_max(
        evaluator.fef, float(ts[i - 1]), float(ts[i + 1]), REFINE_RESOLUTION / spec.j
    )
    if fef_max < curve[i]:  # golden section assumes unimodality; keep the best
        t_max, fef_max = float(ts[i]), float(curve[i])
    return TmaxResult(
        t_max=t_max, fef_at_tmax=fef_max, scan_resolution=step, refined=True
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
