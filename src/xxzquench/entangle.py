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

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


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
    enough for dense grids and peak refinement.  The members share one
    route, evaluated as windows of its ``series``, at single times by its
    ``end_spin_at`` and in part by ``[part]``: Neel chains on free fermions
    (:func:`stacks`) one :class:`freefermion.ChainStack`, any other member
    alone a :class:`freefermion.CorrelatorQuench` of its ground multiplet's
    correlators or an :class:`exactdiag.QuenchEvolution`.  Member k's values
    are the ones ``evaluator[k:k + 1]`` gives, bit for bit.  Every
    evaluation of a grid, the first-peak scans of :func:`first_peak`
    included, walks the same chunks of it.
    """

    def __init__(self, specs: list[model.ChainSpec], engine: str = "auto"):
        self.specs = list(specs)
        spec = self.specs[0]
        self.engine: Engine = resolve_engine(spec, engine)
        stacking = stacks(spec, self.engine)
        if not stacking and len(self.specs) > 1:
            raise ValueError(f"{len(self.specs)} specs that do not stack: cli._plan makes each "
                             "correlator or exact-diagonalization member a block of its own")
        realizations = [model.realize_couplings(member) for member in self.specs]
        if stacking:
            self._route = freefermion.ChainStack(realizations)
        elif self.engine == "exactdiag":
            self._route = exactdiag.QuenchEvolution(realizations[0], spec.delta1, spec.delta2)
        else:
            self._route = freefermion.CorrelatorQuench(realizations[0], exactdiag.correlators(
                exactdiag.ground_mixture(realizations[0], spec.delta1)))

    def __getitem__(self, part) -> CurveEvaluator:
        """The members ``part`` (a slice or an index array) as an evaluator
        of their own, sharing their prepared route."""
        sub = CurveEvaluator.__new__(CurveEvaluator)
        sub.specs = [self.specs[k] for k in np.arange(len(self.specs))[part].tolist()]
        sub.engine, sub._route = self.engine, self._route[part]
        return sub

    def _chunks(self, ts: np.ndarray):
        """(members, times, (a, b, c)) chunks of the route's series over the
        shared times ``ts``, each member's in time order.  The consumer
        drops a chunk before it asks for the next."""
        return self._route.series(ts)

    def series(self, ts: np.ndarray) -> np.ndarray:
        """(a, b, c) of every member over ``ts``, (3, K, T)."""
        abc = np.empty((3, len(self.specs), len(ts)))
        for members, times, chunk in self._chunks(ts):
            abc[:, members, times] = chunk
            del chunk
        return abc

    def fef_chunks(self, ts: np.ndarray):
        """(members, times, fef) chunks over ``ts``, those of :meth:`_chunks`
        with each (a, b, c) reduced to its fef: (members, t) of a stack,
        (t,) of a quench of one chain.  Both are dropped here before the
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

    def fef_rows(self, ts: np.ndarray):
        """fef curve (T,) over ``ts`` of each member in turn: the rows of
        :meth:`fef_chunks`, joined when a member's come in time windows,
        which they do one member at a time.  A row is valid only until the
        next is asked for."""
        row = np.empty(len(ts))
        for _, times, fef in self.fef_chunks(ts):
            fef = fef.reshape(-1, fef.shape[-1])
            if fef.shape[1] == len(ts):
                yield from fef
            else:
                row[times] = fef[0]
                if times.stop >= len(ts):
                    yield row

    def end_spin_at(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) of member k at time ``ts[k]``, each of shape (K,)."""
        return self._route.end_spin_at(ts)


def stacks(spec: model.ChainSpec, engine: Engine) -> bool:
    """Whether members of ``spec`` on ``engine`` share one stacked kernel
    in a :class:`CurveEvaluator`: Neel chains on free fermions, of any
    lengths, do; correlator and exact-diagonalization members do not."""
    return engine == "freefermion" and spec.ideal_neel_start


def block_charge(specs, engine: Engine) -> tuple[int, str]:
    """(bytes, what) of a :class:`CurveEvaluator` of the block ``specs`` on
    ``engine``, estimated before a draw.  ``specs`` is a sequence in
    ascending length, read at its ends and from the front up to its first
    disordered member, so a disorder block, which has one undisordered
    member at most, is read at three however long it is.  A chain stack
    (:func:`stacks`) is charged :func:`freefermion.stack_bytes` of every
    member at the longest length, uniform only when no member is
    disordered.  Any other
    member, a block of its own, is charged :func:`exactdiag.run_bytes`,
    the evolution only on exact diagonalization, and refused beyond its cap."""
    n = specs[-1].n
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
    fun: Callable[[np.ndarray], np.ndarray], lo, hi, x, fx, xtol
) -> tuple[np.ndarray, np.ndarray, int]:
    """Maxima of K functions in lockstep by Brent's method: golden-section
    steps plus parabolic interpolation (R. P. Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5).

    Member k searches [lo_k, hi_k] from x_k of known value fx_k, so the
    start costs no evaluation and the point returned is never worse.
    ``fun`` maps K times to the K values, one call a step for the block.  A
    member whose point lies within ``xtol``/2 of all its bracket stops and
    is evaluated there only to keep the call shape, so each follows the
    scalar iteration exactly.  Parabolas are fitted to offsets in units of
    the first bracket width, so no step overflows or depends on the unit of
    time.  Returns the points, their values and the number of calls.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x, fx = np.array(x, dtype=float), np.array(fx, dtype=float)
    width, tol = b - a, 0.25 * np.asarray(xtol, dtype=float)
    w, v, fw, fv, d, e, calls = x, x, fx, fx, 0.0 * x, 0.0 * x, 0
    while True:
        mid = 0.5 * (a + b)
        live = np.abs(x - mid) > 2.0 * tol - 0.5 * (b - a)
        if not live.any():
            return x, fx, calls
        xw, xv = (x - w) / width, (x - v) / width
        r, q = xw * (fx - fv), xv * (fx - fw)
        p, q = xv * q - xw * r, 2.0 * (q - r)
        p, q = np.where(q > 0.0, -p, p), np.abs(q)
        # the parabola's vertex, taken when it moves less than half the step
        # before last and falls inside the bracket
        fit = ((np.abs(e) > tol) & (np.abs(p) < np.abs(0.5 * q * (e / width)))
               & (p > q * ((a - x) / width)) & (p < q * ((b - x) / width)))
        step = width * np.divide(p, q, out=np.zeros_like(p), where=fit)
        edge = fit & ((x + step - a < 2.0 * tol) | (b - (x + step) < 2.0 * tol))
        # else into the larger part of the bracket; the first step starts at
        # its centre, whose parts differ by rounding alone, and goes right
        golden = np.where((x >= mid) & (calls > 0), a - x, b - x)
        e, d = np.where(fit, d, golden), np.where(
            edge, np.where(mid >= x, tol, -tol), np.where(fit, step, _CGOLD * golden))
        u = x + np.where(np.abs(d) >= tol, d, np.where(d >= 0.0, tol, -tol))
        fu = fun(np.where(live, u, x))
        calls += 1
        better, right = live & (fu >= fx), u >= x
        worse = live & ~better
        to_w = worse & ((fu >= fw) | (w == x))
        to_v = worse & ~to_w & ((fu >= fv) | (v == x) | (v == w))
        a = np.where(better & right, x, np.where(worse & ~right, u, a))
        b = np.where(better & ~right, x, np.where(worse & right, u, b))
        v, fv = np.where(to_v, u, np.where(better | to_w, w, v)), np.where(
            to_v, fu, np.where(better | to_w, fw, fv))
        w, fw = np.where(to_w, u, np.where(better, x, w)), np.where(
            to_w, fu, np.where(better, fx, fw))
        x, fx = np.where(better, u, x), np.where(better, fu, fx)


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


def refine_peaks(evaluator: CurveEvaluator, found: list) -> tuple[np.ndarray, np.ndarray, int]:
    """Peak times and values, each (K,), of the K members of ``evaluator``
    from their :func:`first_peak` results ``found``, and the number of
    lockstep evaluations spent.  The refinable grid peaks (t_{i-1}, t_i,
    t_{i+1}, fef(t_i)) are refined in one :func:`golden_section_max`
    lockstep, Brent's method, each on [t_{i-1}, t_{i+1}] from t_i to
    1e-6/j of its own coupling j, so none falls below its grid value; the
    others keep their grid point."""
    lo, t, hi, fef = np.array([peak for peak, _, _ in found], dtype=float).T
    todo = np.flatnonzero([refinable for _, refinable, _ in found])
    calls = 0
    if todo.size:
        part = evaluator[todo]
        xtol = REFINE_RESOLUTION / np.array([spec.j for spec in part.specs])
        t[todo], fef[todo], calls = golden_section_max(
            lambda ts: _fef(*part.end_spin_at(ts)), lo[todo], hi[todo], t[todo], fef[todo], xtol)
    return t, fef, calls


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
    resolved = resolve_grid(spec, horizon, step)
    if not resolved[2][-1] > 0:  # a derived step lies below any positive horizon
        at = "" if step is None else f" at grid step {step}"
        raise ValueError(f"a first-peak search needs a positive time horizon and a grid step below "
                         f"twice it; horizon {resolved[0]}{at} gives t = 0 alone")
    return resolved


def find_tmax(
    engine: str,
    spec: model.ChainSpec,
    search_horizon: float | None = None,
    grid_step: float | None = None,
) -> TmaxResult:
    """The first maximum of fef(t) after the quench, ``scan-n``'s record of
    a chain of one size: :func:`tmax_peak` on the grid of :func:`search_grid`,
    which refuses a grid holding only t = 0, refined by Brent's method
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
    (t_max,), (fef_max,), _ = refine_peaks(evaluator, [found])
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
