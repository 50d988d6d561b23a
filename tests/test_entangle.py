import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxzquench import entangle, freefermion, model
from xxzquench.errors import NoPeakError
from xxzquench.freefermion import EndSpinState

SQRT2 = math.sqrt(2.0)


def xstate(a, b, c):
    return EndSpinState(a=a, b=b, c=c, t=0.0)


def random_xstate(rng):
    a = float(rng.uniform(0.0, 0.5))
    b = 0.5 - a
    c = float(rng.uniform(-b, b))
    return xstate(a, b, c)


def test_fef_examples():
    r = entangle.fully_entangled_fraction(xstate(0.5, 0.0, 0.0))
    assert r.fef == 0.5 and r.argmax_bell == "phi_pair"
    r = entangle.fully_entangled_fraction(xstate(0.0, 0.5, 0.5))
    assert r.fef == 1.0 and r.argmax_bell == "psi_plus"
    r = entangle.fully_entangled_fraction(xstate(0.0, 0.5, -0.5))
    assert r.fef == 1.0 and r.argmax_bell == "psi_minus"


def test_fef_sign_invariance_and_range():
    rng = np.random.default_rng(31)
    for _ in range(200):
        s = random_xstate(rng)
        flipped = xstate(s.a, s.b, -s.c)
        r1 = entangle.fully_entangled_fraction(s)
        r2 = entangle.fully_entangled_fraction(flipped)
        assert r1.fef == r2.fef
        assert 0.25 <= r1.fef <= 1.0


def test_fef_above_half_implies_entanglement():
    rng = np.random.default_rng(77)
    for _ in range(500):
        s = random_xstate(rng)
        if entangle.fully_entangled_fraction(s).fef > 0.5:
            assert entangle.negativity(s) > 0.0


def test_negativity_examples():
    assert entangle.negativity(xstate(0.5, 0.0, 0.0)) == 0.0
    assert entangle.negativity(xstate(0.0, 0.5, 0.5)) == 0.5


def test_fef_at_t0_is_exactly_half():
    for n in (3, 7, 21, 151):
        real = model.realize_couplings(model.ChainSpec(n=n))
        s = freefermion.end_spin_state(real, 0.0)
        assert entangle.fully_entangled_fraction(s).fef == 0.5


def test_find_tmax_three_sites():
    result = entangle.find_tmax("freefermion", model.ChainSpec(n=3))
    assert abs(result.t_max - math.pi / (2 * SQRT2)) < 1e-6
    assert abs(result.fef_at_tmax - 1.0) < 1e-10
    assert result.refined
    assert result.scan_resolution <= 0.02


def test_find_tmax_deterministic():
    spec = model.ChainSpec(n=11)
    r1 = entangle.find_tmax("freefermion", spec)
    r2 = entangle.find_tmax("freefermion", spec)
    assert abs(r1.t_max - r2.t_max) < 1e-9
    assert r1.fef_at_tmax == r2.fef_at_tmax


def test_find_tmax_result_beats_grid_neighbours():
    spec = model.ChainSpec(n=9)
    result = entangle.find_tmax("freefermion", spec)
    evaluator = entangle.CurveEvaluator([spec], "freefermion")
    step = result.scan_resolution
    assert result.fef_at_tmax >= _fef_at(evaluator, result.t_max - step)
    assert result.fef_at_tmax >= _fef_at(evaluator, result.t_max + step)


def test_find_tmax_anchor_151():
    result = entangle.find_tmax("freefermion", model.ChainSpec(n=151))
    assert abs(result.fef_at_tmax - 0.544) < 2e-3


def test_even_chain_has_no_peak_above_threshold():
    # fef never exceeds 1/2 on an even chain; find_tmax returns, as scan-n
    # --n 6 --allow-even records, its first local maximum of any height
    result = entangle.find_tmax("freefermion", model.ChainSpec(n=6, seed=6))
    assert (result.t_max, result.fef_at_tmax) == (1.9723385866438252, 0.47839878932275082)
    assert result.fef_at_tmax <= 0.5


def test_engine_resolution():
    assert entangle.resolve_engine(model.ChainSpec(n=9)) == "freefermion"
    assert entangle.resolve_engine(model.ChainSpec(n=9, delta2=1.0)) == "exactdiag"
    # a finite delta1 to delta2 = 0 runs on correlators, under auto and ff
    assert entangle.resolve_engine(model.ChainSpec(n=9, delta1=3.0)) == "freefermion"
    assert entangle.resolve_engine(model.ChainSpec(n=9, delta1=3.0), "ff") == "freefermion"
    assert entangle.resolve_engine(model.ChainSpec(n=9, delta1=3.0), "ed") == "exactdiag"
    assert entangle.resolve_engine(model.ChainSpec(n=9), "ed") == "exactdiag"
    with pytest.raises(ValueError, match="delta2 > 0 needs exact diagonalization"):
        entangle.resolve_engine(model.ChainSpec(n=9, delta2=1.0), "ff")
    with pytest.raises(ValueError):
        entangle.resolve_engine(model.ChainSpec(n=9), "magic")


def test_power_law_round_trip():
    ns = np.arange(25, 242, 2)
    pts = [(int(n), 1.42 * n ** (-0.22)) for n in ns]
    fit = entangle.fit_power_law(pts)
    assert abs(fit.amplitude - 1.42) < 1e-12
    assert abs(fit.exponent - 0.22) < 1e-12
    assert fit.residual < 1e-12
    assert fit.fit_range == (25, 241)


def test_power_law_two_points_is_exact():
    fit = entangle.fit_power_law([(25, 0.7), (49, 0.6)])
    assert fit.residual < 1e-14
    assert abs(fit.amplitude * 25 ** (-fit.exponent) - 0.7) < 1e-12
    assert abs(fit.amplitude * 49 ** (-fit.exponent) - 0.6) < 1e-12


def test_power_law_rejects_bad_input():
    with pytest.raises(ValueError):
        entangle.fit_power_law([(25, 0.7)])
    with pytest.raises(ValueError):
        entangle.fit_power_law([(25, 0.7), (49, 0.0), (99, 0.5)])
    # refused before the fit: a NaN fef, an infinite size and one size twice
    with pytest.raises(ValueError, match="finite"):
        entangle.fit_power_law([(25, math.nan), (27, 0.5), (29, 0.4)])
    with pytest.raises(ValueError, match="finite"):
        entangle.fit_power_law([(math.inf, 0.5), (27, 0.5)])
    with pytest.raises(ValueError, match="distinct sizes"):
        entangle.fit_power_law([(25, 0.5), (25, 0.5)])


def test_golden_section_finds_quadratic_peak():
    t, v = entangle.golden_section_max(lambda x: -(x - 1.7) ** 2, 0.0, 3.0, 1e-9)
    assert abs(t - 1.7) < 1e-8
    assert v == pytest.approx(0.0, abs=1e-15)


def test_resolve_grid_defaults_and_refusals():
    spec = model.ChainSpec(n=9)
    horizon = entangle.default_horizon(spec)
    step = entangle.default_grid_step(spec, horizon)
    got_horizon, got_step, ts = entangle.resolve_grid(spec)
    assert (got_horizon, got_step) == (horizon, step)
    np.testing.assert_array_equal(ts, entangle.time_grid(horizon, step))
    assert list(entangle.resolve_grid(spec, 0.0)[2]) == [0.0]
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        entangle.resolve_grid(spec, -1.0)
    # a non-finite horizon, given or derived (2n/(pi j) overflows at a tiny
    # j), is refused by name before a grid step is derived from it
    for chain, horizon, shown in ((spec, math.nan, "nan"),
                                  (model.ChainSpec(n=9, j=1e-320), None, "inf")):
        with pytest.raises(ValueError, match=f"^time horizon must be finite, got {shown}$"):
            entangle.resolve_grid(chain, horizon)
    # a first-peak search refuses a grid holding only t = 0
    for horizon in (0.0, -1.0):
        with pytest.raises(ValueError, match="horizon"):
            entangle.find_tmax("freefermion", spec, search_horizon=horizon)


def test_search_grid_refusal_names_the_horizon_and_the_step():
    # a positive horizon with a step beyond twice it leaves t = 0 alone:
    # the message names both, not the horizon alone
    spec = model.ChainSpec(n=3)
    horizon = entangle.default_horizon(spec)
    with pytest.raises(ValueError, match=f"horizon {horizon} at grid step 5.0 gives t = 0 alone"):
        entangle.search_grid(spec, None, 5.0)
    assert len(entangle.search_grid(spec, None, 1.9 * horizon)[2]) == 2


def test_time_grid_is_bounded_before_allocation():
    assert len(entangle.time_grid(0.0, 0.1)) == 1
    assert len(entangle.time_grid(1.0, 0.1)) == 11
    for horizon, step in ((math.inf, 0.1), (math.nan, 0.1), (1.0, math.nan),
                          (1.0, 0.0), (1.0, -0.1), (3.2, 1e-12)):
        with pytest.raises(ValueError):
            entangle.time_grid(horizon, step)
    # the largest default grid, scan-n at n=241, stays well inside the cap
    spec = model.ChainSpec(n=241)
    horizon = entangle.default_horizon(spec)
    ts = entangle.time_grid(horizon, entangle.default_grid_step(spec, horizon))
    assert 7000 < len(ts) < entangle.MAX_GRID_POINTS / 10


# --- the per-realization peak path the lockstep finder replaced, as oracle ---


def _golden_oracle(fun, lo, hi, xtol):
    """Scalar golden-section maximization, one evaluation per step."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    mid = 0.5 * (a + b)
    return mid, fun(mid)


def _first_peak_oracle(fef, baseline):
    for i in range(1, len(fef) - 1):
        if fef[i] > fef[i - 1] and fef[i] > fef[i + 1] and fef[i] > baseline:
            return i
    return None


def _fef_at(evaluator, t):
    """fef of a one-member evaluator at the single time t."""
    return float(evaluator.fef_series(np.array([t]))[0, 0])


def _peak_oracle(evaluator, curve, ts, above_baseline=True, fallbacks=False):
    """(t, fef, rule) of one curve's first peak, of a one-member evaluator."""
    i = _first_peak_oracle(curve, curve[0] if above_baseline else -np.inf)
    rule = "baseline"
    if i is None and fallbacks:
        i, rule = _first_peak_oracle(curve, -np.inf), "any height"
    if i is None:
        i = int(np.argmax(curve))
        return float(ts[i]), float(curve[i]), "argmax"
    t, f = _golden_oracle(
        lambda t: _fef_at(evaluator, t), float(ts[i - 1]), float(ts[i + 1]),
        entangle.REFINE_RESOLUTION / evaluator.specs[0].j,
    )
    if f < curve[i]:
        return float(ts[i]), float(curve[i]), rule
    return t, f, rule


def _default_grid(spec):
    horizon = entangle.default_horizon(spec)
    return entangle.time_grid(horizon, entangle.default_grid_step(spec, horizon))


tie_values = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, -np.inf, np.inf, np.nan])
curve_values = st.one_of(tie_values, st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    fef=st.lists(curve_values, max_size=24),
    baseline=st.one_of(tie_values, st.floats(allow_nan=True)),
)
def test_first_peak_index_matches_loop(fef, baseline):
    fef = np.array(fef, dtype=float)
    assert entangle.first_peak_index(fef, baseline) == _first_peak_oracle(fef, baseline)


def test_first_peak_index_on_plateaus_and_nan():
    nan = np.nan
    assert entangle.first_peak_index([0.0, 1.0, 1.0, 0.0, 2.0, 0.0], -np.inf) == 4
    assert entangle.first_peak_index([0.0, nan, 1.0, 0.0], -np.inf) is None
    assert entangle.first_peak_index([0.5, 0.7, 0.6], 0.7) is None
    assert entangle.first_peak_index([0.5, 0.7, 0.6], nan) is None
    assert entangle.first_peak_index([0.5, 0.7], -np.inf) is None


def _ensemble(n, sigma, seeds, **kw):
    return entangle.CurveEvaluator(
        [model.ChainSpec(n=n, disorder_sigma=sigma, seed=s, **kw) for s in seeds])


# (evaluator, grid, peak rule) -> the rules the oracle must see used
LOCKSTEP_CASES = {
    # seeds 0..11 at sigma=1 take all three rules: 9 has no local maximum
    "odd-strong-disorder": (lambda: _ensemble(7, 1.0, range(12)), None,
                            {"baseline", "any height", "argmax"}),
    # an even chain never exceeds its t = 0 value
    "even": (lambda: _ensemble(6, 0.2, range(5)), None, {"any height"}),
    "correlator": (lambda: _ensemble(5, 0.3, range(6), delta1=3.0), None, {"baseline"}),
    "exactdiag": (lambda: _ensemble(5, 0.3, range(4), delta1=3.0, delta2=0.5), None,
                  {"baseline"}),
    "single-member": (lambda: _ensemble(9, 0.1, [4]), None, {"baseline"}),
    # fef first falls from its t = 0 value: no local maximum this early
    "short-grid": (lambda: _ensemble(7, 0.1, range(3)), entangle.time_grid(0.3, 0.01),
                   {"argmax"}),
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_lockstep_peaks_match_per_realization_oracle(case):
    make, ts, rules = LOCKSTEP_CASES[case]
    evaluator = make()
    if ts is None:
        ts = _default_grid(evaluator.specs[0])
    curves = evaluator.fef_series(ts)
    t, f = entangle.refine_peaks(evaluator, [
        entangle.first_peak([(ts, c)], any_height_fallback=True, argmax_fallback=True)
        for c in curves
    ])
    want = [_peak_oracle(evaluator[k:k + 1], c, ts, fallbacks=True)
            for k, c in enumerate(curves)]
    assert {w[2] for w in want} == rules
    np.testing.assert_allclose(t, [w[0] for w in want], rtol=0, atol=1e-12)
    np.testing.assert_allclose(f, [w[1] for w in want], rtol=0, atol=2.2e-16)


def test_lockstep_without_fallback_raises():
    evaluator = _ensemble(6, 0.2, range(2))
    ts = _default_grid(evaluator.specs[0])
    curves = evaluator.fef_series(ts)
    with pytest.raises(NoPeakError):
        entangle.refine_peaks(evaluator, [entangle.first_peak([(ts, c)]) for c in curves])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    fef=st.lists(curve_values, min_size=1, max_size=24),
    cuts=st.lists(st.integers(1, 23), max_size=8),
    above_baseline=st.booleans(),
    any_height_fallback=st.booleans(),
    argmax_fallback=st.booleans(),
)
def test_chunked_first_peak_equals_one_chunk(fef, cuts, **flags):
    fef = np.array(fef, dtype=float)
    ts = 0.1 * np.arange(len(fef))
    edges = [0, *sorted({c for c in cuts if c < len(fef)}), len(fef)]
    chunks = [(ts[lo:hi], fef[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    read = []

    def reader():
        for chunk in chunks:
            read.append(chunk)
            yield chunk

    # the rules, in order, over the whole curve
    i = _first_peak_oracle(fef, fef[0] if flags["above_baseline"] else -np.inf)
    confirmed = i is not None
    if i is None and flags["any_height_fallback"]:
        i = _first_peak_oracle(fef, -np.inf)
    if i is None and not flags["argmax_fallback"]:
        for source in ([(ts, fef)], reader()):
            with pytest.raises(NoPeakError):
                entangle.first_peak(source, **flags)
        assert len(read) == len(chunks)
        return
    whole = entangle.first_peak([(ts, fef)], **flags)
    peak, refinable, points = entangle.first_peak(reader(), **flags)
    np.testing.assert_array_equal(peak, whole[0])
    assert refinable == whole[1] and whole[2] == len(fef)
    if i is None:
        i = int(np.argmax(fef))
        np.testing.assert_array_equal(peak, (ts[i], ts[i], ts[i], fef[i]))
        assert not refinable
    else:
        np.testing.assert_array_equal(peak, (ts[i - 1], ts[i], ts[i + 1], fef[i]))
        assert refinable
    # a peak of the first rule stops the reading at the first chunk that
    # holds its right neighbour; the fallbacks read every chunk
    used = next(c for c, hi in enumerate(edges[1:]) if hi > i + 1) + 1 if confirmed else len(chunks)
    assert len(read) == used and points == edges[used]


def test_golden_section_lockstep_matches_scalar_per_member():
    centres = np.array([0.3, 1.7, 2.9])
    lo, hi = centres - 0.5, centres + np.array([0.5, 0.7, 0.2])
    t, v = entangle.golden_section_max(lambda x: -(x - centres) ** 2, lo, hi, 1e-9)
    for k, c in enumerate(centres):
        want = _golden_oracle(lambda x: -(x - c) ** 2, lo[k], hi[k], 1e-9)
        assert (t[k], v[k]) == want


@pytest.mark.parametrize("engine, spec", [
    ("freefermion", model.ChainSpec(n=3)),
    ("freefermion", model.ChainSpec(n=9)),
    ("freefermion", model.ChainSpec(n=49)),
    ("freefermion", model.ChainSpec(n=151)),
    ("freefermion", model.ChainSpec(n=241)),
    ("exactdiag", model.ChainSpec(n=3)),
    ("exactdiag", model.ChainSpec(n=9)),
    ("exactdiag", model.ChainSpec(n=9, delta1=3.0, delta2=0.5)),
    ("freefermion", model.ChainSpec(n=9, delta1=3.0)),
], ids=["ff3", "ff9", "ff49", "ff151", "ff241", "ed3", "ed9", "ed9-finite", "ff9-finite"])
def test_early_stop_scan_equals_full_grid(engine, spec, monkeypatch):
    evaluator = entangle.CurveEvaluator([spec], engine)
    ts = _default_grid(spec)
    curve = evaluator.fef_series(ts)[0]
    want_t, want_f, _ = _peak_oracle(evaluator, curve, ts)
    grid_chunks = [times for _, times, _ in evaluator._chunks(ts)]
    read = []
    chunks = entangle.CurveEvaluator._chunks

    def counted(self, grid):
        for chunk in chunks(self, grid):
            read.append(chunk[1])
            yield chunk

    monkeypatch.setattr(entangle.CurveEvaluator, "_chunks", counted)
    peak, refinable, points = entangle.first_peak(
        (ts[times], fef.ravel()) for _, times, fef in evaluator.fef_chunks(ts))
    right = _first_peak_oracle(curve, curve[0]) + 1
    assert peak == (ts[right - 2], ts[right - 1], ts[right], curve[right - 1]) and refinable
    # the chunks of a whole-grid call, up to the first one that holds the
    # peak's right neighbour
    stops = [min(times.stop, len(ts)) for times in grid_chunks]
    used = next(c for c, stop in enumerate(stops) if stop > right) + 1
    assert read == grid_chunks[:used] and points == stops[used - 1]
    read.clear()
    result = entangle.find_tmax(engine, spec)
    assert (result.t_max, result.fef_at_tmax) == (want_t, want_f)
    # the refinement evaluates single points, not chunks of the grid
    assert read == grid_chunks[:used]
    if spec.n == 151:  # the scan stops well before the end of its 4,807 points
        assert points < 0.8 * len(ts)
