import math

import numpy as np
import pytest

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
    evaluator = entangle.CurveEvaluator(spec, "freefermion")
    step = result.scan_resolution
    assert result.fef_at_tmax >= evaluator.fef(result.t_max - step)
    assert result.fef_at_tmax >= evaluator.fef(result.t_max + step)


def test_find_tmax_anchor_151():
    result = entangle.find_tmax("freefermion", model.ChainSpec(n=151))
    assert abs(result.fef_at_tmax - 0.544) < 2e-3


def test_even_chain_has_no_peak_above_threshold():
    spec = model.ChainSpec(n=6)
    with pytest.raises(NoPeakError):
        entangle.find_tmax("freefermion", spec)
    relaxed = entangle.find_tmax(
        "freefermion", spec, require_above_baseline=False
    )
    assert relaxed.fef_at_tmax <= 0.5 + 1e-12


def test_engine_resolution():
    assert entangle.resolve_engine(model.ChainSpec(n=9)) == "freefermion"
    assert entangle.resolve_engine(model.ChainSpec(n=9, delta2=1.0)) == "exactdiag"
    assert entangle.resolve_engine(model.ChainSpec(n=9, delta1=3.0)) == "exactdiag"
    assert entangle.resolve_engine(model.ChainSpec(n=9), "ed") == "exactdiag"
    with pytest.raises(ValueError):
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


def test_golden_section_finds_quadratic_peak():
    t, v = entangle.golden_section_max(lambda x: -(x - 1.7) ** 2, 0.0, 3.0, 1e-9)
    assert abs(t - 1.7) < 1e-8
    assert v == pytest.approx(0.0, abs=1e-15)


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
