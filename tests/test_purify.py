import numpy as np
import pytest

import oracles
from xxzquench import entangle, freefermion, model, purify
from xxzquench.errors import ConvergenceError, NotPurifiableError
from xxzquench.freefermion import EndSpinState
from xxzquench.purify import BellDiagonal


def test_bell_weights_from_end_spin_state():
    s = EndSpinState(a=0.0, b=0.5, c=0.5, t=0.0)
    assert oracles.bell_weights(s).as_array().tolist() == [1, 0, 0, 0]
    s = EndSpinState(a=0.5, b=0.0, c=0.0, t=0.0)
    assert oracles.bell_weights(s).as_array().tolist() == [0, 0, 0.5, 0.5]


def test_bell_weights_at_first_peak():
    spec = model.ChainSpec(n=9)
    peak = entangle.find_tmax("freefermion", spec)
    state = freefermion.end_spin_state(model.realize_couplings(spec), peak.t_max)
    w = oracles.bell_weights(state)
    assert abs(w.psi_plus - 0.9117) < 5e-4
    assert w.phi_plus == w.phi_minus
    np.testing.assert_allclose(w.as_array().sum(), 1.0, atol=1e-12)


def test_bell_diagonal_validation():
    with pytest.raises(ValueError):
        BellDiagonal(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        BellDiagonal(0.5, 0.2, 0.2, 0.2)
    with pytest.raises(ValueError):
        BellDiagonal.from_fidelity(1.2)


def test_pure_target_is_fixed_point():
    state = BellDiagonal(1.0, 0.0, 0.0, 0.0)
    for step in (purify.recurrence_step, oracles.recurrence_step_dense):
        out, p = step(state)
        np.testing.assert_allclose(out.as_array(), [1, 0, 0, 0], atol=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)


def test_single_round_on_strong_source():
    out, p = purify.recurrence_step(BellDiagonal.from_fidelity(0.9117))
    assert abs(out.psi_plus - 0.991) < 1e-3
    assert 0.0 < p <= 1.0


def test_closed_form_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        state = BellDiagonal.from_weights(rng.dirichlet([1.0, 1.0, 1.0, 1.0]))
        got, p_got = purify.recurrence_step(state)
        want, p_want = oracles.recurrence_step_dense(state)
        worst = max(
            worst,
            float(np.max(np.abs(got.as_array() - want.as_array()))),
            abs(p_got - p_want),
        )
    assert worst < 1e-12


def test_step_preserves_validity():
    rng = np.random.default_rng(99)
    for _ in range(300):
        state = BellDiagonal.from_weights(rng.dirichlet([1.0] * 4))
        out, p = purify.recurrence_step(state)
        w = out.as_array()
        assert np.all(w >= -1e-15)
        assert abs(w.sum() - 1.0) < 1e-12
        assert 0.0 < p <= 1.0


def test_fidelity_increases_on_quench_family():
    rng = np.random.default_rng(12)
    for _ in range(200):
        f = float(rng.uniform(0.5001, 0.9999))
        out, _ = purify.recurrence_step(BellDiagonal.from_fidelity(f))
        assert out.psi_plus > f


def test_expected_pairs_monotone_in_fidelity():
    pairs = [
        purify.purify_until(BellDiagonal.from_fidelity(f), 0.99).expected_pairs
        for f in np.linspace(0.55, 0.99, 23)
    ]
    assert all(p2 <= p1 + 1e-12 for p1, p2 in zip(pairs, pairs[1:]))


def test_purify_weak_source_trace():
    trace = purify.purify_until(BellDiagonal.from_fidelity(0.544), 0.99)
    assert trace.iterations == 5
    assert abs(trace.final_fidelity - 0.996) < 2e-3
    assert 0.9 * 361 <= trace.expected_pairs <= 1.1 * 361
    fids = [s.input_state.psi_plus for s in trace.steps] + [trace.final_fidelity]
    assert all(b > a for a, b in zip(fids, fids[1:]))
    np.testing.assert_allclose(
        trace.expected_pairs,
        np.prod([2.0 / s.success_probability for s in trace.steps]),
        rtol=1e-12,
    )


def test_purify_strong_source_trace():
    trace = purify.purify_until(BellDiagonal.from_fidelity(0.9117), 0.99)
    assert trace.iterations == 1
    assert abs(trace.final_fidelity - 0.991) < 1e-3


def test_purify_trivial_and_boundary_sources():
    trace = purify.purify_until(BellDiagonal.from_fidelity(1.0), 0.99)
    assert trace.iterations == 0
    assert trace.expected_pairs == 1.0
    with pytest.raises(NotPurifiableError):
        purify.purify_until(BellDiagonal.from_fidelity(0.5), 0.99)
    with pytest.raises(ValueError):
        purify.purify_until(BellDiagonal.from_fidelity(0.9), threshold=0.4)
    with pytest.raises(ValueError):
        purify.purify_until(BellDiagonal.from_fidelity(0.9), threshold=1.0)


def test_orientation_handles_any_dominant_weight():
    base = purify.purify_until(BellDiagonal.from_fidelity(0.8), 0.99)
    variants = [
        BellDiagonal(0.0, 0.8, 0.1, 0.1),  # psi- dominant
        BellDiagonal(0.1, 0.1, 0.8, 0.0),  # phi+ dominant
        BellDiagonal(0.1, 0.1, 0.0, 0.8),  # phi- dominant
    ]
    for v in variants:
        trace = purify.purify_until(v, 0.99)
        assert trace.iterations == base.iterations
        assert trace.input_fidelity == 0.8


def test_nonconverging_input_raises():
    # equal psi weights keep the map pinned at fidelity 1/2 + epsilon
    with pytest.raises(ConvergenceError):
        purify.purify_until(BellDiagonal(0.6, 0.4, 0.0, 0.0), 0.99)


def test_trace_json_layout():
    doc = purify.purify_until(BellDiagonal.from_fidelity(0.7), 0.95).to_json_dict()
    assert doc["iterations"] == len(doc["steps"])
    assert doc["input_fidelity"] == 0.7
    assert "pair_accounting" in doc
    for step in doc["steps"]:
        assert len(step["input"]) == 4 and len(step["output"]) == 4
