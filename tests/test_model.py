import json
import math

import numpy as np
import pytest

from xxzquench import model


def test_zero_noise_couplings_are_exact():
    spec = model.ChainSpec(n=7, j=1.0, disorder_sigma=0.0, seed=123)
    real = model.realize_couplings(spec)
    assert real.couplings == (1.0,) * 6
    assert real.n == 7


def test_couplings_deterministic():
    spec = model.ChainSpec(n=7, j=1.0, disorder_sigma=0.1, seed=987654321)
    a = model.realize_couplings(spec)
    b = model.realize_couplings(spec)
    assert a.couplings == b.couplings
    assert a.seed_used == 987654321
    other = model.realize_couplings(
        model.ChainSpec(n=7, j=1.0, disorder_sigma=0.1, seed=987654322)
    )
    assert other.couplings != a.couplings


def test_coupling_statistics_match_distribution():
    spec = model.ChainSpec(n=100, j=1.0, disorder_sigma=0.2, seed=20260809)
    real = model.realize_couplings(spec)
    deltas = np.asarray(real.couplings) / spec.j - 1.0
    assert len(deltas) == 99
    assert abs(deltas.mean()) < 3 * 0.2 / np.sqrt(99)
    assert abs(deltas.std(ddof=1) - 0.2) < 0.25 * 0.2


def test_negative_couplings_pass_through():
    # huge sigma: some draws go negative and must not be clamped
    spec = model.ChainSpec(n=50, j=1.0, disorder_sigma=5.0, seed=3)
    real = model.realize_couplings(spec)
    assert min(real.couplings) < 0


def test_neel_examples():
    s = model.neel_state(model.NeelOrder.N1, 3)
    assert s.up_sites == (2,)
    assert s.m_up == 1
    s = model.neel_state(model.NeelOrder.N2, 3)
    assert s.up_sites == (1, 3)
    assert s.m_up == 2
    s = model.neel_state(model.NeelOrder.N1, 2)
    assert s.up_sites == (2,)


def test_neel_counts():
    for n in range(2, 51):
        assert model.neel_state(model.NeelOrder.N1, n).m_up == n // 2
        assert model.neel_state(model.NeelOrder.N2, n).m_up == (n + 1) // 2


def test_neel_orders_are_bit_flips():
    for n in range(2, 51):
        up1 = set(model.neel_state(model.NeelOrder.N1, n).up_sites)
        up2 = set(model.neel_state(model.NeelOrder.N2, n).up_sites)
        assert up1 | up2 == set(range(1, n + 1))
        assert up1 & up2 == set()


def test_neel_rejects_short_chain():
    with pytest.raises(ValueError):
        model.neel_state(model.NeelOrder.N1, 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        model.ChainSpec(n=1)
    with pytest.raises(ValueError):
        model.ChainSpec(n=5, j=0.0)
    with pytest.raises(ValueError):
        model.ChainSpec(n=5, delta2=-0.1)
    with pytest.raises(ValueError):
        model.ChainSpec(n=5, delta1=2.0, delta2=3.0)  # upward quench
    for delta1 in (0.5, 1.0):  # a finite delta1 must exceed 1
        with pytest.raises(ValueError, match="delta1 must be inf or a finite number above 1"):
            model.ChainSpec(n=5, delta1=delta1)
    with pytest.raises(ValueError):
        model.ChainSpec(n=5, disorder_sigma=-1.0)
    with pytest.raises(ValueError):
        model.ChainSpec(n=5, seed=-1)


@pytest.mark.parametrize("field, value", [
    ("j", math.inf), ("j", math.nan),
    ("disorder_sigma", math.inf), ("disorder_sigma", math.nan),
    ("delta2", math.inf), ("delta2", math.nan),
    ("delta1", math.nan),
])
def test_spec_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        model.ChainSpec(n=5, **{field: value})


def test_spec_accepts_infinite_delta1_only_upward():
    assert model.ChainSpec(n=5, delta1=math.inf).ideal_neel_start
    with pytest.raises(ValueError):
        model.ChainSpec(n=5, delta1=-math.inf)


def test_spec_json_round_trip():
    spec = model.ChainSpec(n=9, j=2.0, delta1=3.0, delta2=0.5,
                           disorder_sigma=0.1, seed=42)
    inf_spec = model.ChainSpec(n=9)
    for s in (spec, inf_spec):
        doc = json.loads(json.dumps(s.to_json_dict()))
        assert set(doc) == {"n", "j", "delta1", "delta2", "disorder_sigma", "seed"}
        delta1 = math.inf if doc["delta1"] == "inf" else doc["delta1"]
        assert model.ChainSpec(**{**doc, "delta1": delta1}) == s
    assert json.loads(json.dumps(inf_spec.to_json_dict()))["delta1"] == "inf"


def test_sub_seed():
    assert model.sub_seed(0, 5) == 5
    assert model.sub_seed(12345, 0) == 12345
    seen = {model.sub_seed(777, r) for r in range(100)}
    assert len(seen) == 100
