"""Property tests over random couplings and times (hypothesis).

Examples are derandomized and bounded so the suite stays fast and
repeatable; couplings range over both signs, as large disorder draws do.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xxzquench import exactdiag, freefermion, model
from xxzquench.model import NeelOrder

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

bond = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_subnormal=False)


@st.composite
def chains(draw, min_n, max_n):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    couplings = draw(st.lists(bond, min_size=n - 1, max_size=n - 1))
    return model.CouplingRealization(couplings=tuple(couplings), seed_used=0)


times = st.lists(
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False), min_size=1, max_size=12
)


@PROPERTY_SETTINGS
@given(real=chains(3, 9), ts=times)
def test_free_fermions_match_exact_diagonalization(real, ts):
    # delta1 = inf, delta2 = 0: the two engines must agree entry-wise
    ts = np.asarray(ts)
    ff = np.stack(freefermion.end_spin_series(real, ts))
    evolution = exactdiag.QuenchEvolution(real, math.inf, 0.0)
    ed = np.stack(evolution.end_spin_series(ts))
    assert np.max(np.abs(ff - ed)) < 1e-8


@PROPERTY_SETTINGS
@given(
    real=chains(2, 60),
    ts=times,
    initial=st.sampled_from(["mixture", NeelOrder.N1, NeelOrder.N2]),
)
def test_x_state_invariants_along_trajectories(real, ts, initial):
    a, b, c = freefermion.end_spin_series(real, np.asarray(ts), initial)
    assert np.max(np.abs(2 * a + 2 * b - 1.0)) <= 1e-12
    assert np.min(a) >= -1e-12
    assert np.max(np.abs(c) - b) <= 1e-12
