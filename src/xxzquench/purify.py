"""Recurrence entanglement purification on Bell-diagonal pair states.

The protocol is the original recurrence scheme of Bennett et al., Phys.
Rev. Lett. 76, 722 (1996): two identical noisy pairs, a bilateral CNOT
(each party uses their qubit of the source pair as control onto their
qubit of the target pair), a computational-basis measurement of the
target pair, and postselection on coincident outcomes.  For the
Bell-diagonal family produced by the quench the twirling step of the
original protocol is unnecessary: the map sends Bell-diagonal states to
Bell-diagonal states in closed form.

Weights are ordered (psi+, psi-, phi+, phi-).  The closed-form map, with
the target state psi+, reads

    p   = (w+ + w-)^2 + (v+ + v-)^2
    w+' = (w+^2 + w-^2) / p      w-' = 2 w+ w- / p
    v+' = (v+^2 + v-^2) / p      v-' = 2 v+ v- / p

where (w+, w-) are the psi weights and (v+, v-) the phi weights.  The
test suite checks it against a brute-force construction of the same
protocol on the 16x16 two-pair density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotPurifiableError

WEIGHT_TOL = 1e-12
MAX_RECURRENCE_STEPS = 64

PAIR_ACCOUNTING_NOTE = (
    "expected_pairs = prod_i(2 / p_i): two fresh pairs per attempt, "
    "mean number of attempts 1/p per step (expectation-value accounting)"
)


@dataclass(frozen=True)
class BellDiagonal:
    """Nonnegative weights on the Bell basis, summing to one."""

    psi_plus: float
    psi_minus: float
    phi_plus: float
    phi_minus: float

    def __post_init__(self):
        w = self.as_array()
        if np.any(w < -WEIGHT_TOL):
            raise ValueError(f"Bell weights must be nonnegative, got {tuple(w)}")
        if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"Bell weights sum to {w.sum()}, not 1")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.psi_plus, self.psi_minus, self.phi_plus, self.phi_minus]
        )

    @property
    def fidelity(self) -> float:
        """Weight of the psi+ target."""
        return self.psi_plus

    @classmethod
    def from_weights(cls, w) -> "BellDiagonal":
        return cls(float(w[0]), float(w[1]), float(w[2]), float(w[3]))

    @classmethod
    def from_fidelity(cls, f: float) -> "BellDiagonal":
        """Source with psi+ weight f and the remainder split over phi+-.

        This is the post-quench peak state with the small psi- admixture
        dropped, the form in which a scan record (a bare fef value)
        specifies a purification source.
        """
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fidelity must lie in [0, 1], got {f}")
        r = 0.5 * (1.0 - f)
        return cls(psi_plus=f, psi_minus=0.0, phi_plus=r, phi_minus=r)


@dataclass(frozen=True)
class PurificationStep:
    input_state: BellDiagonal
    success_probability: float
    output_state: BellDiagonal


@dataclass(frozen=True)
class PurificationTrace:
    steps: tuple[PurificationStep, ...]
    expected_pairs: float
    final_fidelity: float
    threshold: float
    input_fidelity: float

    @property
    def iterations(self) -> int:
        return len(self.steps)

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "input_fidelity": self.input_fidelity,
            "iterations": self.iterations,
            "final_fidelity": self.final_fidelity,
            "expected_pairs": self.expected_pairs,
            "pair_accounting": PAIR_ACCOUNTING_NOTE,
            "steps": [
                {
                    "input": list(s.input_state.as_array()),
                    "success_probability": s.success_probability,
                    "output": list(s.output_state.as_array()),
                }
                for s in self.steps
            ],
        }


def recurrence_step(state: BellDiagonal) -> tuple[BellDiagonal, float]:
    """One purification round on two copies of ``state`` (closed form)."""
    wp, wm, vp, vm = state.as_array()
    p = (wp + wm) ** 2 + (vp + vm) ** 2
    out = np.array(
        [wp**2 + wm**2, 2.0 * wp * wm, vp**2 + vm**2, 2.0 * vp * vm]
    ) / p
    return BellDiagonal.from_weights(out), float(p)


_ORIENTATIONS = {
    0: (0, 1, 2, 3),  # psi+ already dominant
    1: (1, 0, 3, 2),  # Z on one side swaps psi+/psi- and phi+/phi-
    2: (2, 3, 0, 1),  # X on one side swaps psi/phi within each sign
    3: (3, 2, 1, 0),  # Y on one side
}


def orient_to_target(state: BellDiagonal) -> BellDiagonal:
    """Local rotation (a weight permutation) putting the largest weight
    on the psi+ target."""
    w = state.as_array()
    perm = _ORIENTATIONS[int(np.argmax(w))]
    return BellDiagonal.from_weights(w[list(perm)])


def purify_until(
    state: BellDiagonal, threshold: float = 0.99, max_steps: int = MAX_RECURRENCE_STEPS
) -> PurificationTrace:
    """Iterate purification rounds until the target fidelity crosses
    ``threshold``; track success probabilities and the expected number of
    raw input pairs per final pair."""
    if not 0.5 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (1/2, 1), got {threshold}")
    current = orient_to_target(state)
    input_fidelity = current.fidelity
    if input_fidelity <= 0.5:
        raise NotPurifiableError(
            f"input fidelity {input_fidelity} <= 1/2; the criterion "
            f"for purifiability is fidelity > 1/2"
        )
    steps: list[PurificationStep] = []
    expected_pairs = 1.0
    while current.fidelity < threshold:
        if len(steps) >= max_steps:
            raise ConvergenceError(
                f"fidelity {current.fidelity} below threshold {threshold} "
                f"after {max_steps} purification rounds"
            )
        nxt, p = recurrence_step(current)
        steps.append(
            PurificationStep(
                input_state=current, success_probability=p, output_state=nxt
            )
        )
        expected_pairs *= 2.0 / p
        current = nxt
    return PurificationTrace(
        steps=tuple(steps),
        expected_pairs=expected_pairs,
        final_fidelity=current.fidelity,
        threshold=threshold,
        input_fidelity=input_fidelity,
    )
