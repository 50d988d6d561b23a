"""Chain configuration, coupling disorder, and Neel initial states.

A quench experiment is fully described by a :class:`ChainSpec`: chain
length, base coupling, the pre/post anisotropies, the relative disorder
strength and a seed.  Everything downstream (coupling realizations, Neel
patterns) is a pure function of the spec, so identical specs reproduce
identical runs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from enum import Enum

import numpy as np

INFINITE_ANISOTROPY = math.inf

_SEED_MASK = (1 << 64) - 1


class NeelOrder(Enum):
    """The two antiferromagnetic orders on a 1-indexed chain."""

    N1 = 1  # up spins on even sites: down, up, down, ...
    N2 = 2  # up spins on odd sites:  up, down, up, ...


@dataclass(frozen=True)
class ChainSpec:
    """Full configuration of one quench experiment.

    ``delta1`` may be ``math.inf``; the initial state is then the ideal
    equal mixture of the two Neel orders instead of a computed ground
    state; a finite ``delta1`` must exceed 1.  Times are reported in units
    of 1/j throughout.
    """

    n: int
    j: float = 1.0
    delta1: float = INFINITE_ANISOTROPY
    delta2: float = 0.0
    disorder_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"chain length must be an integer >= 2, got {self.n!r}")
        if not (self.j > 0 and math.isfinite(4.0 * self.j)):
            raise ValueError(f"coupling j (--j) must be positive with a finite band edge "
                             f"4j, got {self.j}")
        if not math.isfinite(self.delta2) or self.delta2 < 0:
            raise ValueError(
                f"post-quench anisotropy delta2 must be finite and >= 0, "
                f"got {self.delta2}"
            )
        if not self.delta1 > 1:  # NaN included
            raise ValueError(
                f"pre-quench anisotropy delta1 must be inf or a finite number above 1 "
                f"(antiferromagnetic Ising side), got {self.delta1}"
            )
        if not self.delta1 > self.delta2:
            raise ValueError(
                f"a quench crosses downward: need delta1 > delta2, "
                f"got {self.delta1} -> {self.delta2}"
            )
        if not (math.isfinite(self.disorder_sigma) and self.disorder_sigma >= 0):
            raise ValueError(
                f"disorder_sigma must be finite and >= 0, got {self.disorder_sigma}"
            )
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _SEED_MASK:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")

    @property
    def ideal_neel_start(self) -> bool:
        """True when delta1 carries the infinite marker."""
        return math.isinf(self.delta1)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        if math.isinf(self.delta1):
            d["delta1"] = "inf"
        return d


@dataclass(frozen=True)
class CouplingRealization:
    """One draw of the n-1 bond strengths J_k."""

    couplings: tuple[float, ...]
    seed_used: int

    def __post_init__(self):
        if len(self.couplings) < 1:
            raise ValueError("a chain needs at least one bond")

    @property
    def n(self) -> int:
        return len(self.couplings) + 1


@dataclass(frozen=True)
class NeelState:
    """An alternating up/down product state, given by its up sites."""

    which: NeelOrder
    n: int
    up_sites: tuple[int, ...]

    @property
    def m_up(self) -> int:
        """Conserved number of up spins."""
        return len(self.up_sites)


def sub_seed(seed: int, index: int) -> int:
    """Per-realization seed: master seed XOR realization index.

    XOR keeps the derivation order-free, so parallel workers can pick up
    any subset of realizations without changing results.
    """
    return (seed ^ index) & _SEED_MASK


def realize_couplings(spec: ChainSpec) -> CouplingRealization:
    """Draw bond strengths J_k = j * (1 + d_k), d_k ~ Normal(0, sigma).

    With sigma = 0 every bond equals j exactly and the generator is never
    consulted.  Negative draws at large sigma are passed through rather
    than clamped or resampled; the recorded seed makes any outlier
    reproducible.  A bond whose band edge 4|J| is not finite is refused.
    """
    nb = spec.n - 1
    if spec.disorder_sigma == 0.0:
        return CouplingRealization(couplings=(spec.j,) * nb, seed_used=spec.seed)
    deltas = np.random.default_rng(spec.seed).normal(0.0, spec.disorder_sigma, nb)
    # Python floats round as numpy's, and overflow to inf without a warning
    couplings = tuple(spec.j * (1.0 + d) for d in deltas.tolist())
    for k, coupling in enumerate(couplings, 1):
        if not math.isfinite(4.0 * coupling):
            raise ValueError(f"bond {k} drawn as {coupling} has no finite band edge 4|J|; "
                             f"lower --j or --sigma")
    return CouplingRealization(couplings=couplings, seed_used=spec.seed)


def neel_state(which: NeelOrder, n: int) -> NeelState:
    """Up-site pattern of the requested Neel order on sites 1..n."""
    if n < 2:
        raise ValueError(f"chain length must be >= 2, got {n}")
    if which == NeelOrder.N1:
        ups = tuple(range(2, n + 1, 2))
    elif which == NeelOrder.N2:
        ups = tuple(range(1, n + 1, 2))
    else:
        raise ValueError(f"unknown Neel order {which!r}")
    return NeelState(which=which, n=n, up_sites=ups)
