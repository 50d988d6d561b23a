"""Quench-generated entanglement between the end spins of finite XXZ chains.

The package simulates the protocol end to end: a chain prepared in the
(possibly ideal) antiferromagnetic ground mixture is quenched to a lower
anisotropy, the reduced state of the two end spins is tracked in time,
its fully entangled fraction is maximized over the first revival, and
the resulting pair states are fed through recurrence purification.
"""

__version__ = "0.1.0"

from .entangle import (
    FefResult,
    PowerLawFit,
    TmaxResult,
    find_tmax,
    fit_power_law,
    fully_entangled_fraction,
    negativity,
)
from .errors import (
    ConvergenceError,
    NoPeakError,
    NotPurifiableError,
    NumericalFaultError,
)
from .freefermion import EndSpinState, end_spin_series, end_spin_state
from .model import INFINITE_ANISOTROPY, ChainSpec, CouplingRealization, NeelOrder, realize_couplings
from .purify import BellDiagonal, PurificationTrace, purify_until, recurrence_step

# The surface the README's Library section documents, name for name.
__all__ = [
    "__version__",
    "BellDiagonal",
    "ChainSpec",
    "ConvergenceError",
    "CouplingRealization",
    "EndSpinState",
    "FefResult",
    "INFINITE_ANISOTROPY",
    "NeelOrder",
    "NoPeakError",
    "NotPurifiableError",
    "NumericalFaultError",
    "PowerLawFit",
    "PurificationTrace",
    "TmaxResult",
    "end_spin_series",
    "end_spin_state",
    "find_tmax",
    "fit_power_law",
    "fully_entangled_fraction",
    "negativity",
    "purify_until",
    "realize_couplings",
    "recurrence_step",
]
