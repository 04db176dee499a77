"""Simulator for two-coupler feedback-in-time networks.

Builds a network out of two forward channels (g1, g2), a backward
propagator (m) and a shared two-port coupler, solves it in closed form,
cross-validates with an independent loop-unrolling iteration, and ships
the worked special cases plus resonance lineshape tooling.

Operands are at most 64 wide, where extra OpenBLAS threads only spin, so
importing the package loads numpy's BLAS on one thread, unless a thread
variable is set or numpy was imported first.
"""

import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and os.environ.keys().isdisjoint(_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, as .linalg loads numpy
    try:
        from . import linalg
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .linalg import (
    DIM_CAP,
    SingularMatrixError,
    SplitterParams,
    couple,
    invert,
    is_unitary,
    norm_sq,
    random_unitary,
    spectral_radius,
)
from .network import (
    FeedbackNetwork,
    NetworkSolution,
    SingularDenominatorError,
    solve_closed_form,
    transmitted_probability,
    verify_fixed_point,
)
from .oracle import IterationReport, NotConvergedError, loop_map, solve_by_iteration
from .scenarios import (
    GrandfatherParams,
    PhaseScanResult,
    build_grandfather,
    build_undo,
    grandfather_amplitude_ratios,
    grandfather_transmission,
    perturbative_check,
    phase_scan,
    predicted_fwhm,
)

__version__ = "0.1.0"

__all__ = [
    "DIM_CAP",
    "FeedbackNetwork",
    "GrandfatherParams",
    "IterationReport",
    "NetworkSolution",
    "NotConvergedError",
    "PhaseScanResult",
    "SingularDenominatorError",
    "SingularMatrixError",
    "SplitterParams",
    "build_grandfather",
    "build_undo",
    "couple",
    "grandfather_amplitude_ratios",
    "grandfather_transmission",
    "invert",
    "is_unitary",
    "loop_map",
    "norm_sq",
    "perturbative_check",
    "phase_scan",
    "predicted_fwhm",
    "random_unitary",
    "solve_by_iteration",
    "solve_closed_form",
    "spectral_radius",
    "transmitted_probability",
    "verify_fixed_point",
]
