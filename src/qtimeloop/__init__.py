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

from .linalg import SplitterParams, random_unitary
from .network import (
    FeedbackNetwork,
    SingularDenominatorError,
    solve_closed_form,
    transmitted_probability,
    verify_fixed_point,
)
from .oracle import NotConvergedError, solve_by_iteration
from .scenarios import GrandfatherParams, grandfather_amplitude_ratios, phase_scan

__version__ = "0.1.0"

# the names the README's library quick tour uses, plus the two errors it names;
# everything else is imported from its submodule, e.g. qtimeloop.linalg.invert
__all__ = [
    "FeedbackNetwork",
    "GrandfatherParams",
    "NotConvergedError",
    "SingularDenominatorError",
    "SplitterParams",
    "grandfather_amplitude_ratios",
    "phase_scan",
    "random_unitary",
    "solve_by_iteration",
    "solve_closed_form",
    "transmitted_probability",
    "verify_fixed_point",
]
