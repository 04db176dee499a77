"""The grandfather lineshape against a 50-digit reference.

The closed form's transmission at theta = 0.7 is compared with
1 / (1 + 4 (alpha^2 / beta^4) sin^2(phi / 2)) evaluated by mpmath at 50
digits from the same float beta and phi, at the peak and at both
half-maximum points. Each bound is as tight as today's closed form passes.
The loop denominator forms alpha^2 as sqrt(1 - beta^2)^2 and, near
resonance, subtracts it from 1, so the error grows like 1e-16 / beta^2: at
beta = 1e-6 it is 1.8e-4, the one case marked xfail.
"""

import numpy as np
import pytest

from qtimeloop.network import solve_closed_form, transmitted_probability
from qtimeloop.scenarios import GrandfatherParams, build_grandfather, predicted_fwhm

mpmath = pytest.importorskip("mpmath")

THETA = 0.7


def reference_transmission(beta: float, phi: float):
    with mpmath.workdps(50):
        b, s = mpmath.mpf(beta), mpmath.sin(mpmath.mpf(phi) / 2)
        return 1 / (1 + 4 * (1 - b * b) / b**4 * s * s)


def relative_error(beta: float, phi: float) -> float:
    net = build_grandfather(GrandfatherParams(beta, THETA, phi))
    got = transmitted_probability(solve_closed_form(net, np.ones(1, dtype=complex)))
    want = reference_transmission(beta, phi)
    with mpmath.workdps(50):
        return float(abs(got - want) / want)


# largest relative error today across phi = 0, +-FWHM/2: 7.8e-16, 3.1e-14, 2.4e-10
BOUNDS = {0.3: 1e-15, 0.1: 4e-14, 1e-3: 3e-10}


@pytest.mark.parametrize("half_widths", [0.0, 0.5, -0.5])
@pytest.mark.parametrize("beta", sorted(BOUNDS, reverse=True))
def test_grandfather_transmission_matches_the_50_digit_lineshape(beta, half_widths):
    phi = half_widths * predicted_fwhm(beta)
    assert relative_error(beta, phi) <= BOUNDS[beta]


@pytest.mark.xfail(strict=True, reason="1 - alpha^2 cancels at small beta: off by 1.8e-4")
def test_grandfather_peak_is_exact_at_tiny_beta():
    assert relative_error(1e-6, 0.0) <= 1e-12
