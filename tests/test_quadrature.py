import math

import numpy as np
import pytest

from thermofid.errors import DomainError, QuadratureError
from thermofid.quadrature import adaptive_simpson, composite_simpson


def test_polynomial_exact():
    # Simpson integrates cubics exactly
    val = adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0)
    assert abs(val - (4.0 - 4.0)) < 1e-14


def test_smooth_transcendental():
    val = adaptive_simpson(np.sin, 0.0, math.pi, tol=1e-12)
    assert abs(val - 2.0) < 1e-11


def test_gaussian_tail():
    val = adaptive_simpson(lambda x: np.exp(-x * x), 0.0, 8.0, tol=1e-12)
    assert abs(val - 0.5 * math.sqrt(math.pi)) < 1e-11


def test_steep_exponential_within_tol():
    # Dicke's integrand e^(h - h_peak) falls by e^-45 over each segment
    tol = 1e-14
    val = adaptive_simpson(lambda x: np.exp(-45.0 * x), 0.0, 1.0, tol=tol)
    assert abs(val - -math.expm1(-45.0) / 45.0) <= tol


def test_sqrt_kink_converges():
    # integrable derivative singularity at the left endpoint
    val = adaptive_simpson(np.sqrt, 0.0, 1.0, tol=1e-10)
    assert abs(val - 2.0 / 3.0) < 1e-9


def test_empty_interval():
    assert adaptive_simpson(np.sin, 1.0, 1.0) == 0.0


def test_reversed_interval_rejected():
    with pytest.raises(DomainError):
        adaptive_simpson(np.sin, 1.0, 0.0)


def test_budget_exhaustion_raises():
    rng = np.random.default_rng(7)

    def noisy(x):
        # non-integrable-looking white noise never meets the tolerance
        return rng.standard_normal(np.shape(x))

    with pytest.raises(QuadratureError):
        adaptive_simpson(noisy, 0.0, 1.0, tol=1e-12)


def test_tolerance_scales_work():
    coarse = adaptive_simpson(lambda x: np.cos(3 * x), 0.0, 2.0, tol=1e-6)
    fine = adaptive_simpson(lambda x: np.cos(3 * x), 0.0, 2.0, tol=1e-13)
    target = math.sin(6.0) / 3.0
    assert abs(fine - target) <= abs(coarse - target) + 1e-13
    assert abs(fine - target) < 1e-12


def test_composite_simpson_reference():
    val = composite_simpson(np.sin, 0.0, math.pi, n=2000)
    assert abs(val - 2.0) < 1e-12


def test_composite_simpson_odd_n_rejected():
    with pytest.raises(DomainError):
        composite_simpson(np.sin, 0.0, 1.0, n=7)
