"""Composite Simpson quadrature for smooth 1-D integrands.

Integrands must accept numpy arrays. adaptive_simpson doubles the panel count
of one global rule until the Richardson estimate of its error meets the
tolerance. It does no local refinement, so it is meant for integrands that are
analytic on the closed interval; an end-point kink converges, but slowly.
"""

import numpy as np

from .errors import DomainError, QuadratureError

MAX_PANELS = 2**18


def composite_simpson(f, a, b, n=128):
    """Fixed composite Simpson rule with n subintervals (n even)."""
    if n % 2:
        raise DomainError("composite_simpson needs an even interval count")
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f(x), dtype=float)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / n / 3.0 * np.dot(w, y))


def adaptive_simpson(f, a, b, tol=1e-10):
    """Integrate f over [a, b] to absolute tolerance tol.

    Starting from composite_simpson's 128 panels, doubles the panel count
    until err = (fine - coarse) / 15, the Richardson estimate of the finer
    rule's error, is at most tol, and returns fine + err. Raises
    QuadratureError when that takes more than MAX_PANELS panels.
    """
    a = float(a)
    b = float(b)
    if b == a:
        return 0.0
    if b < a:
        raise DomainError("integration limits must be increasing")
    n = 128
    coarse = composite_simpson(f, a, b, n)
    while (n := 2 * n) <= MAX_PANELS:
        fine = composite_simpson(f, a, b, n)
        err = (fine - coarse) / 15.0
        if abs(err) <= tol:
            return fine + err
        coarse = fine
    raise QuadratureError(f"tolerance {tol:.3e} unmet at {MAX_PANELS} panels "
                          f"(residual estimate {abs(err):.3e})")
