"""Closed-form log-partition functions for the model catalog.

Every model subclasses core.ThermoModel: it exposes log_z(beta, lam) plus
name / size_field / lambda_domain metadata, so the kernel, the scanner, and
the CLI treat them interchangeably. Integral forms are evaluated with
adaptive Simpson quadrature at absolute tolerance 1e-10 on the per-site (or
per-log) value.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.optimize import minimize_scalar

from .core import ThermoModel, check_beta, check_lambda
from .errors import CutoffError, DomainError
from .quadrature import adaptive_simpson, composite_simpson

QUAD_TOL = 1e-10
LN2 = math.log(2.0)

# e^-45 below the peak is negligible at double precision
DICKE_CUTOFF_DROP = 45.0


def log_2cosh(x):
    """ln(2 cosh x), overflow-safe for large |x|; vectorized."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax))


# ---------------------------------------------------------------------------
# square-lattice Ising model (zero field, thermodynamic limit)
# ---------------------------------------------------------------------------

def ising2d_k(beta, coupling_j):
    """Elliptic modulus K = 2 sinh(2 b J) / cosh(2 b J)^2 in (0, 1].

    Written as 2 tanh(y) sech(y) with y = 2 b J so it stays finite for any
    beta; K = 1 exactly when sinh(2 b J) = 1.
    """
    check_beta(beta)
    if coupling_j <= 0.0:
        raise DomainError(f"coupling_j must be positive, got {coupling_j}")
    y = 2.0 * beta * coupling_j
    e = math.exp(-y)
    sech = 2.0 * e / (1.0 + e * e)
    return 2.0 * math.tanh(y) * sech


@dataclass(frozen=True)
class Ising2D(ThermoModel):
    """Square-lattice Ising model at zero external field.

    lnZ is the exact thermodynamic-limit expression per site times n_sites:
    N ln(2 cosh 2bJ) + N/(2 pi) * integral of ln[(1 + sqrt(1 - K^2 sin^2 phi))/2].
    It has no closed form in a field, so its lambda_domain is lam = 0 alone.
    """

    coupling_j: float = 1.0
    n_sites: int = 1

    name: ClassVar[str] = "ising2d"
    size_field: ClassVar[str] = "n_sites"
    lambda_domain: ClassVar[tuple[float, float]] = (0.0, 0.0)

    def log_z(self, beta, lam):
        check_beta(beta)
        check_lambda(self, lam)
        k = ising2d_k(beta, self.coupling_j)

        def integrand(phi):
            ks = k * np.sin(phi)
            return np.log(0.5 * (1.0 + np.sqrt(np.maximum(1.0 - ks * ks, 0.0))))

        integral = adaptive_simpson(integrand, 0.0, math.pi, tol=QUAD_TOL)
        per_site = log_2cosh(2.0 * beta * self.coupling_j) + integral / (2.0 * math.pi)
        return self.n_sites * per_site


def ising2d_critical_temperature(coupling_j=1.0):
    """Exact critical temperature 2J / ln(1 + sqrt 2), where K reaches 1."""
    if coupling_j <= 0.0:
        raise DomainError(f"coupling_j must be positive, got {coupling_j}")
    return 2.0 * coupling_j / math.log(1.0 + math.sqrt(2.0))


# ---------------------------------------------------------------------------
# transverse-field Ising chain (thermodynamic limit)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tim1D(ThermoModel):
    """Transverse-field Ising chain; per-site lnZ from the mode integral.

    lnZ = N [ln 2 + (1/pi) * integral_0^pi dk ln cosh(bJ sqrt(1 + lam^2 - 2 lam cos k))].
    Analytic at all T > 0: the chain has no finite-temperature transition.
    """

    coupling_j: float = 1.0
    n_sites: int = 1

    name: ClassVar[str] = "tim1d"
    size_field: ClassVar[str] = "n_sites"

    def log_z(self, beta, lam):
        check_beta(beta)
        # even in the field (a pi rotation about z flips its sign), so the
        # central susceptibility stencil works at lam = 0
        lam = abs(lam)
        bj = beta * self.coupling_j

        def integrand(k):
            eps = np.sqrt(1.0 + lam * lam - 2.0 * lam * np.cos(k))
            return log_2cosh(bj * eps) - LN2

        integral = adaptive_simpson(integrand, 0.0, math.pi, tol=QUAD_TOL)
        return self.n_sites * (LN2 + integral / math.pi)


# ---------------------------------------------------------------------------
# Dicke model (rotating-wave form, radial integral)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dicke(ThermoModel):
    """N two-level atoms coupled to one bosonic mode, rotating-wave form.

    lnZ = ln of 2 * integral_0^inf dr r exp(-b r^2) [2 cosh(x(r))]^N with
    x(r) = (b w0 / 2w) sqrt(1 + 4 lam^2 r^2 w^2 / (N w0^2)). The integrand is
    evaluated as exp(g(r) - g_peak) with g = ln(2r) - b r^2 + N ln(2 cosh x),
    so the N-th power never overflows.
    """

    omega: float = 1.0
    omega0: float = 1.0
    n_atoms: int = 100

    name: ClassVar[str] = "dicke"
    size_field: ClassVar[str] = "n_atoms"

    def __post_init__(self):
        if self.omega <= 0.0 or self.omega0 <= 0.0:
            raise DomainError("omega and omega0 must be positive")
        if self.n_atoms < 1:
            raise DomainError(f"n_atoms must be >= 1, got {self.n_atoms}")

    def _log_integrand(self, r, beta, lam):
        r = np.asarray(r, dtype=float)
        scale = 4.0 * lam * lam * self.omega**2 / (self.n_atoms * self.omega0**2)
        x = (beta * self.omega0 / (2.0 * self.omega)) * np.sqrt(1.0 + scale * r * r)
        with np.errstate(divide="ignore"):
            return np.log(2.0 * r) - beta * r * r + self.n_atoms * log_2cosh(x)

    def log_z(self, beta, lam):
        check_beta(beta)
        g = lambda r: self._log_integrand(r, beta, lam)
        r_peak, g_peak = _log_peak(g, r_start=1.0 / math.sqrt(2.0 * beta))
        r_max = _cutoff_radius(g, r_peak, g_peak, DICKE_CUTOFF_DROP)

        def f(r):
            return np.exp(g(r) - g_peak)

        rough = composite_simpson(f, 0.0, r_max, n=128)
        integral = adaptive_simpson(f, 0.0, r_max, tol=QUAD_TOL * max(rough, 1e-300))
        return g_peak + math.log(integral)


def _log_peak(g, r_start):
    """Locate the maximum of a unimodal log-integrand on (0, inf).

    Geometric samples bracket the peak (the Gaussian factor guarantees decay
    at both ends); golden-section search refines it.
    """
    radii = r_start * 2.0 ** np.arange(-6.0, 62.0)
    values = g(radii)
    idx = int(np.argmax(values))
    while idx == 0:
        radii = np.concatenate([radii[:1] * 2.0 ** np.arange(-8.0, 0.0), radii])
        values = g(radii)
        idx = int(np.argmax(values))
    if idx == len(radii) - 1:
        raise CutoffError("log-integrand still rising at the sampling limit")
    bracket = (radii[idx - 1], radii[idx], radii[idx + 1])
    res = minimize_scalar(lambda r: -float(g(r)), bracket=bracket, method="golden",
                          options={"xtol": 1e-12})
    r_peak = float(res.x)
    return r_peak, float(g(r_peak))


def _cutoff_radius(g, r_peak, g_peak, drop):
    """Smallest doubling of r_peak where the log-integrand has fallen by drop."""
    target = g_peak - drop
    radii = r_peak * 2.0 ** np.arange(1.0, 61.0)
    values = g(radii)
    below = np.nonzero(values <= target)[0]
    if below.size == 0:
        raise CutoffError(
            f"log-integrand never falls {drop} below its peak within the search range"
        )
    return float(radii[below[0]])


def dicke_critical_temperature(lam, omega=1.0, omega0=1.0):
    """Superradiant critical temperature w0 / (2 w atanh(w0 / (w lam^2)))."""
    if omega <= 0.0 or omega0 <= 0.0:
        raise DomainError("omega and omega0 must be positive")
    arg = omega0 / (omega * lam * lam)
    if arg >= 1.0:
        raise DomainError(
            f"no transition: need omega*lam^2 > omega0 (got argument {arg})"
        )
    return omega0 / (2.0 * omega * math.atanh(arg))


# ---------------------------------------------------------------------------
# two-level toys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoLevel(ThermoModel):
    """Free spin-1/2 with a fixed splitting; Z = 2 cosh(beta * gap). Ignores lam.

    Being scale invariant (Cv depends on gap/T only), its specific-heat peak
    has fixed height 0.4392 at T = 0.8336 * gap, which makes it the synthetic
    reference for thermal-attenuation checks.
    """

    gap: float = 1.0

    name: ClassVar[str] = "two_level"

    def log_z(self, beta, lam):
        check_beta(beta)
        return float(log_2cosh(beta * self.gap))


@dataclass(frozen=True)
class TwoLevelField(ThermoModel):
    """Free spin-1/2 whose splitting is the control parameter: Z = 2 cosh(beta * lam)."""

    name: ClassVar[str] = "two_level_field"

    def log_z(self, beta, lam):
        check_beta(beta)
        return float(log_2cosh(beta * lam))
