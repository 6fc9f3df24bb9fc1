"""Closed-form log-partition functions for the model catalog.

Every model subclasses core.ThermoModel and writes only _log_z(beta, lam),
beta a float or a 1-D array, plus name / size_field / lambda_domain metadata;
the inherited log_z checks and types every call, so the kernel, the scanner,
and the CLI treat them interchangeably. Integral forms
use one rule each: fixed tanh-sinh (Ising), a trapezoid rule whose panels
grow with beta (chain), and, beta by beta, adaptive Simpson to 1e-10 of a
coarse estimate on each side of the integrand's peak (Dicke, whose
log-integrand is concave, so its peak and range need no search that can fail).
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import LOG_DROP, ThermoModel, check_positive, nan_or_raise, per_beta
from .errors import DomainError, QuadratureError
from .quadrature import adaptive_simpson, composite_simpson

QUAD_TOL = 1e-10
LN2 = math.log(2.0)

# a chain beta needing more trapezoid panels (T below about 8e-6 J) fails
TIM_MAX_PANELS = 2**20
# the chain's ln 2cosh arrays, and the Ising integrand's, take about this many
# values per block of betas
TIM_BLOCK = 2**14


def log_2cosh(x):
    """ln(2 cosh x), overflow-safe for large |x|; vectorized."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax))


# ---------------------------------------------------------------------------
# square-lattice Ising model (zero field, thermodynamic limit)
# ---------------------------------------------------------------------------

def ising2d_k(beta, coupling_j):
    """Elliptic modulus K = 2 sinh(2 b J) / cosh(2 b J)^2 in (0, 1], for a float or array beta.

    Written as 2 tanh(y) sech(y) with y = 2 b J so it stays finite for any
    beta; K = 1 exactly when sinh(2 b J) = 1.
    """
    check_positive("beta", beta)
    check_positive("coupling_j", coupling_j)
    y = 2.0 * np.asarray(beta) * coupling_j
    e = np.exp(-y)
    sech = 2.0 * e / (1.0 + e * e)
    return 2.0 * np.tanh(y) * sech


# Tanh-sinh rule on [0, pi/2] (Takahasi & Mori 1974): t = k / 14 for |k| <= 45
# mapped by phi = (pi/4)(1 + tanh((pi/2) sinh t)). Its 91 nodes crowd both
# ends, so the |cos phi| kink at phi = pi/2 and K = 1 costs no accuracy.
# Built with math: numpy's vector sinh/cosh kernels would add their code
# pages (about 0.45 MiB) to the resident set of every importing process.
_TS_T = [k / 14.0 for k in range(-45, 46)]
_TS_U = [0.5 * math.pi * math.sinh(t) for t in _TS_T]
_ISING_SIN_PHI = np.array([math.sin(0.5 * math.pi / (1.0 + math.exp(-2.0 * u))) for u in _TS_U])
_ISING_WEIGHTS = np.array([math.pi**2 / 112.0 * math.cosh(t) / math.cosh(u) ** 2
                           for t, u in zip(_TS_T, _TS_U)])


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

    def __post_init__(self):
        super().__post_init__()
        check_positive("coupling_j", self.coupling_j)

    def _log_z(self, beta, lam):
        # the integrand is symmetric under phi -> pi - phi: twice the [0, pi/2] rule
        # ln[(1 + sqrt(max(1 - ks^2, 0))) / 2] * weights, in place on one array per
        # block of betas: one array for a whole column would set a scan's peak memory
        k = np.atleast_1d(ising2d_k(beta, self.coupling_j))
        integral = np.empty(k.size)
        rows = TIM_BLOCK // _ISING_SIN_PHI.size
        for i in range(0, k.size, rows):
            x = np.multiply.outer(k[i:i + rows], _ISING_SIN_PHI)
            np.subtract(1.0, np.multiply(x, x, out=x), out=x)
            np.sqrt(np.maximum(x, 0.0, out=x), out=x)
            np.log(np.multiply(np.add(x, 1.0, out=x), 0.5, out=x), out=x)
            integral[i:i + rows] = np.sum(np.multiply(x, _ISING_WEIGHTS, out=x), axis=-1)
        per_site = (log_2cosh(2.0 * np.asarray(beta) * self.coupling_j)
                    + integral.reshape(np.shape(beta)) / math.pi)
        return self.n_sites * per_site


def ising2d_critical_temperature(coupling_j=1.0):
    """Exact critical temperature 2J / ln(1 + sqrt 2), where K reaches 1."""
    check_positive("coupling_j", coupling_j)
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

    def __post_init__(self):
        super().__post_init__()
        check_positive("coupling_j", self.coupling_j)

    def _log_z(self, beta, lam):
        # even in the field (a pi rotation about z flips its sign), so the
        # central susceptibility stencil works at lam = 0
        lam = abs(lam)
        bj = np.asarray(beta) * self.coupling_j
        # trapezoid rule on [0, pi] with n = 2^ceil(log2(8 beta J)) >= 64 panels,
        # n per beta: at lam = 1 the integrand's nearest complex singularity
        # lies about pi T / 2 off the real axis, so n grows like beta J
        panels = np.maximum(64.0, 2.0 ** np.ceil(np.log2(8.0 * bj)))
        per_site = np.full(bj.size, math.nan)
        # a set, not np.unique, whose first call imports numpy.ma
        for n in set(panels[panels <= TIM_MAX_PANELS].tolist()):
            k = np.linspace(0.0, math.pi, int(n) + 1)
            eps = np.sqrt(1.0 + lam * lam - 2.0 * lam * np.cos(k))
            rows = np.flatnonzero(panels == n)
            step = max(1, TIM_BLOCK // int(n))
            for block in (rows[i:i + step] for i in range(0, rows.size, step)):
                # log_2cosh(x) - LN2 = |x| + log1p(e^-2|x|) - LN2, on two arrays
                x = np.multiply.outer(bj.flat[block], eps)
                f = np.multiply(np.abs(x, out=x), -2.0)
                np.subtract(np.add(np.log1p(np.exp(f, out=f), out=f), x, out=f), LN2, out=f)
                per_site[block] = LN2 + (f.sum(axis=-1) - 0.5 * (f[:, 0] + f[:, -1])) / n
        per_site = per_site.reshape(bj.shape)
        return self.n_sites * nan_or_raise(
            per_site, np.isnan(per_site), QuadratureError,
            lambda: f"{self.name}: beta J = {bj} needs more than {TIM_MAX_PANELS} panels")


# ---------------------------------------------------------------------------
# Dicke model (rotating-wave form, radial integral)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dicke(ThermoModel):
    """N two-level atoms coupled to one bosonic mode, rotating-wave form.

    With u = r^2 for the mode's squared radius, lnZ = ln of the integral over
    u >= 0 of e^h(u), h(u) = -b u + N ln 2cosh z and z = a sqrt(1 + s u),
    where a = b w0 / 2w and s = 4 lam^2 w^2 / (N w0^2). The integrand is taken
    as e^(h - h_peak), so the N-th power never overflows.
    """

    omega: float = 1.0
    omega0: float = 1.0
    n_atoms: int = 100

    name: ClassVar[str] = "dicke"
    size_field: ClassVar[str] = "n_atoms"

    def __post_init__(self):
        super().__post_init__()
        for key in ("omega", "omega0"):
            check_positive(key, getattr(self, key))

    def _log_z(self, beta, lam):
        return per_beta(lambda b: self._log_z_at(b, lam), beta)

    def _log_z_at(self, beta, lam):
        h, u_lo, u_peak, u_hi = self._log_integrand_range(beta, lam)
        h_peak = float(h(u_peak))

        def f(u):
            return np.exp(h(u) - h_peak)

        # the peak is an end of both segments, so each rough estimate samples it
        integral = 0.0
        for lo, hi in ((u_lo, u_peak), (u_peak, u_hi)):
            rough = composite_simpson(f, lo, hi, n=128)
            integral += adaptive_simpson(f, lo, hi, tol=QUAD_TOL * max(rough, 1e-300))
        if not 0.0 < integral < math.inf:
            # e.g. a range that rounds to one u: a fall step below the rounding of u_peak
            raise QuadratureError(f"{self.name}: integral {integral} over [{u_lo}, {u_hi}] "
                                  f"at beta={beta}, lam={lam}")
        return h_peak + math.log(integral)

    def _log_integrand_range(self, beta, lam):
        """h, its peak u_peak and a range [u_lo, u_hi] outside which h <= h(u_peak) - LOG_DROP.

        h'(u) = -b + (b lam)^2 tanh(z) / 2z falls with u, so h is concave.
        The peak sits at u = 0 unless h'(0) > 0, and otherwise at the root of
        b lam^2 tanh z = 2z, in [a, b lam^2 / 2]: the condition h'(0) > 0 is
        T < dicke_critical_temperature(lam, omega, omega0).
        """
        n = self.n_atoms
        a = beta * self.omega0 / (2.0 * self.omega)
        s = 4.0 * lam * lam * self.omega**2 / (n * self.omega0**2)

        def h(u):
            return -beta * u + n * log_2cosh(a * np.sqrt(1.0 + s * u))

        bl2 = beta * lam * lam
        # h' lies in [-b, 0] right of the peak and in [0, h'(0)] left of it, so
        # no step shorter than start takes h 1 below its peak
        u_peak, start = 0.0, 1.0 / beta
        if bl2 * math.tanh(a) > 2.0 * a:
            lo, hi = a, 0.5 * bl2
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (mid, hi) if bl2 * math.tanh(mid) > 2.0 * mid else (lo, mid)
            u_peak = n * (lo - a) * (lo + a) / ((beta * lam) * (beta * lam))
            start = min(start, 2.0 * a / (beta * (bl2 * math.tanh(a) - 2.0 * a)))
        # b lam^2 or u_peak overflows at a large enough coupling
        if not (math.isfinite(u_peak) and math.isfinite(h_peak := float(h(u_peak)))):
            raise QuadratureError(f"{self.name}: the integrand's peak overflows at "
                                  f"beta={beta}, lam={lam}")

        def fall_step(sign):
            # the first doubling of start over which h falls by 1 from the
            # peak; by concavity k such steps take it at least k below
            step = start
            while u_peak + sign * step > 0.0 and h(u_peak + sign * step) > h_peak - 1.0:
                step *= 2.0
            return step

        u_lo = max(0.0, u_peak - LOG_DROP * fall_step(-1.0))
        u_hi = u_peak + LOG_DROP * fall_step(1.0)
        return h, u_lo, u_peak, u_hi


def dicke_critical_temperature(lam, omega=1.0, omega0=1.0):
    """Superradiant critical temperature w0 / (2 w atanh(w0 / (w lam^2)))."""
    check_positive("omega", omega)
    check_positive("omega0", omega0)
    if not omega0 < omega * lam * lam < math.inf:
        raise DomainError(f"no transition at finite T: need omega0 < omega*lam^2 < inf, "
                          f"got lam = {lam}", key="lam")
    return omega0 / (2.0 * omega * math.atanh(omega0 / (omega * lam * lam)))


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

    def _log_z(self, beta, lam):
        return log_2cosh(np.asarray(beta) * self.gap)


@dataclass(frozen=True)
class TwoLevelField(ThermoModel):
    """Free spin-1/2 whose splitting is the control parameter: Z = 2 cosh(beta * lam)."""

    name: ClassVar[str] = "two_level_field"

    def _log_z(self, beta, lam):
        return log_2cosh(np.asarray(beta) * lam)
