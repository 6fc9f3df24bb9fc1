"""Model-agnostic thermodynamics kernel.

Turns any log-partition function lnZ(beta, lam) into free energies,
finite-difference response functions, and temperature/field fidelities.
Partition functions are handled exclusively in log space; every fidelity
ratio is a difference of logs exponentiated at the end, so systems whose
Z overflows double precision still evaluate cleanly.

Conventions: k_B = 1, beta = 1/T. Perturbations are specified in
temperature; the matching beta perturbation is always derived as
dbeta = dT / (T (T + dT)).
"""

import math
import sys
import warnings
from dataclasses import dataclass
from typing import ClassVar, Protocol, runtime_checkable

from .errors import DomainError, EvaluationError, StepTooSmall

# A second difference g(lo) + g(hi) - 2 g(mid) whose magnitude is below
# this multiple of epsilon * (|g(lo)| + |g(hi)| + |g(mid)|) is
# indistinguishable from the cancellation noise in its terms.
NOISE_FACTOR = 20.0


def check_beta(beta):
    """Raise DomainError unless beta is a positive, finite inverse temperature."""
    if not (beta > 0.0 and math.isfinite(beta)):
        raise DomainError(f"beta must be positive and finite, got {beta}", key="beta")


@runtime_checkable
class ThermoModel(Protocol):
    """Contract every model satisfies: a log-partition function plus metadata.

    name is the model's label in messages and reports. size_field names the
    dataclass field holding the system size, which the CLI varies to build a
    size family for classification; it is None for a model without one.
    size_hint is that size (None without one), the per-site normalisation of
    the classifier. lambda_domain is the closed interval of lam where log_z
    is defined; check_lambda enforces it.

    The catalog models subclass this protocol and inherit size_hint, the
    unbounded lambda_domain and the check that a size is >= 1, which runs
    when a dataclass model is built. The kernel and the sweep need only name,
    size_hint and log_z, so any object with those works too.
    """

    name: str
    size_field: ClassVar[str | None] = None
    lambda_domain: ClassVar[tuple[float, float]] = (-math.inf, math.inf)

    def __post_init__(self):
        size = self.size_hint
        if size is not None and not size >= 1:
            raise DomainError(f"{self.size_field} must be >= 1, got {size}", key=self.size_field)

    @property
    def size_hint(self) -> int | None:
        return None if self.size_field is None else getattr(self, self.size_field)

    def log_z(self, beta: float, lam: float) -> float: ...


def check_lambda(model, lam, key="lam"):
    """Raise DomainError(key=key) unless lam lies in the model's lambda_domain."""
    lo, hi = getattr(model, "lambda_domain", ThermoModel.lambda_domain)
    if not lo <= lam <= hi:
        domain = f"lam = {lo:g}" if lo == hi else f"{lo:g} <= lam <= {hi:g}"
        raise DomainError(f"{model.name} is defined for {domain} only, got lam = {lam:g}",
                          key=key)


@dataclass(frozen=True)
class ThermoPoint:
    """A point (beta, lam) in the inverse-temperature / control-parameter plane."""

    beta: float
    lam: float

    def __post_init__(self):
        check_beta(self.beta)
        if not math.isfinite(self.lam):
            raise DomainError(f"lam must be finite, got {self.lam}", key="lam")

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta


def warn_if_large_steps(t_min, lam_min, delta_t, delta_lambda):
    """Warn (never fail) when a step exceeds a tenth of the grid scale it fits worst.

    delta_t is compared with the lowest temperature t_min, delta_lambda (None
    when no field step is used) with max(|lam|, 1) at the smallest field
    magnitude lam_min on the grid.
    """
    if delta_t / t_min > 0.1:
        warnings.warn(f"delta_t={delta_t} is not small against T={t_min}", stacklevel=2)
    if delta_lambda is not None and delta_lambda > 0.1 * max(abs(lam_min), 1.0):
        warnings.warn(f"delta_lambda={delta_lambda} is not small against lam={lam_min}",
                      stacklevel=2)


def delta_beta(temperature, delta_t):
    """Inverse-temperature shift produced by a temperature shift delta_t."""
    return delta_t / (temperature * (temperature + delta_t))


def _log_z(model, beta, lam):
    check_beta(beta)
    value = model.log_z(beta, lam)
    if not math.isfinite(value):
        raise EvaluationError(
            f"{model.name}: non-finite lnZ at beta={beta}, lam={lam}"
        )
    return value


def _positive_step(name, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive, got {value}", key=name)
    return value


def _second_difference(g, lo, mid, hi, context):
    """g(lo) + g(hi) - 2 g(mid), the one stencil behind every response field.

    A zero built from bitwise-identical terms is a legitimately flat result
    and passes through; any other difference below the noise floor
    NOISE_FACTOR * eps * (|g(lo)| + |g(hi)| + |g(mid)|) raises StepTooSmall.
    """
    a, b, c = g(lo), g(hi), g(mid)
    diff = a + b - 2.0 * c
    floor = NOISE_FACTOR * sys.float_info.epsilon * (abs(a) + abs(b) + abs(c))
    if abs(diff) < floor and not (diff == 0.0 and a == b == c):
        raise StepTooSmall(
            f"{context}: second difference {diff:.3e} is below the "
            f"cancellation noise floor; increase the step"
        )
    return diff


def free_energy(model, point):
    """Free energy F = -lnZ(beta, lam) / beta."""
    return -_log_z(model, point.beta, point.lam) / point.beta


def log_fidelity_beta(model, beta0, beta1, lam):
    """lnZ((b0+b1)/2) - lnZ(b0)/2 - lnZ(b1)/2: the log of the temperature fidelity."""
    mid = 0.5 * (beta0 + beta1)
    # the symmetric combination keeps F(b0, b1) == F(b1, b0) bitwise
    return _log_z(model, mid, lam) - 0.5 * (
        _log_z(model, beta0, lam) + _log_z(model, beta1, lam)
    )


def fidelity_beta(model, beta0, beta1, lam):
    """Fidelity between thermal states at beta0 and beta1, same lam.

    Exactly 1 when beta0 == beta1; at most 1 whenever lnZ is convex in beta.
    """
    return math.exp(log_fidelity_beta(model, beta0, beta1, lam))


def specific_heat(model, point, delta_t):
    """Central second difference of F in T: Cv = -T [F(T+h)+F(T-h)-2F(T)]/h^2, h = delta_t/2.

    Converges to -T d2F/dT2 with O(delta_t^2) error at analytic points.
    """
    t = point.temperature
    h = 0.5 * _positive_step("delta_t", delta_t)
    if t - h <= 0.0:
        raise DomainError(f"delta_t={delta_t} too large for T={t}", key="delta_t")
    diff = _second_difference(lambda b: -_log_z(model, b, point.lam) / b,
                              1.0 / (t - h), point.beta, 1.0 / (t + h), "specific_heat")
    return -t * diff / h**2


def fidelity_susceptibility_beta(model, point, delta_t):
    """Perturbation-independent temperature fidelity susceptibility -2 lnF / dbeta^2.

    Approaches Cv / (4 beta^2) as delta_t -> 0.
    """
    beta1 = 1.0 / (point.temperature + _positive_step("delta_t", delta_t))
    diff = _second_difference(lambda b: _log_z(model, b, point.lam),
                              beta1, 0.5 * (point.beta + beta1), point.beta,
                              "fidelity_susceptibility_beta")
    return diff / (point.beta - beta1)**2


def susceptibility_lambda(model, point, delta_lambda):
    """Susceptibility -d2F/dlam2 by central second difference with h = delta_lambda/2."""
    h = 0.5 * _positive_step("delta_lambda", delta_lambda)
    diff = _second_difference(lambda lam: -_log_z(model, point.beta, lam) / point.beta,
                              point.lam - h, point.lam, point.lam + h,
                              "susceptibility_lambda")
    return -diff / h**2


def log_fidelity_lambda_approx(model, beta, lam0, lam1):
    """Log of the commuting-approximation field fidelity Z(mid)/sqrt(Z0 Z1)."""
    mid = 0.5 * (lam0 + lam1)
    return _log_z(model, beta, mid) - 0.5 * (
        _log_z(model, beta, lam0) + _log_z(model, beta, lam1)
    )


def fidelity_lambda_approx(model, beta, lam0, lam1):
    """Field fidelity in the commuting approximation.

    Its error against the exact Uhlmann fidelity is, at leading order,
    (dlam^2/8)(I_BKM - I_SLD) with dlam = lam1 - lam0, the gap between the
    Kubo-Mori metric (d2 lnZ/dlam2) and the SLD metric at the midpoint. The
    gap is >= 0 and vanishes when [H, dH/dlam] = 0. The dense-matrix pipeline
    in thermofid.exact provides the exact value and the validity bound.
    """
    return math.exp(log_fidelity_lambda_approx(model, beta, lam0, lam1))


def fidelity_susceptibility_lambda(model, beta, lam, delta_lambda):
    """Perturbation-independent field fidelity susceptibility -2 lnF / dlam^2.

    Approaches beta * chi / 4 at high temperature.
    """
    h = 0.5 * _positive_step("delta_lambda", delta_lambda)
    diff = _second_difference(lambda x: _log_z(model, beta, x), lam - h, lam, lam + h,
                              "fidelity_susceptibility_lambda")
    return diff / delta_lambda**2


def log_z_convexity_defect(model, betas, lam):
    """Most negative scaled second difference of lnZ over a uniform beta grid.

    Returns min_i (lnZ[i+1] + lnZ[i-1] - 2 lnZ[i]) / max(|lnZ[i]|, 1); a value
    >= -1e-8 certifies discrete convexity of lnZ in beta (Var(H) >= 0), which
    in turn guarantees fidelity_beta <= 1.
    """
    betas = [float(b) for b in betas]
    if len(betas) < 3:
        raise DomainError("need at least three beta values")
    steps = [betas[i + 1] - betas[i] for i in range(len(betas) - 1)]
    if any(s <= 0 for s in steps):
        raise DomainError("beta grid must be strictly increasing")
    if max(steps) - min(steps) > 1e-9 * max(steps):
        raise DomainError("beta grid must be uniform")
    z = [_log_z(model, b, lam) for b in betas]
    defect = math.inf
    for i in range(1, len(z) - 1):
        d2 = z[i + 1] + z[i - 1] - 2.0 * z[i]
        defect = min(defect, d2 / max(abs(z[i]), 1.0))
    return defect
