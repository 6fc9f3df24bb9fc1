"""Model-agnostic thermodynamics kernel.

Turns a model's log-partition function lnZ(beta, lam) into finite-difference
response functions and temperature/field fidelities. A model subclasses
ThermoModel and writes _log_z; the inherited log_z checks and types it.
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
from typing import ClassVar

import numpy as np

from .errors import DomainError, EvaluationError, StepTooSmall

# A second difference g(lo) + g(hi) - 2 g(mid) whose magnitude is below
# this multiple of epsilon * (|g(lo)| + |g(hi)| + |g(mid)|) is
# indistinguishable from the cancellation noise in its terms.
NOISE_FACTOR = 20.0
# A term e^-LOG_DROP below the largest term of a sum is negligible at double
# precision: the Dicke integrand is cut there, and so are LMG's levels.
LOG_DROP = 45.0


def check_positive(key, value):
    """value, a float or an array, once positive and finite throughout, else DomainError(key)."""
    if value is None or not np.all((np.asarray(value) > 0.0) & np.isfinite(value)):
        raise DomainError(f"{key} must be positive and finite, got {value}", key=key)
    return value


def as_axis(values, key):
    """values as a float array, or DomainError(key=key) unless finite and strictly increasing."""
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1 or axis.size == 0:
        raise DomainError(f"{key} must be a non-empty 1-D sequence", key=key)
    if not np.all(np.isfinite(axis)):
        raise DomainError(f"{key} has non-finite entries", key=key)
    if axis.size > 1 and not np.all(np.diff(axis) > 0.0):
        raise DomainError(f"{key} must be strictly increasing", key=key)
    return axis


def check_uniform(values, key):
    """as_axis(values, key) once it holds at least 2 evenly spaced entries."""
    axis = as_axis(values, key)
    steps = np.diff(axis)
    if axis.size < 2 or steps.max() - steps.min() > 1e-9 * steps.max():
        raise DomainError(f"{key} must be uniformly spaced, with at least 2 values", key=key)
    return axis


def nan_or_raise(values, failed, error, describe):
    """values, NaN where failed for an array; a failed scalar raises error(describe())."""
    if np.ndim(values) == 0:
        if failed:
            raise error(describe())
        return float(values)
    return np.where(failed, math.nan, values)


def per_beta(evaluate, beta):
    """The ThermoModel array contract for an lnZ evaluate(b) taken at one float b at a time.

    An array entry is NaN where evaluate raised EvaluationError.
    """
    if np.ndim(beta) == 0:
        return evaluate(float(beta))
    values = np.empty(len(beta))
    for i, b in enumerate(beta):
        try:
            values[i] = evaluate(float(b))
        except EvaluationError:
            values[i] = math.nan
    return values


class ThermoModel:
    """Base class of every model: a log-partition function plus metadata.

    A model subclasses this class and writes _log_z(beta, lam), its numerics
    alone; log_z checks beta and lam, calls it and types its result.
    name is the model's label in messages and reports. size_field names the
    dataclass field holding the system size, which the classifier varies to
    build a size family; it is None for a model without one. size_hint is
    that size (None without one), the per-site normalisation of the
    classifier. lambda_domain is the closed interval of lam where log_z is
    defined. A dataclass model checks on construction that a size is >= 1.

    log_z(beta, lam) takes a float or 1-D array beta, then a float lam. An
    array call returns beta's shape, each entry bitwise equal to the float
    call at that beta, and NaN where that beta fails; a float call returns a
    float, or raises its EvaluationError instead. A non-finite lnZ is such a
    failure. A failure of the whole lam, such as an eigensolve, may raise for
    an array call too.
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

    def log_z(self, beta: float | np.ndarray, lam: float) -> float | np.ndarray:
        check_positive("beta", beta)
        check_lambda(self, lam)
        value = self._log_z(beta, lam)
        return nan_or_raise(value, ~np.isfinite(value), EvaluationError,
                            lambda: f"{self.name}: non-finite lnZ at beta={beta}, lam={lam}")


def check_lambda(model, lam, key="lam"):
    """Raise DomainError(key=key) unless lam is finite and lies in the model's lambda_domain."""
    if not math.isfinite(lam):
        raise DomainError(f"lam must be finite, got {lam}", key=key)
    lo, hi = model.lambda_domain
    if not lo <= lam <= hi:
        domain = f"lam = {lo:g}" if lo == hi else f"{lo:g} <= lam <= {hi:g}"
        raise DomainError(f"{model.name} is defined for {domain} only, got lam = {lam:g}",
                          key=key)


@dataclass(frozen=True)
class ThermoPoint:
    """A point (beta, lam), or a whole lam column when beta is a 1-D array."""

    beta: float | np.ndarray
    lam: float

    def __post_init__(self):
        check_positive("beta", self.beta)
        check_lambda(ThermoModel, self.lam)  # the unbounded domain every model starts from

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


def evaluate(model, stencil, lnz=None):
    """A field from its stencil (points, combine): combine(*lnZ at each (beta, lam) of points).

    Each field function below is this on its *_stencil, which takes the
    function's other arguments. lnz, when given, holds the lnZ values at
    points already: a sweep column passes each field function its share.
    """
    points, combine = stencil
    if lnz is None:
        lnz = [model.log_z(beta, lam) for beta, lam in points]
    return combine(*lnz)


def _second_difference(a, b, c, context):
    """a + b - 2c for a, b, c = g(lo), g(hi), g(mid): the one stencil behind every response field.

    A zero built from bitwise-identical terms is a legitimately flat result
    and passes through; any other difference below the noise floor
    NOISE_FACTOR * eps * (|a| + |b| + |c|) is StepTooSmall, under nan_or_raise.
    """
    diff = a + b - 2.0 * c
    floor = NOISE_FACTOR * sys.float_info.epsilon * (np.abs(a) + np.abs(b) + np.abs(c))
    flat = np.equal(diff, 0.0) & np.equal(a, b) & np.equal(b, c)
    return nan_or_raise(diff, (np.abs(diff) < floor) & ~flat, StepTooSmall,
                        lambda: f"{context}: second difference {diff:.3e} is below the "
                                f"cancellation noise floor; increase the step")


def _fidelity(z_mid, z0, z1):
    # the symmetric combination keeps F(x0, x1) == F(x1, x0) bitwise
    return np.exp(z_mid - 0.5 * (z0 + z1))


def fidelity_beta_stencil(beta0, beta1, lam):
    return (((0.5 * (beta0 + beta1), lam), (beta0, lam), (beta1, lam)), _fidelity)


def fidelity_beta(model, beta0, beta1, lam, lnz=None):
    """Fidelity between thermal states at beta0 and beta1, same lam.

    Exactly 1 when beta0 == beta1; at most 1 whenever lnZ is convex in beta.
    """
    return evaluate(model, fidelity_beta_stencil(beta0, beta1, lam), lnz)


def specific_heat_stencil(point, delta_t):
    t = point.temperature
    h = 0.5 * check_positive("delta_t", delta_t)
    if np.any(t - h <= 0.0):
        raise DomainError(f"delta_t={delta_t} too large for T={np.min(t)}", key="delta_t")
    lo, hi = 1.0 / (t - h), 1.0 / (t + h)
    return (((lo, point.lam), (hi, point.lam), (point.beta, point.lam)),
            lambda a, b, c: -t * _second_difference(
                -a / lo, -b / hi, -c / point.beta, "specific_heat") / h**2)


def specific_heat(model, point, delta_t, lnz=None):
    """Central second difference of F in T: Cv = -T [F(T+h)+F(T-h)-2F(T)]/h^2, h = delta_t/2.

    Converges to -T d2F/dT2 with O(delta_t^2) error at analytic points.
    """
    return evaluate(model, specific_heat_stencil(point, delta_t), lnz)


def partner_beta(point, delta_t):
    """1/(T + delta_t): F_beta's second beta, and the partner in chi_beta's stencil."""
    return 1.0 / (point.temperature + check_positive("delta_t", delta_t))


def fidelity_susceptibility_beta_stencil(point, delta_t):
    beta1 = partner_beta(point, delta_t)
    mid = 0.5 * (point.beta + beta1)
    return (((beta1, point.lam), (point.beta, point.lam), (mid, point.lam)),
            lambda *z: _second_difference(*z, "fidelity_susceptibility_beta")
            / (point.beta - beta1)**2)


def fidelity_susceptibility_beta(model, point, delta_t, lnz=None):
    """Perturbation-independent temperature fidelity susceptibility -2 lnF / dbeta^2.

    Approaches Cv / (4 beta^2) as delta_t -> 0.
    """
    return evaluate(model, fidelity_susceptibility_beta_stencil(point, delta_t), lnz)


def susceptibility_lambda_stencil(point, delta_lambda):
    points, _ = fidelity_susceptibility_lambda_stencil(point.beta, point.lam, delta_lambda)
    return points, lambda *z: -_second_difference(
        *[-x / point.beta for x in z], "susceptibility_lambda") / (0.5 * delta_lambda)**2


def susceptibility_lambda(model, point, delta_lambda, lnz=None):
    """Susceptibility -d2F/dlam2 by central second difference with h = delta_lambda/2."""
    return evaluate(model, susceptibility_lambda_stencil(point, delta_lambda), lnz)


def fidelity_susceptibility_lambda_stencil(beta, lam, delta_lambda):
    h = 0.5 * check_positive("delta_lambda", delta_lambda)
    return (((beta, lam - h), (beta, lam + h), (beta, lam)), lambda *z: _second_difference(
        *z, "fidelity_susceptibility_lambda") / delta_lambda**2)


def fidelity_susceptibility_lambda(model, beta, lam, delta_lambda, lnz=None):
    """Perturbation-independent field fidelity susceptibility -2 lnF / dlam^2.

    Approaches beta * chi / 4 at high temperature.
    """
    return evaluate(model, fidelity_susceptibility_lambda_stencil(beta, lam, delta_lambda), lnz)


def fidelity_lambda_approx(model, beta, lam0, lam1):
    """Field fidelity in the commuting approximation, Z(mid)/sqrt(Z0 Z1).

    Its error against the exact Uhlmann fidelity is, at leading order,
    (dlam^2/8)(I_BKM - I_SLD) with dlam = lam1 - lam0, the gap between the
    Kubo-Mori metric (d2 lnZ/dlam2) and the SLD metric at the midpoint. The
    gap is >= 0 and vanishes when [H, dH/dlam] = 0. The dense-matrix pipeline
    in thermofid.exact provides the exact value and the validity bound.
    """
    return evaluate(model, (((beta, 0.5 * (lam0 + lam1)), (beta, lam0), (beta, lam1)), _fidelity))

