"""Kernel checks against closed-form two-level oracles.

Frozen constants were computed independently from the closed forms
Z = 2 cosh(beta*h): free energy -ln(2 cosh 1), Schottky heat capacity
(h/T)^2 sech^2(h/T), and field susceptibility beta sech^2(beta*lam).
"""

import math
import warnings

import numpy as np
import pytest

from thermofid import core
from thermofid.core import ThermoPoint
from thermofid.errors import DomainError, EvaluationError, QuadratureError, StepTooSmall
from thermofid.models import Tim1D, TwoLevel, TwoLevelField

from oracles import log_z_convexity_defect

F_TWO_LEVEL = -1.1269280110429725        # -ln(2 cosh 1)
FID_BETA_TWO_LEVEL = 0.9982028549727356  # cosh(1.1)/sqrt(cosh(1) cosh(1.2))
SCHOTTKY_CV = 0.4199743416140261         # sech^2(1)
CHI_BETA_TWO_LEVEL = 0.10499358540350652  # Cv T^2 / 4
CHI_FIELD = 0.7864477329659275           # sech^2(0.5) at beta=1
CHI_LAMBDA_FIELD = 0.19661193324148188   # beta chi / 4


class _NanModel(core.ThermoModel):
    name = "nan"

    def _log_z(self, beta, lam):
        return np.full(np.shape(beta), math.nan)


def test_thermo_point_validation():
    with pytest.raises(DomainError):
        ThermoPoint(-1.0, 0.0)
    with pytest.raises(DomainError):
        ThermoPoint(0.0, 0.0)
    with pytest.raises(DomainError):
        ThermoPoint(1.0, math.inf)
    for beta in (math.inf, math.nan):
        with pytest.raises(DomainError):
            ThermoPoint(beta, 0.0)
    assert ThermoPoint(2.0, 0.5).temperature == 0.5


def test_warn_if_large_steps():
    with pytest.warns(UserWarning, match="delta_t"):
        core.warn_if_large_steps(1.0, 0.0, 0.2, None)
    # delta_lambda is measured against max(|lam|, 1) at the smallest |lam|
    with pytest.warns(UserWarning, match="delta_lambda"):
        core.warn_if_large_steps(1.0, 0.0, 1e-3, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        core.warn_if_large_steps(1.0, 5.0, 1e-3, 0.3)
        core.warn_if_large_steps(1.0, 0.0, 1e-3, None)


def test_free_energy_two_level():
    # F = -lnZ / beta at beta = 1
    assert -TwoLevel().log_z(1.0, 0.0) == pytest.approx(
        F_TWO_LEVEL, abs=1e-12
    )
    assert type(TwoLevel().log_z(1.0, 0.0)) is float


def test_free_energy_continuous_in_t():
    model = TwoLevel()
    ts = np.linspace(0.5, 2.0, 200)
    f = -model.log_z(1.0 / ts, 0.0) * ts
    assert np.abs(np.diff(f)).max() < 0.02


def test_free_energy_propagates_nonfinite():
    with pytest.raises(EvaluationError):
        _NanModel().log_z(1.0, 0.0)
    # an array call keeps its shape, NaN where lnZ is not finite
    values = _NanModel().log_z(np.array([0.5, 1.0]), 0.0)
    assert values.shape == (2,) and np.isnan(values).all()


def test_as_axis_rejects_a_2d_array():
    with pytest.raises(DomainError, match="1-D") as info:
        core.as_axis(np.ones((2, 3)), "t_axis")
    assert info.value.key == "t_axis"


@pytest.mark.parametrize("values", [[0.0, 1.0, 2.0, math.inf], [-math.inf, 0.0, 1.0],
                                    [0.0, math.nan, 2.0]])
def test_check_uniform_rejects_non_finite_entries(values):
    # an infinite end passes the spread test on its own: inf - 1 > 1e-9 * inf is False
    with pytest.raises(DomainError, match="finite") as info:
        core.check_uniform(values, "t_axis")
    assert info.value.key == "t_axis"


def test_fidelity_beta_equal_args_exactly_one():
    assert core.fidelity_beta(TwoLevel(), 1.3, 1.3, 0.0) == 1.0


def test_fidelity_beta_two_level():
    assert core.fidelity_beta(TwoLevel(), 1.0, 1.2, 0.0) == pytest.approx(
        FID_BETA_TWO_LEVEL, abs=1e-12
    )


@pytest.mark.parametrize("pair", [(0.5, 0.9), (1.0, 1.2), (2.0, 0.3)])
def test_fidelity_beta_symmetric(pair):
    model = Tim1D()
    b0, b1 = pair
    assert core.fidelity_beta(model, b0, b1, 0.7) == core.fidelity_beta(model, b1, b0, 0.7)


def test_fidelity_beta_at_most_one_for_convex_lnz():
    model = Tim1D()
    betas = np.linspace(0.4, 2.0, 9)
    assert log_z_convexity_defect(model, betas, 0.8) >= -1e-8
    for b0 in betas[::3]:
        for b1 in betas[1::3]:
            assert core.fidelity_beta(model, b0, b1, 0.8) <= 1.0 + 1e-12


def test_fidelity_beta_requires_positive_betas():
    with pytest.raises(DomainError):
        core.fidelity_beta(TwoLevel(), -0.1, 1.0, 0.0)


def test_specific_heat_schottky():
    cv = core.specific_heat(TwoLevel(), ThermoPoint(1.0, 0.0), 1e-3)
    assert cv == pytest.approx(SCHOTTKY_CV, abs=1e-6)


def test_specific_heat_vanishes_at_high_t():
    cv = core.specific_heat(TwoLevel(), ThermoPoint(1.0 / 50.0, 0.0), 0.05)
    assert abs(cv) < 1e-3


def test_specific_heat_second_order_convergence():
    # halving the step cuts the truncation error by about four
    model = TwoLevel()
    point = ThermoPoint(1.0, 0.0)
    exact = SCHOTTKY_CV
    err1 = abs(core.specific_heat(model, point, 2e-2) - exact)
    err2 = abs(core.specific_heat(model, point, 1e-2) - exact)
    assert 3.0 < err1 / err2 < 5.0


def test_specific_heat_domain_errors():
    with pytest.raises(DomainError):
        core.specific_heat(TwoLevel(), ThermoPoint(1.0, 0.0), -1e-3)
    with pytest.raises(DomainError):
        core.specific_heat(TwoLevel(), ThermoPoint(2.0, 0.0), 1.5)


def test_step_too_small_raises():
    with pytest.raises(StepTooSmall):
        core.specific_heat(TwoLevel(), ThermoPoint(1.0, 0.0), 1e-12)


def test_field_array_is_nan_exactly_where_the_float_call_raises():
    # with delta_t = 1e-4 the Cv difference is below the noise floor at T = 50,
    # not at T = 1; Tim1D's lnZ fails at beta J = 2e5 (panel budget)
    model = TwoLevel()
    cv = core.specific_heat(model, ThermoPoint(np.array([1.0, 1.0 / 50.0]), 0.0), 1e-4)
    assert cv[0] == core.specific_heat(model, ThermoPoint(1.0, 0.0), 1e-4)
    assert np.isnan(cv[1])
    with pytest.raises(StepTooSmall):
        core.specific_heat(model, ThermoPoint(1.0 / 50.0, 0.0), 1e-4)
    fid = core.fidelity_beta(Tim1D(), np.array([1.0, 2e5]), np.array([1.1, 2e5 + 1.0]), 1.0)
    assert fid[0] == core.fidelity_beta(Tim1D(), 1.0, 1.1, 1.0)
    assert np.isnan(fid[1])
    with pytest.raises(EvaluationError):
        core.fidelity_beta(Tim1D(), 2e5, 2e5 + 1.0, 1.0)


def test_per_beta_is_nan_only_where_evaluate_raises_an_evaluation_error():
    def evaluate(b):
        if b == 2.0:
            raise QuadratureError("no rule reaches tolerance here")
        if b == 3.0:
            raise DomainError("outside the model", key="beta")
        return -b

    values = core.per_beta(evaluate, np.array([1.0, 2.0, 4.0]))
    assert np.isnan(values).tolist() == [False, True, False]
    assert values[[0, 2]].tolist() == [-1.0, -4.0]
    with pytest.raises(QuadratureError):
        core.per_beta(evaluate, 2.0)
    # only an evaluation failure becomes NaN; a domain error stops the whole array
    with pytest.raises(DomainError):
        core.per_beta(evaluate, np.array([1.0, 3.0]))


def test_chi_beta_two_level():
    chi_beta = core.fidelity_susceptibility_beta(TwoLevel(), ThermoPoint(1.0, 0.0), 1e-3)
    assert chi_beta == pytest.approx(CHI_BETA_TWO_LEVEL, rel=1e-2)


def test_chi_beta_step_independent_to_leading_order():
    model = TwoLevel()
    point = ThermoPoint(1.0, 0.0)
    a = core.fidelity_susceptibility_beta(model, point, 1e-3)
    b = core.fidelity_susceptibility_beta(model, point, 5e-4)
    assert abs(a - b) / b < 2e-3


def test_chi_beta_cv_consistency_tim():
    model = Tim1D()
    for t in (0.5, 1.0, 2.0):
        point = ThermoPoint(1.0 / t, 1.0)
        cv = core.specific_heat(model, point, 1e-3 * t)
        chi_beta = core.fidelity_susceptibility_beta(model, point, 1e-3 * t)
        assert abs(4.0 * point.beta**2 * chi_beta - cv) / cv < 1e-2


def test_susceptibility_lambda_two_level_field():
    chi = core.susceptibility_lambda(TwoLevelField(), ThermoPoint(1.0, 0.5), 1e-3)
    assert chi == pytest.approx(CHI_FIELD, rel=1e-6)


def test_susceptibility_lambda_symmetric_point_matches_folded_form():
    # F even in lam: the central second difference at lam=0 equals the
    # one-sided estimate 2[F(h) - F(0)] / h^2
    model = TwoLevelField()
    h = 5e-4
    f0 = -model.log_z(1.0, 0.0)  # F = -lnZ / beta at beta = 1
    fp = -model.log_z(1.0, h)
    folded = -2.0 * (fp - f0) / h**2
    central = core.susceptibility_lambda(model, ThermoPoint(1.0, 0.0), 2 * h)
    assert central == pytest.approx(folded, rel=1e-12)


def test_susceptibility_lambda_independent_model_is_zero():
    assert core.susceptibility_lambda(TwoLevel(), ThermoPoint(1.0, 0.3), 1e-3) == 0.0


def test_fidelity_lambda_equal_args_exactly_one():
    assert core.fidelity_lambda_approx(TwoLevelField(), 1.0, 0.4, 0.4) == 1.0


def test_fidelity_lambda_at_most_one_for_convex_lnz():
    model = TwoLevelField()
    for lam0, lam1 in ((0.2, 0.6), (0.5, 0.9), (0.1, 1.4)):
        assert core.fidelity_lambda_approx(model, 1.0, lam0, lam1) <= 1.0


def test_chi_lambda_two_level_field():
    chi_lam = core.fidelity_susceptibility_lambda(TwoLevelField(), 1.0, 0.5, 1e-3)
    assert chi_lam == pytest.approx(CHI_LAMBDA_FIELD, rel=1e-5)


def test_chi_lambda_zero_for_lambda_independent_model():
    assert core.fidelity_susceptibility_lambda(TwoLevel(), 1.0, 0.5, 1e-3) == 0.0


def test_chi_lambda_chi_consistency_tim():
    model = Tim1D()
    beta = 0.5  # T = 2J
    point = ThermoPoint(beta, 1.0)
    chi = core.susceptibility_lambda(model, point, 1e-3)
    chi_lam = core.fidelity_susceptibility_lambda(model, beta, 1.0, 1e-3)
    assert abs(4.0 * chi_lam / beta - chi) / chi < 1e-2


@pytest.mark.parametrize("frac", [1e-3, 1e-2])
def test_fidelity_exponential_cv_form(frac):
    # exp(-dbeta^2 Cv / (8 beta^2)) tracks the exact log-space fidelity
    for model, t, lam in ((TwoLevel(), 1.0, 0.0), (Tim1D(), 0.7, 1.0)):
        delta_t = frac * t
        beta0 = 1.0 / t
        beta1 = 1.0 / (t + delta_t)
        exact = core.fidelity_beta(model, beta0, beta1, lam)
        cv = core.specific_heat(model, ThermoPoint(beta0, lam), delta_t)
        dbeta = beta0 - beta1
        approx = math.exp(-dbeta**2 * cv / (8.0 * beta0**2))
        assert abs(approx - exact) / exact < 5.0 * frac


def test_attenuation_reparametrization():
    # exp(-dT^2 Cv / 8T^2) equals the dbeta form to first order in dT/T
    model = Tim1D()
    t, lam = 0.8, 0.9
    delta_t = 1e-3 * t
    beta = 1.0 / t
    cv = core.specific_heat(model, ThermoPoint(beta, lam), delta_t)
    dbeta = delta_t / (t * (t + delta_t))
    form_beta = math.exp(-dbeta**2 * cv / (8.0 * beta**2))
    form_t = math.exp(-delta_t**2 * cv / (8.0 * t**2))
    assert abs(form_t - form_beta) / form_beta < 1e-4


def test_convexity_defect_input_validation():
    model = TwoLevel()
    with pytest.raises(DomainError):
        log_z_convexity_defect(model, [1.0, 2.0], 0.0)
    with pytest.raises(DomainError):
        log_z_convexity_defect(model, [1.0, 1.5, 2.5], 0.0)


def test_convexity_defect_catalog_models():
    betas = np.linspace(0.3, 2.1, 10)
    for model, lam in ((TwoLevel(), 0.0), (TwoLevelField(), 0.7), (Tim1D(), 0.5)):
        assert log_z_convexity_defect(model, betas, lam) >= -1e-8
