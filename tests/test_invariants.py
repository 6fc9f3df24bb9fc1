"""Randomized invariants of the kernel over the model catalog (Hypothesis).

Every example draws a catalog model at a small size plus a temperature and a
field inside a box where the model is smooth, and checks identities that hold
for any lnZ convex in beta:
  - F_beta <= 1, and F_beta(b0, b1) == F_beta(b1, b0) bitwise;
  - 4 beta^2 chi_beta ~ Cv and 4 chi_lambda / beta ~ chi, to the 1e-2 that
    `thermofid validate` uses, at dT/T = dlam = 1e-3: each pair is two second
    differences of the same lnZ;
  - oracles.log_z_convexity_defect certifies convexity in beta.
The square-lattice Ising boxes leave out T_c = 2.269, where the O(dT) offset
between the Cv and chi_beta stencils is not small against the log divergence.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofid import core
from thermofid.lmg import Lmg
from thermofid.models import Dicke, Ising2D, Tim1D, TwoLevel, TwoLevelField

from oracles import log_z_convexity_defect

# (model, T range, lam range)
CASES = (
    (TwoLevel(), (0.3, 3.0), (0.0, 0.0)),
    (TwoLevelField(), (0.5, 3.0), (0.3, 1.0)),
    (Tim1D(n_sites=4), (0.2, 2.0), (0.0, 1.5)),
    (Ising2D(n_sites=4), (1.0, 1.9), (0.0, 0.0)),
    (Ising2D(n_sites=4), (2.7, 5.0), (0.0, 0.0)),
    (Dicke(n_atoms=8), (0.5, 2.0), (0.0, 2.0)),
    (Lmg(n_spins=8), (0.2, 2.0), (0.0, 1.5)),
)
FIELD_CASES = tuple(c for c in CASES if c[2][1] > c[2][0])
TOL = 1e-2

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)
UNIT = st.floats(0.0, 1.0)


def _at(bounds, u):
    lo, hi = bounds
    return lo + u * (hi - lo)


@SETTINGS
@given(st.sampled_from(CASES), UNIT, UNIT, UNIT)
def test_fidelity_beta_at_most_one_and_symmetric(case, u0, u1, v):
    model, t_range, lam_range = case
    b0, b1 = 1.0 / _at(t_range, u0), 1.0 / _at(t_range, u1)
    lam = _at(lam_range, v)
    forward = core.fidelity_beta(model, b0, b1, lam)
    assert forward == core.fidelity_beta(model, b1, b0, lam)
    # rounding in lnZ may lift an exact 1 by a few ulps when b0 ~ b1
    assert forward <= 1.0 + 1e-12


@SETTINGS
@given(st.sampled_from(CASES), UNIT, UNIT)
def test_chi_beta_matches_specific_heat(case, u, v):
    model, t_range, lam_range = case
    t = _at(t_range, u)
    point = core.ThermoPoint(1.0 / t, _at(lam_range, v))
    cv = core.specific_heat(model, point, 1e-3 * t)
    chi_beta = core.fidelity_susceptibility_beta(model, point, 1e-3 * t)
    assert abs(4.0 * point.beta**2 * chi_beta - cv) / cv < TOL


@SETTINGS
@given(st.sampled_from(FIELD_CASES), UNIT, UNIT)
def test_chi_lambda_matches_susceptibility(case, u, v):
    model, t_range, lam_range = case
    point = core.ThermoPoint(1.0 / _at(t_range, u), _at(lam_range, v))
    chi = core.susceptibility_lambda(model, point, 1e-3)
    chi_lambda = core.fidelity_susceptibility_lambda(model, point.beta, point.lam, 1e-3)
    assert abs(4.0 * chi_lambda / point.beta - chi) / chi < TOL


@SETTINGS
@given(st.sampled_from(CASES), UNIT, UNIT, UNIT)
def test_log_z_convexity_certified(case, u0, u1, v):
    model, t_range, lam_range = case
    t_lo, t_hi = sorted((_at(t_range, u0), _at(t_range, u1)))
    if t_hi - t_lo < 1e-3 * t_hi:
        t_lo, t_hi = t_range
    betas = np.linspace(1.0 / t_hi, 1.0 / t_lo, 6)
    assert log_z_convexity_defect(model, betas, _at(lam_range, v)) >= -1e-8
