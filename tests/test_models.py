"""Catalog models against independent reference quadratures and closed forms."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipe, ellipk

from thermofid import cli, core, models
from thermofid.core import ThermoPoint
from thermofid.errors import DomainError, QuadratureError
from thermofid.exact import DenseModel, spin_chain_hamiltonian
from thermofid.lmg import Lmg
from thermofid.models import (
    Dicke,
    Ising2D,
    Tim1D,
    TwoLevel,
    TwoLevelField,
    dicke_critical_temperature,
    ising2d_critical_temperature,
    ising2d_k,
    log_2cosh,
)

from oracles import log_z_convexity_defect

BJ_STAR = 0.44068679350977147       # root of sinh(2x) = 1, by bisection
ISING_TC = 2.269185314213022        # 2 / ln(1 + sqrt 2)
ISING_LNZ_03 = 0.7905590709512627   # per-site lnZ at bJ = 0.3, 1e6-node Simpson
TIM_LNZ_L1_T05 = 2.6133637502214246  # per-site lnZ at lam=1, T=0.5J, 1e6-node Simpson
DICKE_TC_SQRT2 = 0.9102392266268375  # 1 / (2 atanh(1/2))
DICKE_LNZ_L0 = 22.952256410502468   # -ln(0.7) + 30 ln(2 cosh 0.35)
DICKE_LNZ_N1 = 0.92693344995969     # raw-integrand scipy quad, N=1 lam=0.5 beta=1


def simpson_reference(f, a, b, n=1_000_000):
    x = np.linspace(a, b, n + 1)
    y = f(x)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / n / 3.0 * np.dot(w, y)


def test_log_2cosh_stable():
    assert log_2cosh(500.0) == pytest.approx(500.0)
    assert log_2cosh(0.0) == pytest.approx(math.log(2.0))
    assert log_2cosh(-3.0) == pytest.approx(math.log(2.0 * math.cosh(3.0)), rel=1e-14)


# ---------------------------------------------------------------------------
# square-lattice Ising
# ---------------------------------------------------------------------------

def test_ising_k_unit_at_special_coupling():
    assert ising2d_k(BJ_STAR, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_ising_k_limits_and_range():
    assert ising2d_k(1e-8, 1.0) < 1e-7
    assert ising2d_k(500.0, 1.0) < 1e-300 * 1e300 and ising2d_k(500.0, 1.0) >= 0.0
    for beta in np.linspace(0.05, 5.0, 40):
        k = ising2d_k(beta, 1.0)
        assert 0.0 < k <= 1.0


def test_ising_log_z_matches_reference_quadrature():
    model = Ising2D()
    k = ising2d_k(0.3, 1.0)

    def integrand(phi):
        return np.log(0.5 * (1.0 + np.sqrt(1.0 - (k * np.sin(phi)) ** 2)))

    ref = math.log(2.0 * math.cosh(0.6)) + simpson_reference(integrand, 0.0, math.pi) / (2 * math.pi)
    assert ref == pytest.approx(ISING_LNZ_03, abs=1e-12)
    assert model.log_z(0.3, 0.0) == pytest.approx(ISING_LNZ_03, abs=1e-10)


def test_ising_high_temperature_entropy():
    assert Ising2D().log_z(1e-7, 0.0) == pytest.approx(math.log(2.0), abs=1e-5)


def test_ising_rejects_field():
    with pytest.raises(DomainError):
        Ising2D().log_z(0.5, 0.1)


def test_ising_extensive_exactly():
    lnz1 = Ising2D(n_sites=1).log_z(0.4, 0.0)
    lnz7 = Ising2D(n_sites=7).log_z(0.4, 0.0)
    assert lnz7 == 7.0 * lnz1


def test_ising_critical_temperature():
    assert ising2d_critical_temperature() == pytest.approx(ISING_TC, abs=1e-14)
    assert ising2d_critical_temperature(2.0) == pytest.approx(2.0 * ISING_TC, abs=1e-13)


def test_ising_critical_temperature_rejects_nan_coupling():
    with pytest.raises(DomainError):
        ising2d_critical_temperature(math.nan)


def test_ising_k_rejects_nan_coupling():
    with pytest.raises(DomainError):
        ising2d_k(1.0, math.nan)


def test_ising_convex_in_beta():
    betas = np.linspace(0.2, 0.9, 8)
    assert log_z_convexity_defect(Ising2D(), betas, 0.0) >= -1e-8


def onsager_energy(beta, coupling_j=1.0):
    """Per-site internal energy -J coth 2bJ [1 + (2/pi)(2 tanh^2 2bJ - 1) K(kappa)]."""
    y = 2.0 * beta * coupling_j
    kappa = 2.0 * math.sinh(y) / math.cosh(y) ** 2
    return -coupling_j / math.tanh(y) * (
        1.0 + 2.0 / math.pi * (2.0 * math.tanh(y) ** 2 - 1.0) * ellipk(kappa**2))


@pytest.mark.parametrize("coupling_j", [1.0, 2.0])
def test_ising_energy_matches_onsager(coupling_j):
    # -d lnZ / d beta by a central difference against Onsager's closed form,
    # which uses no quadrature; the O(h^2) stencil error peaks at 5e-9 beside
    # T_c, while a wrong rule weight moves u at O(1)
    h = 1e-5 / coupling_j
    betas = 1.0 / (coupling_j * np.linspace(1.5, 3.5, 21))
    model = Ising2D(coupling_j=coupling_j)
    energy = -(model.log_z(betas + h, 0.0) - model.log_z(betas - h, 0.0)) / (2.0 * h)
    exact = np.array([onsager_energy(b, coupling_j) for b in betas])
    assert np.abs(energy / exact - 1.0).max() < 2e-8


def onsager_specific_heat(beta, coupling_j=1.0):
    """Per-site Cv = -beta^2 dU/dbeta of onsager_energy, in closed form.

    With y = 2bJ, U = -J [coth y + (2/pi)(2 tanh y - coth y) K(m)], where m is
    the square of the modulus kappa = 2 sinh y / cosh^2 y, and
    dK/dm = (E(m) - (1 - m) K(m)) / (2 m (1 - m)).
    """
    y = 2.0 * beta * coupling_j
    tanh, sech, csch = math.tanh(y), 1.0 / math.cosh(y), 1.0 / math.sinh(y)
    kappa = 2.0 * tanh * sech
    m = kappa * kappa
    k1, e1 = ellipk(m), ellipe(m)
    dm_dy = 4.0 * kappa * sech * (sech * sech - tanh * tanh)
    dk_dm = (e1 - (1.0 - m) * k1) / (2.0 * m * (1.0 - m))
    du_dy = -coupling_j * (-csch * csch + 2.0 / math.pi * (
        (2.0 * sech * sech + csch * csch) * k1 + (2.0 * tanh - 1.0 / tanh) * dk_dm * dm_dy))
    return -2.0 * coupling_j * beta**2 * du_dy


def second_difference(f, x, eta=1e-3):
    """f'' at x by a central second difference of f with step eta."""
    return (f(x - eta) + f(x + eta) - 2.0 * f(x)) / eta**2


def cv_leading_term(cv, t):
    """The Cv stencil's error over delta_t^2 at leading order, from the exact Cv(beta).

    The central difference of F = -T lnZ with h = delta_t/2 is
    F'' + h^2 F''''/12 + O(h^4), and Cv = -T F'', so the stencil's Cv errs by
    (T delta_t^2 / 48) (Cv/T)''. (Cv/T)'' is a second difference in T.
    """
    return t / 48.0 * second_difference(lambda s: cv(1.0 / s) / s, t)


def assert_error_is_leading_term(deltas, errors, leading):
    # errors = leading * delta^2 at leading order, as criterion 4b checks its
    # own: log-log slope 2 +- 0.1, coefficient within 1%
    slope = float(np.polyfit(np.log(deltas), np.log(np.abs(errors)), 1)[0])
    assert abs(slope - 2.0) <= 0.1
    assert np.abs(errors / deltas**2 / leading - 1.0).max() <= 0.01


@pytest.mark.parametrize("t", [1.0, 1.5, 2.0, 2.16, 2.38, 2.6, 3.0, 4.0])
def test_ising_specific_heat_stencil_error_is_onsagers_leading_term(t):
    # T at least 0.1 from T_c = 2.269
    deltas = np.array([0.02, 0.01, 0.005])
    errors = np.array([core.specific_heat(Ising2D(), ThermoPoint(1.0 / t, 0.0), d)
                       for d in deltas]) - onsager_specific_heat(1.0 / t)
    assert_error_is_leading_term(deltas, errors, cv_leading_term(onsager_specific_heat, t))


# ---------------------------------------------------------------------------
# transverse-field Ising chain
# ---------------------------------------------------------------------------

def test_tim_zero_field_closed_form():
    model = Tim1D()
    for beta in (0.3, 1.0, 2.5):
        expected = math.log(2.0) + math.log(math.cosh(beta))
        assert model.log_z(beta, 0.0) == pytest.approx(expected, abs=1e-11)


def test_tim_strong_field_asymptote():
    # ln2 + ln cosh(beta J lam) up to O(1/lam) dispersion corrections
    model = Tim1D()
    beta, lam = 0.8, 60.0
    expected = float(log_2cosh(beta * lam))
    assert model.log_z(beta, lam) == pytest.approx(expected, abs=0.05)


def test_tim_log_z_matches_reference_quadrature():
    assert Tim1D().log_z(2.0, 1.0) == pytest.approx(TIM_LNZ_L1_T05, abs=1e-10)


def test_tim_specific_heat_matches_reference_pipeline():
    # same finite-difference stencil fed by an independent 1e6-node quadrature
    t, lam, delta_t = 0.5, 1.0, 5e-4

    def lnz_ref(beta):
        def integrand(k):
            eps = np.sqrt(1.0 + lam * lam - 2.0 * lam * np.cos(k))
            return np.log(np.cosh(beta * eps))

        return math.log(2.0) + simpson_reference(integrand, 0.0, math.pi) / math.pi

    h = 0.5 * delta_t
    f = lambda tv: -tv * lnz_ref(1.0 / tv)
    cv_ref = -t * (f(t + h) + f(t - h) - 2.0 * f(t)) / h**2
    cv = core.specific_heat(Tim1D(), ThermoPoint(1.0 / t, lam), delta_t)
    assert cv == pytest.approx(cv_ref, abs=1e-6)


def tim_mode_integral(integrand, beta, lam):
    """(1/pi) times the integral over [0, pi] of integrand(b, l, eps, k) dk, in mpmath.

    eps = sqrt(1 + l^2 - 2 l cos k) is the mode energy at J = 1.
    """
    with mpmath.workdps(20):
        b, l = mpmath.mpf(beta), mpmath.mpf(lam)
        return float(mpmath.quad(
            lambda k: integrand(b, l, mpmath.sqrt(1 + l * l - 2 * l * mpmath.cos(k)), k),
            [0, mpmath.pi]) / mpmath.pi)


def tim_cv(beta, lam):
    """Per-site Cv = beta^2 d2 lnZ/dbeta2 = (beta^2/pi) integral eps^2 sech^2(beta eps) dk."""
    return tim_mode_integral(lambda b, l, e, k: (b * e * mpmath.sech(b * e))**2, beta, lam)


def tim_chi(beta, lam):
    """Per-site chi = (1/beta) d2 lnZ/dlam2, differentiated under the integral.

    With eps_lam = (lam - cos k)/eps and eps_lamlam = sin^2 k / eps^3, it is
    (1/pi) integral [beta eps_lam^2 sech^2(beta eps) + tanh(beta eps) sin^2 k / eps^3] dk.
    """
    return tim_mode_integral(
        lambda b, l, e, k: (b * ((l - mpmath.cos(k)) / e * mpmath.sech(b * e))**2
                            + mpmath.tanh(b * e) * mpmath.sin(k)**2 / e**3), beta, lam)


@pytest.mark.parametrize("lam", [0.5, 1.5])
@pytest.mark.parametrize("t", [0.3, 0.7, 1.5])
def test_tim_cv_and_chi_stencil_errors_are_mode_integral_leading_terms(lam, t):
    # Cv and chi as mode integrals, with no stencil (Pfeuty 1970). The chi
    # stencil, h = delta_lambda/2 on F, errs by (delta_lambda^2/48) chi''.
    # delta stays >= 0.01: at 0.005 the chi error at lam = T = 1.5 reaches
    # the second difference's rounding floor
    deltas = np.array([0.04, 0.02, 0.01])
    point = ThermoPoint(1.0 / t, lam)
    errors = (np.array([core.specific_heat(Tim1D(), point, d) for d in deltas])
              - tim_cv(1.0 / t, lam))
    assert_error_is_leading_term(deltas, errors, cv_leading_term(lambda b: tim_cv(b, lam), t))
    errors = (np.array([core.susceptibility_lambda(Tim1D(), point, d) for d in deltas])
              - tim_chi(1.0 / t, lam))
    leading = second_difference(lambda x: tim_chi(1.0 / t, x), lam) / 48.0
    assert_error_is_leading_term(deltas, errors, leading)


def test_tim_even_in_field():
    # a pi rotation about z flips the field sign, so lnZ(-lam) == lnZ(lam);
    # the susceptibility stencil relies on this at lam = 0
    model = Tim1D()
    assert model.log_z(1.0, -0.2) == model.log_z(1.0, 0.2)
    chi0 = core.susceptibility_lambda(model, ThermoPoint(1.0, 0.0), 1e-3)
    assert math.isfinite(chi0) and chi0 > 0.0


def test_tim_extensive_exactly():
    lnz1 = Tim1D(n_sites=1).log_z(0.8, 0.7)
    lnz5 = Tim1D(n_sites=5).log_z(0.8, 0.7)
    assert lnz5 == 5.0 * lnz1


def test_tim_per_site_cv_size_independent():
    t_axis = np.linspace(0.3, 1.5, 7)
    cols = []
    for n in (1, 64):
        model = Tim1D(n_sites=n)
        cols.append([
            core.specific_heat(model, ThermoPoint(1.0 / t, 0.9), 1e-3) / n
            for t in t_axis
        ])
    assert np.allclose(cols[0], cols[1], rtol=1e-9, atol=1e-12)


def test_tim_convex_in_beta():
    betas = np.linspace(0.3, 2.1, 10)
    assert log_z_convexity_defect(Tim1D(), betas, 1.0) >= -1e-8


# ---------------------------------------------------------------------------
# Dicke model
# ---------------------------------------------------------------------------

def test_dicke_zero_coupling_closed_form():
    # integral separates: Z = (1/beta) [2 cosh(beta w0 / 2w)]^N
    assert Dicke(n_atoms=30).log_z(0.7, 0.0) == pytest.approx(DICKE_LNZ_L0, abs=1e-9)


def test_dicke_single_atom_matches_raw_quadrature():
    def raw(r):
        x = 0.5 * math.sqrt(1.0 + 4.0 * 0.25 * r * r)
        return 2.0 * r * math.exp(-r * r) * 2.0 * math.cosh(x)

    ref, _ = quad(raw, 0.0, 12.0, epsabs=1e-13, epsrel=1e-13, limit=400)
    assert math.log(ref) == pytest.approx(DICKE_LNZ_N1, abs=1e-10)
    assert Dicke(n_atoms=1).log_z(1.0, 0.5) == pytest.approx(DICKE_LNZ_N1, abs=1e-8)


def test_dicke_critical_temperature_values():
    assert dicke_critical_temperature(math.sqrt(2.0)) == pytest.approx(DICKE_TC_SQRT2, abs=1e-12)
    assert dicke_critical_temperature(1.5) == pytest.approx(1.0465599393958973, abs=1e-12)


def test_dicke_critical_temperature_domain():
    for lam in (1.0, 0.5, 0.0):
        with pytest.raises(DomainError):
            dicke_critical_temperature(lam)


@pytest.mark.parametrize("args", [(1.5, math.nan, 1.0), (1.5, 1.0, math.nan),
                                  (1.5, math.inf, 1.0), (math.nan, 1.0, 1.0)])
def test_dicke_critical_temperature_rejects_nan(args):
    # the model constructor's rule: frequencies positive and finite
    with pytest.raises(DomainError):
        dicke_critical_temperature(*args)


def test_dicke_critical_temperature_monotone_in_coupling():
    lams = np.linspace(1.05, 4.0, 12)
    tcs = [dicke_critical_temperature(l) for l in lams]
    assert all(b > a for a, b in zip(tcs, tcs[1:]))


def test_dicke_near_extensive():
    # the radial integral carries O(ln N / N) per-atom corrections
    diffs = []
    for n in (25, 50, 100):
        a = Dicke(n_atoms=n).log_z(0.9, 1.2) / n
        b = Dicke(n_atoms=2 * n).log_z(0.9, 1.2) / (2 * n)
        diffs.append(abs(a - b))
        assert diffs[-1] < math.log(2 * n) / n
    assert diffs[2] < diffs[1] < diffs[0]


# (N, lam, T): normal and superradiant phases, near T_c(1.5) = 1.0466, and
# N = 800, lam = 3 at T = 0.03 and 0.05, whose narrow peak lies far from u = 0
DICKE_POINTS = [(100, 1.5, 1.0), (200, 1.5, 1.05), (50, 0.5, 0.3), (200, 0.0, 2.0),
                (800, 3.0, 0.03), (800, 3.0, 0.05), (800, 2.0, 3.0)]


def test_dicke_log_integrand_concave_beyond_peak():
    for n, lam, t in DICKE_POINTS:
        model, beta = Dicke(n_atoms=n), 1.0 / t
        h, u_lo, u_peak, u_hi = model._log_integrand_range(beta, lam)
        z = lambda u: beta / 2.0 * np.sqrt(1.0 + 4.0 * lam * lam * u / n)
        slope = lambda u: -beta + (beta * lam) ** 2 * np.tanh(z(u)) / (2.0 * z(u))
        if u_peak > 0.0:
            assert abs(slope(u_peak)) <= 1e-9 * beta
        else:
            assert slope(0.0) <= 0.0
        vals = h(np.linspace(u_lo, u_hi, 400))
        second = vals[2:] + vals[:-2] - 2.0 * vals[1:-1]
        assert second.max() <= 1e-13 * np.abs(vals).max()
        h_peak = h(u_peak)
        assert h(u_hi) <= h_peak - core.LOG_DROP
        if u_lo > 0.0:
            assert h(u_lo) <= h_peak - core.LOG_DROP


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(omega=st.floats(1e-3, 1e3), omega0=st.floats(1e-3, 1e3), lam=st.floats(0.0, 1e3),
       below=st.booleans(), distance=st.floats(-5.9, 1.0))
def test_dicke_peak_leaves_zero_exactly_below_critical_temperature(omega, omega0, lam, below,
                                                                   distance):
    # ln(T / T_c) = -+10^distance, at least 1.26e-6 from the superradiant line;
    # as omega lam^2 -> omega0, T_c -> 0 and an ulp of the inputs moves it by
    # any factor, so the coupling stays 1e-6 relative above that edge too
    assume(omega * lam * lam > omega0 * (1.0 + 1e-6))
    t = dicke_critical_temperature(lam, omega, omega0) * math.exp(
        (-1.0 if below else 1.0) * 10.0**distance)
    _, _, u_peak, _ = Dicke(omega=omega, omega0=omega0)._log_integrand_range(1.0 / t, lam)
    assert (u_peak > 0.0) == below


def _mp_dicke_integrand(n, beta, lam):
    """z, h, h's peak and mpmath.quad's breaks over u = r^2, for mpf beta and lam."""
    z = lambda u: beta / 2 * mpmath.sqrt(1 + 4 * lam**2 * u / n)
    h = lambda u: -beta * u + n * mpmath.log(2 * mpmath.cosh(z(u)))
    slope = lambda u: -beta + (beta * lam) ** 2 * mpmath.tanh(z(u)) / (2 * z(u))
    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    while slope(hi) > 0:
        hi *= 2
    for _ in range(200 if slope(0) > 0 else 0):
        lo, hi = ((lo + hi) / 2, hi) if slope((lo + hi) / 2) > 0 else (lo, (lo + hi) / 2)
    width = 1 / max(abs(slope(lo)), mpmath.sqrt(abs(mpmath.diff(h, lo, 2))))
    points = sorted({lo + k * width for k in (-32, -8, -2, 0, 2, 8, 32, 64)
                     if lo + k * width > 0} | {mpmath.mpf(0)})
    return z, h, lo, points + [mpmath.inf]


def _mp_dicke_log_z(n, beta, lam):
    """lnZ by mpmath.quad at 30 digits over u = r^2, broken at its own peak and widths."""
    with mpmath.workdps(30):
        _, h, peak, points = _mp_dicke_integrand(n, mpmath.mpf(beta), mpmath.mpf(lam))
        h_peak = h(peak)
        return h_peak + mpmath.log(mpmath.quad(lambda u: mpmath.exp(h(u) - h_peak), points))


@pytest.mark.parametrize("n, lam, t", DICKE_POINTS)
def test_dicke_matches_mpmath(n, lam, t):
    value = Dicke(n_atoms=n).log_z(1.0 / t, lam)
    assert abs(float(value - _mp_dicke_log_z(n, 1.0 / t, lam))) <= 1e-11 * abs(value)


def _mp_dicke_cv(n, beta, lam):
    """Cv = beta^2 d2 lnZ/dbeta2 from the u-integral's moments at 30 digits, with no stencil.

    Under the normalised weight e^h, d2 lnZ/dbeta2 = Var h_b + <h_bb>: z is
    proportional to beta, so h_b = -u + N tanh(z) z/beta and
    h_bb = N sech^2(z) (z/beta)^2. The second term is there because h is not
    linear in beta.
    """
    with mpmath.workdps(30):
        beta = mpmath.mpf(beta)
        z, h, peak, points = _mp_dicke_integrand(n, beta, mpmath.mpf(lam))
        h_peak = h(peak)
        h_b = lambda u: -u + n * mpmath.tanh(z(u)) * z(u) / beta
        h_bb = lambda u: n * (mpmath.sech(z(u)) * z(u) / beta) ** 2
        m0, m1, m2 = (mpmath.quad(lambda u: g(u) * mpmath.exp(h(u) - h_peak), points)
                      for g in (lambda u: 1, h_b, lambda u: h_b(u) ** 2 + h_bb(u)))
        return float(beta**2 * (m2 / m0 - (m1 / m0) ** 2))


@pytest.mark.parametrize("n, lam, t", [(50, 1.5, 1.2), (50, 0.5, 0.7), (200, 1.5, 0.9)])
def test_dicke_specific_heat_stencil_error_is_moment_leading_term(n, lam, t):
    # normal phase at lam = 0.5 and 1.5 (T_c = 1.047), superradiant at T = 0.9
    cv = functools.cache(lambda beta: _mp_dicke_cv(n, beta, lam))
    deltas = np.array([0.04, 0.02, 0.01])
    errors = np.array([core.specific_heat(Dicke(n_atoms=n), ThermoPoint(1.0 / t, lam), d)
                       for d in deltas]) - cv(1.0 / t)
    assert_error_is_leading_term(deltas, errors, cv_leading_term(cv, t))


def test_dicke_convex_in_beta():
    betas = np.linspace(0.4, 1.6, 7)
    assert log_z_convexity_defect(Dicke(n_atoms=40), betas, 1.2) >= -1e-8


def test_tim_parameter_validation():
    # J <= 0 has no panel count, and J = 0 a beta-independent lnZ; the same
    # positive and finite J is what Ising2D needs
    for cls in (Tim1D, Ising2D):
        for value in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(DomainError) as info:
                cls(coupling_j=value)
            assert info.value.key == "coupling_j"
        for lam in (math.nan, math.inf):
            with pytest.raises(DomainError, match="lam must be finite") as info:
                cls().log_z(1.0, lam)
            assert info.value.key == "lam"


def test_dicke_parameter_validation():
    with pytest.raises(DomainError):
        Dicke(omega=-1.0)
    with pytest.raises(DomainError):
        Dicke(n_atoms=0)
    for key in ("omega", "omega0"):
        for value in (math.nan, math.inf):
            with pytest.raises(DomainError) as info:
                Dicke(**{key: value})
            assert info.value.key == key
    for lam in (math.nan, math.inf):
        with pytest.raises(DomainError, match="lam must be finite") as info:
            Dicke().log_z(1.0, lam)
        assert info.value.key == "lam"


@pytest.mark.parametrize("lam", [1e6, 1e20, 1e100, 1e160])
def test_dicke_huge_coupling_is_a_typed_failure(lam):
    # e^(h - h_peak) is rounding noise at 1e6 (h_peak ~ 2.5e13), the range rounds
    # to one u at 1e20, and the peak's u overflows at 1e100 and b lam^2 at 1e160
    with pytest.raises(QuadratureError):
        Dicke().log_z(1.0, lam)
    assert np.isnan(Dicke().log_z(np.array([0.5, 1.0]), lam)).all()


# ---------------------------------------------------------------------------
# two-level toys
# ---------------------------------------------------------------------------

def test_two_level_ignores_lam():
    m = TwoLevel(gap=1.3)
    assert m.log_z(0.9, 0.0) == m.log_z(0.9, 5.0)
    assert m.log_z(0.9, 0.0) == pytest.approx(math.log(2 * math.cosh(1.17)), rel=1e-14)
    for lam in (math.nan, math.inf):
        with pytest.raises(DomainError, match="lam must be finite") as info:
            m.log_z(0.9, lam)
        assert info.value.key == "lam"


def test_two_level_field_uses_lam_as_gap():
    m = TwoLevelField()
    assert m.log_z(2.0, 0.7) == pytest.approx(math.log(2 * math.cosh(1.4)), rel=1e-14)
    assert m.log_z(2.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-14)
    with pytest.raises(DomainError, match="lam must be finite") as info:
        m.log_z(2.0, math.nan)
    assert info.value.key == "lam"


def spectral_cv(h, beta):
    """beta^2 Var H in the Gibbs state of h, from its eigvalsh spectrum."""
    w = np.linalg.eigvalsh(h)
    p = np.exp(-beta * (w - w[0]))
    p /= p.sum()
    return beta**2 * float(p @ (w - p @ w)**2)


@pytest.mark.parametrize("t", [0.3, 0.5, 0.8336, 1.5, 3.0])
def test_two_level_cv_stencil_error_is_spectral_leading_term(t):
    # Cv = (beta gap)^2 sech^2(beta gap) at gap 1, whose peak is at T = 0.8336
    def cv(beta):
        return (beta / math.cosh(beta))**2

    deltas = np.array([0.04, 0.02, 0.01])
    errors = np.array([core.specific_heat(TwoLevel(), ThermoPoint(1.0 / t, 0.0), d)
                       for d in deltas]) - cv(1.0 / t)
    assert_error_is_leading_term(deltas, errors, cv_leading_term(cv, t))


@pytest.mark.parametrize("t", [0.3, 0.5, 1.0, 2.0, 4.0])
def test_dense_model_cv_stencil_error_is_spectral_leading_term(t):
    # the 3-site chain at lam = 1, against beta^2 Var H over its 8 levels
    h = spin_chain_hamiltonian(3, 1.0, 1.0)
    model = DenseModel(lambda lam: spin_chain_hamiltonian(3, 1.0, lam), "chain3")
    deltas = np.array([0.04, 0.02, 0.01])
    errors = np.array([core.specific_heat(model, ThermoPoint(1.0 / t, 1.0), d)
                       for d in deltas]) - spectral_cv(h, 1.0 / t)
    assert_error_is_leading_term(deltas, errors, cv_leading_term(lambda b: spectral_cv(h, b), t))


def test_model_metadata():
    assert Ising2D(n_sites=3).size_hint == 3
    assert Tim1D().name == "tim1d"
    assert Dicke(n_atoms=7).size_hint == 7
    assert TwoLevel().size_hint is None
    assert TwoLevelField().name == "two_level_field"


CONTRACT_MODELS = [*cli.MODEL_CLASSES.values(), DenseModel]


def contract_instance(cls):
    if cls is DenseModel:
        return DenseModel(lambda lam: spin_chain_hamiltonian(2, 1.0, lam), "chain2")
    return cls()


@pytest.mark.parametrize("cls", CONTRACT_MODELS, ids=lambda cls: cls.__name__)
def test_models_write_only_their_numerics(cls):
    # the checks and the non-finite rule live in ThermoModel.log_z alone
    assert issubclass(cls, core.ThermoModel)
    assert "log_z" not in vars(cls)


@pytest.mark.parametrize("cls", CONTRACT_MODELS, ids=lambda cls: cls.__name__)
def test_log_z_rejects_bad_arguments_by_key(cls):
    model = contract_instance(cls)
    cases = [(beta, 0.0, "beta") for bad in (0.0, -1.0, math.nan, math.inf)
             for beta in (bad, np.array([1.0, bad]))]
    bad_lams = [math.nan, math.inf, -math.inf] + ([0.1] if model.name == "ising2d" else [])
    cases += [(beta, lam, "lam") for lam in bad_lams for beta in (1.0, np.array([1.0, 2.0]))]
    for beta, lam, key in cases:
        with pytest.raises(DomainError) as info:
            model.log_z(beta, lam)
        assert info.value.key == key, (beta, lam)


# ---------------------------------------------------------------------------
# the log_z array contract and the quadrature oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model, lam", [
    (Ising2D(n_sites=3), 0.0),
    (Tim1D(n_sites=2), 0.9),
    (Dicke(n_atoms=20), 1.2),
    (Lmg(n_spins=16), 0.5),
    (TwoLevel(), 0.0),
    (TwoLevelField(), 0.7),
    (DenseModel(lambda lam: spin_chain_hamiltonian(3, 1.0, lam), "chain3"), 0.6),
], ids=lambda v: getattr(v, "name", None))
def test_log_z_array_matches_float_calls_bitwise(model, lam):
    # T from 0.05 to 4 takes Tim1D through 64, 128 and 256 trapezoid panels
    betas = 1.0 / np.linspace(0.05, 4.0, 41)
    values = model.log_z(betas, lam)
    assert isinstance(values, np.ndarray) and values.shape == betas.shape
    assert values.tolist() == [model.log_z(float(b), lam) for b in betas]


def test_tim_log_z_array_in_several_blocks_matches_float_calls_bitwise():
    # 64-panel betas fill TIM_BLOCK // 64 rows per block: this array takes three
    betas = 1.0 / np.linspace(2.0, 4.0, 2 * models.TIM_BLOCK // 64 + 7)
    values = Tim1D(n_sites=2).log_z(betas, 0.7)
    assert values.tolist() == [Tim1D(n_sites=2).log_z(float(b), 0.7) for b in betas]


def test_ising_log_z_array_in_several_blocks_matches_float_calls_bitwise():
    # the integrand takes TIM_BLOCK // 91 betas per block: this array takes three
    betas = 1.0 / np.linspace(1.5, 3.5, 2 * models.TIM_BLOCK // 91 + 7)
    values = Ising2D(n_sites=2).log_z(betas, 0.0)
    assert values.tolist() == [Ising2D(n_sites=2).log_z(float(b), 0.0) for b in betas]


def test_log_z_array_is_nan_only_where_a_beta_fails():
    # Tim1D at beta J = 2e5 needs more than its panel budget
    model, bad_beta = Tim1D(), 2e5
    values = model.log_z(np.array([1.0, bad_beta, 2.0]), 1.0)
    assert np.isnan(values).tolist() == [False, True, False]
    assert values[[0, 2]].tolist() == [model.log_z(1.0, 1.0), model.log_z(2.0, 1.0)]
    with pytest.raises(QuadratureError):
        model.log_z(bad_beta, 1.0)


ORACLE_POINTS = (
    [("ising", 0.0, t) for t in (1.5, 2.0, 2.2, ISING_TC, 2.28, 2.6, 3.5)]
    + [("tim", lam, t) for lam in (0.0, 0.5, 0.9, 1.0, 1.5) for t in (0.05, 0.1, 0.5, 1.5)]
)


def _mp_per_site_log_z(kind, beta, lam):
    """Per-site lnZ by mpmath.quad at 30 digits, from the same float beta as the model."""
    with mpmath.workdps(30):
        beta, lam = mpmath.mpf(beta), mpmath.mpf(lam)
        if kind == "ising":
            y = 2 * beta
            k = 2 * mpmath.sinh(y) / mpmath.cosh(y) ** 2
            integral = mpmath.quad(
                lambda phi: mpmath.log((1 + mpmath.sqrt(1 - (k * mpmath.sin(phi)) ** 2)) / 2),
                [0, mpmath.pi / 2, mpmath.pi])
            return mpmath.log(2 * mpmath.cosh(y)) + integral / (2 * mpmath.pi)
        eps = lambda q: mpmath.sqrt(1 + lam**2 - 2 * lam * mpmath.cos(q))
        integral = mpmath.quad(lambda q: mpmath.log(mpmath.cosh(beta * eps(q))),
                               [0, mpmath.pi / 2, mpmath.pi])
        return mpmath.log(2) + integral / mpmath.pi


def assert_log_z_matches_mpmath(kind, lam, t):
    beta = 1.0 / t
    value = (Ising2D() if kind == "ising" else Tim1D()).log_z(beta, lam)
    reference = _mp_per_site_log_z(kind, beta, lam)
    assert abs(float(value - reference)) <= 1e-14 * max(1.0, abs(value))


@pytest.mark.parametrize("kind, lam, t", ORACLE_POINTS)
def test_fixed_rules_match_mpmath(kind, lam, t):
    assert_log_z_matches_mpmath(kind, lam, t)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(t=st.floats(1.0, 5.0))
def test_ising_log_z_matches_mpmath_on_drawn_temperatures(t):
    assert_log_z_matches_mpmath("ising", 0.0, t)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(lam=st.floats(0.0, 1.5), t=st.floats(0.05, 2.0))
def test_tim_log_z_matches_mpmath_on_drawn_points(lam, t):
    assert_log_z_matches_mpmath("tim", lam, t)
