"""Dense-matrix ground truth: Gibbs states, mixed-state fidelity, product-formula bound.

Everything here works on explicit Hamiltonian matrices (dimension capped at
256 to keep validation runs fast) and serves as the independent reference
against which the log-partition-function kernel is checked. VALIDATION_CHECKS,
at the end, is the `thermofid validate` suite; it calls the kernel as
core.<function>. A scan never imports this module.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core, models
from .errors import DomainError, EigensolverError, NegativeEigenvalue

MAX_DIM = 256
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
NEGATIVE_EIG_TOL = 1e-10

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _check_hamiltonian(h, label="hamiltonian"):
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DomainError(f"{label} must be a square matrix, got shape {h.shape}")
    if h.shape[0] > MAX_DIM:
        raise DomainError(f"{label} dimension {h.shape[0]} exceeds cap {MAX_DIM}")
    if not np.all(np.isfinite(h.real)) or not np.all(np.isfinite(h.imag)):
        raise DomainError(f"{label} has non-finite entries")
    if np.abs(h - h.conj().T).max() > HERMITICITY_TOL:
        raise DomainError(f"{label} is not Hermitian within {HERMITICITY_TOL}")
    return h


def _check_density_matrix(rho, label="rho"):
    rho = _check_hamiltonian(rho, label)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise DomainError(f"{label} trace {tr} deviates from 1 beyond {TRACE_TOL}")
    return rho


def _eigh(mat, label):
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"{label}: eigensolver failed: {exc}") from exc


def gibbs_state(h, beta):
    """Thermal state exp(-beta H)/Z via eigendecomposition, max-subtracted.

    The returned matrix is renormalized so its trace is exactly 1 up to
    rounding in the final division.
    """
    h = _check_hamiltonian(h)
    core.check_positive("beta", beta)
    w, v = _eigh(h, "gibbs_state")
    weights = np.exp(-beta * (w - w.min()))
    rho = (v * weights) @ v.conj().T
    return rho / np.trace(rho).real


def _psd_sqrt(mat, label):
    w, v = _eigh(mat, label)
    if w.min() < -NEGATIVE_EIG_TOL:
        raise NegativeEigenvalue(f"{label}: eigenvalue {w.min():.3e} below -{NEGATIVE_EIG_TOL}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def uhlmann_fidelity(rho0, rho1):
    """Mixed-state fidelity Tr sqrt(sqrt(rho0) rho1 sqrt(rho0)) in [0, 1].

    Square roots come from eigendecompositions with eigenvalues clamped at
    zero; clamping beyond 1e-10 raises NegativeEigenvalue instead of silently
    repairing a genuinely indefinite input.
    """
    rho0 = _check_density_matrix(rho0, "rho0")
    rho1 = _check_density_matrix(rho1, "rho1")
    if rho0.shape != rho1.shape:
        raise DomainError(f"dimension mismatch: {rho0.shape} vs {rho1.shape}")
    root = _psd_sqrt(rho0, "sqrt(rho0)")
    inner = root @ rho1 @ root
    w, _ = _eigh(inner, "uhlmann_fidelity")
    if w.min() < -NEGATIVE_EIG_TOL:
        raise NegativeEigenvalue(f"inner matrix eigenvalue {w.min():.3e}")
    value = float(np.sqrt(np.clip(w, 0.0, None)).sum())
    return min(value, 1.0)


def fidelity_lambda_exact(h0, h1, beta):
    """Exact field fidelity between Gibbs states of two (generally non-commuting) Hamiltonians."""
    return uhlmann_fidelity(gibbs_state(h0, beta), gibbs_state(h1, beta))


def spectral_norm(h):
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(h), 2))


def _commutator(a, b):
    return a @ b - b @ a


def trotter_bound(h0, h1, beta):
    """Product-formula validity bound beta^3 D2 exp(beta(|H0| + |H1|)).

    D2 = (|[[H0,H1],H1]| + |[[H0,H1],H0]|/2) / 12 with spectral norms; zero
    exactly when the Hamiltonians commute.
    """
    h0 = _check_hamiltonian(h0, "h0")
    h1 = _check_hamiltonian(h1, "h1")
    core.check_positive("beta", beta)
    c = _commutator(h0, h1)
    d2 = (spectral_norm(_commutator(c, h1)) + 0.5 * spectral_norm(_commutator(c, h0))) / 12.0
    return beta**3 * d2 * math.exp(beta * (spectral_norm(h0) + spectral_norm(h1)))


def kubo_mori_metric(h, v, beta):
    """d2 lnZ/dlam2 of the Gibbs family of H + lam V at lam = 0: the Kubo-Mori metric.

    In the eigenbasis of H it is beta^2 (sum_ij |V_ij|^2 K_ij - <V>^2) with
    K_ij = (p_i - p_j) / (beta (E_j - E_i)), and K_ij = p_i where E_i = E_j.
    """
    h = _check_hamiltonian(h, "h")
    v = _check_hamiltonian(v, "v")
    core.check_positive("beta", beta)
    w, vecs = _eigh(h, "kubo_mori_metric")
    p = np.exp(-beta * (w - w.min()))
    p /= p.sum()
    v_eig = vecs.conj().T @ v @ vecs
    gap = w[None, :] - w[:, None]
    degenerate = np.abs(gap) <= 1e-10 * max(1.0, np.abs(w).max())
    k = np.where(degenerate, p[:, None],
                 (p[:, None] - p[None, :]) / (beta * np.where(degenerate, 1.0, gap)))
    mean_v = float(p @ np.diag(v_eig).real)
    return beta**2 * (float(np.sum(np.abs(v_eig)**2 * k)) - mean_v**2)


def ground_state(h):
    """Lowest-eigenvalue eigenvector (column)."""
    h = _check_hamiltonian(h)
    _, v = _eigh(h, "ground_state")
    return v[:, 0]


# ---------------------------------------------------------------------------
# small dense Hamiltonian builders and their ThermoModel wrapper
# ---------------------------------------------------------------------------

def _kron_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _site_operator(op, site, n_sites):
    eye = np.eye(2)
    return _kron_chain([op if k == site else eye for k in range(n_sites)])


def spin_chain_hamiltonian(n_sites, coupling_j, lam):
    """Open chain -J sum sz sz - lam sum sx as a dense real matrix (dim 2^n)."""
    if n_sites < 1:
        raise DomainError(f"n_sites must be >= 1, got {n_sites}")
    dim = 2**n_sites
    if dim > MAX_DIM:
        raise DomainError(f"2^{n_sites} exceeds the dense dimension cap {MAX_DIM}")
    h = np.zeros((dim, dim))
    for i in range(n_sites - 1):
        h -= coupling_j * (_site_operator(sigma_z, i, n_sites)
                           @ _site_operator(sigma_z, i + 1, n_sites))
    for i in range(n_sites):
        h -= lam * _site_operator(sigma_x, i, n_sites)
    return h


@dataclass(frozen=True)
class DenseModel(core.ThermoModel):
    """ThermoModel over a dense Hamiltonian family lam -> H(lam).

    Gives the log-partition-function kernel and the dense pipeline a common
    subject, so the commuting-approximation fidelity can be compared against
    the exact one on the same system.
    """

    builder: Callable[[float], np.ndarray]
    name: str

    def _log_z(self, beta, lam):
        h = _check_hamiltonian(self.builder(lam), self.name)
        try:
            w = np.linalg.eigvalsh(h)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"{self.name}: eigensolver failed: {exc}") from exc
        # lnZ = -beta w_min + ln sum exp(-beta (w - w_min)); eigvalsh sorts w ascending
        terms = np.exp(-np.multiply.outer(beta, w - w[0]))
        return np.log(terms.sum(axis=-1)) - np.multiply(beta, w[0])


# ---------------------------------------------------------------------------
# the validate suite: the log-space kernel against the dense references above
# ---------------------------------------------------------------------------

def _check_fidelity_beta_matches_dense():
    # unit-spectral-norm ensemble keeps all Gibbs populations well above
    # the precision floor of the clamped-square-root pipeline
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 33))
        a = rng.standard_normal((dim, dim))
        h = 0.5 * (a + a.T)
        h /= spectral_norm(h)
        beta0, beta1 = rng.uniform(0.2, 2.5, size=2)
        model = DenseModel(lambda lam: h, "random_dense")  # temperature-only checks
        approx = core.fidelity_beta(model, beta0, beta1, 0.0)
        reference = uhlmann_fidelity(gibbs_state(h, beta0), gibbs_state(h, beta1))
        worst = max(worst, abs(approx - reference))
    return worst < 1e-10, f"max |dense - log-space| = {worst:.3e} (tol 1e-10)"


def _check_fidelity_cv_consistency():
    worst = 0.0
    tim = models.Tim1D()
    for model, t, lam in ((models.TwoLevel(), 1.0, 0.0), (tim, 0.7, 1.0), (tim, 1.5, 0.5)):
        for frac in (1e-3, 1e-2):
            delta_t = frac * t
            beta0 = 1.0 / t
            beta1 = 1.0 / (t + delta_t)
            full = core.fidelity_beta(model, beta0, beta1, lam)
            cv = core.specific_heat(model, core.ThermoPoint(beta0, lam), delta_t)
            dbeta = beta0 - beta1
            approx = math.exp(-dbeta**2 * cv / (8.0 * beta0**2))
            rel = abs(approx - full) / full / (5.0 * frac)
            worst = max(worst, rel)
    return worst < 1.0, f"max relative error / (5 dT/T) = {worst:.3e} (must be < 1)"


def _check_chi_beta_vs_cv():
    model = models.Tim1D()
    worst = 0.0
    for t in np.linspace(0.2, 2.0, 10):
        delta_t = 1e-3 * t
        point = core.ThermoPoint(1.0 / t, 1.0)
        cv = core.specific_heat(model, point, delta_t)
        chi_beta = core.fidelity_susceptibility_beta(model, point, delta_t)
        worst = max(worst, abs(4.0 * point.beta**2 * chi_beta - cv) / cv)
    return worst < 1e-2, f"max |4 b^2 chi_beta - Cv| / Cv = {worst:.3e} (tol 1e-2)"


def _check_lambda_responses_vs_kubo_mori():
    # chi and chi_lambda are the same second difference of lnZ, so neither
    # can check the other; each is compared with the exact d2 lnZ/dlam2 of the
    # dense chain, whose H is linear in lam with dH/dlam = H(1) - H(0)
    model = DenseModel(_chain_builder, "spin_chain")
    v = _chain_builder(1.0) - _chain_builder(0.0)
    worst = 0.0
    for beta, lam in ((0.5, 0.5), (1.0, 1.2), (2.0, 0.3)):
        metric = kubo_mori_metric(_chain_builder(lam), v, beta)
        chi = core.susceptibility_lambda(model, core.ThermoPoint(beta, lam), 1e-3)
        chi_lam = core.fidelity_susceptibility_lambda(model, beta, lam, 1e-3)
        for value in (4.0 * chi_lam, beta * chi):
            worst = max(worst, abs(value - metric) / metric)
    return worst < 1e-6, (f"max |4 chi_lambda - I_KM|, |b chi - I_KM| over I_KM "
                          f"= {worst:.3e} (tol 1e-6)")


def _check_field_fidelity_bound():
    # at beta >= 1 the bound exceeds 1, which no fidelity error can reach
    model = DenseModel(_chain_builder, "spin_chain")
    samples = []
    ok = True
    for beta in (0.125, 0.25, 0.5):
        for dlam in (0.1, 0.05):
            lam0, lam1 = 0.5, 0.5 + dlam
            exact_f = fidelity_lambda_exact(_chain_builder(lam0), _chain_builder(lam1), beta)
            approx_f = core.fidelity_lambda_approx(model, beta, lam0, lam1)
            bound = trotter_bound(_chain_builder(lam0), _chain_builder(lam1), beta)
            err = abs(exact_f - approx_f)
            ok = ok and bound < 1.0 and err <= bound + 1e-12
            samples.append(f"beta={beta} dlam={dlam}: |err|={err:.3e} bound={bound:.3e}")
    return ok, "; ".join(samples)


def _chain_builder(lam):
    return spin_chain_hamiltonian(3, 1.0, lam)


def _check_ground_state_limit():
    lam0, lam1 = 0.5, 0.6
    overlap = abs(np.vdot(ground_state(_chain_builder(lam0)), ground_state(_chain_builder(lam1))))
    cold = fidelity_lambda_exact(_chain_builder(lam0), _chain_builder(lam1), 200.0)
    diff = abs(cold - overlap)
    return diff < 1e-6, f"|F(beta=200) - GS overlap| = {diff:.3e} (tol 1e-6)"


VALIDATION_CHECKS = (
    ("fidelity_beta_matches_dense", _check_fidelity_beta_matches_dense),
    ("fidelity_cv_consistency", _check_fidelity_cv_consistency),
    ("chi_beta_vs_cv", _check_chi_beta_vs_cv),
    ("chi_lambda_vs_kubo_mori", _check_lambda_responses_vs_kubo_mori),
    ("field_fidelity_bound", _check_field_fidelity_bound),
    ("ground_state_limit", _check_ground_state_limit),
)
