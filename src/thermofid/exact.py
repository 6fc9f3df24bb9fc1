"""Dense-matrix ground truth: Gibbs states, mixed-state fidelity, product-formula bound.

Everything here works on explicit Hamiltonian matrices (dimension capped at
256 to keep validation runs fast) and serves as the independent reference
against which the log-partition-function kernel is checked.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ThermoModel, check_positive
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
    check_positive("beta", beta)
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
    check_positive("beta", beta)
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
    check_positive("beta", beta)
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
class DenseModel(ThermoModel):
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
