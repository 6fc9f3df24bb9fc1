"""Anisotropic infinite-range spin model with a transverse field.

The Hamiltonian conserves total spin, so exact finite-N thermodynamics come
from per-sector diagonalization: every spin-S multiplet is a (2S+1)-dim block
that is tridiagonal in steps of two, and the full 2^N trace is the
degeneracy-weighted sum over all sectors. The maximal sector S = N/2 alone is
also exposed (it carries the low-energy physics and the quantum transition),
but per-spin thermal response lives in the degeneracy-weighted sum: an
(N+1)-level sector has vanishing entropy per spin.

The finite-temperature mean-field theory (single decoupled spin in the
self-consistent magnetization) is solved on the gamma < 1 branch, where the
transverse magnetization m_y vanishes and the order parameter is m_x.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import bisect
from scipy.special import gammaln, logsumexp

from .core import ThermoModel, check_beta
from .errors import DomainError, EigensolverError, SolverError

MEANFIELD_XTOL = 1e-12
_BRACKET_LO = 1e-9
_BRACKET_HI = 1.0 - 1e-9


@dataclass(frozen=True)
class LmgParams:
    """Model parameters: spin count, anisotropy gamma in [0, 1], field lam >= 0."""

    n_spins: int
    gamma: float
    lam: float

    def __post_init__(self):
        if self.n_spins < 2:
            raise DomainError(f"n_spins must be >= 2, got {self.n_spins}")
        if not 0.0 <= self.gamma <= 1.0:
            raise DomainError(f"gamma must be in [0, 1], got {self.gamma}")
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise DomainError(f"lam must be >= 0 and finite, got {self.lam}")


def _sector_bands(sector_spin, n_spins, gamma, lam):
    """Diagonal and step-2 off-diagonal of one spin-S block, m = -S..S."""
    s = sector_spin
    c = s * (s + 1.0)
    dim = int(round(2 * s)) + 1
    m = -s + np.arange(dim, dtype=float)
    diag = -(1.0 + gamma) / n_spins * (c - m * m - 0.5 * n_spins) - 2.0 * lam * m
    mm = m[:-2]
    off = -(1.0 - gamma) / (2.0 * n_spins) * np.sqrt(
        (c - mm * (mm + 1.0)) * (c - (mm + 1.0) * (mm + 2.0))
    )
    return diag, off


def _band_eigenvalues(diag, off):
    """All eigenvalues of a step-2-banded symmetric matrix via its parity blocks."""
    blocks = []
    for start in (0, 1):
        d = diag[start::2]
        if d.size == 0:
            continue
        if d.size == 1:
            blocks.append(d)
            continue
        e = off[start::2][: d.size - 1]
        try:
            blocks.append(eigh_tridiagonal(d, e, eigvals_only=True))
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"tridiagonal eigensolve failed: {exc}") from exc
    return np.concatenate(blocks)


def lmg_build_matrix(params):
    """Dense symmetric (N+1)x(N+1) matrix in the |S=N/2, m> basis, m = -S..S.

    Nonzero entries sit on the diagonal and the second off-diagonals only:
    the field and isotropic parts are diagonal, the anisotropic part couples
    m to m +- 2.
    """
    diag, off = _sector_bands(0.5 * params.n_spins, params.n_spins,
                              params.gamma, params.lam)
    dim = params.n_spins + 1
    mat = np.zeros((dim, dim))
    mat[np.arange(dim), np.arange(dim)] = diag
    idx = np.arange(dim - 2)
    mat[idx, idx + 2] = off
    mat[idx + 2, idx] = off
    return mat


@lru_cache(maxsize=256)
def _max_sector_spectrum(n_spins, gamma, lam):
    diag, off = _sector_bands(0.5 * n_spins, n_spins, gamma, lam)
    return np.sort(_band_eigenvalues(diag, off))


def lmg_sector_energies(params):
    """Sorted eigenvalues of the maximal-spin-sector matrix."""
    return _max_sector_spectrum(params.n_spins, params.gamma, params.lam).copy()


def lmg_log_z(beta, params):
    """Maximal-sector lnZ = logsumexp(-beta * E_k) over that block's exact spectrum."""
    check_beta(beta)
    energies = _max_sector_spectrum(params.n_spins, params.gamma, params.lam)
    return float(logsumexp(-beta * energies))


def log_sector_degeneracy(n_spins, sector_spin):
    """ln of the number of spin-S multiplets in N spin-1/2s.

    g(N, S) = C(N, N/2 - S) - C(N, N/2 - S - 1), evaluated through log-gamma
    so N = 800 stays in range.
    """
    k = round(0.5 * n_spins - sector_spin)
    if k < 0 or sector_spin < 0:
        raise DomainError(f"no spin-{sector_spin} sector for N={n_spins}")
    log_binom = (gammaln(n_spins + 1) - gammaln(k + 1) - gammaln(n_spins - k + 1))
    return float(log_binom + math.log1p(-k / (n_spins - k + 1.0)))


@lru_cache(maxsize=32)
def _full_levels(n_spins, gamma, lam):
    """Energies of every sector plus each level's log-degeneracy weight."""
    energies = []
    weights = []
    n_sectors = n_spins // 2 + 1
    for k in range(n_sectors):
        s = 0.5 * n_spins - k
        diag, off = _sector_bands(s, n_spins, gamma, lam)
        e = _band_eigenvalues(diag, off)
        energies.append(e)
        weights.append(np.full(e.size, log_sector_degeneracy(n_spins, s)))
    return np.concatenate(energies), np.concatenate(weights)


def lmg_full_log_z(beta, params):
    """Full 2^N-trace lnZ: degeneracy-weighted sum over all spin sectors.

    This is the quantity whose per-spin derivatives carry the thermal
    transition; equals ln Tr exp(-beta H) exactly (verified against brute
    force for small N).
    """
    check_beta(beta)
    energies, weights = _full_levels(params.n_spins, params.gamma, params.lam)
    return float(logsumexp(weights - beta * energies))


@dataclass(frozen=True)
class Lmg(ThermoModel):
    """Catalog entry: the collective-spin model as a ThermoModel over lam.

    log_z is the full degeneracy-weighted trace, so sweeps see extensive
    thermal response functions.
    """

    n_spins: int = 100
    gamma: float = 0.2

    name: ClassVar[str] = "lmg"
    size_field: ClassVar[str] = "n_spins"

    def __post_init__(self):
        super().__post_init__()
        LmgParams(self.n_spins, self.gamma, 0.0)  # its rules: n_spins >= 2, 0 <= gamma <= 1

    def log_z(self, beta, lam):
        # even in the field (a pi rotation about x flips its sign), so the
        # central susceptibility stencil works at lam = 0
        return lmg_full_log_z(beta, LmgParams(self.n_spins, self.gamma, abs(lam)))


# ---------------------------------------------------------------------------
# finite-temperature mean field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanFieldSolution:
    """Self-consistent magnetization with its free energy and selected branch."""

    m_x: float
    m_y: float
    free_energy_per_spin: float
    branch: str  # "m_x" | "m_y" | "trivial"


def lmg_meanfield_residual(m_x, m_y, beta, lam, gamma):
    """Residual pair (m_x - t m_x, m_y - t gamma m_y) of the self-consistency map.

    t = tanh(beta u)/u with u = sqrt(lam^2 + m_x^2 + gamma^2 m_y^2); the
    u -> 0 limit of t is beta.
    """
    check_beta(beta)
    u = math.sqrt(lam * lam + m_x * m_x + gamma * gamma * m_y * m_y)
    t = beta if u == 0.0 else math.tanh(beta * u) / u
    return (m_x - t * m_x, m_y - t * gamma * m_y)


def lmg_meanfield_free_energy(m_x, m_y, beta, lam, gamma):
    """Per-spin free energy (m_x^2 + gamma^2 m_y^2)/2 - T ln(2 cosh(beta u))."""
    q = m_x * m_x + gamma * gamma * m_y * m_y
    u = math.sqrt(lam * lam + q)
    x = beta * u
    ln2cosh = abs(x) + math.log1p(math.exp(-2.0 * abs(x)))
    return 0.5 * q - ln2cosh / beta


def lmg_meanfield_solve(beta, lam, gamma):
    """Solve the gamma < 1 branch: bisection for m_x on [0, 1], m_y = 0.

    The nontrivial root exists exactly when T < lam/atanh(lam); otherwise the
    trivial solution is returned. The branch is picked by free-energy
    comparison.
    """
    check_beta(beta)
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise DomainError(f"lam must be >= 0 and finite, got {lam}")
    if not 0.0 <= gamma < 1.0:
        raise DomainError(f"supported branch needs gamma in [0, 1), got {gamma}")

    def factor(m):
        # m (1 - tanh(beta u)/u) shares the root m* with the fixed-point map;
        # the m prefactor is dropped so the bracket endpoints keep clean signs
        u = math.sqrt(lam * lam + m * m)
        t = beta if u == 0.0 else math.tanh(beta * u) / u
        return 1.0 - t

    f_lo = factor(_BRACKET_LO)
    f_hi = factor(_BRACKET_HI)
    if f_lo >= 0.0:
        m_x = 0.0
    elif f_hi <= 0.0:
        # root pinned within 1e-9 of saturation (very low T at small lam)
        m_x = _BRACKET_HI
    else:
        try:
            m_x = bisect(factor, _BRACKET_LO, _BRACKET_HI, xtol=MEANFIELD_XTOL)
        except (RuntimeError, ValueError) as exc:
            raise SolverError(f"mean-field bisection failed: {exc}") from exc

    f_branch = lmg_meanfield_free_energy(m_x, 0.0, beta, lam, gamma)
    f_trivial = lmg_meanfield_free_energy(0.0, 0.0, beta, lam, gamma)
    if m_x > 0.0 and f_branch < f_trivial:
        return MeanFieldSolution(m_x=m_x, m_y=0.0,
                                 free_energy_per_spin=f_branch, branch="m_x")
    return MeanFieldSolution(m_x=0.0, m_y=0.0,
                             free_energy_per_spin=f_trivial, branch="trivial")


def lmg_meanfield_critical_temperature(lam):
    """Critical line T_c = lam / atanh(lam) on 0 <= lam <= 1 (1 at 0, 0 at 1)."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"critical line defined for lam in [0, 1], got {lam}")
    if lam == 0.0:
        return 1.0
    if lam == 1.0:
        return 0.0
    return lam / math.atanh(lam)
