"""Anisotropic infinite-range spin model with a transverse field.

The Hamiltonian conserves total spin, so exact finite-N thermodynamics come
from per-sector diagonalization: every spin-S multiplet is a (2S+1)-dim block
that is tridiagonal in steps of two, and the full 2^N trace is the
degeneracy-weighted sum over all sectors. That sum, not the maximal sector
S = N/2 alone, carries the per-spin thermal response: an (N+1)-level sector
has vanishing entropy per spin.

The finite-temperature mean-field theory (single decoupled spin in the
self-consistent magnetization) is solved on the gamma < 1 branch, where the
transverse magnetization m_y vanishes and the order parameter is m_x.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .core import LOG_DROP, ThermoModel, check_positive, per_beta
from .errors import DomainError, EigensolverError

_BRACKET_LO = 1e-9
_BRACKET_HI = 1.0 - 1e-9


def _load_scipy():
    """scipy's eigh_tridiagonal, the package's one scipy import."""
    from scipy.linalg import eigh_tridiagonal
    return eigh_tridiagonal


def eigh_tridiagonal(d, e):
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal d and off-diagonal e."""
    return _load_scipy()(d, e, eigvals_only=True)


def logsumexp(x):
    """scipy.special.logsumexp(x) for a finite, non-empty 1-D float array x, bit for bit.

    scipy's arithmetic without its second pass, which only matters for an
    infinite result: s sums exp(x - max) over all but the m terms equal to
    the maximum, and the result is log1p(s / m) + log(m) + max.
    """
    top = x.max()
    at_top = x == top
    terms = np.exp(x - top)
    # zeroed in place, not removed: the pairwise sum then adds in scipy's order
    terms[at_top] = 0.0
    m = np.count_nonzero(at_top)
    s = terms.sum()
    return float(np.log1p(s / m if s else s) + np.log(m) + top)


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
        if d.size == 0:  # scipy rejects an empty block
            continue
        e = off[start::2][: d.size - 1]
        try:
            blocks.append(eigh_tridiagonal(d, e))
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"tridiagonal eigensolve failed: {exc}") from exc
    return np.concatenate(blocks)


def sector_degeneracy(n_spins, sector_spin):
    """The number g(N, S) = C(N, k) - C(N, k - 1), k = N/2 - S, of spin-S multiplets, exactly."""
    k = 0.5 * n_spins - sector_spin
    if not (0.0 <= k <= 0.5 * n_spins and k == int(k)):
        raise DomainError(f"no spin-{sector_spin} sector for N={n_spins}")
    k = int(k)
    return math.comb(n_spins, k) - (math.comb(n_spins, k - 1) if k else 0)


@lru_cache(maxsize=32)
def _full_levels(n_spins, gamma, lam):
    """Energies of every sector, S = N/2 first, plus each level's weight ln g(N, S)."""
    energies = []
    weights = []
    n_sectors = n_spins // 2 + 1
    for k in range(n_sectors):
        s = 0.5 * n_spins - k
        diag, off = _sector_bands(s, n_spins, gamma, lam)
        e = _band_eigenvalues(diag, off)
        energies.append(e)
        weights.append(np.full(e.size, math.log(sector_degeneracy(n_spins, s))))
    return np.concatenate(energies), np.concatenate(weights)


def _levels_in_reach(energies, weights, beta):
    """The levels, in order, whose term w - b E comes within LOG_DROP of the largest at some b.

    b ranges over [min(beta), max(beta)]. A term is linear in b, so at every
    such b the largest term is at least R, the largest over levels of the
    smaller of its two end values; a level whose larger end value is below
    R - LOG_DROP - 1 (1 for rounding) is never summed. Each b then sums the
    same terms in the same order as it would over all levels.
    """
    b_lo = np.min(beta)
    lo, hi = (energies * -b + weights for b in (b_lo, np.max(beta)))
    # the minimum overwrites lo, formed again after it: two level-length arrays, not three
    floor = np.minimum(lo, hi, out=lo).max() - LOG_DROP - 1.0
    lo = np.add(np.multiply(energies, -b_lo, out=lo), weights, out=lo)
    keep = np.maximum(lo, hi, out=lo) >= floor
    return energies[keep], weights[keep]


@dataclass(frozen=True)
class Lmg(ThermoModel):
    """Catalog entry: the collective-spin model as a ThermoModel over lam.

    n_spins >= 2 and 0 <= gamma <= 1. log_z is the full degeneracy-weighted
    trace, so sweeps see extensive thermal response functions.
    """

    n_spins: int = 100
    gamma: float = 0.2

    name: ClassVar[str] = "lmg"
    size_field: ClassVar[str] = "n_spins"

    def __post_init__(self):
        super().__post_init__()
        if not self.n_spins >= 2:
            raise DomainError(f"n_spins must be >= 2, got {self.n_spins}", key="n_spins")
        if not 0.0 <= self.gamma <= 1.0:
            raise DomainError(f"gamma must be in [0, 1], got {self.gamma}", key="gamma")
        _load_scipy()  # here, so a scan imports it while configured, before its pool forks

    def _log_z(self, beta, lam):
        """Full 2^N-trace lnZ: degeneracy-weighted sum over all spin sectors.

        Equals ln Tr exp(-beta H) exactly (verified against brute force for
        small N). An array beta takes one logsumexp per entry: a (beta x level)
        matrix would hold 160,801 levels per beta at N = 800. Each logsumexp
        sums only the terms x = w - beta E within LOG_DROP of their largest:
        the n dropped terms move lnZ by at most n e^-45, 4.7e-15 at N = 800,
        under 1/20 ulp of lnZ >= N ln 2 = 554 (Tr H = 0). The levels that can
        give such a term at some beta of the call are picked once per call.
        """
        # even in the field (a pi rotation about x flips its sign), so the
        # central susceptibility stencil works at lam = 0
        energies, weights = _full_levels(self.n_spins, self.gamma, abs(lam))
        energies, weights = _levels_in_reach(energies, weights, beta)

        def at(b):
            x = energies * -b  # then x += w: bitwise w - b E, with one n-level temporary
            x += weights
            return float(logsumexp(x[x >= x.max() - LOG_DROP]))

        return per_beta(at, beta)


# ---------------------------------------------------------------------------
# finite-temperature mean field
# ---------------------------------------------------------------------------

def lmg_meanfield_free_energy(m_x, beta, lam):
    """Per-spin free energy m_x^2/2 - T ln(2 cosh(beta u)), u = sqrt(lam^2 + m_x^2)."""
    q = m_x * m_x
    u = math.sqrt(lam * lam + q)
    x = beta * u
    ln2cosh = abs(x) + math.log1p(math.exp(-2.0 * abs(x)))
    return 0.5 * q - ln2cosh / beta


def lmg_meanfield_m_x(beta, lam):
    """Self-consistent m_x, by bisection on [0, 1] to the last bit (m_y = 0 on this branch).

    The nontrivial root exists exactly when T < lam/atanh(lam). It is returned
    only when its free energy is below the trivial solution's; otherwise, and
    also where the gain rounds away just below T_c, the result is 0.
    """
    check_positive("beta", beta)
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise DomainError(f"lam must be >= 0 and finite, got {lam}")

    def factor(m):
        # m (1 - tanh(beta u)/u) shares the root m* with the fixed-point map;
        # the m prefactor is dropped so the bracket endpoints keep clean signs
        u = math.sqrt(lam * lam + m * m)
        t = beta if u == 0.0 else math.tanh(beta * u) / u
        return 1.0 - t

    lo, hi = _BRACKET_LO, _BRACKET_HI
    if not factor(lo) < 0.0:
        return 0.0
    # down to adjacent floats with factor(lo) < 0 <= factor(hi); hi stays at
    # _BRACKET_HI when the root is within 1e-9 of saturation (very low T, small lam)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if factor(mid) < 0.0 else (lo, mid)
    if lmg_meanfield_free_energy(hi, beta, lam) < lmg_meanfield_free_energy(0.0, beta, lam):
        return hi
    return 0.0


def lmg_meanfield_critical_temperature(lam):
    """Critical line T_c = lam / atanh(lam) on 0 <= lam <= 1 (1 at 0, 0 at 1)."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"critical line defined for lam in [0, 1], got {lam}")
    if lam == 0.0:
        return 1.0
    if lam == 1.0:
        return 0.0
    return lam / math.atanh(lam)
