"""Reference checks that several test modules share; pytest collects no tests here."""

import numpy as np

from thermofid import core
from thermofid.errors import DomainError


def log_z_convexity_defect(model, betas, lam):
    """Most negative scaled second difference of lnZ over a uniform beta grid.

    Returns min_i (lnZ[i+1] + lnZ[i-1] - 2 lnZ[i]) / max(|lnZ[i]|, 1); a value
    >= -1e-8 certifies discrete convexity of lnZ in beta (Var(H) >= 0), which
    in turn guarantees fidelity_beta <= 1. It is NaN, certifying nothing, when
    an lnZ evaluation fails.
    """
    betas = core.check_uniform(betas, "betas")
    if betas.size < 3:
        raise DomainError(f"betas must hold at least 3 values, got {betas.size}", key="betas")
    z = model.log_z(betas, lam)
    d2 = z[2:] + z[:-2] - 2.0 * z[1:-1]
    return float(np.min(d2 / np.maximum(np.abs(z[1:-1]), 1.0)))
