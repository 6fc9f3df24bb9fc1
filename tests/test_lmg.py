"""Collective-spin model: sector matrices against brute-force tensor oracles,
full-trace thermodynamics, and the finite-temperature mean field."""

import math
import sys
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eigh_tridiagonal
from scipy.special import logsumexp

from thermofid import core, lmg
from thermofid.core import LOG_DROP
from thermofid.errors import DomainError, EigensolverError, EvaluationError
from thermofid.exact import kubo_mori_metric
from thermofid.lmg import (
    Lmg,
    _band_eigenvalues,
    _full_levels,
    _sector_bands,
    lmg_meanfield_critical_temperature,
    lmg_meanfield_free_energy,
    lmg_meanfield_m_x,
    sector_degeneracy,
)

M_ROOT_T05 = 0.9575040240772686   # m = tanh(2m), bisection
TC_08 = 0.7281913813014699        # 0.8 / atanh(0.8)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.diag([1.0, -1.0])


def brute_hamiltonian(n, gamma, lam):
    def site(op, i):
        out = np.array([[1.0]])
        for j in range(n):
            out = np.kron(out, op if j == i else np.eye(2))
        return out

    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            h -= (site(SX, i) @ site(SX, j) + gamma * site(SY, i) @ site(SY, j)) / n
        h -= lam * site(SZ, i)
    assert np.abs(h.imag).max() < 1e-14
    return h.real


def sector_energies(n, gamma, lam):
    """Sorted spectrum of the maximal sector S = N/2: the first N+1 of _full_levels."""
    return np.sort(_full_levels(n, gamma, lam)[0][: n + 1])


def test_params_validation():
    with pytest.raises(DomainError) as info:
        Lmg(1, 0.2)
    assert info.value.key == "n_spins"
    with pytest.raises(DomainError) as info:
        Lmg(4, 1.2)
    assert info.value.key == "gamma"
    with pytest.raises(DomainError):
        Lmg(4, math.nan)
    for lam in (math.inf, math.nan):
        with pytest.raises(DomainError, match="lam must be finite") as info:
            Lmg(24, 0.2).log_z(1.0, lam)
        assert info.value.key == "lam"


def test_matrix_is_banded_and_symmetric():
    # a spin-S block has 2S + 1 diagonal entries and 2S - 1 step-2 ones, for
    # integer and half-integer S
    for n, s in ((6, 3.0), (6, 0.0), (5, 2.5), (5, 0.5)):
        diag, off = _sector_bands(s, n, 0.3, 0.4)
        assert diag.shape == (int(2 * s) + 1,)
        assert off.shape == (max(int(2 * s) - 1, 0),)


def test_parity_blocks_take_every_off_diagonal_entry():
    # _band_eigenvalues passes each parity block off[start::2] whole: LAPACK
    # reads d.size - 1 entries, and a (2S + 1)-level sector has exactly that
    for n in range(2, 13):
        for k in range(n // 2 + 1):
            diag, off = _sector_bands(0.5 * n - k, n, 0.3, 0.4)
            for start in (0, 1):
                d = diag[start::2]
                if d.size:
                    assert off[start::2].shape == (d.size - 1,)


def test_matrix_entries_explicit():
    n, gamma, lam = 4, 0.3, 0.7
    diag, off = _sector_bands(n / 2.0, n, gamma, lam)
    s = n / 2.0
    c = s * (s + 1.0)
    for idx in range(n + 1):
        m = idx - s
        expected = -(1 + gamma) / n * (c - m * m - n / 2.0) - 2.0 * lam * m
        assert diag[idx] == pytest.approx(expected, rel=1e-14)
    for idx in range(n - 1):
        m = idx - s
        expected = -(1 - gamma) / (2.0 * n) * math.sqrt(
            (c - m * (m + 1)) * (c - (m + 1) * (m + 2))
        )
        assert off[idx] == pytest.approx(expected, rel=1e-14)


def test_gamma_one_matrix_is_diagonal():
    _, off = _sector_bands(2.5, 5, 1.0, 0.3)
    assert np.all(off == 0.0)


def test_two_spin_sector_matches_tensor_oracle():
    # project the explicit two-spin Hamiltonian onto the triplet
    gamma, lam = 0.2, 0.5
    h = brute_hamiltonian(2, gamma, lam)
    up_up = np.array([1.0, 0.0, 0.0, 0.0])
    sym = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    down_down = np.array([0.0, 0.0, 0.0, 1.0])
    basis = np.column_stack([down_down, sym, up_up])  # m = -1, 0, +1
    triplet = basis.T @ h @ basis
    oracle = np.sort(np.linalg.eigvalsh(triplet))
    ours = sector_energies(2, gamma, lam)
    assert np.allclose(ours, oracle, atol=1e-13)
    # N = 2 is the triplet plus one singlet at E = (1 + gamma) / 2 (S^2 = 0)
    z_oracle = float(logsumexp(-1.0 * np.append(oracle, 0.5 * (1.0 + gamma))))
    assert Lmg(2, gamma).log_z(1.0, lam) == pytest.approx(z_oracle, abs=1e-12)


def test_sector_spectrum_matches_dense_eigh():
    # the S = N/2 block in the |S, m> basis, m = -S..S, dense from its bands: the
    # field and isotropic parts are diagonal, the anisotropic part couples m to m +- 2
    diag, off = _sector_bands(15.0, 30, 0.4, 0.6)
    dense = np.sort(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 2) + np.diag(off, -2)))
    assert np.allclose(sector_energies(30, 0.4, 0.6), dense, atol=1e-10)


def parity_blocks(diag, off):
    """(d, e) of each non-empty parity block of one spin sector's bands."""
    for start in (0, 1):
        d = diag[start::2]
        if d.size:
            yield d, off[start::2]


@pytest.mark.parametrize("n,gamma,lams", [
    (800, 0.2, [0.2]),
    (101, 0.5, [0.0, 0.3, 1.7, 1e250]),  # 1e250: dstevd scales the norm before dsterf
    (8, 0.2, [0.0, 0.7]),
])
def test_numpy_lapack_levels_are_scipys_bit_for_bit(n, gamma, lams):
    levels = lmg._numpy_lapack()
    if levels is None:
        pytest.skip("this numpy ships no scipy-openblas LAPACK to reach")
    for lam in lams:
        for k in range(n // 2 + 1):
            for d, e in parity_blocks(*_sector_bands(0.5 * n - k, n, gamma, lam)):
                assert np.array_equal(levels(d, e), eigh_tridiagonal(d, e, eigvals_only=True))


@pytest.fixture
def solver_choice():
    """Chooses the solver afresh for the test, and again after it."""
    lmg._solver.cache_clear()
    yield
    lmg._solver.cache_clear()


@pytest.mark.usefixtures("solver_choice")
@pytest.mark.parametrize("missing", ["config", "64-bit integers", "library", "symbol"])
def test_solver_falls_back_to_scipy_without_numpys_lapack(monkeypatch, missing):
    config = np.show_config(mode="dicts")
    lapack = config["Build Dependencies"]["lapack"]
    if missing == "config":
        lapack = dict(lapack, name="openblas")
    elif missing == "64-bit integers":
        lapack = dict(lapack, **{"openblas configuration": "OpenBLAS 0.3.31 DYNAMIC_ARCH"})
    elif missing == "library":
        monkeypatch.setattr(lmg, "_NUMPY_LIBS", lmg._NUMPY_LIBS / "absent")
    else:
        monkeypatch.setattr(lmg, "_STEVD", "no_such_symbol")
    shown = {**config, "Build Dependencies": {**config["Build Dependencies"], "lapack": lapack}}
    monkeypatch.setattr(np, "show_config", lambda mode: shown)
    assert lmg._numpy_lapack() is None
    assert lmg._solver().func is eigh_tridiagonal
    diag, off = _sector_bands(4.0, 8, 0.2, 0.7)
    assert np.array_equal(_band_eigenvalues(diag, off), np.concatenate(
        [eigh_tridiagonal(d, e, eigvals_only=True) for d, e in parity_blocks(diag, off)]))


@pytest.mark.usefixtures("solver_choice")
def test_no_solver_at_all_is_an_eigensolver_error(monkeypatch):
    monkeypatch.setattr(lmg, "_NUMPY_LIBS", lmg._NUMPY_LIBS / "absent")
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)  # import fails, as without scipy
    with pytest.raises(EigensolverError, match="scipy-openblas LAPACK or, without it, scipy"):
        Lmg(8, 0.2)


def test_lapack_levels_check_the_band_lengths():
    def never(*args):
        raise AssertionError("LAPACK called on a bad band")

    for d, e in [(np.ones(3), np.ones(3)), (np.ones((2, 2)), np.ones(1)), (np.ones(0), np.ones(0))]:
        with pytest.raises(ValueError, match="off-diagonal"):
            lmg._lapack_levels(never, d, e)


def test_lapack_info_is_an_eigensolver_error(monkeypatch):
    monkeypatch.setattr(lmg, "_solver", lambda: partial(lmg._lapack_levels, lambda *args: 1))
    diag, off = _sector_bands(4.0, 8, 0.2, 0.7)
    with pytest.raises(EigensolverError, match="info = 1"):
        _band_eigenvalues(diag, off)


@pytest.mark.parametrize("n,lam", [(3, 1e308), (800, 1e306)])
def test_overflowing_hamiltonian_is_an_evaluation_error(n, lam):
    # 2 lam m overflows: an inf level would make lnZ meaningless, and no
    # solver raises a typed error for it
    with pytest.raises(EvaluationError, match="not finite"):
        Lmg(n, 0.2).log_z(1.0, lam)


def test_sector_log_z_ground_state_dominance():
    # polarized field: nondegenerate ground state (no parity doublet)
    energies = sector_energies(12, 0.2, 1.5)
    beta = 200.0
    assert float(logsumexp(-beta * energies)) / (-beta) == pytest.approx(energies.min(),
                                                                          abs=1e-3)
    # the ground state lies in the maximal sector, so it dominates the full trace too
    assert Lmg(12, 0.2).log_z(beta, 1.5) / (-beta) == pytest.approx(energies.min(), abs=1e-3)


@pytest.mark.parametrize("n,gamma,lam,beta", [
    (2, 0.2, 0.5, 1.0),
    (5, 0.2, 0.4, 0.8),
    (8, 0.7, 0.9, 1.3),
])
def test_full_trace_matches_brute_force(n, gamma, lam, beta):
    brute = float(logsumexp(-beta * np.linalg.eigvalsh(brute_hamiltonian(n, gamma, lam))))
    assert Lmg(n, gamma).log_z(beta, lam) == pytest.approx(brute, abs=1e-10)


def test_degeneracies_sum_to_hilbert_dimension():
    # each level carries its sector's weight ln g, so the weights count 2^N states
    n = 9
    total = float(np.exp(_full_levels(n, 0.2, 0.5)[1]).sum())
    assert total == pytest.approx(2.0**n, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 30, 800, 801])
def test_degeneracies_count_the_hilbert_space_exactly(n):
    # the sum over S of (2S + 1) g(N, S) is 2^N, here in integers, with no rounding
    assert sum((n - 2 * k + 1) * sector_degeneracy(n, 0.5 * n - k)
               for k in range(n // 2 + 1)) == 2**n


def test_degeneracy_rejects_a_spin_the_size_cannot_have():
    # S runs over N/2, N/2 - 1, ... down to 0 or 1/2
    for n, s in ((3, 0.0), (4, 0.5), (4, 0.3), (4, -1.0), (4, 3.0), (4, math.nan)):
        with pytest.raises(DomainError, match="no spin"):
            sector_degeneracy(n, s)


@pytest.mark.parametrize("n", [2, 3, 30, 800, 801])
def test_log_degeneracy_within_two_ulp_of_mpmath(n):
    # a log-gamma difference errs by hundreds of ulp at N = 800
    with mpmath.workdps(30):
        for k in range(n // 2 + 1):
            exact = mpmath.log(mpmath.binomial(n, k) - (mpmath.binomial(n, k - 1) if k else 0))
            value = math.log(sector_degeneracy(n, 0.5 * n - k))
            assert abs(mpmath.mpf(value) - exact) <= 2 * math.ulp(value), (n, k)


def test_full_trace_exceeds_sector_trace():
    sector = float(logsumexp(-1.0 * sector_energies(20, 0.2, 0.5)))
    assert Lmg(20, 0.2).log_z(1.0, 0.5) > sector


def test_fidelity_two_evaluation_routes_agree():
    # overlap of level populations vs the lnZ combination
    n, gamma, lam = 120, 0.2, 0.5
    model = Lmg(n, gamma)
    energies, weights = _full_levels(n, gamma, lam)
    beta0, beta1 = 0.9, 1.1

    def log_populations(beta):
        ln = weights - beta * energies
        return ln - logsumexp(ln)

    overlap = math.exp(logsumexp(0.5 * log_populations(beta0) + 0.5 * log_populations(beta1)))
    assert core.fidelity_beta(model, beta0, beta1, lam) == pytest.approx(overlap, abs=1e-12)


def test_exact_cv_peak_approaches_meanfield_line():
    lam = 0.5
    tc = lmg_meanfield_critical_temperature(lam)
    t_axis = np.round(np.arange(0.70, 1.10001, 0.004), 10)
    gaps = []
    for n in (100, 200, 400, 800):
        model = Lmg(n, 0.2)
        col = [core.specific_heat(model, core.ThermoPoint(1.0 / t, lam), 2e-3) / n
               for t in t_axis]
        gaps.append(abs(t_axis[int(np.argmax(col))] - tc))
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]


EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=150)
TERMS = st.floats(-1e3, 1e3)


@EXAMPLES
@given(x=st.one_of(
    arrays(np.float64, st.integers(1, 600), elements=TERMS),  # spreads up to 2000 > 745
    # terms that all count, past numpy's 128-term pairwise blocks: leaving the
    # maximum out of the sum, rather than zeroing it, moves the last bit here
    arrays(np.float64, st.integers(129, 600), elements=st.floats(-40.0, 0.0)),
    st.builds(np.full, st.integers(1, 40), TERMS),  # every term the maximum
    st.builds(lambda x, k: np.insert(x, np.arange(k) * x.size // k, x.max()),
              arrays(np.float64, st.integers(1, 300), elements=TERMS), st.integers(1, 9)),
))
def test_logsumexp_is_scipys_bit_for_bit(x):
    assert lmg.logsumexp(x) == float(logsumexp(x))


@EXAMPLES
@given(n=st.integers(2, 60), gamma=st.floats(0.0, 1.0), lam=st.floats(-2.0, 2.0),
       betas=st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=8), repeats=st.integers(0, 2))
def test_level_cutoff_exact_for_any_beta_range(n, gamma, lam, betas, repeats):
    # an array call equals the float calls, which equal the per-beta LOG_DROP
    # cutoff, within 4 eps of the full sum
    betas = np.array(betas + betas[:repeats])
    energies, weights = _full_levels(n, gamma, abs(lam))
    model = Lmg(n, gamma)
    values = model.log_z(betas, lam).tolist()
    assert values == [model.log_z(b, lam) for b in betas.tolist()]
    full = [weights - b * energies for b in betas]
    assert values == [float(logsumexp(x[x >= x.max() - LOG_DROP])) for x in full]
    # the LOG_DROP cutoff itself regroups scipy's pairwise sum, which can move
    # the last bit (1 ulp at n = 34, gamma = 0.485, lam = 0.783, beta = 5.13)
    assert values == pytest.approx([float(logsumexp(x)) for x in full],
                                   rel=4 * sys.float_info.epsilon)


def test_level_cutoff_exact_on_acceptance_columns(monkeypatch):
    # every beta the Cv and chi stencils take on the acceptance columns,
    # T 0.40-1.15 step 0.01 with delta_t = 0.002
    t = np.round(np.arange(0.40, 1.15001, 0.01), 10)
    betas = np.concatenate([1.0 / (t - 0.001), 1.0 / t, 1.0 / (t + 0.001)])
    for lam in (0.2, 0.4, 0.6, 0.8):
        energies, weights = _full_levels(800, 0.2, lam)
        full = [float(logsumexp(weights - b * energies)) for b in betas]
        assert Lmg(800, 0.2).log_z(betas, lam).tolist() == full

    sizes = []

    def recorder(x):
        sizes.append(x.size)
        return logsumexp(x)

    monkeypatch.setattr(lmg, "logsumexp", recorder)
    Lmg(800, 0.2).log_z(betas, 0.8)
    assert len(sizes) == betas.size
    assert max(sizes) < 0.25 * 401**2


def exact_cv(n_spins, gamma, lam, beta, delta_t):
    """Cv = beta^2 Var(H) over every degeneracy-weighted level, and the stencil's error.

    No stencil and no cutoff. The central second difference of F in T with
    h = delta_t / 2 is off by -(h^2 / 12) T F^(4)(T) at leading order, where
    F^(4) = -12 beta^5 k2 + 8 beta^6 k3 - beta^7 k4 in the energy cumulants k_n.
    """
    energies, weights = _full_levels(n_spins, gamma, lam)
    x = weights - beta * energies
    p = np.exp(x - logsumexp(x))
    d = energies - p @ energies
    k2, k3 = p @ d**2, p @ d**3
    k4 = p @ d**4 - 3.0 * k2**2
    h = 0.5 * delta_t
    lead = h**2 / 12.0 * (12.0 * beta**4 * k2 - 8.0 * beta**5 * k3 + beta**6 * k4)
    return beta**2 * k2, lead


@pytest.mark.parametrize("n", [120, 800])
def test_specific_heat_matches_spectral_oracle(n):
    # T kept at least 0.14 from the lam = 0.5 jump at T_c = 0.910; the
    # stencil's error is its O(delta_t^2) leading term to within 2%, plus
    # the rounding of F ~ T lnZ divided by h^2
    lam, delta_t = 0.5, 2e-3
    model = Lmg(n, 0.2)
    for t in (0.6, 0.75, 1.05, 1.2):
        beta = 1.0 / t
        cv, lead = exact_cv(n, 0.2, lam, beta, delta_t)
        f_scale = t * abs(model.log_z(beta, lam))
        rounding = 8.0 * np.finfo(float).eps * f_scale / (0.5 * delta_t)**2
        err = core.specific_heat(model, core.ThermoPoint(beta, lam), delta_t) - cv
        assert abs(err - lead) <= 0.02 * abs(lead) + rounding
        assert abs(lead) < 1e-5 * cv


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("gamma,lam,beta", [(0.2, 0.5, 1.0), (0.7, 0.9, 1.3), (0.0, 0.3, 2.0)])
def test_chi_stencil_error_is_kubo_mori_leading_term(n, gamma, lam, beta):
    # beta chi = d2 lnZ/dlam2 is the Kubo-Mori metric of H along
    # V = H(lam + 1) - H(lam), here from the 2^N dense spectrum. The stencil,
    # h = delta_lambda/2 on F, errs by delta_lambda^2 / 48 times its second
    # derivative in lam at leading order: slope 2 +- 0.1, coefficient within 1%
    h0 = brute_hamiltonian(n, gamma, 0.0)
    v = brute_hamiltonian(n, gamma, 1.0) - h0
    eta = 1e-3
    metric = [kubo_mori_metric(h0 + x * v, v, beta) for x in (lam - eta, lam, lam + eta)]
    leading = (metric[0] + metric[2] - 2.0 * metric[1]) / eta**2 / 48.0
    deltas = np.array([0.04, 0.02, 0.01])
    errors = np.array([beta * core.susceptibility_lambda(Lmg(n, gamma), core.ThermoPoint(beta, lam),
                                                         d) for d in deltas]) - metric[1]
    slope = float(np.polyfit(np.log(deltas), np.log(np.abs(errors)), 1)[0])
    assert abs(slope - 2.0) <= 0.1
    assert np.abs(errors / deltas**2 / leading - 1.0).max() <= 0.01


# ---------------------------------------------------------------------------
# mean field
# ---------------------------------------------------------------------------

def single_spin_gibbs_m_x(m_x, beta, lam):
    """<sx> in the Gibbs state of the decoupled spin -m_x sx - lam sz, from its dense spectrum."""
    w, v = np.linalg.eigh(-m_x * SX - lam * SZ)
    p = np.exp(-beta * (w - w.min()))
    p /= p.sum()
    return float(np.trace((v * p) @ v.T @ SX))


def test_meanfield_m_x_is_its_own_gibbs_magnetization():
    # below the line the solver's m_x reproduces itself as the decoupled
    # spin's thermal <sx>; above it the only solution is m_x = 0. T stays at
    # least 0.15 T_c, where the root is inside the bracket, and at least
    # 1e-3 T_c from the line, where the ordered root's free-energy gain is
    # far above rounding
    rng = np.random.default_rng(11)
    for _ in range(25):
        lam = rng.uniform(0.0, 0.99)
        tc = lmg_meanfield_critical_temperature(lam)
        below = 1.0 / (rng.uniform(0.15, 0.999) * tc)
        m_x = lmg_meanfield_m_x(below, lam)
        assert m_x > 0.0
        assert abs(m_x - single_spin_gibbs_m_x(m_x, below, lam)) <= 1e-12
        assert lmg_meanfield_m_x(1.0 / (rng.uniform(1.001, 2.0) * tc), lam) == 0.0


def test_meanfield_solve_zero_field_root():
    m_x = lmg_meanfield_m_x(2.0, 0.0)
    assert m_x == pytest.approx(M_ROOT_T05, abs=1e-10)
    assert abs(m_x - math.tanh(2.0 * m_x)) < 1e-10


@EXAMPLES
@given(lam=st.floats(0.0, 0.99), fraction=st.floats(0.01, 0.999))
def test_meanfield_root_brackets_its_sign_change_between_adjacent_floats(lam, fraction):
    beta = 1.0 / (fraction * lmg_meanfield_critical_temperature(lam))

    def factor(m):
        # the solver's 1 - tanh(beta u)/u, which shares its root with the fixed-point map
        u = math.sqrt(lam * lam + m * m)
        return 1.0 - math.tanh(beta * u) / u

    m_x = lmg_meanfield_m_x(beta, lam)
    assume(0.0 < m_x < lmg._BRACKET_HI)  # a root, not pinned at saturation
    assert factor(math.nextafter(m_x, 0.0)) < 0.0 <= factor(m_x)


def test_meanfield_trivial_above_critical_line():
    lam = 0.4
    tc = lmg_meanfield_critical_temperature(lam)
    assert lmg_meanfield_m_x(1.0 / (tc * 1.05), lam) == 0.0


def test_meanfield_nonzero_root_below_critical_line():
    lam = 0.4
    beta = 1.0 / (0.9 * lmg_meanfield_critical_temperature(lam))
    m_x = lmg_meanfield_m_x(beta, lam)
    assert m_x > 0.05
    assert lmg_meanfield_free_energy(m_x, beta, lam) < lmg_meanfield_free_energy(0.0, beta, lam)


def test_meanfield_order_parameter_monotone_and_continuous():
    lam = 0.3
    tc = lmg_meanfield_critical_temperature(lam)
    ts = np.linspace(0.2, tc * 0.999, 25)
    ms = [lmg_meanfield_m_x(1.0 / t, lam) for t in ts]
    assert all(b < a for a, b in zip(ms, ms[1:]))
    assert ms[-1] < 0.1  # second-order: vanishes approaching the line


def test_meanfield_solve_domain():
    with pytest.raises(DomainError):
        lmg_meanfield_m_x(-1.0, 0.3)
    for lam in (-0.1, math.nan):
        with pytest.raises(DomainError, match="lam must be >= 0 and finite"):
            lmg_meanfield_m_x(2.0, lam)


def test_critical_temperature_endpoints_and_value():
    assert lmg_meanfield_critical_temperature(0.0) == 1.0
    assert lmg_meanfield_critical_temperature(1.0) == 0.0
    assert lmg_meanfield_critical_temperature(0.8) == pytest.approx(TC_08, abs=1e-14)
    with pytest.raises(DomainError):
        lmg_meanfield_critical_temperature(1.1)


def test_critical_temperature_matches_solver_onset():
    lam = 0.6
    tc = lmg_meanfield_critical_temperature(lam)
    assert lmg_meanfield_m_x(1.0 / (tc * 0.999), lam) > 0.0
    assert lmg_meanfield_m_x(1.0 / (tc * 1.001), lam) == 0.0


def test_catalog_model_metadata():
    model = Lmg(64, 0.2)
    assert model.name == "lmg"
    assert model.size_hint == 64
    energies, weights = _full_levels(64, 0.2, 0.5)
    assert model.log_z(1.0, 0.5) == pytest.approx(
        float(logsumexp(weights - energies)), abs=1e-12
    )


def test_catalog_model_even_in_field():
    # a pi rotation about x flips the field sign; the central stencil
    # therefore works at lam = 0
    model = Lmg(24, 0.2)
    assert model.log_z(1.0, -0.3) == model.log_z(1.0, 0.3)
    chi0 = core.susceptibility_lambda(model, core.ThermoPoint(1.0, 0.0), 1e-3)
    assert math.isfinite(chi0)
