"""Dense pipeline: Gibbs states, mixed-state fidelity, product-formula bound."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from thermofid import core
from thermofid.errors import DomainError, NegativeEigenvalue
from thermofid.exact import (
    DenseModel,
    fidelity_lambda_exact,
    gibbs_state,
    ground_state,
    kubo_mori_metric,
    sigma_x,
    sigma_z,
    spectral_norm,
    spin_chain_hamiltonian,
    trotter_bound,
    uhlmann_fidelity,
)

GIBBS_POPS = (0.8807970779778824, 0.11920292202211756)  # (e, 1/e)/(e + 1/e)
BHATTACHARYYA = 0.8944271909999159                      # sqrt(.45) + sqrt(.05)


def single_spin_field_hamiltonian(lam, transverse=0.3):
    """One spin in a longitudinal field lam with a fixed transverse component."""
    return -lam * sigma_z.real - transverse * sigma_x.real


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


def test_gibbs_zero_hamiltonian_is_maximally_mixed():
    rho = gibbs_state(np.zeros((5, 5)), 2.0)
    assert np.allclose(rho, np.eye(5) / 5.0, atol=1e-14)


def test_gibbs_two_level_populations():
    rho = gibbs_state(sigma_z.real, 1.0)
    assert rho[1, 1] == pytest.approx(GIBBS_POPS[0], abs=1e-14)
    assert rho[0, 0] == pytest.approx(GIBBS_POPS[1], abs=1e-14)


def test_gibbs_trace_exact():
    rng = np.random.default_rng(3)
    rho = gibbs_state(random_hermitian(rng, 12), 0.8)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)


def test_gibbs_low_temperature_projector():
    h = spin_chain_hamiltonian(3, 1.0, 0.5)
    rho = gibbs_state(h, 300.0)
    gs = ground_state(h)
    assert np.real(gs.conj() @ rho @ gs) == pytest.approx(1.0, abs=1e-10)


def test_gibbs_validation():
    with pytest.raises(DomainError):
        gibbs_state(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)  # not Hermitian
    with pytest.raises(DomainError):
        gibbs_state(np.zeros((2, 2)), -1.0)
    with pytest.raises(DomainError):
        gibbs_state(np.zeros((300, 300)), 1.0)  # above the dimension cap


def test_uhlmann_identical_states():
    rho = gibbs_state(sigma_x.real, 1.3)
    assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_uhlmann_commuting_closed_form():
    rho0 = np.diag([0.5, 0.5])
    rho1 = np.diag([0.9, 0.1])
    assert uhlmann_fidelity(rho0, rho1) == pytest.approx(BHATTACHARYYA, abs=1e-14)


def test_uhlmann_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = random_hermitian(rng, 8)
        rho0 = gibbs_state(h, rng.uniform(0.3, 2.0))
        rho1 = gibbs_state(random_hermitian(rng, 8), rng.uniform(0.3, 2.0))
        f01 = uhlmann_fidelity(rho0, rho1)
        f10 = uhlmann_fidelity(rho1, rho0)
        assert abs(f01 - f10) < 1e-10
        assert 0.0 <= f01 <= 1.0


def test_uhlmann_strictly_below_one_for_distinct_states():
    h = random_hermitian(np.random.default_rng(9), 8)
    rho0 = gibbs_state(h, 1.0)
    rho1 = gibbs_state(h, 1.01)
    assert np.abs(rho0 - rho1).max() > 1e-6
    assert uhlmann_fidelity(rho0, rho1) < 1.0 - 1e-9


def test_uhlmann_matches_log_space_ratio_for_common_hamiltonian():
    # temperature-only perturbations commute, so the partition-function
    # ratio is exact; this is the central cross-check of the kernel
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 8)
    model = DenseModel(lambda lam: h, "fixed")
    for beta0, beta1 in ((0.5, 0.9), (1.0, 1.7), (2.0, 2.01)):
        reference = uhlmann_fidelity(gibbs_state(h, beta0), gibbs_state(h, beta1))
        assert core.fidelity_beta(model, beta0, beta1, 0.0) == pytest.approx(
            reference, abs=1e-10
        )


def test_uhlmann_validation():
    with pytest.raises(DomainError):
        uhlmann_fidelity(np.diag([0.7, 0.7]), np.diag([0.5, 0.5]))  # trace != 1
    with pytest.raises(NegativeEigenvalue):
        uhlmann_fidelity(np.diag([1.001, -0.001]), np.diag([0.5, 0.5]))
    with pytest.raises(DomainError):
        uhlmann_fidelity(np.diag([0.5, 0.5]), np.diag([0.25, 0.25, 0.25, 0.25]))


def test_trotter_bound_zero_for_commuting():
    h0 = np.diag([1.0, -1.0, 0.5])
    h1 = np.diag([0.3, 0.7, -0.2])
    assert trotter_bound(h0, h1, 0.5) == 0.0


def test_trotter_bound_pauli_closed_form():
    # [sz, sx] = 2i sy; nested commutators have norm 4, so
    # D2 = (4 + 4/2)/12 = 1/2 and the bound is b^3/2 * e^{2b}
    beta = 0.1
    expected = beta**3 * 0.5 * math.exp(2.0 * beta)
    assert trotter_bound(sigma_z.real, sigma_x.real, beta) == pytest.approx(
        expected, rel=1e-12
    )


def test_trotter_bound_beta_scaling():
    h0 = spin_chain_hamiltonian(3, 1.0, 0.5)
    h1 = spin_chain_hamiltonian(3, 1.0, 0.6)
    beta = 0.4
    ratio = trotter_bound(h0, h1, 2 * beta) / trotter_bound(h0, h1, beta)
    expected = 8.0 * math.exp(beta * (spectral_norm(h0) + spectral_norm(h1)))
    assert ratio == pytest.approx(expected, rel=1e-10)


def test_field_fidelity_identity_and_bound():
    builder = lambda lam: spin_chain_hamiltonian(3, 1.0, lam)
    assert fidelity_lambda_exact(builder(0.5), builder(0.5), 1.0) == pytest.approx(
        1.0, abs=1e-12
    )
    model = DenseModel(builder, "chain")
    for beta in (0.25, 0.5, 1.0):
        for dlam in (0.1, 0.05):
            exact = fidelity_lambda_exact(builder(0.5), builder(0.5 + dlam), beta)
            approx = core.fidelity_lambda_approx(model, beta, 0.5, 0.5 + dlam)
            bound = trotter_bound(builder(0.5), builder(0.5 + dlam), beta)
            assert abs(exact - approx) <= bound + 1e-12


def test_single_spin_field_example_within_bound():
    builder = lambda lam: single_spin_field_hamiltonian(lam, 0.3)
    model = DenseModel(builder, "single_spin")
    exact = fidelity_lambda_exact(builder(0.5), builder(0.6), 1.0)
    approx = core.fidelity_lambda_approx(model, 1.0, 0.5, 0.6)
    bound = trotter_bound(builder(0.5), builder(0.6), 1.0)
    assert 0.0 < exact <= 1.0
    assert abs(exact - approx) <= bound


def test_ground_state_reduction_at_low_temperature():
    builder = lambda lam: spin_chain_hamiltonian(3, 1.0, lam)
    overlap = abs(np.vdot(ground_state(builder(0.5)), ground_state(builder(0.6))))
    cold = fidelity_lambda_exact(builder(0.5), builder(0.6), 200.0)
    assert abs(cold - overlap) < 1e-6


def test_spin_chain_builder_shapes():
    h = spin_chain_hamiltonian(3, 1.0, 0.7)
    assert h.shape == (8, 8)
    assert np.abs(h - h.T).max() == 0.0
    with pytest.raises(DomainError):
        spin_chain_hamiltonian(12, 1.0, 0.1)  # 2^12 above the cap


def test_single_spin_builder_matrix():
    h = single_spin_field_hamiltonian(0.5, 0.3)
    assert np.allclose(h, np.array([[-0.5, -0.3], [-0.3, 0.5]]))


def test_dense_model_log_z():
    h = spin_chain_hamiltonian(2, 1.0, 0.4)
    model = DenseModel(lambda lam: spin_chain_hamiltonian(2, 1.0, lam), "chain2")
    expected = float(logsumexp(-1.3 * np.linalg.eigvalsh(h)))
    assert model.log_z(1.3, 0.4) == pytest.approx(expected, abs=1e-12)
    assert model.size_hint is None
    with pytest.raises(DomainError):
        model.log_z(-1.0, 0.4)


def test_kubo_mori_metric_closed_forms():
    # commuting V = H: beta^2 Var(H)
    h = spin_chain_hamiltonian(2, 1.0, 0.4)
    w = np.linalg.eigvalsh(h)
    p = np.exp(-0.7 * w) / np.exp(-0.7 * w).sum()
    variance = p @ w**2 - (p @ w) ** 2
    assert kubo_mori_metric(h, h, 0.7) == pytest.approx(0.49 * variance, rel=1e-12)
    # one spin, H = -a sz - lam sx: lnZ = ln 2cosh(beta sqrt(a^2 + lam^2)),
    # whose second lam derivative at lam = 0 is beta tanh(beta a) / a
    a, beta = 0.5, 1.3
    h = single_spin_field_hamiltonian(a, transverse=0.0)
    v = single_spin_field_hamiltonian(0.0, transverse=1.0)
    assert kubo_mori_metric(h, v, beta) == pytest.approx(beta * np.tanh(beta * a) / a,
                                                         rel=1e-12)
