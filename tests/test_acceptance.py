"""Acceptance suite: one test per exit criterion, with a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import json
import math
import time

import numpy as np

from thermofid import cli, core, exact, scan
from thermofid.lmg import lmg_meanfield_critical_temperature
from thermofid.models import Dicke, Tim1D, TwoLevel, dicke_critical_temperature

ISING_TC = 2.269185314213022   # 2 / ln(1 + sqrt 2)
DIP_SCALE = 2.0653381389747034  # root of x tanh x = 2: dip sits at T = gap/x


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def chain3(lam):
    return exact.spin_chain_hamiltonian(3, 1.0, lam)


def test_criterion_1_ising_critical_point(tmp_path):
    config = {
        "model": {"name": "ising2d", "coupling_j": 1.0},
        "grid": {"lambda": [0.0], "t": {"start": 1.5, "stop": 3.5, "step": 0.005}},
        "delta_t": 0.01,
        "fields": ["F_beta"],
        "detect": {"minima": "F_beta"},
        "output_dir": str(tmp_path / "out"),
        "threads": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    started = time.perf_counter()
    result = cli.cmd_scan(str(path))
    elapsed = time.perf_counter() - started

    points = result["critical_lines"][0]["points"]
    assert len(points) == 1
    t_min = points[0][1]
    minima_file = tmp_path / "out" / "minima.csv"
    assert minima_file.exists()
    ok = abs(t_min - ISING_TC) <= 0.02 and elapsed < 30.0
    report("criterion 1 (square-lattice Ising critical point)", ok,
           f"fidelity minimum at T={t_min:.4f} vs {ISING_TC:.4f} "
           f"(|diff|={abs(t_min - ISING_TC):.4f} <= 0.02), runtime {elapsed:.1f}s < 30s")


def test_criterion_2_temperature_fidelity_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(20250811)
    worst = 0.0
    for _ in range(50):
        # unit-spectral-norm ensemble: populations stay far above the
        # precision floor of the clamped-square-root pipeline
        dim = int(rng.integers(2, 65))
        a = rng.standard_normal((dim, dim))
        h = 0.5 * (a + a.T)
        h /= exact.spectral_norm(h)
        beta0, beta1 = rng.uniform(0.2, 2.5, size=2)
        model = exact.DenseModel(_FixedHamiltonian(h), "random_dense")
        log_space = core.fidelity_beta(model, beta0, beta1, 0.0)
        dense = exact.uhlmann_fidelity(exact.gibbs_state(h, beta0),
                                       exact.gibbs_state(h, beta1))
        worst = max(worst, abs(log_space - dense))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 60.0
    report("criterion 2 (temperature fidelity matches dense pipeline)", ok,
           f"max |difference| = {worst:.3e} < 1e-10 over 50 systems (dim <= 64), "
           f"runtime {elapsed:.1f}s < 60s")


class _FixedHamiltonian:
    def __init__(self, h):
        self.h = h

    def __call__(self, lam):
        return self.h


def test_criterion_3_susceptibility_consistency():
    model = Tim1D()

    def worst_rel(frac):
        worst = 0.0
        for t in np.linspace(0.2, 2.0, 10):
            point = core.ThermoPoint(1.0 / t, 1.0)
            cv = core.specific_heat(model, point, frac * t)
            chi_beta = core.fidelity_susceptibility_beta(model, point, frac * t)
            worst = max(worst, abs(4.0 * point.beta**2 * chi_beta - cv) / cv)
        return worst

    base = worst_rel(1e-3)
    halved = worst_rel(5e-4)
    ratio = base / halved
    ok = base < 1e-2 and 1.6 < ratio < 2.4
    report("criterion 3 (chi_beta vs Cv consistency)", ok,
           f"max |4 b^2 chi_beta - Cv|/Cv = {base:.2e} < 1e-2 at dT/T=1e-3; "
           f"halving dT shrinks it by {ratio:.2f}x (linear in dT)")


def test_criterion_4a_field_fidelity_bound():
    # two fidelities differ by at most 1, so only a bound below 1 can fail;
    # at beta = 1 the bound is 8.9-42, at beta <= 0.5 it stays below 0.5
    model = exact.DenseModel(chain3, "chain3")
    samples = []
    ok = True
    for beta in (0.125, 0.25, 0.5):
        for dlam in (0.1, 0.05, 0.025):
            exact_f = exact.fidelity_lambda_exact(chain3(0.5), chain3(0.5 + dlam), beta)
            approx_f = core.fidelity_lambda_approx(model, beta, 0.5, 0.5 + dlam)
            bound = exact.trotter_bound(chain3(0.5), chain3(0.5 + dlam), beta)
            err = abs(exact_f - approx_f)
            ok = ok and bound < 1.0 and err <= bound + 1e-12
            samples.append(f"b={beta},dl={dlam}: err={err:.2e}<=bound={bound:.2e}<1")
    report("criterion 4a (commuting approximation within product-formula bound)",
           ok, "; ".join(samples))


def bkm_sld_metrics(h, v, beta):
    """Kubo-Mori (BKM) and SLD metrics of the Gibbs family of H + lam V at H.

    Both come from the spectrum of H alone; I_BKM = d2 lnZ/dlam2 and I_SLD is
    the quantum Fisher information (Petz 1996; Zanardi et al. 2007).
    """
    energies, vecs = np.linalg.eigh(h)
    weights = np.exp(-beta * (energies - energies.min()))
    p = weights / weights.sum()
    v_eig = vecs.T @ v @ vecs
    gap = energies[None, :] - energies[:, None]          # E_j - E_i
    degenerate = np.abs(gap) <= 1e-10 * max(1.0, np.abs(energies).max())
    k = np.where(degenerate, p[:, None],
                 (p[:, None] - p[None, :]) / (beta * np.where(degenerate, 1.0, gap)))
    mean_v = float(p @ np.diag(v_eig))
    i_bkm = beta**2 * (float(np.sum(v_eig**2 * k)) - mean_v**2)
    d_rho = -beta * (v_eig * k - np.diag(p * mean_v))
    i_sld = 2.0 * float(np.sum(d_rho**2 / (p[:, None] + p[None, :])))
    return i_bkm, i_sld


def test_criterion_4b_field_fidelity_error_slope():
    # lnF_approx = -(dlam^2/8) I_BKM and F_exact = 1 - (dlam^2/8) I_SLD, so the
    # error is (dlam^2/8)(I_BKM - I_SLD) > 0 at leading order: quadratic, not
    # cubic, whenever [H, dH/dlam] != 0 as on this chain.
    beta, lam0 = 1.0, 0.5
    model = exact.DenseModel(chain3, "chain3")
    v = chain3(1.0) - chain3(0.0)
    deltas = np.array([0.1, 0.05, 0.025])
    errors, ratios = [], []
    for dlam in deltas:
        exact_f = exact.fidelity_lambda_exact(chain3(lam0), chain3(lam0 + dlam), beta)
        approx_f = core.fidelity_lambda_approx(model, beta, lam0, lam0 + dlam)
        err = exact_f - approx_f
        i_bkm, i_sld = bkm_sld_metrics(chain3(lam0 + 0.5 * dlam), v, beta)
        errors.append(err)
        ratios.append(err / dlam**2 / ((i_bkm - i_sld) / 8.0))
    positive = all(err > 0.0 for err in errors)
    slope = (float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
             if positive else math.nan)
    worst = max(ratios, key=lambda r: abs(r - 1.0))
    ok = positive and abs(slope - 2.0) <= 0.1 and abs(worst - 1.0) <= 0.01
    report("criterion 4b (commuting-approximation error is (dlam^2/8)(I_BKM - I_SLD))",
           ok,
           f"F_exact - F_approx > 0 at every dlam: {positive}; log-log slope "
           f"{slope:.3f} (2 +- 0.1); worst err/dlam^2 over (I_BKM - I_SLD)/8 "
           f"= {worst:.5f} (1 +- 0.01)")


def test_criterion_5_dicke_type_b(tmp_path):
    started = time.perf_counter()
    tc = dicke_critical_temperature(1.5)
    t_axis = np.linspace(0.85, 1.30, 91)
    grid = scan.ScanGrid(np.array([1.5]), t_axis, delta_t=0.002)
    field = scan.sweep(Dicke(n_atoms=200), grid, ["Cv"], threads=1)[0]
    line = scan.locate_jumps(field, jump_threshold=2.0)
    assert len(line.points) == 1
    t_jump = line.points[0][1]
    rel = abs(t_jump - tc) / tc

    verdict = scan.classify_transition(Dicke(), 1.5, [50, 100, 200], t_axis, 0.002)
    elapsed = time.perf_counter() - started
    ok = rel < 0.05 and verdict == scan.TYPE_B and elapsed < 300.0
    report("criterion 5 (Dicke jump location and TypeB classification)", ok,
           f"jump at T={t_jump:.4f} vs T_c={tc:.4f} ({100 * rel:.2f}% < 5%), "
           f"classification={verdict}, runtime {elapsed:.0f}s < 300s")


def test_criterion_6_tim_crossover():
    verdict = scan.classify_transition(
        Tim1D(), 0.9, [100, 200, 400],
        np.round(np.arange(0.3, 1.50001, 0.025), 10), 0.002,
    )

    lam_axis = np.array([0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9])
    t_axis = np.round(np.arange(0.04, 1.2001, 0.005), 10)
    grid = scan.ScanGrid(lam_axis, t_axis, delta_t=0.01)
    field = scan.sweep(Tim1D(), grid, ["F_beta"], threads=1)[0]
    line = scan.locate_minima(field)
    ridge = [t for _, t in line.points]
    monotone = len(ridge) == lam_axis.size and all(
        b < a for a, b in zip(ridge, ridge[1:])
    )
    ok = verdict == scan.CROSSOVER and monotone
    report("criterion 6 (transverse-chain crossover)", ok,
           f"classification={verdict}; fidelity-minimum ridge "
           f"{[round(t, 3) for t in ridge]} monotone decreasing toward lam=1: {monotone}")


def test_criterion_7_lmg_jump_lines(tmp_path):
    from thermofid.lmg import Lmg

    started = time.perf_counter()
    model = Lmg(800, 0.2)
    lam_axis = np.array([0.2, 0.4, 0.6, 0.8])

    grid_chi = scan.ScanGrid(lam_axis, np.round(np.arange(0.40, 1.15001, 0.01), 10),
                             delta_t=0.002, delta_lambda=0.002)
    chi_field = scan.sweep(model, grid_chi, ["chi"], threads=1)[0]
    chi_points = dict(scan.locate_jumps(chi_field, jump_threshold=5.0).points)

    grid_cv = scan.ScanGrid(lam_axis, np.round(np.arange(0.62, 1.15001, 0.01), 10),
                            delta_t=0.002)
    cv_field = scan.sweep(model, grid_cv, ["Cv"], threads=1)[0]
    cv_points = dict(scan.locate_jumps(cv_field, jump_threshold=3.0).points)

    details = []
    worst = 0.0
    for lam in lam_axis:
        tc = lmg_meanfield_critical_temperature(lam)
        for tag, points in (("chi", chi_points), ("Cv", cv_points)):
            err = abs(points[lam] - tc) if lam in points else math.inf
            worst = max(worst, err)
            details.append(f"{tag}@{lam}: {err:.3f}")
    endpoints_exact = (lmg_meanfield_critical_temperature(0.0) == 1.0
                       and lmg_meanfield_critical_temperature(1.0) == 0.0)
    elapsed = time.perf_counter() - started
    ok = worst <= 0.05 and endpoints_exact and elapsed < 600.0
    report("criterion 7 (collective-spin jump lines vs mean field)", ok,
           f"|T_jump - T_c| per point: {', '.join(details)} (max {worst:.3f} <= 0.05); "
           f"T_c(0)=1 and T_c(1)=0 exact: {endpoints_exact}; "
           f"runtime {elapsed:.0f}s < 600s at grid step 0.01")


def test_criterion_8_thermal_attenuation():
    # fixed-height specific-heat peak translated in T: the fidelity dip
    # depth must scale as 1/T^2
    products = []
    for gap in (0.5, 1.0, 2.0):
        t_peak = gap / DIP_SCALE
        t_axis = np.linspace(0.5 * t_peak, 2.5 * t_peak, 321)
        grid = scan.ScanGrid(np.array([0.0]), t_axis, delta_t=1e-3)
        field = scan.sweep(TwoLevel(gap=gap), grid, ["F_beta"], threads=1)[0]
        k = int(np.argmin(field.values[0]))
        dip = 1.0 - field.values[0, k]
        products.append(dip * t_axis[k] ** 2)
    spread = max(products) / min(products)
    ok = spread < 1.05
    report("criterion 8 (thermal-fluctuation attenuation of the dip)", ok,
           f"dip * T_peak^2 constant to {100 * (spread - 1):.2f}% over a 4x range "
           f"of peak temperatures (< 5%)")


def test_criterion_9_ground_state_limit():
    overlap = abs(np.vdot(exact.ground_state(chain3(0.5)),
                          exact.ground_state(chain3(0.6))))
    cold = exact.fidelity_lambda_exact(chain3(0.5), chain3(0.6), 200.0)
    diff = abs(cold - overlap)
    ok = diff < 1e-6
    report("criterion 9 (zero-temperature reduction to state overlap)", ok,
           f"|F(beta=200) - |<gs|gs'>|| = {diff:.2e} < 1e-6 on a gapped 8-dim system")
