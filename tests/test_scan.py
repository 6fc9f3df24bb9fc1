"""Grid sweeps, line extraction, and transition classification."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from thermofid import core
from thermofid.errors import DomainError, EvaluationError, InsufficientSizes
from thermofid.models import Dicke, Ising2D, Tim1D, TwoLevel, TwoLevelField
from thermofid.scan import (
    CROSSOVER,
    CriticalLine,
    ScanField,
    ScanGrid,
    TYPE_A,
    check_fields,
    classify_transition,
    locate_jumps,
    locate_minima,
    sweep,
)


class FailingModel:
    """Evaluates like a free spin but fails above a temperature threshold."""

    name = "failing"
    size_hint = None

    def __init__(self, t_fail=1.0):
        self.beta_fail = 1.0 / t_fail

    def log_z(self, beta, lam):
        if beta < self.beta_fail:
            raise EvaluationError("unsupported corner")
        return float(np.logaddexp(beta, -beta))


class CountingModel(TwoLevel):
    """Free spin that counts its lnZ evaluations."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "calls", 0)

    def log_z(self, beta, lam):
        object.__setattr__(self, "calls", self.calls + 1)
        return super().log_z(beta, lam)


def synthetic_field(lam_axis, t_axis, values):
    grid = ScanGrid(np.asarray(lam_axis), np.asarray(t_axis), delta_t=1e-3)
    return ScanField("synthetic", grid, np.asarray(values, dtype=float))


def test_grid_validation():
    with pytest.raises(DomainError):
        ScanGrid(np.array([0.0, 0.0]), np.array([1.0, 2.0]), delta_t=0.1)
    with pytest.raises(DomainError):
        ScanGrid(np.array([0.0]), np.array([2.0, 1.0]), delta_t=0.1)
    with pytest.raises(DomainError):
        ScanGrid(np.array([0.0]), np.array([0.05, 1.0]), delta_t=0.2)
    with pytest.raises(DomainError):
        ScanGrid(np.array([0.0]), np.array([1.0]), delta_t=-0.1)
    grid = ScanGrid(np.array([0.0]), np.array([1.0, 2.0]), delta_t=0.1)
    assert grid.shape == (1, 2)


@pytest.mark.parametrize("args, key", [
    ((np.array([0.0, 0.0]), np.array([1.0]), 0.1), "lambda_axis"),
    ((np.array([0.0]), np.array([0.05, 1.0]), 0.2), "t_axis"),
    ((np.array([0.0]), np.array([-1.0, 1.0]), None), "t_axis"),
    ((np.array([0.0]), np.array([1.0]), 0.0), "delta_t"),
    ((np.array([0.0]), np.array([1.0]), 0.1, -0.1), "delta_lambda"),
])
def test_grid_errors_name_the_parameter(args, key):
    with pytest.raises(DomainError) as info:
        ScanGrid(*args)
    assert info.value.key == key


def test_check_fields_names_the_parameter():
    grid = ScanGrid(np.array([0.0]), np.array([1.0]), delta_t=0.01)
    for fields, key in ((["Cw"], "fields"), ([], "fields"), (["chi_lambda"], "delta_lambda")):
        with pytest.raises(DomainError) as info:
            check_fields(fields, grid)
        assert info.value.key == key
    with pytest.raises(DomainError) as info:
        check_fields(["Cv"], ScanGrid(np.array([0.0]), np.array([1.0]), delta_t=None))
    assert info.value.key == "delta_t"
    check_fields(["F_beta", "Cv", "chi_beta"], grid)


def test_field_shape_validation():
    grid = ScanGrid(np.array([0.0, 1.0]), np.array([1.0, 2.0, 3.0]), delta_t=0.1)
    with pytest.raises(DomainError):
        ScanField("bad", grid, np.zeros((3, 2)))


def test_single_cell_sweep_matches_kernel_directly():
    grid = ScanGrid(np.array([0.4]), np.array([1.25]), delta_t=0.01, delta_lambda=0.01)
    model = TwoLevelField()
    fields = sweep(model, grid, ["F_beta", "Cv", "chi", "chi_beta", "chi_lambda"])
    by = {f.name: f.values[0, 0] for f in fields}
    beta = 1.0 / 1.25
    point = core.ThermoPoint(beta, 0.4)
    assert by["F_beta"] == core.fidelity_beta(model, beta, 1.0 / 1.26, 0.4)
    assert by["Cv"] == core.specific_heat(model, point, 0.01)
    assert by["chi"] == core.susceptibility_lambda(model, point, 0.01)
    assert by["chi_beta"] == core.fidelity_susceptibility_beta(model, point, 0.01)
    assert by["chi_lambda"] == core.fidelity_susceptibility_lambda(model, beta, 0.4, 0.01)


def test_sweep_validates_requests():
    grid = ScanGrid(np.array([0.0]), np.array([1.0]), delta_t=0.01)
    with pytest.raises(DomainError):
        sweep(TwoLevel(), grid, ["not_a_field"])
    with pytest.raises(DomainError):
        sweep(TwoLevel(), grid, [])
    with pytest.raises(DomainError):
        sweep(TwoLevel(), grid, ["chi"])  # needs delta_lambda


def test_sweep_shares_lnz_calls_within_a_cell():
    # F_beta and chi_beta share 1/(T + delta_t) and its midpoint, Cv shares
    # beta: 5 distinct lnZ points per cell, also where 1/(1/T) != T
    t_axis = np.linspace(0.5, 2.0, 61)
    assert any(1.0 / (1.0 / t) != t for t in t_axis)
    model = CountingModel()
    grid = ScanGrid(np.array([0.0]), t_axis, delta_t=0.01)
    sweep(model, grid, ["F_beta", "Cv", "chi_beta"], threads=1)
    assert model.calls == 5 * t_axis.size


def test_sweep_shares_lnz_calls_across_a_column():
    # one memo serves a whole lam column: on a T step of delta_t / 2 the Cv
    # stencil points of neighbouring cells coincide bitwise with each other
    # and with their beta values
    t_axis = np.linspace(1.5, 3.5, 401)
    model = CountingModel()
    grid = ScanGrid(np.array([0.0]), t_axis, delta_t=0.01)
    sweep(model, grid, ["F_beta", "Cv", "chi_beta"], threads=1)
    assert model.calls == 1100


def test_sweep_rejects_lambda_outside_model_domain():
    model = CountingModel()
    object.__setattr__(model, "lambda_domain", (0.0, 0.0))
    grid = ScanGrid(np.array([0.0, 0.1]), np.linspace(1.0, 2.0, 3), delta_t=0.01)
    with pytest.raises(DomainError) as info:
        sweep(model, grid, ["Cv"], threads=1)
    assert info.value.key == "lambda_axis"
    assert model.calls == 0
    with pytest.raises(DomainError) as info:
        sweep(Ising2D(), grid, ["Cv"], threads=2)
    assert info.value.key == "lambda_axis"
    # at lam = 0 the chi stencil still steps to lam -+ delta_lambda / 2
    grid = ScanGrid(np.array([0.0]), np.linspace(2.0, 2.5, 3), delta_t=0.01, delta_lambda=0.01)
    with pytest.raises(DomainError) as info:
        sweep(Ising2D(), grid, ["Cv", "chi"], threads=2)
    assert info.value.key == "delta_lambda"


def test_benchmark_tracer_sees_column_sweep(tmp_path):
    # bench/tracer.py wraps core's field functions and each model's log_z
    # after import; a sweep must still go through the wrapped attributes
    root = pathlib.Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from tracer import Tracer\n"
        "from thermofid import models, scan\n"
        "tracer = Tracer(sys.argv[1]).install()\n"
        "grid = scan.ScanGrid([0.0], [1.0, 1.5], delta_t=0.01)\n"
        "scan.sweep(models.TwoLevel(), grid, ['F_beta', 'Cv'], threads=1)\n"
        "tracer.dump()\n"
    )
    path = os.pathsep.join([str(root / "src"), str(root / "bench"),
                            os.environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", script, str(tmp_path)], check=True,
                   env={**os.environ, "PYTHONPATH": path})
    (dump,) = tmp_path.glob("spans-*.json")
    names = [span[0] for span in json.loads(dump.read_text())["spans"]]
    assert names.count("core.specific_heat") == 2
    assert names.count("core.fidelity_beta") == 2
    assert "models.two_level.log_z" in names


def test_sweep_records_failures_as_nan():
    grid = ScanGrid(np.array([0.0]), np.linspace(0.5, 1.5, 5), delta_t=0.01)
    field = sweep(FailingModel(t_fail=1.0), grid, ["F_beta"])[0]
    assert field.missing_cells() == 3  # T > 1 fails, and T=1.0 needs T+dT
    assert np.isfinite(field.values[0, :2]).all()


def test_sweep_parallel_bitwise_identical():
    # more columns than workers, one column, and more workers than columns
    for lam_axis, threads in ((np.linspace(0.1, 0.9, 3), 2), (np.array([0.4]), 2),
                              (np.array([0.2, 0.7]), 3)):
        grid = ScanGrid(lam_axis, np.linspace(0.8, 1.6, 5), delta_t=0.01, delta_lambda=0.01)
        serial = sweep(TwoLevelField(), grid, ["F_beta", "Cv", "chi"], threads=1)
        parallel = sweep(TwoLevelField(), grid, ["F_beta", "Cv", "chi"], threads=threads)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.values, b.values)


def test_fidelity_field_in_unit_interval():
    grid = ScanGrid(np.array([0.5, 1.0]), np.linspace(0.3, 2.0, 12), delta_t=0.002)
    field = sweep(Tim1D(), grid, ["F_beta"])[0]
    assert (field.values > 0.0).all()
    assert (field.values <= 1.0).all()


def test_locate_minima_parabolic_refinement():
    t_axis = np.linspace(0.0, 2.0, 21) + 1.0
    true_min = 1.83
    values = [(t_axis - true_min) ** 2]
    line = locate_minima(synthetic_field([0.0], t_axis, values))
    assert line.detection == "minimum"
    assert line.points[0][1] == pytest.approx(true_min, abs=1e-12)


def test_locate_minima_excludes_monotone_columns():
    t_axis = np.linspace(1.0, 2.0, 11)
    rising = t_axis.copy()
    dipped = (t_axis - 1.5) ** 2
    field = synthetic_field([0.0, 1.0], t_axis, [rising, dipped])
    line = locate_minima(field)
    assert [p[0] for p in line.points] == [1.0]
    empty = locate_minima(synthetic_field([0.0], t_axis, [rising]))
    assert empty == CriticalLine((), "minimum")


def test_locate_minima_handles_nan_neighbors():
    t_axis = np.linspace(1.0, 2.0, 11)
    col = (t_axis - 1.5) ** 2
    col[4] = np.nan  # neighbor of the minimum at index 5
    line = locate_minima(synthetic_field([0.0], t_axis, [col]))
    assert line.points[0][1] == pytest.approx(t_axis[5], abs=1e-12)


def test_locate_jumps_isolated_step_midpoint():
    t_axis = np.linspace(1.0, 2.0, 11)
    col = np.where(t_axis < 1.55, 1.0, 3.0) + 0.001 * t_axis
    line = locate_jumps(synthetic_field([0.0], t_axis, [col]), jump_threshold=20.0)
    assert line.detection == "jump"
    assert line.points[0][1] == pytest.approx(1.55, abs=1e-12)


def test_locate_jumps_smooth_field_empty():
    t_axis = np.linspace(1.0, 2.0, 41)
    col = np.sin(2.0 * t_axis) + 0.3 * t_axis
    line = locate_jumps(synthetic_field([0.0], t_axis, [col]), jump_threshold=20.0)
    assert line.points == ()


def test_locate_jumps_constant_column_empty():
    t_axis = np.linspace(1.0, 2.0, 11)
    line = locate_jumps(synthetic_field([0.0], t_axis, [np.ones(11)]), jump_threshold=20.0)
    assert line.points == ()


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
def test_locate_jumps_rejects_non_positive_threshold(threshold):
    # a threshold <= 0 flags every nonzero step of a smooth column as a jump
    t_axis = np.linspace(1.0, 2.0, 21)
    with pytest.raises(DomainError) as info:
        locate_jumps(synthetic_field([0.0], t_axis, [t_axis**2]), jump_threshold=threshold)
    assert info.value.key == "jump_threshold"


def test_locate_jumps_requires_uniform_axis():
    t_axis = np.array([1.0, 1.1, 1.3, 1.4])
    with pytest.raises(DomainError):
        locate_jumps(synthetic_field([0.0], t_axis, [np.zeros(4)]))


def test_locate_jumps_rounded_discontinuity_centroid():
    # a tanh-rounded step: the centroid of the flagged run recovers the center
    t_axis = np.linspace(1.0, 3.0, 81)
    center = 2.013
    col = np.tanh((t_axis - center) / 0.04)
    line = locate_jumps(synthetic_field([0.0], t_axis, [col]), jump_threshold=10.0)
    assert line.points[0][1] == pytest.approx(center, abs=0.02)


def test_dicke_crossover_minima_exist_in_normal_phase():
    # fidelity dips below the transition coupling even though nothing is critical
    grid = ScanGrid(np.array([0.5]), np.linspace(0.2, 1.4, 41), delta_t=0.005)
    field = sweep(Dicke(n_atoms=30), grid, ["F_beta"])[0]
    line = locate_minima(field)
    assert len(line.points) == 1
    assert 0.2 < line.points[0][1] < 1.4


def test_ising_minimum_aligns_with_cv_peak():
    # at a sharp critical feature the fidelity dip and the specific-heat
    # argmax sit within one grid cell of each other
    t_axis = np.round(np.arange(2.1, 2.45001, 0.005), 10)
    grid = ScanGrid(np.array([0.0]), t_axis, delta_t=0.01)
    fields = sweep(Ising2D(), grid, ["F_beta", "Cv"])
    by = {f.name: f for f in fields}
    k_min = int(np.nanargmin(by["F_beta"].values[0]))
    k_max = int(np.nanargmax(by["Cv"].values[0]))
    assert abs(k_min - k_max) <= 1


def test_classify_validation():
    t_axis = np.linspace(0.5, 1.5, 11)
    with pytest.raises(InsufficientSizes):
        classify_transition(lambda n: Tim1D(n_sites=n), 0.5, [10, 20], t_axis, 0.01)
    with pytest.raises(DomainError):
        classify_transition(lambda n: Tim1D(n_sites=n), 0.5, [10, 10, 20], t_axis, 0.01)


def test_classify_tim_crossover():
    t_axis = np.round(np.arange(0.3, 1.50001, 0.025), 10)
    verdict = classify_transition(lambda n: Tim1D(n_sites=n), 0.9,
                                  [100, 200, 400], t_axis, 0.002)
    assert verdict == CROSSOVER


def test_classify_ising_divergence():
    t_axis = np.round(np.arange(2.0, 2.60001, 0.005), 10)
    verdict = classify_transition(lambda n: Ising2D(n_sites=n), 0.0,
                                  [100, 200, 400], t_axis, 0.01)
    assert verdict == TYPE_A


def test_classify_synthetic_growing_peak_is_type_a():
    class PeakModel:
        """Free-spin thermodynamics whose per-site peak grows like sqrt(N)."""

        name = "peak"

        def __init__(self, n):
            self.size_hint = n

        def log_z(self, beta, lam):
            return self.size_hint**1.5 * float(np.logaddexp(beta, -beta))

    t_axis = np.linspace(0.5, 1.5, 21)
    verdict = classify_transition(PeakModel, 0.0, [10, 100, 1000], t_axis, 0.01)
    assert verdict == TYPE_A


def test_chi_beta_cv_field_identity():
    # 4 chi_beta / T^2 tracks Cv across the whole grid to O(delta_t / T)
    grid = ScanGrid(np.array([0.5, 1.0]), np.linspace(0.4, 2.0, 9),
                    delta_t=0.002)
    fields = sweep(Tim1D(), grid, ["Cv", "chi_beta"])
    by = {f.name: f for f in fields}
    t = grid.t_axis[np.newaxis, :]
    rel = np.abs(4.0 * by["chi_beta"].values / t**2 - by["Cv"].values) / by["Cv"].values
    assert rel.max() < 0.06


def test_critical_line_structure():
    line = CriticalLine(((0.0, 1.5),), "minimum")
    assert line.classification == "Undetermined"
