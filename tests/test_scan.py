"""Grid sweeps, line extraction, and transition classification."""

import json
import math
import os
import pathlib
import signal
import subprocess
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofid import core, scan
from thermofid.errors import DomainError, EvaluationError, InsufficientSizes, StepTooSmall
from thermofid.models import Dicke, Ising2D, Tim1D, TwoLevel, TwoLevelField
from thermofid.scan import (
    CROSSOVER,
    CriticalLine,
    ScanField,
    ScanGrid,
    TYPE_A,
    TYPE_B,
    UNDETERMINED,
    check_request,
    classify_transition,
    locate_jumps,
    locate_minima,
    sweep,
)


class FailingModel(core.ThermoModel):
    """Evaluates like a free spin but fails above a temperature threshold.

    Its lnZ is NaN at a failing beta, which log_z keeps for an array call and
    raises as EvaluationError for a float call.
    """

    name = "failing"

    def __init__(self, t_fail=1.0):
        self.beta_fail = 1.0 / t_fail

    def _log_z(self, beta, lam):
        return np.where(beta < self.beta_fail, np.nan, np.logaddexp(beta, -beta))


class CountingModel(TwoLevel):
    """Free spin that counts its lnZ calls, each of which may take a beta array."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "calls", 0)

    def log_z(self, beta, lam):
        object.__setattr__(self, "calls", self.calls + 1)
        return super().log_z(beta, lam)


class RecordingModel(TwoLevel):
    """Free spin that keeps the beta array of each lnZ call."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "betas", [])

    def log_z(self, beta, lam):
        self.betas.append(np.array(beta, copy=True))
        return super().log_z(beta, lam)


def synthetic_field(lam_axis, t_axis, values):
    grid = ScanGrid(np.asarray(lam_axis), np.asarray(t_axis), delta_t=1e-3)
    return ScanField("synthetic", grid, np.asarray(values, dtype=float))


# each sweep field as its core field function at one cell
SCALAR_FIELDS = {
    "F_beta": lambda model, point, dt, dlam: core.fidelity_beta(
        model, point.beta, 1.0 / (point.temperature + dt), point.lam),
    "Cv": lambda model, point, dt, dlam: core.specific_heat(model, point, dt),
    "chi": lambda model, point, dt, dlam: core.susceptibility_lambda(model, point, dlam),
    "chi_beta": lambda model, point, dt, dlam: core.fidelity_susceptibility_beta(
        model, point, dt),
    "chi_lambda": lambda model, point, dt, dlam: core.fidelity_susceptibility_lambda(
        model, point.beta, point.lam, dlam),
}


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
    ((np.array([0.0]), np.array([1.0]), math.inf), "delta_t"),
])
def test_grid_errors_name_the_parameter(args, key):
    with pytest.raises(DomainError) as info:
        ScanGrid(*args)
    assert info.value.key == key


def test_check_fields_names_the_parameter():
    grid = ScanGrid(np.array([0.0]), np.array([1.0]), delta_t=0.01)
    for fields, key in ((["Cw"], "fields"), ([], "fields"), (["chi_lambda"], "delta_lambda")):
        with pytest.raises(DomainError) as info:
            check_request(TwoLevel(), grid, fields)
        assert info.value.key == key
    for fields in (["Cv"], ["F_beta"]):
        with pytest.raises(DomainError) as info:
            check_request(TwoLevel(), ScanGrid(np.array([0.0]), np.array([1.0]), delta_t=None),
                          fields)
        assert info.value.key == "delta_t"
    check_request(TwoLevel(), grid, ["F_beta", "Cv", "chi_beta"])


def test_field_shape_validation():
    grid = ScanGrid(np.array([0.0, 1.0]), np.array([1.0, 2.0, 3.0]), delta_t=0.1)
    with pytest.raises(DomainError):
        ScanField("bad", grid, np.zeros((3, 2)))


def test_single_cell_sweep_matches_kernel_directly():
    for model, lam, fields in (
        (TwoLevelField(), 0.4, ["F_beta", "Cv", "chi", "chi_beta", "chi_lambda"]),
        (Tim1D(), 0.4, ["F_beta", "Cv", "chi", "chi_beta", "chi_lambda"]),
        (Ising2D(), 0.0, ["F_beta", "Cv", "chi_beta"]),
    ):
        grid = ScanGrid(np.array([lam]), np.array([1.25]), delta_t=0.01, delta_lambda=0.01)
        by = {f.name: f.values[0, 0] for f in sweep(model, grid, fields)}
        point = core.ThermoPoint(1.0 / 1.25, lam)
        assert by == {name: SCALAR_FIELDS[name](model, point, 0.01, 0.01) for name in fields}


def test_sweep_validates_requests():
    grid = ScanGrid(np.array([0.0]), np.array([1.0]), delta_t=0.01)
    with pytest.raises(DomainError):
        sweep(TwoLevel(), grid, ["not_a_field"])
    with pytest.raises(DomainError):
        sweep(TwoLevel(), grid, [])
    with pytest.raises(DomainError):
        sweep(TwoLevel(), grid, ["chi"])  # needs delta_lambda


def test_sweep_shares_lnz_calls_within_a_cell():
    # F_beta and chi_beta share 1/(T + delta_t) and its midpoint bitwise, Cv
    # shares beta: the 9 stencil points of a cell are 5 distinct betas, also
    # where 1/(1/T) != T, and one lnZ call takes each of them once
    t_axis = np.linspace(0.5, 2.0, 61)
    assert any(1.0 / (1.0 / t) != t for t in t_axis)
    model = RecordingModel()
    grid = ScanGrid(np.array([0.0]), t_axis, delta_t=0.01)
    sweep(model, grid, ["F_beta", "Cv", "chi_beta"], threads=1)
    (betas,) = model.betas
    beta = 1.0 / t_axis
    t = 1.0 / beta
    partner = 1.0 / (t + 0.01)
    cells = np.stack([beta, partner, 0.5 * (beta + partner), 1.0 / (t - 0.005),
                      1.0 / (t + 0.005)], axis=1)
    assert [len(set(cell)) for cell in cells.tolist()] == [5] * t_axis.size
    assert sorted(betas.tolist()) == sorted(set(cells.ravel().tolist()))


def test_sweep_shares_lnz_calls_across_a_column():
    # one lnZ call takes the column's distinct betas and serves every cell of
    # it and every field reading lnZ at the column's lam, whatever the length
    # of the T axis
    calls = []
    for size in (5, 401):
        model = CountingModel()
        grid = ScanGrid(np.array([0.0, 0.5]), np.linspace(1.5, 3.5, size), delta_t=0.01)
        sweep(model, grid, ["F_beta", "Cv", "chi_beta"], threads=1)
        calls.append(model.calls)
    assert calls == [2 * 1, 2 * 1]


class PairRecordingModel(TwoLevelField):
    """Spin in a field that keeps every (beta, lam) its lnZ calls take."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "calls", [])

    def log_z(self, beta, lam):
        self.calls.append([(b, float(lam)) for b in np.atleast_1d(beta).tolist()])
        return super().log_z(beta, lam)


def test_sweep_evaluates_each_distinct_point_of_a_column_once():
    # a T step of delta_t / 2 puts one row's Cv points on its neighbours' betas
    lam_axis, t_axis = np.array([0.3, 0.7]), np.round(np.arange(0.5, 0.8, 0.005), 10)
    swept, direct = PairRecordingModel(), PairRecordingModel()
    grid = ScanGrid(lam_axis, t_axis, delta_t=0.01, delta_lambda=0.004)
    sweep(swept, grid, scan.FIELD_NAMES, threads=1)
    assert len(swept.calls) == 3 * lam_axis.size  # lam and lam -+ delta_lambda / 2
    pairs = [pair for call in swept.calls for pair in call]
    assert len(pairs) == len(set(pairs))
    assert len(pairs) < 7 * lam_axis.size * t_axis.size
    for lam in lam_axis:
        for t in t_axis:
            for field in SCALAR_FIELDS.values():
                field(direct, core.ThermoPoint(1.0 / t, lam), 0.01, 0.004)
    assert set(pairs) == {pair for call in direct.calls for pair in call}


class LambdaFailingModel(TwoLevelField):
    """Spin in a field whose lnZ fails for a whole lam above lam_fail, array calls too."""

    lam_fail = 0.405

    def log_z(self, beta, lam):
        if lam > self.lam_fail:
            raise EvaluationError(f"no spectrum at lam={lam}")
        return super().log_z(beta, lam)


def test_sweep_whole_lambda_failure_is_nan_in_the_fields_reading_it():
    # lam = 0.4 + delta_lambda / 2 fails: only chi and chi_lambda read it
    grid = ScanGrid(np.array([0.3, 0.4]), np.linspace(0.8, 1.6, 5), delta_t=0.01,
                    delta_lambda=0.02)
    by = {f.name: f.values for f in sweep(LambdaFailingModel(), grid, scan.FIELD_NAMES)}
    for name, values in by.items():
        assert np.isfinite(values[0]).all()
        assert np.isnan(values[1]).all() == (name in ("chi", "chi_lambda"))
        assert np.isfinite(values[1]).all() == (name not in ("chi", "chi_lambda"))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(model=st.sampled_from([TwoLevelField(), Tim1D(n_sites=3)]),
       lams=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=2, unique=True),
       start=st.floats(0.05, 2.0), size=st.integers(1, 6),
       delta_t=st.floats(1e-6, 0.05), step=st.one_of(st.none(), st.floats(1e-4, 0.2)),
       delta_lambda=st.floats(1e-7, 0.05),
       fields=st.lists(st.sampled_from(scan.FIELD_NAMES), min_size=1, unique=True))
def test_swept_cells_equal_the_scalar_field_functions(model, lams, start, size, delta_t, step,
                                                      delta_lambda, fields):
    # no step: the T step is delta_t / 2, where stencil points land on neighbouring rows
    t_axis = start + delta_t + (0.5 * delta_t if step is None else step) * np.arange(size)
    grid = ScanGrid(np.sort(lams), t_axis, delta_t=delta_t, delta_lambda=delta_lambda)
    swept = sweep(model, grid, fields, threads=1)
    for field in swept:
        for j, lam in enumerate(grid.lambda_axis):
            for i, t in enumerate(t_axis):
                point = core.ThermoPoint(1.0 / t, lam)
                try:
                    expected = SCALAR_FIELDS[field.name](model, point, delta_t, delta_lambda)
                except (EvaluationError, StepTooSmall):
                    expected = math.nan
                assert repr(float(field.values[j, i])) == repr(float(expected))


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


class IntervalModel(TwoLevelField):
    """Spin in a field defined on a given lam interval, keeping the lam of each lnZ call."""

    def __init__(self, lambda_domain):
        super().__init__()
        object.__setattr__(self, "lambda_domain", lambda_domain)
        object.__setattr__(self, "lams", [])

    def log_z(self, beta, lam):
        self.lams.append(lam)
        return super().log_z(beta, lam)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data(),
       lams=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4, unique=True),
       delta_lambda=st.floats(1e-3, 1.0),
       fields=st.lists(st.sampled_from(scan.FIELD_NAMES), min_size=1, unique=True))
def test_check_request_rejects_exactly_the_sweeps_reading_outside_the_domain(
        data, lams, delta_lambda, fields):
    grid = ScanGrid(np.sort(lams), np.array([0.8, 1.2]), delta_t=0.01,
                    delta_lambda=delta_lambda)
    reader = IntervalModel((-math.inf, math.inf))
    sweep(reader, grid, fields, threads=1)
    # domain ends drawn on the lam the sweep reads, where an off-by-one-bit
    # offset would show, or anywhere
    end = st.one_of(st.sampled_from(sorted(set(reader.lams))), st.floats(-3.0, 3.0))
    lo, hi = sorted((data.draw(end), data.draw(end)))
    outside = [lam for lam in reader.lams if not lo <= lam <= hi]
    expected = None
    if any(lam in outside for lam in grid.lambda_axis):
        expected = "lambda_axis"
    elif outside:
        expected = "delta_lambda"
    try:
        check_request(IntervalModel((lo, hi)), grid, fields)
        key = None
    except DomainError as exc:
        key = exc.key
    assert key == expected


def traced_span_names(tmp_path, body):
    """Span names from running body in a fresh interpreter under bench/tracer.py."""
    root = pathlib.Path(__file__).resolve().parents[1]
    script = ("import sys\n"
              "from tracer import Tracer\n"
              "from thermofid import lmg, models, scan\n"
              "tracer = Tracer(sys.argv[1]).install()\n"
              f"{body}\n"
              "tracer.dump()\n")
    path = os.pathsep.join([str(root / "src"), str(root / "bench"),
                            os.environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", script, str(tmp_path)], check=True,
                   env={**os.environ, "PYTHONPATH": path})
    (dump,) = tmp_path.glob("spans-*.json")
    return [span[0] for span in json.loads(dump.read_text())["spans"]]


def test_benchmark_tracer_sees_column_sweep(tmp_path):
    # bench/tracer.py wraps core's field functions and each model's log_z
    # after import; a sweep must still go through the wrapped attributes: one
    # field-function call per field and one lnZ call for the column's lam
    names = traced_span_names(tmp_path, (
        "grid = scan.ScanGrid([0.0], [1.0, 1.5], delta_t=0.01)\n"
        "scan.sweep(models.TwoLevel(), grid, ['F_beta', 'Cv'], threads=1)"))
    assert names.count("core.specific_heat") == 1
    assert names.count("core.fidelity_beta") == 1
    assert names.count("models.two_level.log_z") == 1


def test_benchmark_tracer_sees_lmg_wrap_points(tmp_path):
    # bench/tracer.py also wraps lmg.eigh_tridiagonal and lmg.logsumexp by
    # name; binding either at import would silently zero its layer timing
    names = traced_span_names(tmp_path, (
        "grid = scan.ScanGrid([0.3], [1.0, 1.5], delta_t=0.01)\n"
        "scan.sweep(lmg.Lmg(20, 0.2), grid, ['Cv'], threads=1)"))
    assert names.count("models.lmg.log_z") == 1
    assert names.count("lmg.eigh_tridiagonal") > 0
    assert names.count("lmg.logsumexp") == 6  # one per stencil beta


def test_sweep_records_failures_as_nan():
    grid = ScanGrid(np.array([0.0]), np.linspace(0.5, 1.5, 5), delta_t=0.01)
    field = sweep(FailingModel(t_fail=1.0), grid, ["F_beta"])[0]
    assert field.missing_cells() == 3  # T > 1 fails, and T=1.0 needs T+dT
    assert np.isfinite(field.values[0, :2]).all()


def test_sweep_parallel_bitwise_identical():
    # more columns than threads, one column, and more threads than columns;
    # Ising2D is defined at lam = 0 only, so it takes the one-column case.
    # A one-column sweep runs in-process whatever threads says, so those
    # cases check the in-process path; the multi-column ones fork helpers
    several = ((np.linspace(0.1, 0.9, 3), 2), (np.array([0.4]), 2), (np.array([0.2, 0.7]), 3))
    for model, cases, fields in ((TwoLevelField(), several, ["F_beta", "Cv", "chi"]),
                                 (Tim1D(), several, ["F_beta", "Cv", "chi"]),
                                 (Ising2D(), ((np.array([0.0]), 2),), ["F_beta", "Cv"])):
        for lam_axis, threads in cases:
            grid = ScanGrid(lam_axis, np.linspace(0.8, 1.6, 5), delta_t=0.01, delta_lambda=0.01)
            serial = sweep(model, grid, fields, threads=1)
            parallel = sweep(model, grid, fields, threads=threads)
            for a, b in zip(serial, parallel):
                assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("columns, threads, helpers", [(1, 2, None), (2, 3, 2), (3, 2, 2)])
def test_sweep_starts_at_most_one_helper_per_column(monkeypatch, columns, threads, helpers):
    # a helper without a column to take costs a fork and does nothing; the
    # helpers' lam shares cover the axis in order
    started = []
    start_helper = scan._start_helper

    def recording(context, column, lams):
        started.append(lams)
        return start_helper(context, column, lams)

    monkeypatch.setattr(scan, "_start_helper", recording)
    grid = ScanGrid(np.linspace(0.2, 0.8, columns), np.linspace(0.8, 1.6, 3), delta_t=0.01)
    field = sweep(TwoLevelField(), grid, ["Cv"], threads=threads)[0]
    assert np.isfinite(field.values).all()
    assert len(started) == (helpers or 0)
    if started:
        assert np.array_equal(np.concatenate(started), grid.lambda_axis)


class ShareFailingModel(core.ThermoModel):
    """Free spin whose lnZ at lam above lam_fail raises DomainError, or exits its process."""

    name = "share_failing"

    def __init__(self, lam_fail, exits=False):
        self.lam_fail = lam_fail
        self.exits = exits

    def _log_z(self, beta, lam):
        if lam > self.lam_fail:
            if self.exits:
                os._exit(3)
            raise DomainError(f"no lnZ above lam = {self.lam_fail}", key="lam_fail")
        return np.logaddexp(beta, -beta)


@pytest.mark.usefixtures("helper_deadline")
def test_sweep_helper_exception_keeps_its_type_and_key():
    # the second of two shares, [0.633, 0.9], fails in its helper
    grid = ScanGrid(np.linspace(0.1, 0.9, 4), np.linspace(0.8, 1.6, 3), delta_t=0.01)
    for threads in (1, 2):
        with pytest.raises(DomainError) as raised:
            sweep(ShareFailingModel(0.5), grid, ["Cv"], threads=threads)
        assert raised.value.key == "lam_fail"


@pytest.mark.usefixtures("helper_deadline")
def test_sweep_helper_that_exits_without_sending_is_an_evaluation_error():
    grid = ScanGrid(np.linspace(0.1, 0.9, 4), np.linspace(0.8, 1.6, 3), delta_t=0.01)
    with pytest.raises(EvaluationError,
                       match=r"lambda 0\.633333\.\.0\.9 exited with code 3 before sending"):
        sweep(ShareFailingModel(0.5, exits=True), grid, ["Cv"], threads=2)


def test_sweep_releases_a_helper_blocked_sending_after_a_failure():
    # the first share fails at once; the second's 20,000-T column does not fit
    # a pipe's buffer, so its helper blocks in send until the sweep, which
    # stops reading at the failure, closes its end; a helper left blocked
    # would make the join hang past the timeout
    script = (
        "import numpy as np\n"
        "from thermofid import core, scan\n"
        "from thermofid.errors import DomainError\n"
        "class Model(core.ThermoModel):\n"
        "    name = 'fails_low'\n"
        "    def _log_z(self, beta, lam):\n"
        "        if lam < 0.5:\n"
        "            raise DomainError('no lnZ below lam = 0.5', key='lam')\n"
        "        return np.logaddexp(beta, -beta)\n"
        "grid = scan.ScanGrid([0.1, 0.9], np.linspace(0.8, 1.6, 20000), delta_t=0.01)\n"
        "try:\n"
        "    scan.sweep(Model(), grid, ['Cv'], threads=2)\n"
        "except DomainError as exc:\n"
        "    print(exc.key)\n")
    path = os.pathsep.join([str(pathlib.Path(__file__).resolve().parents[1] / "src"),
                            os.environ.get("PYTHONPATH", "")])
    # its own process group, so that a timeout kills a blocked helper with it
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            env={**os.environ, "PYTHONPATH": path})
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    assert (proc.returncode, out.split(), err) == (0, ["lam"], "")


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


def test_locate_minima_skips_columns_with_fewer_than_three_finite_cells():
    t_axis = np.linspace(1.0, 2.0, 11)
    sparse = np.full(t_axis.size, np.nan)
    sparse[[3, 7]] = 1.0
    field = synthetic_field([0.0, 1.0], t_axis, [sparse, (t_axis - 1.5) ** 2])
    assert [p[0] for p in locate_minima(field).points] == [1.0]


def test_parabolic_vertex_of_a_flat_parabola_is_the_middle_point():
    assert scan._parabolic_vertex(1.0, 1.5, 2.0, 3.0, 3.0, 3.0) == 1.5


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


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf")])
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
    with pytest.raises(InsufficientSizes) as info:
        classify_transition(Tim1D(), 0.5, [10, 20], t_axis, 0.01)
    assert isinstance(info.value, DomainError) and info.value.key == "sizes"
    with pytest.raises(DomainError):
        classify_transition(Tim1D(), 0.5, [10, 10, 20], t_axis, 0.01)
    with pytest.raises(DomainError) as info:
        scan.check_classify(Tim1D(), [math.inf], [10, 20, 40], t_axis, 0.01)
    assert info.value.key == "lambdas"
    with pytest.raises(DomainError) as info:
        scan.check_classify(TwoLevel(), [0.0], [10, 20, 40], t_axis, 0.01)  # no size_field
    assert info.value.key == "sizes"
    with pytest.raises(DomainError) as info:
        classify_transition(Tim1D(), 0.5, [10, 20, 40], [0.5, 0.6, 0.8], 0.01)
    assert info.value.key == "t_axis"
    # the 2 dT probe's stencil steps to T - dT, so the lowest T must exceed dT
    with pytest.raises(DomainError) as info:
        classify_transition(Tim1D(), 0.5, [10, 20, 40], t_axis, 0.5)
    assert info.value.key == "delta_t"
    family, axis = scan.check_classify(Tim1D(), [0.5], [10, 20, 40], list(t_axis), 0.01)
    assert [sized.n_sites for sized in family] == [10, 20, 40]
    assert np.array_equal(axis, t_axis)


def test_classify_tim_crossover():
    t_axis = np.round(np.arange(0.3, 1.50001, 0.025), 10)
    verdict = classify_transition(Tim1D(), 0.9, [100, 200, 400], t_axis, 0.002)
    assert verdict == CROSSOVER


def test_classify_makes_one_lnz_call_per_column(tmp_path):
    # one coarse column per size, the 2 dT and dT/2 probe cells, and the fine
    # column: the probe's dT value is the largest size's own peak cell
    names = traced_span_names(tmp_path, (
        "import numpy as np\n"
        "t_axis = np.round(np.arange(0.3, 1.50001, 0.025), 10)\n"
        "scan.classify_transition(models.Tim1D(), 0.9, [100, 200, 400], t_axis, 0.002)"))
    assert names.count("scan.classify_transition") == 1
    assert names.count("models.tim1d.log_z") == 3 + 3


def test_classify_below_resolution_column_is_undetermined():
    # every size's Cv column is [-0.0, nan, nan, nan, nan]: the -0.0 cell is
    # three bitwise-equal free energies, the others are below the stencil's
    # noise floor, so no size has a finite jump statistic
    t_axis = np.linspace(0.03, 0.06, 5)
    assert classify_transition(Tim1D(), 0.0, [1, 2, 4], t_axis, 0.002) == UNDETERMINED


def test_classify_column_of_zeros_is_undetermined():
    # a frozen ground state: every Cv cell is -0.0, so every size's jump
    # statistic and peak are 0
    t_axis = np.linspace(0.1, 0.2, 5)
    assert classify_transition(Ising2D(), 0.0, [1, 2, 4], t_axis, 0.01) == UNDETERMINED


def test_classify_ising_divergence():
    t_axis = np.round(np.arange(2.0, 2.60001, 0.005), 10)
    verdict = classify_transition(Ising2D(), 0.0, [100, 200, 400], t_axis, 0.01)
    assert verdict == TYPE_A


def test_classify_synthetic_growing_peak_is_type_a():
    @dataclass(frozen=True)
    class PeakModel(core.ThermoModel):
        """Free-spin thermodynamics whose per-site peak grows like sqrt(N)."""

        n: int = 1

        name: ClassVar[str] = "peak"
        size_field: ClassVar[str] = "n"

        def _log_z(self, beta, lam):
            return self.n**1.5 * np.logaddexp(beta, -beta)

    t_axis = np.linspace(0.5, 1.5, 21)
    verdict = classify_transition(PeakModel(), 0.0, [10, 100, 1000], t_axis, 0.01)
    assert verdict == TYPE_A


@dataclass(frozen=True)
class SpinFamily(core.ThermoModel):
    """n free spins, lnZ = n ln(2 cosh beta), plus n extra(beta); extra is 0 here."""

    n: int = 1

    name: ClassVar[str] = "spins"
    size_field: ClassVar[str] = "n"

    def extra(self, beta):
        return 0.0

    def _log_z(self, beta, lam):
        return self.n * (np.logaddexp(beta, -beta) + self.extra(np.asarray(beta)))


def refinement_ratio(model, t_axis, delta_t):
    """The classifier's largest Cv step on the 2x refined T axis over that on t_axis."""
    fine_axis = np.linspace(t_axis[0], t_axis[-1], 2 * t_axis.size - 1)
    return (scan._max_step(scan._cv_column(model, 0.0, fine_axis, delta_t))
            / scan._max_step(scan._cv_column(model, 0.0, t_axis, delta_t)))


def test_classify_synthetic_peaks_growing_out_of_order_are_undetermined():
    # the per-site peak is scale x the free spin's: it ends 4x higher, but
    # dips on the way, and a smooth peak fails the divergence proxy
    class OutOfOrder(SpinFamily):
        def _log_z(self, beta, lam):
            scale = {10: 1.0, 20: 0.5, 40: 4.0}[self.n]
            return scale * super()._log_z(beta, lam)

    t_axis = np.linspace(0.5, 1.5, 21)
    assert classify_transition(OutOfOrder(), 0.0, [10, 20, 40], t_axis, 0.001) == UNDETERMINED


def test_classify_synthetic_refinement_stable_jump_is_type_b():
    # Cv per site drops by beta^2, about 1, at T = 1.01, the same at every
    # size: the jump is the largest step on both T axes
    class Jump(SpinFamily):
        def extra(self, beta):
            return 0.5 * np.maximum(beta - 1.0 / 1.01, 0.0) ** 2

    t_axis = np.linspace(0.5, 1.5, 21)
    assert refinement_ratio(Jump(10), t_axis, 0.001) >= 0.9
    assert classify_transition(Jump(), 0.0, [10, 20, 40], t_axis, 0.001) == TYPE_B


@dataclass(frozen=True)
class Bump(SpinFamily):
    """A smooth Cv bump of the given width in beta at T = t_bump."""

    width: float = 0.01
    t_bump: float = 1.01

    def extra(self, beta):
        return self.width**2 * np.logaddexp(0.0, (beta - 1.0 / self.t_bump) / self.width)


def test_classify_synthetic_smooth_bump_between_the_bands_is_undetermined():
    # a bump of width 0.01 at T = 1.01 is about as narrow as the T spacing:
    # refining the axis shrinks its largest step by a ratio in
    # [SMOOTHNESS_RATIO, 0.9), neither a resolved curve nor a stable jump
    t_axis = np.linspace(0.5, 1.5, 21)
    assert scan.SMOOTHNESS_RATIO <= refinement_ratio(Bump(10), t_axis, 0.001) < 0.9
    assert classify_transition(Bump(), 0.0, [10, 20, 40], t_axis, 0.001) == UNDETERMINED


def test_classify_synthetic_bump_narrower_than_the_grid_is_undetermined():
    # a bump of width 0.005 at T = 1.02 falls between grid rows: the refined
    # axis lands near its centre, and its largest step grows about fourfold,
    # which is no refinement-stable jump
    bump = Bump(width=0.005, t_bump=1.02)
    t_axis = np.linspace(0.5, 1.5, 21)
    assert refinement_ratio(bump, t_axis, 0.001) > 1.0 / scan.STABLE_RATIO
    assert classify_transition(bump, 0.0, [10, 20, 40], t_axis, 0.001) == UNDETERMINED


@dataclass(frozen=True)
class DrawnFamily(core.ThermoModel):
    """n sites with one drawn shape of per-site Cv, placed at T = t0.

    peak: a free spin with its Cv peak near t0, scaled by n^power;
    step: a free spin plus a Cv step of height beta^2 at t0, whose linear
    ramp in beta narrows as width / n;
    bump: a free spin plus a Cv bump of fixed width in beta at t0;
    flat: no excitations, lnZ = n beta;
    below: a free spin under a ground energy so deep that its Cv is below
    the stencil's noise floor.
    """

    n: int = 1
    shape: str = "peak"
    t0: float = 1.0
    width: float = 0.01
    power: float = 0.5

    name: ClassVar[str] = "drawn"
    size_field: ClassVar[str] = "n"

    def _log_z(self, beta, lam):
        beta = np.asarray(beta, dtype=float)
        spin = np.logaddexp(beta, -beta)
        x = beta - 1.0 / self.t0
        if self.shape == "peak":
            gap = 1.2 * self.t0  # the free spin's Cv peaks at beta gap = 1.2
            return self.n**(1.0 + self.power) * np.logaddexp(beta * gap, -beta * gap)
        if self.shape == "step":
            w = self.width / self.n
            s = np.clip(x / w + 0.5, 0.0, None)  # the ramp's twice-integrated form
            extra = w**2 * np.where(s < 1.0, s**3 / 6.0, 0.5 * s**2 - 0.5 * s + 1.0 / 6.0)
            return self.n * (spin + extra)
        if self.shape == "bump":
            return self.n * (spin + self.width**2 * np.logaddexp(0.0, x / self.width))
        if self.shape == "flat":
            return self.n * beta
        return self.n * (1e14 * beta + spin)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(shape=st.sampled_from(["peak", "step", "bump", "flat", "below"]),
       start=st.floats(0.05, 2.0), spacing=st.floats(1e-3, 0.2), rows=st.integers(2, 40),
       where=st.floats(-0.2, 1.2), width=st.floats(1e-3, 0.2), power=st.floats(0.0, 1.0),
       delta_t=st.floats(1e-5, 0.1),
       sizes=st.sampled_from([[1, 2, 4], [10, 20, 40], [100, 200, 400, 800]]))
def test_classify_drawn_family_returns_a_label_or_a_typed_error(
        shape, start, spacing, rows, where, width, power, delta_t, sizes):
    t_axis = start + spacing * np.arange(rows)
    model = DrawnFamily(shape=shape, t0=start * (t_axis[-1] / start)**where, width=width,
                        power=power)
    try:
        verdict = classify_transition(model, 0.0, sizes, t_axis, delta_t)
    except (DomainError, EvaluationError):
        return
    if shape in ("flat", "below"):  # no finite positive jump statistic
        assert verdict == UNDETERMINED
    assert verdict in (TYPE_A, TYPE_B, CROSSOVER, UNDETERMINED)


@pytest.mark.parametrize("sizes", [[10, 20, 40], [100, 200, 400]])
def test_classify_smooth_peak_growing_below_growth_factor_is_crossover(sizes):
    # the peak doubles over the sizes, below GROWTH_FACTOR, and its jump
    # statistic doubles with it: the step does not steepen against the peak,
    # so refinement decides, and a smooth resolved curve is a crossover
    model = DrawnFamily(shape="peak", t0=0.3176, power=0.5)
    t_axis = 0.3 + 0.005 * np.arange(11)
    assert classify_transition(model, 0.0, sizes, t_axis, 0.001) == CROSSOVER


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
    assert line.points == ((0.0, 1.5),) and line.detection == "minimum"
