"""Grid sweeps over the control-parameter/temperature plane and line extraction.

Lambda columns are the work items: one function evaluates every requested
field at every T of one lam through a single lnZ memo, and a sweep maps it
over the lam axis, optionally on a process pool with one column per task.
The classifier's specific-heat columns come from the same function. Columns
are assembled by lam index, so serial and parallel runs produce bit-identical
fields. Cells whose evaluation fails are recorded as NaN and skipped by the
detectors.
"""

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import core
from .errors import DomainError, EvaluationError, InsufficientSizes, StepTooSmall

FIELD_NAMES = ("F_beta", "Cv", "chi", "chi_beta", "chi_lambda")
_CHI_FIELDS = ("chi", "chi_lambda")

TYPE_A = "TypeA"
TYPE_B = "TypeB"
CROSSOVER = "Crossover"
UNDETERMINED = "Undetermined"

# classify_transition's decision thresholds; its docstring gives the role of each
GROWTH_FACTOR = 3.0
STEP_GROWTH_FACTOR = 1.5
DIVERGENCE_GROWTH = 1.05
SMOOTHNESS_RATIO = 0.75


def as_axis(values, key):
    """values as a float array, or DomainError(key=key) unless finite and strictly increasing."""
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1 or axis.size == 0:
        raise DomainError(f"{key} must be a non-empty 1-D sequence", key=key)
    if axis.size > 1 and not np.all(np.diff(axis) > 0.0):
        raise DomainError(f"{key} must be strictly increasing", key=key)
    if not np.all(np.isfinite(axis)):
        raise DomainError(f"{key} has non-finite entries", key=key)
    return axis


@dataclass(frozen=True)
class ScanGrid:
    """Rectangular lam-T grid plus the perturbations used on it.

    delta_t may be None only for axes-only grids reconstructed from files;
    sweeping such a grid is an error.
    """

    lambda_axis: np.ndarray
    t_axis: np.ndarray
    delta_t: float | None
    delta_lambda: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "lambda_axis", as_axis(self.lambda_axis, "lambda_axis"))
        object.__setattr__(self, "t_axis", as_axis(self.t_axis, "t_axis"))
        for key in ("delta_t", "delta_lambda"):
            step = getattr(self, key)
            if step is not None and not step > 0.0:
                raise DomainError(f"{key} must be positive, got {step}", key=key)
        t_floor = 0.0 if self.delta_t is None else 0.5 * self.delta_t
        if self.t_axis[0] <= t_floor:
            raise DomainError(f"every T must exceed max(0, delta_t / 2) = {t_floor}, "
                              f"got {self.t_axis[0]}", key="t_axis")

    @property
    def shape(self):
        return (self.lambda_axis.size, self.t_axis.size)


@dataclass(frozen=True)
class ScanField:
    """One scalar field on a grid, indexed (lambda index, T index)."""

    name: str
    grid: ScanGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise DomainError(
                f"values shape {values.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", values)

    def missing_cells(self):
        return int(np.isnan(self.values).sum())


@dataclass(frozen=True)
class CriticalLine:
    """Extracted (lam, T_c) points with how they were detected and classified."""

    points: tuple
    detection: str  # "minimum" | "jump"
    classification: str = UNDETERMINED


def _cell_value(model, field, point, delta_t, delta_lambda):
    # F_beta's partner 1/(T + delta_t) is the one chi_beta uses, so the memo
    # shares it; both start from point.temperature, which can differ from the
    # grid T in the last bit
    if field == "F_beta":
        beta1 = 1.0 / (point.temperature + delta_t)
        return core.fidelity_beta(model, point.beta, beta1, point.lam)
    if field == "Cv":
        return core.specific_heat(model, point, delta_t)
    if field == "chi":
        return core.susceptibility_lambda(model, point, delta_lambda)
    if field == "chi_beta":
        return core.fidelity_susceptibility_beta(model, point, delta_t)
    if field == "chi_lambda":
        return core.fidelity_susceptibility_lambda(model, point.beta, point.lam, delta_lambda)
    raise DomainError(f"unknown field {field!r}", key="fields")


def _sweep_column(model, fields, lam, t_axis, delta_t, delta_lambda):
    """Every requested field at every T of one lam column, shape (len(fields), T).

    One lnZ memo serves the whole column, so stencil points shared between
    fields and between neighbouring cells are evaluated once. A cell whose
    evaluation fails is NaN; a DomainError propagates. The field functions
    are looked up in core at call time.
    """
    memo = SimpleNamespace(name=model.name, log_z=functools.cache(model.log_z))
    values = np.empty((len(fields), t_axis.size))
    for i, t in enumerate(t_axis):
        point = core.ThermoPoint(1.0 / t, lam)
        for k, field in enumerate(fields):
            try:
                values[k, i] = _cell_value(memo, field, point, delta_t, delta_lambda)
            except (EvaluationError, StepTooSmall):
                values[k, i] = math.nan
    return values


def check_fields(fields, grid):
    """Raise DomainError, keyed by the parameter at fault, unless grid can produce fields."""
    if not fields:
        raise DomainError("no fields requested", key="fields")
    for field in fields:
        if field not in FIELD_NAMES:
            raise DomainError(f"unknown field {field!r}; choose from {FIELD_NAMES}",
                              key="fields")
    if grid.delta_t is None:
        raise DomainError("grid has no delta_t; it cannot be swept", key="delta_t")
    if grid.delta_lambda is None and any(f in _CHI_FIELDS for f in fields):
        raise DomainError(f"{' and '.join(_CHI_FIELDS)} need delta_lambda", key="delta_lambda")


def check_request(model, grid, fields):
    """check_fields, then DomainError unless every lam a sweep evaluates is in model's domain.

    A grid lam outside it is keyed lambda_axis; a lam -+ delta_lambda/2 point
    of the chi stencils outside it is keyed delta_lambda.
    """
    check_fields(fields, grid)
    for lam in grid.lambda_axis:
        core.check_lambda(model, lam, key="lambda_axis")
    if any(f in _CHI_FIELDS for f in fields):
        h = 0.5 * grid.delta_lambda
        for lam in (grid.lambda_axis[0] - h, grid.lambda_axis[-1] + h):
            core.check_lambda(model, lam, key="delta_lambda")


def sweep(model, grid, fields, threads=1):
    """Evaluate the requested fields at every grid cell, one lam column per work item.

    Returns one ScanField per requested name, in request order. Per-cell
    evaluation failures become NaN markers; domain errors (a structurally
    invalid request) propagate.
    """
    fields = tuple(fields)
    check_request(model, grid, fields)
    column = functools.partial(_sweep_column, model, fields, t_axis=grid.t_axis,
                               delta_t=grid.delta_t, delta_lambda=grid.delta_lambda)
    if threads is not None and threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            columns = list(pool.map(column, grid.lambda_axis))
    else:
        columns = [column(lam) for lam in grid.lambda_axis]

    cube = np.stack(columns)
    return [ScanField(name, grid, cube[:, k].copy()) for k, name in enumerate(fields)]


def _parabolic_vertex(x0, x1, x2, y0, y1, y2):
    """Vertex of the parabola through three points, clamped to [x0, x2]."""
    a = (x1 - x0) * (y1 - y2)
    b = (x1 - x2) * (y1 - y0)
    denom = a - b
    if denom == 0.0:
        return x1
    vertex = x1 - 0.5 * ((x1 - x0) * a - (x1 - x2) * b) / denom
    return min(max(vertex, x0), x2)


def locate_minima(field):
    """Per-lam interior argmin over T with 3-point parabolic refinement.

    Columns whose minimum sits on the grid boundary are excluded; an empty
    line is a valid result when no column has an interior minimum.
    """
    t = field.grid.t_axis
    points = []
    for j, lam in enumerate(field.grid.lambda_axis):
        col = field.values[j]
        finite = np.isfinite(col)
        if finite.sum() < 3:
            continue
        masked = np.where(finite, col, np.inf)
        k = int(np.argmin(masked))
        if k == 0 or k == col.size - 1:
            continue
        if finite[k - 1] and finite[k + 1]:
            t_min = _parabolic_vertex(t[k - 1], t[k], t[k + 1],
                                      col[k - 1], col[k], col[k + 1])
        else:
            t_min = t[k]
        points.append((float(lam), float(t_min)))
    return CriticalLine(tuple(points), "minimum")


def _require_uniform(axis, key):
    if axis.size < 2:
        raise DomainError(f"{key} needs at least two points")
    d = np.diff(axis)
    if d.max() - d.min() > 1e-9 * d.max():
        raise DomainError(f"{key} must be uniformly spaced")


def check_jump_threshold(jump_threshold):
    """Raise DomainError(key="jump_threshold") unless jump_threshold is positive."""
    if not jump_threshold > 0.0:
        raise DomainError(f"jump_threshold must be positive, got {jump_threshold}",
                          key="jump_threshold")


def locate_jumps(field, jump_threshold=20.0):
    """Flag discrete T-derivatives exceeding jump_threshold times the column median.

    Returns one point per lam column: the step-magnitude-weighted centroid of
    the midpoints in the steepest flagged run (contiguous steps of the same
    sign at >= half the peak step). An isolated sharp jump reduces exactly to
    the midpoint of its step; the centroid matters only for finite-size
    rounded discontinuities spread over several cells. An empty line is a
    valid result for smooth fields.
    """
    check_jump_threshold(jump_threshold)
    t = field.grid.t_axis
    _require_uniform(t, "t_axis")
    points = []
    for j, lam in enumerate(field.grid.lambda_axis):
        col = field.values[j]
        diff = np.diff(col)
        step = np.abs(diff)
        good = np.isfinite(step)
        if not good.any():
            continue
        median = float(np.median(step[good]))
        flagged = np.where(good & (step > jump_threshold * median) & (step > 0.0))[0]
        if flagged.size == 0:
            continue
        k = int(flagged[np.argmax(step[flagged])])
        sign = math.copysign(1.0, diff[k])
        half = 0.5 * step[k]

        def in_run(i):
            return (good[i] and step[i] >= half
                    and math.copysign(1.0, diff[i]) == sign)

        lo = k
        while lo > 0 and in_run(lo - 1):
            lo -= 1
        hi = k
        while hi < step.size - 1 and in_run(hi + 1):
            hi += 1
        open_run = lo == 0 or hi == step.size - 1
        if open_run or k == lo or k == hi:
            # steepest step at the run's edge, or a run spilling off the grid
            # (a slowly decaying background, not a rounding window): the
            # steepest step's own midpoint is the estimate
            t_jump = 0.5 * (t[k] + t[k + 1])
        else:
            # interior maximum of a closed run: a finite-size rounded
            # discontinuity; use the step-weighted centroid of the window
            mids = 0.5 * (t[lo:hi + 1] + t[lo + 1:hi + 2])
            weights = step[lo:hi + 1]
            t_jump = float(np.dot(mids, weights) / weights.sum())
        points.append((float(lam), float(t_jump)))
    return CriticalLine(tuple(points), "jump")


def _cv_column(model, lam, t_axis, delta_t):
    """Per-site specific heat along one lam column (NaN where evaluation fails)."""
    return _sweep_column(model, ("Cv",), lam, t_axis, delta_t, None)[0] / (model.size_hint or 1)


def _max_step(col):
    step = np.abs(np.diff(col))
    step = step[np.isfinite(step)]
    return float(step.max()) if step.size else math.nan


def _monotone_increasing(values, slack=0.0):
    return all(values[i + 1] > values[i] * (1.0 - slack) for i in range(len(values) - 1))


def classify_transition(model_family, lam, sizes, t_axis, delta_t):
    """Classify the fixed-lam behavior as TypeA, TypeB, Crossover or Undetermined.

    Per-size per-site specific-heat columns drive the decision, in order:
      - peaks growing monotonically by more than GROWTH_FACTOR -> TypeA;
      - the largest-size peak probed with stencil steps {2 dT, dT, dT/2}:
        strictly increasing values sustaining DIVERGENCE_GROWTH overall are
        the divergence proxy -> TypeA (covers thermodynamic-limit formulas
        with no size knob, whose per-site columns are size-independent);
      - the maximal one-grid-step change ("jump statistic") growing
        monotonically with size by more than STEP_GROWTH_FACTOR -> TypeB
        (a developing discontinuity steepens with size at bounded height);
      - a jump statistic that shrinks under 2x grid refinement below
        SMOOTHNESS_RATIO of its value, the way a smooth resolved curve does
        -> Crossover; refinement-stable -> TypeB (an already-resolved
        discontinuity).
    """
    sizes = list(sizes)
    if len(sizes) < 3:
        raise InsufficientSizes(f"need at least 3 sizes, got {len(sizes)}")
    if any(sizes[i + 1] <= sizes[i] for i in range(len(sizes) - 1)):
        raise DomainError("sizes must be strictly increasing")
    t_axis = as_axis(t_axis, "t_axis")
    _require_uniform(t_axis, "t_axis")

    columns = [_cv_column(model_family(n), lam, t_axis, delta_t) for n in sizes]
    if any(np.isnan(col).all() for col in columns):
        raise EvaluationError("specific-heat column evaluation failed for a size")
    peaks = [float(np.nanmax(col)) for col in columns]
    steps = [_max_step(col) for col in columns]

    if _monotone_increasing(peaks, slack=1e-9) and peaks[-1] > GROWTH_FACTOR * peaks[0]:
        return TYPE_A

    largest = model_family(sizes[-1])
    norm = largest.size_hint or 1
    t_peak = float(t_axis[int(np.nanargmax(columns[-1]))])
    point = core.ThermoPoint(1.0 / t_peak, lam)
    refined = [core.specific_heat(largest, point, delta_t * 2.0 ** (1 - k)) / norm
               for k in range(3)]
    if refined[0] < refined[1] < refined[2] and refined[2] > DIVERGENCE_GROWTH * refined[0]:
        return TYPE_A

    if peaks[-1] > GROWTH_FACTOR * peaks[0]:
        return UNDETERMINED

    if _monotone_increasing(steps, slack=0.1) and steps[-1] > STEP_GROWTH_FACTOR * steps[0]:
        return TYPE_B

    fine_axis = np.linspace(t_axis[0], t_axis[-1], 2 * t_axis.size - 1)
    fine_step = _max_step(_cv_column(largest, lam, fine_axis, delta_t))
    if fine_step < SMOOTHNESS_RATIO * steps[-1]:
        return CROSSOVER
    if fine_step >= 0.9 * steps[-1]:
        return TYPE_B
    return UNDETERMINED
