"""Grid sweeps over the control-parameter/temperature plane and line extraction.

Lambda columns are the work items: a column makes one lnZ call per lam its
fields' core stencils read, on the distinct betas of their points, and each
field's core function combines its share. A sweep maps columns over the lam
axis. When there is more than one column to share, the axis is cut into
contiguous lam shares, one per forked helper process, and each helper sends
its share's columns back in one message; a serial or one-column sweep runs
in-process and loads no process machinery.
The classifier's specific-heat columns come from the same function. Columns
are assembled by lam index, so serial and parallel runs produce bit-identical
fields. Cells whose evaluation fails are recorded as NaN and skipped by the
detectors.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import DomainError, EvaluationError, InsufficientSizes

# each field's core function, read at call time, and its arguments on a
# column's ThermoPoint, which the function's core *_stencil takes too; F_beta
# takes chi_beta's partner beta, so the two share their points
_FIELDS = {
    "F_beta": ("fidelity_beta", lambda p, dt, dlam: (p.beta, core.partner_beta(p, dt), p.lam)),
    "Cv": ("specific_heat", lambda p, dt, dlam: (p, dt)),
    "chi": ("susceptibility_lambda", lambda p, dt, dlam: (p, dlam)),
    "chi_beta": ("fidelity_susceptibility_beta", lambda p, dt, dlam: (p, dt)),
    "chi_lambda": ("fidelity_susceptibility_lambda", lambda p, dt, dlam: (p.beta, p.lam, dlam)),
}
FIELD_NAMES = tuple(_FIELDS)

TYPE_A = "TypeA"
TYPE_B = "TypeB"
CROSSOVER = "Crossover"
UNDETERMINED = "Undetermined"

# locate_jumps flags a T step above this multiple of its column's median step
JUMP_THRESHOLD = 20.0

# classify_transition's decision thresholds; its docstring gives the role of each
GROWTH_FACTOR = 3.0
STEP_GROWTH_FACTOR = 1.5
DIVERGENCE_GROWTH = 1.05
SMOOTHNESS_RATIO = 0.75
STABLE_RATIO = 0.9


@dataclass(frozen=True)
class ScanGrid:
    """Rectangular lam-T grid plus the perturbations used on it.

    delta_t may be None only for axes-only grids reconstructed from files;
    sweeping such a grid for a field that steps in T is an error.
    """

    lambda_axis: np.ndarray
    t_axis: np.ndarray
    delta_t: float | None
    delta_lambda: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "lambda_axis", core.as_axis(self.lambda_axis, "lambda_axis"))
        object.__setattr__(self, "t_axis", core.as_axis(self.t_axis, "t_axis"))
        for key in ("delta_t", "delta_lambda"):
            if getattr(self, key) is not None:
                core.check_positive(key, getattr(self, key))
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
    """Extracted (lam, T_c) points with how they were detected."""

    points: tuple
    detection: str  # "minimum" | "jump"


def _stencils(fields, lam, t_axis, delta_t, delta_lambda):
    """(core function name, its arguments, its stencil's (beta, lam) points) for each field."""
    point = core.ThermoPoint(1.0 / t_axis, lam)
    calls = [(name, args(point, delta_t, delta_lambda)) for name, args in map(_FIELDS.get, fields)]
    return [(name, args, getattr(core, f"{name}_stencil")(*args)[0]) for name, args in calls]


def _sweep_column(model, fields, lam, t_axis, delta_t, delta_lambda):
    """Every requested field at every T of one lam column, shape (len(fields), T).

    Each lam the fields' stencils read (lam, and lam -+ delta_lambda/2 for chi
    and chi_lambda) takes one lnZ call on the distinct betas of their points,
    and each field's core function combines its share. A cell whose evaluation
    fails is NaN, and so is every field reading a lam whose EvaluationError
    concerns the whole lam; a DomainError propagates.
    """
    stencils = _stencils(fields, lam, t_axis, delta_t, delta_lambda)
    betas = {}
    for _, _, points in stencils:
        for beta, at in points:
            betas.setdefault(at, []).append(beta)
    lnz = {}
    for at, parts in betas.items():
        distinct, slot = np.unique(np.concatenate(parts), return_inverse=True)
        try:
            values = model.log_z(distinct, at)
        except EvaluationError:
            values = np.full(distinct.size, math.nan)
        lnz[at] = iter(values[slot].reshape(len(parts), -1))
    return np.array([getattr(core, name)(model, *args, lnz=[next(lnz[at]) for _, at in points])
                     for name, args, points in stencils])


def check_request(model, grid, fields):
    """Raise DomainError, keyed by the parameter at fault, unless a sweep can produce fields.

    The fields' stencils are built on the first and last lam column, as the
    sweep builds them, so a missing or bad step is keyed by its stencil. The
    lam they read must lie in the model's lambda_domain, an interval, so the
    two end columns bound every column: a grid lam outside it is keyed
    lambda_axis, and a stencil's lam -+ delta_lambda/2 outside it delta_lambda.
    """
    if not fields:
        raise DomainError("no fields requested", key="fields")
    for field in fields:
        if field not in FIELD_NAMES:
            raise DomainError(f"unknown field {field!r}; choose from {FIELD_NAMES}",
                              key="fields")
    # lam does not depend on T, and t_axis[0] is the lowest T a stencil steps from
    ends = dict.fromkeys((grid.lambda_axis[0], grid.lambda_axis[-1]))  # once for one column
    read = [at for lam in ends
            for _, _, points in _stencils(fields, lam, grid.t_axis[:1], grid.delta_t,
                                          grid.delta_lambda)
            for _, at in points]
    for lam in ends:
        core.check_lambda(model, lam, key="lambda_axis")
    for lam in read:
        core.check_lambda(model, lam, key="delta_lambda")


def _sweep_share(column, lams, receiver, sender):
    """A helper's work: send its share's columns, or the exception they raised, in one message."""
    receiver.close()  # the parent's end; once the parent closes it too, a blocked send fails
    try:
        result = [column(lam) for lam in lams]
    except Exception as exc:
        result = exc
    try:
        sender.send(result)
    except BrokenPipeError:  # the parent stopped reading when another share failed
        pass


def _start_helper(context, column, lams):
    """(process, receiver) of a forked helper sweeping the lam share lams."""
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_sweep_share, args=(column, lams, receiver, sender))
    process.start()
    sender.close()  # so the receiver reads EOF if the helper exits without sending
    return process, receiver


def _sweep_shares(column, shares):
    """Every share's columns in share order, each share swept by a forked helper.

    The first share's failure is raised; a helper that exits without sending
    is an EvaluationError naming its share and exit code. Closing every
    receiver before the joins releases a helper still blocked in send.
    """
    import multiprocessing  # here, so a serial or one-column sweep never loads it

    # fork, whatever the platform default: a helper inherits the configured
    # model, with its solver loaded, and the parent's after-fork hooks
    context = multiprocessing.get_context("fork")
    helpers = []
    try:
        for lams in shares:
            helpers.append(_start_helper(context, column, lams))
        columns = []
        for (process, receiver), lams in zip(helpers, shares):
            try:
                result = receiver.recv()
            except EOFError:
                process.join()
                raise EvaluationError(
                    f"the helper process for lambda {lams[0]:g}..{lams[-1]:g} exited with "
                    f"code {process.exitcode} before sending its columns") from None
            if isinstance(result, Exception):
                raise result
            columns += result
        return columns
    finally:
        for _, receiver in helpers:
            receiver.close()
        for process, _ in helpers:
            process.join()


def sweep(model, grid, fields, threads=1):
    """Evaluate the requested fields at every grid cell, one lam column per work item.

    Returns one ScanField per requested name, in request order. Per-cell
    evaluation failures become NaN markers; domain errors (a structurally
    invalid request) propagate. threads caps the helper processes, which are
    never more than the columns: with workers = min(threads, columns) above
    one, the lam axis is split into that many contiguous shares, each swept
    by a forked helper; otherwise the columns run in-process. An exception a
    helper raises reaches the caller with its type.
    """
    fields = tuple(fields)
    check_request(model, grid, fields)
    column = functools.partial(_sweep_column, model, fields, t_axis=grid.t_axis,
                               delta_t=grid.delta_t, delta_lambda=grid.delta_lambda)
    workers = min(threads or 1, grid.lambda_axis.size)
    if workers > 1:
        columns = _sweep_shares(column, np.array_split(grid.lambda_axis, workers))
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


def locate_jumps(field, jump_threshold=JUMP_THRESHOLD):
    """Flag discrete T-derivatives exceeding jump_threshold times the column median.

    Returns one point per lam column: the step-magnitude-weighted centroid of
    the midpoints in the steepest flagged run (contiguous steps of the same
    sign at >= half the peak step). An isolated sharp jump reduces exactly to
    the midpoint of its step; the centroid matters only for finite-size
    rounded discontinuities spread over several cells. An empty line is a
    valid result for smooth fields.
    """
    core.check_positive("jump_threshold", jump_threshold)
    t = core.check_uniform(field.grid.t_axis, "t_axis")
    points = []
    for j, lam in enumerate(field.grid.lambda_axis):
        col = field.values[j]
        diff = np.diff(col)
        step = np.abs(diff)
        good = np.isfinite(step)
        if not good.any():
            continue
        # np.median's own mean of the middle one or two, minus its first call's numpy.ma import
        ordered = np.sort(step[good])
        median = float(np.mean(ordered[(ordered.size - 1) // 2:ordered.size // 2 + 1]))
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
    return _sweep_column(model, ("Cv",), lam, t_axis, delta_t, None)[0] / model.size_hint


def _max_step(col):
    step = np.abs(np.diff(col))
    step = step[np.isfinite(step)]
    return float(step.max()) if step.size else math.nan


def _monotone_increasing(values, slack):
    return all(values[i + 1] > values[i] * (1.0 - slack) for i in range(len(values) - 1))


def check_classify(model, lambdas, sizes, t_axis, delta_t):
    """(model at each of sizes, t_axis as an axis), once classify_transition can use them.

    Fewer than three sizes raise InsufficientSizes, a DomainError. It and the
    DomainError for a model without a size_field, or for sizes that are not
    strictly increasing or that the model rejects, are keyed "sizes". A lam
    that is not finite or outside the model's lambda_domain is keyed "lambdas",
    a non-uniform t_axis "t_axis", and a lowest T <= delta_t "delta_t".
    """
    if model.size_field is None:
        raise DomainError(f"{model.name} has no size parameter", key="sizes")
    sizes = list(sizes)
    if len(sizes) < 3:
        raise InsufficientSizes(f"need at least 3 sizes, got {len(sizes)}", key="sizes")
    if any(sizes[i + 1] <= sizes[i] for i in range(len(sizes) - 1)):
        raise DomainError(f"sizes must be strictly increasing, got {sizes}", key="sizes")
    try:
        family = [dataclasses.replace(model, **{model.size_field: n}) for n in sizes]
    except DomainError as exc:
        raise DomainError(str(exc), key="sizes") from exc
    for lam in lambdas:
        core.check_lambda(family[0], lam, key="lambdas")
    t_axis = core.check_uniform(t_axis, "t_axis")
    if t_axis[0] <= delta_t:
        raise DomainError(f"T must exceed delta_t = {delta_t}, got {t_axis[0]}", key="delta_t")
    return family, t_axis


def classify_transition(model, lam, sizes, t_axis, delta_t):
    """Classify the fixed-lam behavior as TypeA, TypeB, Crossover or Undetermined.

    Per-site specific-heat columns of model at each of sizes drive the decision,
    in order:
      - a size whose maximal one-grid-step change ("jump statistic") is not a
        finite positive number, or whose peak is not positive, resolves no
        feature -> Undetermined;
      - peaks growing monotonically by more than GROWTH_FACTOR -> TypeA;
      - the largest-size peak cell and its one-T columns at steps 2 dT and
        dT/2, strictly increasing and sustaining DIVERGENCE_GROWTH overall,
        are the divergence proxy -> TypeA (a failed probe cell is NaN and
        does not fire; covers size-independent thermodynamic-limit formulas);
      - the jump statistic over the peak growing monotonically with size by
        more than STEP_GROWTH_FACTOR -> TypeB (a developing discontinuity
        steepens with size against its height; a peak that only grows
        reaches the refinement rules below);
      - a jump statistic that shrinks under 2x grid refinement below
        SMOOTHNESS_RATIO of its value, the way a smooth resolved curve does
        -> Crossover; refinement-stable, within a factor STABLE_RATIO either
        way -> TypeB (an already-resolved discontinuity); any other ratio,
        between the two bands or a step that grows under refinement (an
        unresolved feature narrower than the grid) -> Undetermined.
    """
    family, t_axis = check_classify(model, [lam], sizes, t_axis, delta_t)

    columns = [_cv_column(sized, lam, t_axis, delta_t) for sized in family]
    if any(np.isnan(col).all() for col in columns):
        raise EvaluationError("specific-heat column evaluation failed for a size")
    peaks = [float(np.nanmax(col)) for col in columns]
    steps = [_max_step(col) for col in columns]
    if not all(0.0 < step < math.inf and peak > 0.0 for step, peak in zip(steps, peaks)):
        return UNDETERMINED

    if _monotone_increasing(peaks, slack=1e-9) and peaks[-1] > GROWTH_FACTOR * peaks[0]:
        return TYPE_A

    largest = family[-1]
    k = int(np.nanargmax(columns[-1]))
    wide, narrow = (_cv_column(largest, lam, t_axis[k:k + 1], step)[0]
                    for step in (2.0 * delta_t, 0.5 * delta_t))
    if wide < columns[-1][k] < narrow and narrow > DIVERGENCE_GROWTH * wide:
        return TYPE_A

    if peaks[-1] > GROWTH_FACTOR * peaks[0]:
        return UNDETERMINED

    sharpness = [step / peak for step, peak in zip(steps, peaks)]
    if (_monotone_increasing(sharpness, slack=0.1)
            and sharpness[-1] > STEP_GROWTH_FACTOR * sharpness[0]):
        return TYPE_B

    fine_axis = np.linspace(t_axis[0], t_axis[-1], 2 * t_axis.size - 1)
    fine_step = _max_step(_cv_column(largest, lam, fine_axis, delta_t))
    if fine_step < SMOOTHNESS_RATIO * steps[-1]:
        return CROSSOVER
    if STABLE_RATIO * steps[-1] <= fine_step <= steps[-1] / STABLE_RATIO:
        return TYPE_B
    return UNDETERMINED
