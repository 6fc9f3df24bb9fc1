"""Command-line front end: reads configurations and writes results, nothing more.

Subcommands:
  scan <config>       sweep a model over a lam-T grid, write CSV fields and lines
  validate            run the dense-oracle suite, exact.VALIDATION_CHECKS, JSON verdicts
  meanfield --lambda  critical temperatures and order-parameter curves
  boundary <config>   minima/jump extraction on a precomputed field file

Exit codes: 0 success, 2 configuration error, 3 evaluation failure (failed
cells beyond the budget, a helper process that died, or a failed
classification), 4 validation failure. The environment variable
THERMOFID_OUTPUT_DIR overrides any configured output directory.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import core, lmg, models, scan
from .errors import ConfigError, DomainError, EvaluationError, ThermofidError

OUTPUT_DIR_ENV = "THERMOFID_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVALUATION = 3
EXIT_VALIDATION = 4

MODEL_CLASSES = {cls.name: cls for cls in (models.Ising2D, models.Tim1D, models.Dicke, lmg.Lmg,
                                            models.TwoLevel, models.TwoLevelField)}

_MEANFIELD_T_RANGE = (0.05, 1.05)

# config key path of each library parameter whose name differs from it
_CONFIG_KEYS = {"lambda_axis": "grid.lambda", "t_axis": "grid.t",
                "jump_threshold": "detect.jump_threshold",
                "lambdas": "classify.lambdas", "sizes": "classify.sizes"}

_REQUIRED = object()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond Python's int-to-string digit limit
        raise ConfigError(path, f"invalid JSON: {exc}") from exc


def _number(value, kind, key):
    """value read as a kind, int or float: an int counts as a float, a bool as neither."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise ConfigError(key, f"must be of type {kind.__name__}, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # JSON readers accept NaN, Infinity and any int
        raise ConfigError(key, f"must be finite as a float, got {value}")
    return float(value) if kind is float else value


def _require(cfg, key, kind, path, default=_REQUIRED):
    """cfg[key] checked to be a kind; a number, int or float, by _number's rule.

    An absent key yields default, and so does null when default is None;
    without a default the key is required.
    """
    full = f"{path}.{key}" if path else key
    if key not in cfg or (cfg[key] is None and default is None):
        if default is _REQUIRED:
            raise ConfigError(full, "missing required key")
        return default
    value = cfg[key]
    if kind in (int, float):
        return _number(value, kind, full)
    if not isinstance(value, kind):
        raise ConfigError(full, f"must be of type {kind.__name__}")
    return value


def _check_keys(cfg, known, path):
    for key in cfg:
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown configuration key")


def build_model(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("model", "must be an object")
    name = _require(cfg, "name", str, "model")
    cls = MODEL_CLASSES.get(name)
    if cls is None:
        raise ConfigError("model.name",
                          f"unknown model {name!r}; choose from {sorted(MODEL_CLASSES)}")
    valid = {f.name: f.type for f in dataclasses.fields(cls)}
    params = {}
    for key in cfg:
        if key == "name":
            continue
        if key not in valid:
            raise ConfigError(f"model.{key}", f"unknown parameter for model {name!r}")
        value = _require(cfg, key, float, "model")
        if valid[key] is int:
            if not value.is_integer():
                raise ConfigError(f"model.{key}", f"must be an integer, got {value}")
            value = int(value)
        params[key] = value
    try:
        return cls(**params)
    except DomainError as exc:
        raise ConfigError(f"model.{exc.key}" if exc.key else "model", str(exc)) from exc


def build_axis(spec, path):
    """The axis values of a list or a {start, stop, step|num} range; ScanGrid checks them."""
    if isinstance(spec, list):
        return np.asarray([_number(v, float, path) for v in spec])
    if isinstance(spec, dict):
        _check_keys(spec, ("start", "stop", "step", "num"), path)
        if "step" in spec and "num" in spec:
            raise ConfigError(path, "give 'step' or 'num', not both")
        start = _require(spec, "start", float, path)
        stop = _require(spec, "stop", float, path)
        if stop < start:
            raise ConfigError(f"{path}.stop", "must be >= start")
        if "step" in spec:
            step = _require(spec, "step", float, path)
            if step <= 0.0:
                raise ConfigError(f"{path}.step", "must be positive")
            num = int(round((stop - start) / step)) + 1
            if abs((num - 1) * step - (stop - start)) > 1e-6 * step:
                raise ConfigError(f"{path}.step", "does not evenly tile [start, stop]")
        elif "num" in spec:
            num = _require(spec, "num", int, path)
            if num < 1:
                raise ConfigError(f"{path}.num", "must be >= 1")
        else:
            raise ConfigError(path, "needs either 'step' or 'num'")
        return np.linspace(start, stop, num)
    raise ConfigError(path, "must be a list or a range object")


def build_grid(cfg):
    if not isinstance(cfg.get("grid"), dict):
        raise ConfigError("grid", "missing or not an object")
    grid_cfg = cfg["grid"]
    _check_keys(grid_cfg, ("lambda", "t"), "grid")
    lam_axis, t_axis = (build_axis(_require(grid_cfg, key, object, "grid"), f"grid.{key}")
                        for key in ("lambda", "t"))
    delta_t = _require(cfg, "delta_t", float, "")
    delta_lambda = _require(cfg, "delta_lambda", float, "", default=None)
    return scan.ScanGrid(lam_axis, t_axis, delta_t, delta_lambda)


def resolve_scan_config(cfg):
    """Fill defaults and validate; the result re-resolves to itself (round trip)."""
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    _check_keys(cfg, ("model", "grid", "delta_t", "delta_lambda", "fields", "detect",
                      "classify", "output_dir", "threads", "failure_budget"), "")
    model = build_model(cfg.get("model", {}))
    fields = _require(cfg, "fields", list, "", default=["F_beta", "Cv"])

    detect = _require(cfg, "detect", dict, "", default=None)
    if detect is None:
        detect = {mode: name for mode, name in (("minima", "F_beta"), ("jumps", "Cv"))
                  if name in fields}
    _check_keys(detect, ("minima", "jumps", "jump_threshold"), "detect")
    detect = dict(detect, jump_threshold=_require(detect, "jump_threshold", float, "detect",
                                                  default=scan.JUMP_THRESHOLD))
    for mode in ("minima", "jumps"):
        target = _require(detect, mode, str, "detect", default=None)
        if target is not None and target not in fields:
            raise ConfigError(f"detect.{mode}", f"field {target!r} is not being computed")

    classify = _require(cfg, "classify", dict, "", default=None)
    if classify is not None:
        _check_keys(classify, ("sizes", "lambdas"), "classify")
        sizes = [_number(n, int, "classify.sizes")
                 for n in _require(classify, "sizes", list, "classify")]
        lambdas = [_number(v, float, "classify.lambdas")
                   for v in _require(classify, "lambdas", list, "classify")]
        if not lambdas:
            raise ConfigError("classify.lambdas", "must be a non-empty list of numbers")
        classify = dict(classify, sizes=sizes, lambdas=lambdas)

    try:
        grid = build_grid(cfg)
        scan.check_request(model, grid, fields)
        core.check_positive("jump_threshold", detect["jump_threshold"])
        if detect.get("jumps"):
            core.check_uniform(grid.t_axis, "t_axis")  # as locate_jumps does
        if classify is not None:
            scan.check_classify(model, classify["lambdas"], classify["sizes"], grid.t_axis,
                                grid.delta_t)
    except DomainError as exc:
        raise ConfigError(_CONFIG_KEYS.get(exc.key, exc.key or "config"), str(exc)) from exc

    budget = _require(cfg, "failure_budget", float, "", default=0.01)
    if not 0.0 <= budget <= 1.0:
        raise ConfigError("failure_budget", "must be in [0, 1]")
    threads = _require(cfg, "threads", int, "", default=None)
    if threads is not None and threads < 1:
        raise ConfigError("threads", "must be a positive integer")
    output_dir = _require(cfg, "output_dir", str, "", default="out")
    if not output_dir:
        raise ConfigError("output_dir", "must be a non-empty string")

    resolved = {
        "model": dict(cfg["model"]),
        "grid": {"lambda": [float(v) for v in grid.lambda_axis],
                 "t": [float(v) for v in grid.t_axis]},
        "delta_t": grid.delta_t,
        "fields": list(fields),
        "detect": detect,
        "output_dir": output_dir,
        "failure_budget": budget,
    }
    if grid.delta_lambda is not None:
        resolved["delta_lambda"] = grid.delta_lambda
    if classify is not None:
        resolved["classify"] = classify
    if threads is not None:
        resolved["threads"] = threads
    return resolved, model, grid


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def _fmt(x):
    return f"{x:.17g}"


def write_field_csv(path, field):
    lams, ts = ([_fmt(x) for x in axis.tolist()]
                for axis in (field.grid.lambda_axis, field.grid.t_axis))
    rows = [f"{lam},{t},{value:.17g}\n" for lam, values in zip(lams, field.values.tolist())
            for t, value in zip(ts, values)]
    with open(path, "w") as fh:
        fh.write("lambda,T,value\n" + "".join(rows))


def write_line_csv(path, line, verdicts=()):
    """A line's rows; a jump row at a lambda of the (lambda, verdict) pairs carries its verdict."""
    by_lambda = dict(verdicts) if line.detection == "jump" else {}
    with open(path, "w") as fh:
        fh.write("lambda,T_c,detection,classification\n")
        for lam, tc in line.points:
            verdict = by_lambda.get(lam, scan.UNDETERMINED)
            fh.write(f"{_fmt(lam)},{_fmt(tc)},{line.detection},{verdict}\n")


def read_field_csv(path):
    """Rebuild a ScanField from a lambda,T,value file written by this tool."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "lambda,T,value":
                raise ConfigError(path, f"unexpected header {header!r}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(path, f"cannot read field file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(path, f"malformed field file: {exc}") from exc
    if data.shape[1] != 3:
        raise ConfigError(path, f"expected 3 columns, got {data.shape[1]}")
    lam_axis, lam_index = np.unique(data[:, 0], return_inverse=True)
    t_axis, t_index = np.unique(data[:, 1], return_inverse=True)
    cells = lam_index * t_axis.size + t_index  # each row's place in the lambda-outer grid
    if np.any(np.bincount(cells, minlength=lam_axis.size * t_axis.size) != 1):
        raise ConfigError(path, "rows do not form a complete lambda x T grid")
    values = np.empty((lam_axis.size, t_axis.size))
    values[lam_index, t_index] = data[:, 2]
    grid = scan.ScanGrid(lam_axis, t_axis, delta_t=None)
    return scan.ScanField("loaded", grid, values)


# ---------------------------------------------------------------------------
# scan subcommand
# ---------------------------------------------------------------------------

def cmd_scan(config_path, threads=None):
    """Compute the fields, lines and verdicts, then write each field CSV, line CSV and report.

    A failure in the compute step leaves no file. The failure budget is checked
    after the write step, so a run over it still writes every file.
    """
    resolved, model, grid = resolve_scan_config(load_config(config_path))
    if threads is None:
        # the CPUs this process may run on, where the platform says, not the host's
        affinity = getattr(os, "sched_getaffinity", None)
        available = len(affinity(0)) if affinity else os.cpu_count() or 1
        threads = resolved.get("threads") or available
    elif threads < 1:  # the flag obeys the threads key's rule
        raise ConfigError("--threads", "must be a positive integer")

    core.warn_if_large_steps(float(grid.t_axis[0]), float(np.abs(grid.lambda_axis).min()),
                             grid.delta_t, grid.delta_lambda)

    out_dir = os.environ.get(OUTPUT_DIR_ENV) or resolved["output_dir"]
    os.makedirs(out_dir, exist_ok=True)

    started = time.perf_counter()
    fields = scan.sweep(model, grid, resolved["fields"], threads=threads)
    by_name = {f.name: f for f in fields}
    detect = resolved["detect"]
    lines = {mode: _locate(mode, by_name[detect[mode]], detect["jump_threshold"])
             for mode in ("minima", "jumps") if detect.get(mode)}
    classify_cfg = resolved.get("classify")
    verdicts = [(lam, scan.classify_transition(model, lam, classify_cfg["sizes"],
                                               grid.t_axis, grid.delta_t))
                for lam in classify_cfg["lambdas"]] if classify_cfg else []

    outputs = {"fields": {f.name: os.path.join(out_dir, f"{f.name}.csv") for f in fields}}
    for field in fields:
        write_field_csv(outputs["fields"][field.name], field)
    for mode, line in lines.items():
        outputs[mode] = os.path.join(out_dir, f"{mode}.csv")
        write_line_csv(outputs[mode], line, verdicts)

    elapsed = time.perf_counter() - started
    entries = int(grid.shape[0] * grid.shape[1] * len(fields))
    failures = int(sum(f.missing_cells() for f in fields))

    report = {
        "config": resolved,
        "outputs": outputs,
        "critical_lines": [{"detection": line.detection, "field": detect[mode],
                            "points": [[lam, tc] for lam, tc in line.points]}
                           for mode, line in lines.items()],
        "classifications": [{"lambda": lam, "sizes": classify_cfg["sizes"],
                             "classification": verdict} for lam, verdict in verdicts],
        "timing_s": elapsed,
        "cells": entries,
        "cell_failures": failures,
    }
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    outputs["report"] = report_path

    if failures > resolved["failure_budget"] * entries:
        raise EvaluationError(
            f"{failures}/{entries} cell evaluations failed, above the "
            f"{resolved['failure_budget']:.1%} budget (see {report_path})"
        )
    return report


def _locate(mode, field, jump_threshold):
    """The critical line of one detection mode, "minima" or "jumps"."""
    if mode == "minima":
        return scan.locate_minima(field)
    return scan.locate_jumps(field, jump_threshold)


# ---------------------------------------------------------------------------
# validate subcommand
# ---------------------------------------------------------------------------

def cmd_validate():
    from . import exact  # the dense references and their suite, which a scan never loads
    checks = []
    for name, fn in exact.VALIDATION_CHECKS:
        try:
            passed, detail = fn()
        except ThermofidError as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}


# ---------------------------------------------------------------------------
# meanfield subcommand
# ---------------------------------------------------------------------------

def cmd_meanfield(lambdas, t_points):
    """Rows (lam, T_c, T, m_x) for each requested lam over a temperature ladder."""
    rows = []
    for lam in lambdas:
        tc = lmg.lmg_meanfield_critical_temperature(lam)
        for t in np.linspace(*_MEANFIELD_T_RANGE, t_points):
            rows.append((lam, tc, float(t), lmg.lmg_meanfield_m_x(1.0 / t, lam)))
    return rows


def _write_meanfield(rows, stream):
    stream.write("lambda,T_c,T,m_x\n")
    for lam, tc, t, m_x in rows:
        stream.write(f"{_fmt(lam)},{_fmt(tc)},{_fmt(t)},{_fmt(m_x)}\n")


# ---------------------------------------------------------------------------
# boundary subcommand
# ---------------------------------------------------------------------------

def cmd_boundary(config_path):
    cfg = load_config(config_path)
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    _check_keys(cfg, ("field_file", "mode", "output", "jump_threshold"), "")
    field_file = _require(cfg, "field_file", str, "")
    mode = _require(cfg, "mode", str, "")
    if mode not in ("minima", "jumps"):
        raise ConfigError("mode", f"must be 'minima' or 'jumps', got {mode!r}")
    output = _require(cfg, "output", str, "", default="boundary.csv")
    if not output:
        raise ConfigError("output", "must be a non-empty string")
    threshold = _require(cfg, "jump_threshold", float, "", default=scan.JUMP_THRESHOLD)
    try:
        core.check_positive("jump_threshold", threshold)
    except DomainError as exc:
        raise ConfigError("jump_threshold", str(exc)) from exc

    line = _locate(mode, read_field_csv(field_file), threshold)

    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        output = os.path.join(out_dir, os.path.basename(output))
    write_line_csv(output, line)
    return {"mode": mode, "points": len(line.points), "output": output}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse_lambda_list(text):
    try:
        return [float(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError("--lambda", f"cannot parse {text!r}") from exc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thermofid",
        description="Thermal-state fidelity and phase-diagram scans for solvable spin models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="sweep a model over a lam-T grid")
    p_scan.add_argument("config", help="JSON run configuration")
    p_scan.add_argument("--threads", type=int, default=None,
                        help="most helper processes, at most one per lambda column "
                             "(default: available parallelism)")

    sub.add_parser("validate", help="run the dense-oracle consistency suite")

    p_mf = sub.add_parser("meanfield", help="mean-field critical line and order parameter")
    p_mf.add_argument("--lambda", dest="lambdas", required=True,
                      help="comma- or space-separated field values in [0, 1]")
    p_mf.add_argument("--t-points", type=int, default=21)
    p_mf.add_argument("--output", default=None, help="CSV path (default: stdout)")

    p_bd = sub.add_parser("boundary", help="extract minima/jump lines from a field file")
    p_bd.add_argument("config", help="JSON boundary configuration")

    args = parser.parse_args(argv)
    try:
        if args.command == "scan":
            report = cmd_scan(args.config, threads=args.threads)
            print(json.dumps({"report": report["outputs"]["report"],
                              "cell_failures": report["cell_failures"],
                              "timing_s": report["timing_s"]}, indent=2))
            return EXIT_OK
        if args.command == "validate":
            report = cmd_validate()
            print(json.dumps(report, indent=2))
            if not report["all_passed"]:
                failed = [c["name"] for c in report["checks"] if not c["passed"]]
                print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
                return EXIT_VALIDATION
            return EXIT_OK
        if args.command == "meanfield":
            lambdas = _parse_lambda_list(args.lambdas)
            if args.t_points < 2:
                raise ConfigError("--t-points", "must be >= 2")
            rows = cmd_meanfield(lambdas, t_points=args.t_points)
            if args.output:
                with open(args.output, "w") as fh:
                    _write_meanfield(rows, fh)
            else:
                _write_meanfield(rows, sys.stdout)
            return EXIT_OK
        if args.command == "boundary":
            summary = cmd_boundary(args.config)
            print(json.dumps(summary, indent=2))
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error - {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error - {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ThermofidError as exc:
        print(f"evaluation error - {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    raise AssertionError(f"unhandled command {args.command}")


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
