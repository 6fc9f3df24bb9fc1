"""Arithmetic of the benchmark: timing summaries and per-layer metrics from spans.

A span is [name, parent index, start ns, end ns, extra] as written by
tracer.Tracer; a dump is {"pid", "role", "spans"} for one process.
"""

import math
import statistics

# candidate tail percentiles, highest first
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

MODEL_SPAN = "models.{}.log_z"
PER_MODEL = ("ising2d", "tim1d", "dicke")
FIELD_PREFIX = "core."
LEVEL_BYTES_PER_LEVEL = 2 * 8  # one float64 energy and one float64 log-degeneracy


def tail_percentile(samples):
    """Highest percentile in PERCENTILES with >= MIN_BEYOND samples beyond it.

    Nearest-rank: the p-th percentile is the ceil(p n / 100)-th smallest
    sample, and the samples beyond it are the ones ranked above. Returns
    (p, value), or None when even the median has fewer than MIN_BEYOND beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(p * n / 100.0)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def describe(samples, unit, scale=1.0):
    """Median plus the tail percentile rule, with the sample count, as text."""
    values = [s * scale for s in samples]
    text = f"median {statistics.median(values):.6g} {unit}, n={len(values)}"
    tail = tail_percentile(values)
    if tail is None:
        return text + f"; no percentile has >= {MIN_BEYOND} samples beyond it"
    return text + f"; p{tail[0]:g} {tail[1]:.6g} {unit}"


def self_times(spans):
    """Each span's duration minus the durations of its direct children (ns)."""
    result = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def pool_split(sweep_s, worker_cpu_s, threads):
    """(worker_busy_frac, pool_dispatch_s) of sweeps with the given totals.

    busy = worker CPU / (threads x wall); dispatch = wall - worker CPU / threads,
    the part of the sweep's wall time the workers did not account for.
    """
    busy = worker_cpu_s / (threads * sweep_s)
    return busy, sweep_s - worker_cpu_s / threads


def lmg_levels(n_spins):
    """Levels of the full LMG trace: sum of 2S + 1 over the sectors S = N/2, N/2 - 1, ..."""
    return sum(n_spins - 2 * k + 1 for k in range(n_spins // 2 + 1))


def _contexts(dump):
    """Per span: 'sweep', 'classify' or None, by the nearest marking ancestor."""
    default = "sweep" if dump["role"] == "worker" else None
    ctx = []
    for name, parent, *_ in dump["spans"]:
        if name == "scan.sweep":
            ctx.append("sweep")
        elif name == "scan.classify_transition":
            ctx.append("classify")
        else:
            ctx.append(ctx[parent] if parent >= 0 else default)
    return ctx


def _is_model(name):
    return name.startswith("models.") and name.endswith(".log_z")


def layer_metrics(dumps):
    """Per-layer values and per-call samples of one traced iteration.

    Returns (values, samples): values maps metric name to a number or None
    (layer not exercised); samples maps per-call timing metrics to their
    durations in microseconds.
    """
    samples = {"models.log_z_us": [], "lmg.log_z_warm_us": [], "exact.dense_log_z_us": []}
    for model in PER_MODEL:
        samples[f"models.{model}.log_z_us"] = []
    totals = dict.fromkeys((
        "models.log_z_calls", "quadrature.calls", "quadrature.nodes", "lmg.eigh_calls",
        "lmg.eigh_s", "lmg.logsumexp_s", "core.values", "core.sweep_log_z_calls",
        "core.overhead_s", "scan.sweep_s", "scan.worker_cpu_s", "scan.thread_s",
        "scan.detect_s", "scan.classify_s", "scan.classify_calls",
        "scan.classify_log_z_calls", "cli.resolve_s", "cli.write_s", "exact.validate_s",
        "exact.dense_log_z_calls", "scan.pooled_sweeps"), 0)
    lmg_calls = []  # (is_build, duration us, n_spins)
    worker_dumps = 0
    for dump in dumps:
        spans = dump["spans"]
        worker_dumps += dump["role"] == "worker"
        ctx = _contexts(dump)
        own = self_times(spans)
        seen_levels = set()
        for i, (name, _, start, end, extra) in enumerate(spans):
            seconds = (end - start) * 1e-9
            if _is_model(name):
                totals["models.log_z_calls"] += 1
                samples["models.log_z_us"].append(seconds * 1e6)
                model = name.split(".")[1]
                if model in PER_MODEL:
                    samples[f"models.{model}.log_z_us"].append(seconds * 1e6)
                if model == "lmg":
                    key = tuple(extra)
                    lmg_calls.append((key not in seen_levels, seconds * 1e6, key[0]))
                    seen_levels.add(key)
                if ctx[i] == "sweep":
                    totals["core.sweep_log_z_calls"] += 1
                elif ctx[i] == "classify":
                    totals["scan.classify_log_z_calls"] += 1
            elif name.startswith("quadrature."):
                totals["quadrature.calls"] += 1
                totals["quadrature.nodes"] += extra
            elif name == "lmg.eigh_tridiagonal":
                totals["lmg.eigh_calls"] += 1
                totals["lmg.eigh_s"] += seconds
            elif name == "lmg.logsumexp":
                totals["lmg.logsumexp_s"] += seconds
            elif name.startswith(FIELD_PREFIX) and ctx[i] == "sweep":
                totals["core.values"] += 1
                totals["core.overhead_s"] += own[i] * 1e-9
            elif name == "scan.sweep":
                totals["scan.sweep_s"] += seconds
                totals["scan.worker_cpu_s"] += extra["worker_cpu_s"]
                totals["scan.thread_s"] += extra["threads"] * seconds
                totals["scan.pooled_sweeps"] += extra["threads"] > 1
            elif name in ("scan.locate_minima", "scan.locate_jumps"):
                totals["scan.detect_s"] += seconds
            elif name == "scan.classify_transition":
                totals["scan.classify_s"] += seconds
                totals["scan.classify_calls"] += 1
            elif name == "cli.resolve_scan_config":
                totals["cli.resolve_s"] += seconds
            elif name in ("cli.write_field_csv", "cli.write_line_csv", "cli.json.dump"):
                totals["cli.write_s"] += seconds
            elif name == "cli.cmd_validate":
                totals["exact.validate_s"] += seconds
            elif name == "exact.DenseModel.log_z":
                totals["exact.dense_log_z_calls"] += 1
                samples["exact.dense_log_z_us"].append(seconds * 1e6)

    values = {k: totals[k] for k in (
        "models.log_z_calls", "quadrature.calls", "lmg.eigh_calls", "core.values",
        "scan.sweep_s", "scan.worker_cpu_s", "scan.detect_s",
        "scan.classify_log_z_calls", "cli.resolve_s", "cli.write_s")}
    values["quadrature.nodes_per_call"] = (
        totals["quadrature.nodes"] / totals["quadrature.calls"] if totals["quadrature.calls"]
        else 0.0)
    for name, durations in samples.items():
        values[name] = statistics.median(durations) if durations else None

    warm = [us for build, us, _ in lmg_calls if not build]
    builds = [(us, n) for build, us, n in lmg_calls if build]
    values["lmg.level_builds"] = len(builds)
    values["lmg.levels_bytes"] = sum(lmg_levels(n) * LEVEL_BYTES_PER_LEVEL for _, n in builds)
    if lmg_calls:
        warm_us = statistics.median(warm) if warm else 0.0
        values["lmg.log_z_warm_us"] = warm_us if warm else None
        values["lmg.level_build_s"] = sum(us - warm_us for us, _ in builds) * 1e-6
        values["lmg.eigh_s"] = totals["lmg.eigh_s"]
        values["lmg.logsumexp_s"] = totals["lmg.logsumexp_s"]
    else:
        values.update(dict.fromkeys(
            ("lmg.level_build_s", "lmg.eigh_s", "lmg.logsumexp_s"), None))

    if totals["core.values"]:
        values["core.lnz_calls_per_value"] = totals["core.sweep_log_z_calls"] / totals["core.values"]
        values["core.overhead_us_per_value"] = totals["core.overhead_s"] * 1e6 / totals["core.values"]
    else:
        values["core.lnz_calls_per_value"] = values["core.overhead_us_per_value"] = None

    if totals["scan.sweep_s"]:
        busy, dispatch = pool_split(totals["scan.sweep_s"], totals["scan.worker_cpu_s"],
                                    totals["scan.thread_s"] / totals["scan.sweep_s"])
        values["scan.worker_busy_frac"] = busy
        values["scan.pool_dispatch_s"] = dispatch
    else:
        values["scan.worker_busy_frac"] = values["scan.pool_dispatch_s"] = None
    values["scan.classify_s"] = totals["scan.classify_s"] if totals["scan.classify_calls"] else None

    values["exact.validate_s"] = totals["exact.validate_s"] or None
    values["exact.dense_log_z_calls"] = totals["exact.dense_log_z_calls"]
    values["trace.worker_dumps"] = worker_dumps
    values["trace.pooled_sweeps"] = totals["scan.pooled_sweeps"]
    return values, samples
