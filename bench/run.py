"""Scan benchmark for thermofid.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every scan runs the way users run it:
`cli.cmd_scan` on a generated configuration in a fresh interpreter
(bench/scan_child.py), closed loop, one scan at a time, with the thread
count the workload's configuration gives (at most 2). An iteration is one
pass over the workload's scans; iterations repeat until the next one would
overrun S seconds (at least one runs). Each invocation also checks
`cli.cmd_validate()` once.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced iterations, prints the per-layer metrics
from the traced ones (see tracer.py and metrics.py), the tracing overhead,
and whether traced and untraced scans wrote byte-identical CSVs.

Every scan's outputs are gated (workloads.check); a failed check is printed
and its scan counted as failed. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where an operation is a scan
or the validate call. Exit code 2 without that line means the benchmark
could not run at all, e.g. because the package source is missing.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import metrics
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scan_child.py")
WORK_ROOT = os.path.join(ROOT, ".benchwork")

CHILD_TIMEOUT_S = 150.0
# set-up is sampled on every scan launch, padded with set-up-only launches
MIN_SETUP_SAMPLES = 5

# name -> unit; the final JSON line carries exactly these
# (op_fail_frac is failed / attempted of that line, so it is not repeated here)
END_TO_END = {"scan_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "cell_ok_frac": "ratio"}
PER_LAYER = {
    "models.log_z_us": "us", "models.log_z_calls": "count",
    "quadrature.calls": "count", "quadrature.nodes_per_call": "count",
    "lmg.level_builds": "count", "lmg.eigh_calls": "count", "lmg.levels_bytes": "B",
    "core.values": "count", "core.lnz_calls_per_value": "ratio",
    "core.overhead_us_per_value": "us",
    "scan.sweep_s": "s", "scan.worker_cpu_s": "s", "scan.worker_busy_frac": "ratio",
    "scan.pool_dispatch_s": "s", "scan.detect_s": "s", "scan.classify_log_z_calls": "count",
    "cli.resolve_s": "s", "cli.write_s": "s", "cli.bytes_written": "B",
    "exact.validate_s": "s", "exact.dense_log_z_us": "us", "exact.dense_log_z_calls": "count",
    "trace.overhead_s": "s",
}
# printed but not in the JSON line: zero by construction on workloads that do
# not exercise the layer, so they are reported only where they are measured
PRINTED_ONLY = {
    "models.ising2d.log_z_us": "us", "models.tim1d.log_z_us": "us",
    "models.dicke.log_z_us": "us", "lmg.log_z_warm_us": "us", "lmg.level_build_s": "s",
    "lmg.eigh_s": "s", "lmg.logsumexp_s": "s", "scan.classify_s": "s",
}
HOW = {
    "lmg.levels_bytes": "computed: levels x 2 x 8 B, summed over builds",
    "lmg.level_build_s": "first Lmg.log_z per (N, gamma, |lambda|) and process, minus warm median",
    "core.values": "field-function calls inside sweeps",
    "core.overhead_us_per_value": "field-function self time (minus lnZ) per value",
    "scan.worker_cpu_s": "RUSAGE_CHILDREN delta over scan.sweep; RUSAGE_SELF when threads=1",
    "scan.pool_dispatch_s": "sweep_s - worker_cpu_s / threads",
    "scan.worker_busy_frac": "worker_cpu_s / (threads x sweep_s)",
    "cli.write_s": "write_field_csv + write_line_csv + report.json dump",
    "cli.bytes_written": "sizes of the files in the output directories",
}


@dataclass
class Launch:
    setup_s: float | None
    returncode: int
    result: dict | None
    stderr: str


@dataclass
class Iteration:
    scan_s: float = 0.0
    peak_rss_mb: float = 0.0
    reports: dict = field(default_factory=dict)
    out_dirs: dict = field(default_factory=dict)
    failed_ops: set = field(default_factory=set)
    checks: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    trace_dir: str | None = None


def launch(args, work, trace_dir=None):
    """Run scan_child.py with args; time from launch to its "ready" line."""
    cmd = [sys.executable, CHILD, *args] + (["--trace-dir", trace_dir] if trace_dir else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryFile("w+", dir=work) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env,
                                text=True, start_new_session=True)
        # the child leads its own process group, so its pool workers die with it
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - started if first.strip() == "ready" else None
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    lines = rest.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return Launch(setup_s, proc.returncode, result, stderr)


class Run:
    """State of one benchmark invocation: launches, samples and gate verdicts."""

    def __init__(self, workload, seed, tiny, log):
        self.workload = workload
        self.seed = seed
        self.ops = workloads.build(workload, seed, tiny)
        self.log = log
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
        self.setup_samples = []
        self.attempted = 0
        self.failed = 0
        self.checks = []  # (op, name, passed, detail), every one ever made
        self.dicke_tc = None
        if workload == "dicke_typeb":
            from thermofid.models import dicke_critical_temperature

            self.dicke_tc = dicke_critical_temperature(1.5)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _config_path(self, label, op, config):
        out_dir = os.path.join(self.work, label, op)
        path = os.path.join(self.work, label, f"{op}.json")
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(dict(config, output_dir=out_dir), fh, indent=1)
        return path, out_dir

    def setup_only(self, keep=True):
        """A set-up-only launch; the first of a run is discarded (keep=False): it
        byte-compiles the package in a fresh checkout and warms file caches."""
        path, _ = self._config_path("setup", self.ops[0][0], self.ops[0][1])
        done = launch(["setup", path], self.work)
        if keep and done.setup_s is not None and done.returncode == 0:
            self.setup_samples.append(done.setup_s)

    def record(self, op, name, passed, detail):
        self.checks.append((op, name, passed, detail))
        if not passed:
            self.log(f"  [FAIL] {op}: {name}: {detail}")

    def validate(self, traced):
        self.attempted += 1
        trace_dir = self._trace_dir("validate") if traced else None
        done = launch(["validate"], self.work, trace_dir)
        ok = done.result is not None and done.result["report"]["all_passed"]
        detail = (f"exit {done.returncode}" if done.result is None else
                  "; ".join(f"{c['name']}={'ok' if c['passed'] else 'FAIL ' + c['detail']}"
                            for c in done.result["report"]["checks"]))
        self.record("validate", "cmd_validate() all_passed", ok, detail)
        if not ok:
            self.failed += 1
            self.log(done.stderr[-2000:])
        return trace_dir

    def _trace_dir(self, label):
        path = os.path.join(self.work, f"trace-{label}")
        os.makedirs(path, exist_ok=True)
        return path

    def iteration(self, index, traced):
        label = f"{'traced' if traced else 'plain'}-{index}"
        it = Iteration(trace_dir=self._trace_dir(label) if traced else None)
        for op, config in self.ops:
            self.attempted += 1
            path, out_dir = self._config_path(label, op, config)
            done = launch(["scan", path], self.work, it.trace_dir)
            if done.setup_s is not None and not traced:
                self.setup_samples.append(done.setup_s)
            if done.result is None:
                it.failed_ops.add(op)
                self.record(op, "scan exits 0", False,
                            f"exit {done.returncode}: {done.stderr.strip()[-1500:]}")
                continue
            it.scan_s += done.result["elapsed_s"]
            it.peak_rss_mb = max(it.peak_rss_mb, done.result["peak_rss_kib"] / 1024.0)
            it.reports[op] = done.result["report"]
            it.out_dirs[op] = out_dir
        if len(it.reports) == len(self.ops):
            checks, it.errors = workloads.check(self.workload, it.reports, self.dicke_tc)
            for op, name, passed, detail in checks:
                self.record(op, name, passed, detail)
                if not passed:
                    it.failed_ops.add(op)
            it.checks = checks
        self.failed += len(it.failed_ops)
        return it

    def loop(self, seconds, traced):
        """Iterations (untraced, or untraced/traced pairs) until the next would overrun."""
        plain, with_trace = [], []
        deadline = time.perf_counter() + seconds
        last = 0.0
        while not plain or time.perf_counter() + last <= deadline:
            started = time.perf_counter()
            plain.append(self.iteration(len(plain), traced=False))
            if traced:
                with_trace.append(self.iteration(len(with_trace), traced=True))
            last = time.perf_counter() - started
        return plain, with_trace


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "thermofid", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "n/a (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "n/a"


def environment(run, plain, traced):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
        "workload": run.workload,
        "seed": run.seed,
        "threads": {op: config["threads"] for op, config in run.ops},
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples": len(run.setup_samples),
    }


def end_to_end(run, plain):
    """(json metrics, printed rows) of the untraced iterations."""
    scan_s = _scan_times(run, plain)
    rss = [it.peak_rss_mb for it in plain if it.reports]
    cells = sum(r["cells"] for it in plain for r in it.reports.values())
    cell_failures = sum(r["cell_failures"] for it in plain for r in it.reports.values())
    errors = [e for it in plain for e in it.errors]
    values = {
        "scan_s": statistics.median(scan_s) if scan_s else math.nan,
        "setup_s": statistics.median(run.setup_samples) if run.setup_samples else math.nan,
        "peak_rss_mb": statistics.median(rss) if rss else math.nan,
        "cell_ok_frac": 1.0 - cell_failures / cells if cells else math.nan,
    }
    scans = run.attempted - 1
    rows = [
        ("scan_s", "s", metrics.describe(scan_s, "s") if scan_s else "no successful iteration"),
        ("setup_s", "s", metrics.describe(run.setup_samples, "s")
         if run.setup_samples else "no sample"),
        ("peak_rss_mb", "MiB", metrics.describe(rss, "MiB") if rss else "no sample"),
        ("cell_fail_frac", "ratio",
         f"{cell_failures / cells if cells else math.nan:.6g} = {cell_failures}/{cells} "
         f"cells (base: report.json cells over {len(plain)} iterations)"),
        ("op_fail_frac", "ratio",
         f"{run.failed / run.attempted:.6g} = {run.failed}/{run.attempted} operations "
         f"({scans} scans + 1 validate call)"),
        ("tc_abs_err", "T",
         f"{max(errors):.6g} (largest |T_c - reference| over {len(plain[-1].errors)} "
         f"reference points x {len(plain)} iterations)"
         if errors else "undefined: this workload has no reference T_c"),
        ("cell_ok_frac", "ratio", f"{values['cell_ok_frac']:.6g} = 1 - cell_fail_frac"),
    ]
    return values, rows


def _scan_times(run, iterations):
    """scan_s of iterations whose scans all exited 0; a gate failure still ran its scans."""
    return [it.scan_s for it in iterations if len(it.reports) == len(run.ops)]


def csv_identity(run, plain, traced):
    """Compare every CSV of the first traced iteration with the first untraced one."""
    first_plain = next((it for it in plain if it.reports), None)
    first_traced = next((it for it in traced if it.reports), None)
    if first_plain is None or first_traced is None:
        return
    for op in first_traced.out_dirs:
        a_dir, b_dir = first_plain.out_dirs[op], first_traced.out_dirs[op]
        names = sorted(n for n in os.listdir(a_dir) if n.endswith(".csv"))
        differ = [n for n in names if not os.path.exists(os.path.join(b_dir, n))
                  or _read(os.path.join(a_dir, n)) != _read(os.path.join(b_dir, n))]
        passed = bool(names) and not differ
        run.record(op, "traced CSVs byte-identical to untraced", passed,
                   f"{len(names)} CSV files compared; differing: {differ}")
        if not passed:
            run.failed += 1


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


def per_layer(run, plain, traced, validate_dir):
    """(json metrics, printed rows) from traced iterations and the traced validate call."""
    per_iteration = []
    pooled = {}
    for it in traced:
        if not it.reports:
            continue
        dumps = [_load(p) for p in sorted(glob.glob(os.path.join(it.trace_dir, "*.json")))]
        values, samples = metrics.layer_metrics(dumps)
        values["cli.bytes_written"] = sum(_dir_bytes(d) for d in it.out_dirs.values())
        per_iteration.append(values)
        for name, durations in samples.items():
            pooled.setdefault(name, []).extend(durations)
    exact_dumps = [_load(p) for p in glob.glob(os.path.join(validate_dir, "*.json"))]
    exact_values, exact_samples = metrics.layer_metrics(exact_dumps)
    pooled_exact = exact_samples["exact.dense_log_z_us"]

    values = {}
    names = [n for n in list(PER_LAYER) + list(PRINTED_ONLY)
             if not n.startswith(("exact.", "trace."))]
    for name in names:
        found = [v[name] for v in per_iteration if v.get(name) is not None]
        values[name] = statistics.median(found) if found else None
        if pooled.get(name):  # per-call timings: median over every traced call
            values[name] = statistics.median(pooled[name])
    for name in ("exact.validate_s", "exact.dense_log_z_us", "exact.dense_log_z_calls"):
        values[name] = exact_values[name]
    plain_s = _scan_times(run, plain)
    traced_s = _scan_times(run, traced)
    values["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s)
                                  if plain_s and traced_s else None)

    rows = []
    for name, unit in list(PER_LAYER.items()) + list(PRINTED_ONLY.items()):
        if name == "trace.overhead_s":
            continue  # printed below with its two terms
        value = values[name]
        samples = pooled_exact if name == "exact.dense_log_z_us" else pooled.get(name)
        if value is None:
            detail = "n/a: not exercised by this workload"
        elif samples:
            detail = metrics.describe(samples, unit)
        else:
            detail = f"{value:.6g}"
        if name in HOW:
            detail += f" ({HOW[name]})"
        rows.append((name, unit, detail))
    if values["trace.overhead_s"] is not None:
        rows.append(("trace.overhead_s", "s",
                     f"{values['trace.overhead_s']:.6g} = median traced scan_s "
                     f"{statistics.median(traced_s):.6g} - median untraced "
                     f"{statistics.median(plain_s):.6g}"))
    rows.append(("trace.worker_dumps", "count",
                 "pool worker processes with spans, per traced iteration: "
                 f"{[v['trace.worker_dumps'] for v in per_iteration]} "
                 f"(sweeps run on a pool: {[v['trace.pooled_sweeps'] for v in per_iteration]})"))
    return {n: values[n] for n in PER_LAYER}, rows


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace, tiny=False, log=print):
    """Run one benchmark invocation; returns the final JSON object."""
    run = Run(workload, seed, tiny, log)
    try:
        run.setup_only(keep=False)
        validate_dir = run.validate(traced=trace)
        plain, traced = run.loop(seconds, trace)
        for _ in range(MIN_SETUP_SAMPLES - len(run.setup_samples)):
            run.setup_only()
        if trace:
            csv_identity(run, plain, traced)

        log("env " + json.dumps(environment(run, plain, traced), sort_keys=True))
        for op, config in run.ops:
            log(f"config {op} " + json.dumps(config, sort_keys=True))
        passed = sum(1 for c in run.checks if c[2])
        log(f"gate: {passed}/{len(run.checks)} checks passed; once-per-run checks and "
            f"the last untraced iteration's:")
        once = [c for c in run.checks if c[0] == "validate" or c[1].startswith("traced")]
        for op, name, ok, detail in once + (plain[-1].checks if plain else []):
            log(f"  [{'PASS' if ok else 'FAIL'}] {op}: {name}: {detail}")

        e2e_values, e2e_rows = end_to_end(run, plain)
        log("samples scan_s " + json.dumps([round(it.scan_s, 6) for it in plain])
            + " setup_s " + json.dumps([round(s, 6) for s in run.setup_samples]))
        log("end-to-end (tracing off):")
        for name, unit, detail in e2e_rows:
            log(f"  {name:<16} [{unit}] {detail}")
        if trace:
            layer_values, layer_rows = per_layer(run, plain, traced, validate_dir)
            log("per-layer (traced iterations):")
            for name, unit, detail in layer_rows:
                log(f"  {name:<28} [{unit}] {detail}")
            chosen = {n: (layer_values[n], u) for n, u in PER_LAYER.items()}
        else:
            chosen = {n: (e2e_values[n], u) for n, u in END_TO_END.items()}

        correct = all(c[2] for c in run.checks)
        return {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": v if v is not None else math.nan, "unit": u}
                        for n, (v, u) in chosen.items()},
        }
    finally:
        run.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "thermofid", "cli.py")):
        print(f"benchmark: no package source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
