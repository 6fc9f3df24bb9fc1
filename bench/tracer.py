"""Outside-in span tracer for a thermofid scan process.

`Tracer.install()` wraps public module attributes and class methods of the
package before a scan starts; nothing in the package changes. A span is
[name, parent index, start ns, end ns, extra]. Spans stay in memory and are
written to `<out_dir>/spans-<pid>.json` when the process is done: by the
scan process through `dump()`, and by each forked pool worker through a
multiprocessing finalizer, which runs when the worker exits. Forked workers
inherit the wrappers; a pool started any other way would not, which the
analysis reports as a missing worker dump.
"""

import functools
import json
import multiprocessing.util
import os
import resource
import time

from thermofid import cli, core, exact, lmg, models, scan

FIELD_FUNCTIONS = ("fidelity_beta", "specific_heat", "susceptibility_lambda",
                   "fidelity_susceptibility_beta", "fidelity_susceptibility_lambda")
QUADRATURE_RULES = ("adaptive_simpson", "composite_simpson")


def _cpu_s(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class _JsonProxy:
    """Stands in for `cli.json` so that `json.dump` of report.json is timed."""

    def __init__(self, module, dump):
        self._module = module
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.role = "main"
        self.spans = []
        self._stack = []

    def _open(self, name, extra=None):
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0, extra]
        self.spans.append(record)
        self._stack.append(index)
        return record

    def _close(self, record):
        record[3] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name, key=None):
        """Span around fn; key(*args) gives the span's extra value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name, key(*args) if key else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def wrap_quadrature(self, fn, name):
        """Span around a quadrature rule; extra counts the integrand abscissae."""

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            record = self._open(name, 0)

            def counted(x):
                record[4] += x.size
                return f(x)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._close(record)

        return traced

    def wrap_sweep(self, fn):
        """Span around scan.sweep; extra holds threads and the sweep's worker CPU time.

        With a pool, worker CPU is the RUSAGE_CHILDREN delta (the pool joins
        its workers before sweep returns); without one the sweep runs in this
        process, which is then its own worker.
        """

        @functools.wraps(fn)
        def traced(model, grid, fields, threads=1):
            pooled = threads is not None and threads > 1
            who = resource.RUSAGE_CHILDREN if pooled else resource.RUSAGE_SELF
            before = _cpu_s(who)
            record = self._open("scan.sweep")
            try:
                return fn(model, grid, fields, threads=threads)
            finally:
                self._close(record)
                record[4] = {"threads": threads if pooled else 1,
                             "worker_cpu_s": _cpu_s(who) - before}

        return traced

    def install(self):
        for key, cls in cli.MODEL_CLASSES.items():
            level_key = None
            if cls is lmg.Lmg:
                def level_key(model, beta, lam):
                    return [model.n_spins, model.gamma, abs(lam)]
            cls.log_z = self.wrap(cls.log_z, f"models.{key}.log_z", level_key)
        exact.DenseModel.log_z = self.wrap(exact.DenseModel.log_z, "exact.DenseModel.log_z")
        for name in QUADRATURE_RULES:
            setattr(models, name, self.wrap_quadrature(getattr(models, name), f"quadrature.{name}"))
        lmg.eigh_tridiagonal = self.wrap(lmg.eigh_tridiagonal, "lmg.eigh_tridiagonal")
        lmg.logsumexp = self.wrap(lmg.logsumexp, "lmg.logsumexp")
        for name in FIELD_FUNCTIONS:
            setattr(core, name, self.wrap(getattr(core, name), f"core.{name}"))
        scan.sweep = self.wrap_sweep(scan.sweep)
        for name in ("locate_minima", "locate_jumps", "classify_transition"):
            setattr(scan, name, self.wrap(getattr(scan, name), f"scan.{name}"))
        for name in ("cmd_scan", "cmd_validate", "resolve_scan_config",
                     "write_field_csv", "write_line_csv"):
            setattr(cli, name, self.wrap(getattr(cli, name), f"cli.{name}"))
        cli.json = _JsonProxy(cli.json, self.wrap(cli.json.dump, "cli.json.dump"))
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        return self

    def _after_fork(self):
        self.role = "worker"
        self.spans = []
        self._stack = []
        multiprocessing.util.Finalize(self, Tracer.dump, args=(self,), exitpriority=100)

    def dump(self):
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "role": self.role, "spans": self.spans}, fh)
