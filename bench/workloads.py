"""Benchmark workloads: scan configurations generated from a seed, and their gates.

Seed 0 gives exactly the acceptance grids. Any other seed shifts each
temperature axis by a seeded fraction of its step, so the program sees
different cells while the physics under test stays the same. The program
receives only the generated configuration.

Each workload is a list of operations; an operation is one `cmd_scan` call
on one configuration. `check` turns the operations' reports into gate
verdicts plus the |detected T_c - reference| values the workload defines.
"""

import math
import random

ISING_TC = 2.0 / math.log(1.0 + math.sqrt(2.0))
LMG_LAMBDAS = (0.2, 0.4, 0.6, 0.8)

# tolerances of the acceptance criteria the gates reproduce
ISING_TOL = 0.02
LMG_TOL = 0.05
DICKE_REL_TOL = 0.05
# cmd_scan's default cell-failure budget, as a share of cells
FAILURE_BUDGET = 0.01

WHY = {
    "ising_ridge": "scalar Ising lnZ quadrature dominates; one lambda column is one "
                   "pool chunk, so one of two workers idles",
    "tim_phase_plane": "16x59 plane with all five fields: stencil overhead, pool "
                       "dispatch and CSV output do their most work",
    "lmg_jump_lines": "LMG N=800 level builds and logsumexp dominate; op A is "
                      "build-heavy, op B leans on warm evaluation",
    "lmg_cv_lines": "op B of lmg_jump_lines alone: LMG N=800 Cv lines, four level "
                    "builds per scan plus warm logsumexp evaluation",
    "dicke_typeb": "serial (threads 1) Dicke scan where classify_transition's scalar "
                   "Cv loops take most of the time",
}
# Runnable by hand but left out of BENCHMARK.json, whose workloads must pass
# their gate on every seed:
# - lmg_jump_lines fails its chi gate on about a quarter of the seeds. At
#   N=800 the lambda=0.8 chi jump lies 0.049 below lambda/atanh(lambda) even
#   on a 0.001 grid, and on the 0.01 grid the estimate moves by up to 0.003
#   with the T shift; shifts of about 0.62-0.85 of a step put it over 0.05.
#   Its Cv op, whose jumps stay within 0.034 on every shift, is benchmarked
#   alone as lmg_cv_lines so that the lmg layer is still measured.
# - dicke_typeb: runs long enough to keep its single-threaded scans steady on
#   a noisy 2-core host do not fit the run budget.
NOT_IN_BENCHMARK = ("lmg_jump_lines", "dicke_typeb")


def lmg_reference(lam):
    """Mean-field critical temperature lam / atanh(lam) of the LMG model."""
    return lam / math.atanh(lam)


def _stepped_axis(start, stop, step, shift):
    if shift == 0.0:
        return {"start": start, "stop": stop, "step": step}
    delta = shift * step
    return {"start": round(start + delta, 12), "stop": round(stop + delta, 12), "step": step}


def _counted_axis(start, stop, num, shift):
    if shift == 0.0:
        return {"start": start, "stop": stop, "num": num}
    delta = shift * (stop - start) / (num - 1)
    return {"start": round(start + delta, 12), "stop": round(stop + delta, 12), "num": num}


def _shifts(seed):
    """Seeded fractions of a step, one per temperature axis; all zero for seed 0."""
    if seed == 0:
        while True:
            yield 0.0
    rng = random.Random(seed)
    while True:
        yield rng.random()


def build(workload, seed, tiny=False):
    """Return [(op_name, config)] for a workload; `tiny` shrinks grids for self-tests."""
    shifts = _shifts(seed)
    if workload == "ising_ridge":
        return [("scan", {
            "model": {"name": "ising2d", "coupling_j": 1.0},
            "grid": {"lambda": [0.0],
                     "t": _stepped_axis(2.0, 2.6, 0.02, next(shifts)) if tiny
                     else _stepped_axis(1.5, 3.5, 0.005, next(shifts))},
            "delta_t": 0.01,
            "fields": ["F_beta", "Cv", "chi_beta"],
            "detect": {"minima": "F_beta", "jumps": "Cv"},
            "threads": 2,
        })]
    if workload == "tim_phase_plane":
        lam = {"start": 0.0, "stop": 1.5, "step": 0.3 if tiny else 0.1}
        return [("scan", {
            "model": {"name": "tim1d"},
            "grid": {"lambda": lam,
                     "t": _stepped_axis(0.05, 1.5, 0.05 if tiny else 0.025, next(shifts))},
            "delta_t": 0.01,
            "delta_lambda": 0.002,
            "fields": ["F_beta", "Cv", "chi", "chi_beta", "chi_lambda"],
            "detect": {"minima": "F_beta", "jumps": "Cv"},
            "classify": {"sizes": [100, 200, 400], "lambdas": [0.9]},
            "threads": 2,
        })]
    if workload in ("lmg_jump_lines", "lmg_cv_lines"):
        n_spins = 200 if tiny else 800
        lambdas = [0.4, 0.8] if tiny else list(LMG_LAMBDAS)
        model = {"name": "lmg", "n_spins": n_spins, "gamma": 0.2}
        chi = ("chi", {
            "model": model,
            "grid": {"lambda": lambdas, "t": _stepped_axis(0.40, 1.15, 0.01, next(shifts))},
            "delta_t": 0.002,
            "delta_lambda": 0.002,
            "fields": ["chi"],
            "detect": {"jumps": "chi", "jump_threshold": 5.0},
            "threads": 2,
        }) if workload == "lmg_jump_lines" else None
        cv = ("Cv", {
            "model": model,
            "grid": {"lambda": lambdas, "t": _stepped_axis(0.62, 1.15, 0.01, next(shifts))},
            "delta_t": 0.002,
            "fields": ["Cv"],
            "detect": {"jumps": "Cv", "jump_threshold": 3.0},
            "threads": 2,
        })
        return [op for op in (chi, cv) if op]
    if workload == "dicke_typeb":
        return [("scan", {
            "model": {"name": "dicke", "n_atoms": 200},
            "grid": {"lambda": [1.5],
                     "t": _counted_axis(0.85, 1.30, 23 if tiny else 91, next(shifts))},
            "delta_t": 0.002,
            "fields": ["Cv"],
            "detect": {"jumps": "Cv", "jump_threshold": 2.0},
            "classify": {"sizes": [50, 100, 200], "lambdas": [1.5]},
            "threads": 1,
        })]
    raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")


def _line(report, detection):
    for line in report["critical_lines"]:
        if line["detection"] == detection:
            return [tuple(p) for p in line["points"]]
    return []


def _verdict(report):
    return [c["classification"] for c in report["classifications"]]


def check(workload, reports, dicke_tc=None):
    """Gate one iteration's reports ({op_name: report}).

    Returns (checks, errors): checks is [(op, name, passed, detail)] and errors
    the |detected T_c - reference| values over the workload's reference
    points (empty for tim_phase_plane, which has none).
    """
    checks = []
    errors = []
    for op, report in reports.items():
        cells, failures = report["cells"], report["cell_failures"]
        checks.append((op, "cell failures within budget",
                       failures <= FAILURE_BUDGET * cells,
                       f"{failures}/{cells} cells failed (budget {FAILURE_BUDGET:.0%})"))

    if workload == "ising_ridge":
        minima = _line(reports["scan"], "minimum")
        ok = len(minima) == 1
        err = abs(minima[0][1] - ISING_TC) if ok else math.inf
        errors.append(err)
        checks.append(("scan", "F_beta minimum near 2/ln(1+sqrt2)", ok and err <= ISING_TOL,
                       f"minima {minima}; |T - {ISING_TC:.6f}| = {err:.5f} <= {ISING_TOL}"))
    elif workload in ("lmg_jump_lines", "lmg_cv_lines"):
        for op, report in reports.items():
            found = dict(_line(report, "jump"))
            for lam in _lambdas(report):
                tc = lmg_reference(lam)
                err = abs(found[lam] - tc) if lam in found else math.inf
                errors.append(err)
                checks.append((op, f"jump at lambda={lam}", err <= LMG_TOL,
                               f"T_jump={found.get(lam)} vs lam/atanh(lam)={tc:.5f}: "
                               f"|err|={err:.5f} <= {LMG_TOL}"))
    elif workload == "dicke_typeb":
        report = reports["scan"]
        jumps = _line(report, "jump")
        ok = len(jumps) == 1
        err = abs(jumps[0][1] - dicke_tc) if ok else math.inf
        errors.append(err)
        checks.append(("scan", "Cv jump within 5% of T_c", ok and err <= DICKE_REL_TOL * dicke_tc,
                       f"jumps {jumps} vs T_c={dicke_tc:.5f}: rel err {err / dicke_tc:.4f}"))
        checks.append(("scan", "classified TypeB", _verdict(report) == ["TypeB"],
                       f"verdicts {_verdict(report)}"))
    elif workload == "tim_phase_plane":
        report = reports["scan"]
        ridge = _line(report, "minimum")
        below = [t for lam, t in ridge if lam < 1.0 - 1e-9]
        above = [t for lam, t in ridge if lam > 1.0 + 1e-9]
        have = {round(lam, 9) for lam, _ in ridge}
        missing = [lam for lam in _lambdas(report)
                   if not 0.9 - 1e-9 <= lam <= 1.1 + 1e-9 and round(lam, 9) not in have]
        checks.append(("scan", "ridge has a minimum outside lambda 0.9-1.1", not missing,
                       f"columns without an interior minimum: {missing}"))
        checks.append(("scan", "ridge strictly decreasing for lambda < 1",
                       all(b < a for a, b in zip(below, below[1:])),
                       f"T_min = {[round(t, 4) for t in below]}"))
        checks.append(("scan", "ridge strictly increasing for lambda > 1",
                       all(b > a for a, b in zip(above, above[1:])),
                       f"T_min = {[round(t, 4) for t in above]}"))
        jumps = _line(report, "jump")
        checks.append(("scan", "no Cv jump", not jumps, f"jumps {jumps}"))
        checks.append(("scan", "classified Crossover", _verdict(report) == ["Crossover"],
                       f"verdicts {_verdict(report)}"))
    return checks, errors


def _lambdas(report):
    return report["config"]["grid"]["lambda"]
