"""What a cold start imports: scipy only for LMG's fallback, and nothing mid-scan.

Each import test runs in a fresh interpreter, because the test process itself
has long since imported scipy through other tests. The source checks read
the package's syntax trees: every import and every module-level name has a
reader, and no module makes up or rebinds its own names at run time.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK_WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())
                       ["workloads"]]
MODEL_CONFIGS = {
    "ising2d": {"model": {"name": "ising2d"}, "grid": {"lambda": [0.0], "t": [2.0, 2.5]}},
    "tim1d": {"model": {"name": "tim1d"}, "grid": {"lambda": [0.5], "t": [0.5, 1.0]}},
    "lmg": {"model": {"name": "lmg", "n_spins": 20}, "grid": {"lambda": [0.5], "t": [0.5, 1.0]}},
    "dicke": {"model": {"name": "dicke", "n_atoms": 20},
              "grid": {"lambda": [1.5], "t": [0.5, 1.0]}},
}


def fresh(tmp_path, body):
    """The JSON value body prints last, run as a script in a fresh interpreter."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench"),
                            os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", body], check=True, capture_output=True,
                          text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path})
    return json.loads(done.stdout.splitlines()[-1])


SCIPY_MODULES = "json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy'])"


def test_cli_import_loads_no_scipy(tmp_path):
    assert fresh(tmp_path, f"import json, sys, thermofid.cli\nprint({SCIPY_MODULES})") == []


def resolve_imports(tmp_path, name, prelude=""):
    """scipy modules loaded once MODEL_CONFIGS[name] is resolved, after prelude ran."""
    config = dict(MODEL_CONFIGS[name], delta_t=0.01, fields=["Cv"])
    return fresh(tmp_path, (
        "import json, pathlib, sys\n"
        "from thermofid import cli, lmg, scan\n"
        f"{prelude}"
        "def no_sweep(*args, **kwargs): raise AssertionError('resolving must not sweep')\n"
        "scan.sweep = no_sweep\n"
        f"cli.resolve_scan_config(json.loads({json.dumps(json.dumps(config))}))\n"
        f"print({SCIPY_MODULES})"))


@pytest.mark.parametrize("name", sorted(MODEL_CONFIGS))
def test_resolving_a_config_loads_scipy_only_for_lmg(tmp_path, name):
    # numpy's wheel brings the LAPACK the LMG levels need, so no model loads
    # scipy; only LMG, on a numpy without it, falls back to scipy
    assert resolve_imports(tmp_path, name) == []
    if name == "lmg":
        # the positive control: with the fallback forced, the level build's
        # eigensolver is loaded, and no other part of scipy
        loaded = resolve_imports(tmp_path, name, "lmg._NUMPY_LIBS = pathlib.Path('absent')\n")
        assert "scipy.linalg" in loaded
        assert "scipy.special" not in loaded and "scipy.optimize" not in loaded


def test_dicke_evaluation_loads_no_scipy(tmp_path):
    # below T_c, where the integrand's peak is away from u = 0
    assert fresh(tmp_path, (
        "import json, sys\n"
        "import numpy as np\n"
        "from thermofid.models import Dicke\n"
        "Dicke(n_atoms=20).log_z(np.array([0.5, 2.0]), 1.5)\n"
        f"print({SCIPY_MODULES})")) == []


def test_meanfield_loads_no_scipy(tmp_path):
    assert fresh(tmp_path, (
        "import json, sys\n"
        "from thermofid import cli\n"
        "assert cli.main(['meanfield', '--lambda', '0,0.4,0.8', '--output', 'mf.csv']) == 0\n"
        f"print({SCIPY_MODULES})")) == []


def scipy_imports(node, where):
    """(function, name) for each scipy import, and each dynamic import, under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [f"{child.module}.{alias.name}" for alias in child.names]
        elif isinstance(child, ast.Call):
            func = getattr(child.func, "attr", getattr(child.func, "id", None))
            names = ["<dynamic>"] if func in ("import_module", "__import__") else []
        else:
            names = []
        yield from ((where, n) for n in names if n.split(".")[0] in ("scipy", "<dynamic>"))
        scope = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        yield from scipy_imports(child, f"{where}.{child.name}" if isinstance(child, scope)
                                 else where)


def test_the_one_scipy_import_is_lmgs_eigensolver():
    # a function-level import on a path the fresh-interpreter tests never run
    # would escape them; this reads every module's source instead
    found = [hit for path in sorted((ROOT / "src" / "thermofid").glob("*.py"))
             for hit in scipy_imports(ast.parse(path.read_text()), path.stem)]
    assert found == [("lmg._load_scipy", "scipy.linalg.eigh_tridiagonal")]


def unused_imports(tree):
    """Each name the module's imports bind, at any depth, that no expression reads."""
    bound = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_module_uses_what_it_imports():
    # an import kept alive only for an outside wrapper to replace is dead code
    # in the module; the package __init__ imports to re-export, so is exempt
    found = {path.stem: unused for path in sorted((ROOT / "src" / "thermofid").glob("*.py"))
             if path.name != "__init__.py"
             if (unused := unused_imports(ast.parse(path.read_text())))}
    assert found == {}


def scan_imports(tmp_path, workload, **overrides):
    """Modules a scan of workload's tiny configuration adds to sys.modules, after resolve."""
    return fresh(tmp_path, (
        "import json, sys\n"
        "import workloads\n"
        "from thermofid import cli\n"
        f"for op, config in workloads.build({workload!r}, 0, tiny=True):\n"
        "    with open(op + '.json', 'w') as fh:\n"
        f"        json.dump(dict(config, output_dir=op, **{overrides!r}), fh)\n"
        "    cli.resolve_scan_config(cli.load_config(op + '.json'))\n"
        "    before = set(sys.modules)\n"
        "    cli.cmd_scan(op + '.json')\n"
        "    print(json.dumps(sorted(set(sys.modules) - before)))"))


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_serial_benchmark_scan_imports_nothing(tmp_path, workload):
    # a module imported on first use inside the scan would be timed as scan work
    assert scan_imports(tmp_path, workload, threads=1) == []


def test_one_column_scan_starts_no_helper(tmp_path):
    # ising2d's lambda domain is one point, so its scan is one column and
    # runs in-process at the workload's threads: 2; a forked helper would
    # import multiprocessing and its start-up modules here
    assert scan_imports(tmp_path, "ising_ridge", threads=2) == []


def test_scans_never_load_the_dense_oracle(tmp_path):
    # exact holds the dense references and validate's suite; cli imports it
    # inside cmd_validate, so no scan compiles it
    scans, validate = fresh(tmp_path, (
        "import json, sys\n"
        "import workloads\n"
        "from thermofid import cli\n"
        "scans = []\n"
        f"for workload in {BENCHMARK_WORKLOADS!r}:\n"
        "    for threads in (1, 2):\n"
        "        for op, config in workloads.build(workload, 0, tiny=True):\n"
        "            path = f'{workload}-{op}-{threads}.json'\n"
        "            with open(path, 'w') as fh:\n"
        "                json.dump(dict(config, output_dir=path[:-5], threads=threads), fh)\n"
        "            cli.resolve_scan_config(cli.load_config(path))\n"
        "            cli.cmd_scan(path)\n"
        "            scans.append('thermofid.exact' in sys.modules)\n"
        "cli.cmd_validate()\n"
        "print(json.dumps([scans, 'thermofid.exact' in sys.modules]))"))
    assert len(scans) >= 2 * len(BENCHMARK_WORKLOADS) and not any(scans)
    assert validate  # the positive control


def process_modules_after_scans(tmp_path, configs, prelude=""):
    """multiprocessing and concurrent modules loaded once cli.cmd_scan ran each config."""
    return fresh(tmp_path, (
        "import json, os, sys\n"
        f"{prelude}"
        "from thermofid import cli\n"
        f"for k, config in enumerate({configs!r}):\n"
        "    with open(f'{k}.json', 'w') as fh:\n"
        "        json.dump(dict(config, output_dir=f'out{k}'), fh)\n"
        "    cli.cmd_scan(f'{k}.json')\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in ('multiprocessing', 'concurrent'))))"))


def two_level_scan(lambdas, **overrides):
    """A two_level_field Cv scan over lambdas, without its output_dir."""
    grid = {"lambda": lambdas, "t": [0.5, 1.0]}
    return {"model": {"name": "two_level_field"}, "grid": grid, "delta_t": 0.01,
            "fields": ["Cv"], **overrides}


def test_scans_that_share_no_columns_load_no_process_machinery(tmp_path):
    # a serial or one-column scan forks no helper, so it loads nothing that forks
    configs = [two_level_scan([0.5, 1.0], threads=1), two_level_scan([0.5], threads=2)]
    assert process_modules_after_scans(tmp_path, configs) == []


def test_two_column_scan_forks_its_helpers(tmp_path):
    # the positive control of the test above: the import happens where helpers fork
    loaded = process_modules_after_scans(tmp_path, [two_level_scan([0.5, 1.0], threads=2)])
    assert "multiprocessing" in loaded
    assert not any(m.startswith("concurrent") for m in loaded)


def test_default_threads_count_the_cpus_this_process_may_use(tmp_path):
    # one CPU of an eight-CPU host leaves nothing to share columns with
    prelude = "os.sched_getaffinity = lambda pid: {0}\nos.cpu_count = lambda: 8\n"
    assert process_modules_after_scans(tmp_path, [two_level_scan([0.5, 1.0])], prelude) == []


def test_traced_scan_loads_no_scipy(tmp_path):
    # bench/tracer.py wraps lmg.eigh_tridiagonal by name; reading it must not
    # import scipy, or a traced Ising or chain scan measures a process with it
    assert fresh(tmp_path, (
        "import json, sys\n"
        "from tracer import Tracer\n"
        "from thermofid import models, scan\n"
        "Tracer('.').install()\n"
        "grid = scan.ScanGrid([0.0], [2.0, 2.5], delta_t=0.01)\n"
        "scan.sweep(models.Ising2D(), grid, ['F_beta', 'Cv', 'chi_beta'], threads=1)\n"
        f"print({SCIPY_MODULES})")) == []


def namespace_hooks(package):
    """module.__getattr__ for each module-level __getattr__, module.globals() for each globals()."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.stem}.__getattr__" for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"]
        found += [f"{path.stem}.globals()" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "globals"]
    return found


def test_no_module_resolves_or_rebinds_its_own_names():
    # a name a module makes up on lookup, or binds through globals(), is not
    # in its source where a reader, or a wrapper set from outside, expects it
    assert namespace_hooks(ROOT / "src" / "thermofid") == []


def module_level_names(tree):
    """Each non-dunder name a module's top-level def, class or assignment binds."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def names_without_reader(package, readme):
    """module.name for each module-level name that nothing in the package reads.

    A read is a name, an attribute or a string constant (as in getattr tables
    such as scan._FIELDS) anywhere in the package. A name the package
    __init__ exports, or that the README names, is API, read from outside.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = {alias.name for node in ast.walk(trees["__init__"])
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    read |= set(re.findall(r"\w+", readme))
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in module_level_names(tree) - read)


def test_every_module_level_name_has_a_reader():
    # a library function only tests call belongs in those tests
    found = names_without_reader(ROOT / "src" / "thermofid", (ROOT / "README.md").read_text())
    assert found == []
