"""The README's library quick start runs as written, its model catalog names the
configuration's models, and its classifier note states the classifier's thresholds as
the code sets them."""

import ast
import contextlib
import inspect
import io
import pathlib
import re

import thermofid
from thermofid import cli, scan

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_against_package_namespace():
    source = quick_start()
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "thermofid"
                for alias in node.names}
    public = {name for name, value in vars(thermofid).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    catalog = {cls.__name__ for cls in cli.MODEL_CLASSES.values()}
    # the namespace is the documented API and nothing else
    assert imported <= public
    assert public == imported | catalog | {"ThermofidError", "DomainError"}

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    printed = out.getvalue().splitlines()[-1]
    head, tail = source.strip().splitlines()[-1].split("# ", 1)[1].split("...")
    assert printed.startswith(head) and printed.endswith(tail), printed


def test_readme_model_table_lists_the_config_names_in_order():
    table = README.read_text().split("## Model catalog\n\n", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"^\| `(\w+)` ", table, re.M)
    assert names == list(cli.MODEL_CLASSES)


def test_readme_classifier_thresholds_match_the_code():
    note = README.read_text().split("- The classifier is a stated heuristic", 1)[1]
    note = note.split("\n- ", 1)[0]
    stated = dict(re.findall(r"`([A-Z_]+)` = ([0-9.]+)", note))
    assert set(stated) == {"GROWTH_FACTOR", "DIVERGENCE_GROWTH", "STEP_GROWTH_FACTOR",
                           "SMOOTHNESS_RATIO", "STABLE_RATIO"}
    for name, value in stated.items():
        assert float(value) == getattr(scan, name), name
