"""The theory side stays free of the sampler and of the layers above it,
and the sampler stays below the theory side, in the source and at run time."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from laws import power_pmf_csv

import superpose_net

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "superpose_net"
ABOVE = {"generate", "stats", "study", "cli"}


def imported_modules(path):
    """Package-relative names of the sibling modules a module imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and module:
                names.add(module.split(".")[0])
            elif node.level == 1:
                names.update(alias.name for alias in node.names)
            elif module.startswith("superpose_net."):
                names.add(module.split(".")[1])
            elif module == "superpose_net":
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("superpose_net."))
    return names


@pytest.mark.parametrize("module", ["layers", "pmf", "limits"])
def test_theory_modules_do_not_import_the_sampler_side(module):
    assert not imported_modules(PACKAGE / f"{module}.py") & ABOVE


def test_the_sampler_imports_neither_the_limits_nor_the_layers_above_it():
    assert not imported_modules(PACKAGE / "generate.py") & {"limits", "stats", "study", "cli"}


def test_the_check_sees_each_import_form(tmp_path):
    path = tmp_path / "m.py"
    for line in ("from .stats import Pmf", "from . import generate", "import superpose_net.study",
                 "from superpose_net.cli import main", "from superpose_net import stats"):
        path.write_text(f"import math\n{line}\n")
        assert imported_modules(path) & ABOVE, line


@pytest.mark.parametrize("command", ["theory", "tailfit"])
def test_theory_run_loads_no_sampler_module(tmp_path, command):
    """The package resolves its names on first access, so neither a theory
    run nor a tail fit of a pmf file imports generate, stats or study."""
    doc = {"layer_distribution": {"family": "power_law", "alpha": 3.0, "beta": 0.5, "b": 1.0,
                                  "x_min": 1, "x_max": 50},
           "theory": {"mu": 1.0}, "input": {"pmf_csv": str(power_pmf_csv(tmp_path / "pmf.csv"))}}
    out = tmp_path / "out"
    code = ("import json, sys, superpose_net.cli as cli; "
            f"cli.parse_config({json.dumps(doc)!r}, command={command!r}); "
            f"assert cli.main([{command!r}, '--config', {json.dumps(doc)!r}, '--out', {str(out)!r}]) == 0; "
            "print(json.dumps([m for m in sys.modules if m.startswith('superpose_net.')]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = {name.split(".")[1] for name in json.loads(result.stdout)}
    assert loaded == {"cli", "errors", "layers", "limits", "pmf"}
    written = {"theory": "limiting_bidegree_pmf.csv", "tailfit": "tail_prediction.json"}[command]
    assert (out / written).is_file()
    if command == "tailfit":
        assert "fitted_slope" in json.loads((out / written).read_text())


def test_every_exported_name_resolves_to_its_module():
    for name, module in superpose_net._MODULE_OF.items():
        assert getattr(superpose_net, name) is getattr(importlib.import_module(f"superpose_net.{module}"), name)
    with pytest.raises(AttributeError, match="no_such_name"):
        superpose_net.no_such_name
    from superpose_net import generate
    assert generate is sys.modules["superpose_net.generate"]
