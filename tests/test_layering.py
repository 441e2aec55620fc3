"""The theory side stays free of the sampler and of the layers above it,
and the sampler stays below the theory side."""

import ast
from pathlib import Path

import pytest

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
    for line in ("from .stats import Pmf1D", "from . import generate", "import superpose_net.study",
                 "from superpose_net.cli import main", "from superpose_net import stats"):
        path.write_text(f"import math\n{line}\n")
        assert imported_modules(path) & ABOVE, line
