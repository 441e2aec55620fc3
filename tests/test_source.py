"""Guards on the package source: no dead code, and no error type that is
never raised.

Every module-level function, class and constant of a module other than
`__init__` must be referenced somewhere in the package beyond its own
definition: being exported through `__init__._EXPORTS` is not a use, so
no test-only helper hides there.  Every subclass of
`SuperposeError` must be raised somewhere in the package, and the error
for a layer law without edges (its message starts "P_21 = 0") by one
function alone.
"""

import ast
from pathlib import Path

import superpose_net
from superpose_net import SuperposeError, errors

PACKAGE = Path(superpose_net.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def defined_names(tree):
    """Names bound by the module's top-level defs, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def used_names():
    """Every name the package reads, as a bare name or as an attribute."""
    used = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def raises(tree):
    """Each `raise` statement in tree that raises an error."""
    return (node for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None)


def raised_names(tree):
    """The error name of each `raise Name` or `raise Name(...)` in tree."""
    for node in raises(tree):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            yield exc.id


def test_every_module_level_name_is_used():
    used = used_names()
    dead = sorted(
        f"{module}.{name}"
        for module, tree in TREES.items() if module != "__init__"
        for name in defined_names(tree)
        if name not in used and not name.startswith("__")
    )
    assert not dead, f"defined but never used: {dead}"


def test_every_error_type_is_raised():
    raised = {name for tree in TREES.values() for name in raised_names(tree)}
    kinds = {name for name, value in vars(errors).items()
             if isinstance(value, type) and issubclass(value, SuperposeError) and value is not SuperposeError}
    assert kinds, "no error types found"
    assert not sorted(kinds - raised), f"never raised: {sorted(kinds - raised)}"


def test_edgeless_law_is_checked_in_one_function():
    raisers = sorted(
        f"{module}.{node.name}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(text, ast.Constant) and str(text.value).startswith("P_21 = 0")
            for raised in raises(node) for text in ast.walk(raised))
    )
    assert raisers == ["layers.edge_mass"]
