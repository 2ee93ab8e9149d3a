"""Properties of the package source itself."""

import ast
from pathlib import Path

import pytest

import demandmatch

PACKAGE = Path(demandmatch.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
BENCH = PACKAGE.parent.parent / "bench"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Input checks raise real exceptions: ``python -O`` strips ``assert``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_warnings_or_logging(path):
    """Layers report through their results, not a separate logging layer:
    no module imports ``warnings`` or ``logging``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    found = sorted(imported & {"warnings", "logging"})
    assert not found, f"{path.name} imports {found}"


def _default_rng_owners(node: ast.AST, owner: str = "") -> list[str]:
    """The innermost enclosing function of each reference to ``default_rng``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    names = {getattr(node, field, None) for field in ("attr", "id", "name")}
    found = [owner] if "default_rng" in names else []
    for child in ast.iter_child_nodes(node):
        found += _default_rng_owners(child, owner)
    return found


def test_only_trial_rng_makes_a_generator():
    """Every sampler takes a ready ``numpy.random.Generator``; turning a seed
    into one happens only in ``demand.trial_rng``, so each random stream has
    one derivation and no second seed form grows back."""
    owners = [
        (path.name, owner) for path in SOURCES for owner in _default_rng_owners(ast.parse(path.read_text()))
    ]
    assert owners == [("demand.py", "trial_rng")]


def _reads(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Every name a module reads or imports, and every attribute it reads."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names, attributes


def _is_criterion(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_criterion"
        for d in node.decorator_list
    )


def _public_defs(tree: ast.Module):
    """``(qualified name, node)`` of each public top-level function or class
    and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def test_no_public_name_serves_only_the_tests():
    """Every public top-level function or class of the package is exported
    from ``__init__``, registered as an acceptance criterion, or used by the
    package's own code (its module included) or by the benchmark, and so is
    every public method of a public class; code that only the tests use
    lives in ``tests/``.  A method or property counts as used only where
    it is read as an attribute, so that a local variable of the same name
    does not hide it.  Dataclass fields are not checked: their names
    collide with other classes' attributes."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    init = PACKAGE / "__init__.py"
    exported = {alias.name for node in trees.pop(init).body if isinstance(node, ast.ImportFrom) for alias in node.names}
    bench = [ast.parse(path.read_text(), filename=str(path)) for path in BENCH.glob("*.py")]
    names, attributes = set(), set()
    for tree in [*trees.values(), *bench]:
        tree_names, tree_attributes = _reads(tree)
        names |= tree_names
        attributes |= tree_attributes
    unused = [
        f"{path.name}:{name}"
        for path, tree in trees.items()
        for name, node in _public_defs(tree)
        if node.name not in (attributes if "." in name else names | attributes)
        and name not in exported
        and not _is_criterion(node)
    ]
    assert not unused, f"public names no package or benchmark code uses: {unused}"


DEMAND_MODELS = {"IndepDemandModel", "CorrelDemandModel", "StochasticHorizonModel", "DemandModel"}


def _model_kind_checks(node: ast.AST, owner: str = "") -> list[str]:
    """The enclosing ``Class.function`` of each ``isinstance`` call whose
    class argument names a demand model class."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        owner = f"{owner}.{node.name}" if owner else node.name
    found = []
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
        named = {getattr(n, "id", getattr(n, "attr", None)) for arg in node.args[1:] for n in ast.walk(arg)}
        found += [owner] if named & DEMAND_MODELS else []
    for child in ast.iter_child_nodes(node):
        found += _model_kind_checks(child, owner)
    return found


def test_demand_kind_is_decided_by_the_models():
    """Each demand model answers for its own kind through its methods, so no
    ``isinstance`` chain over the model classes grows back.  Two checks stay:
    ``Instance`` checks its input, and the threshold policy states that it
    needs independent demand."""
    checks = [
        (path.name, owner) for path in SOURCES for owner in _model_kind_checks(ast.parse(path.read_text()))
    ]
    assert sorted(checks) == [("demand.py", "Instance.__post_init__"), ("policies.py", "_solve_threshold_lp")]
