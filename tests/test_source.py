"""Properties of the package source itself."""

import ast
from pathlib import Path

import pytest

import demandmatch

SOURCES = sorted(Path(demandmatch.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Input checks raise real exceptions: ``python -O`` strips ``assert``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"
