"""The symbolic layers compute on packed ints; arrays stay at the edges
where data comes in or goes out (`boolfunc`, `network`)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = Path(__file__).resolve().parent.parent / "src" / "boolsynth"


@pytest.mark.parametrize("module", ["contracts", "synthesis", "eps", "parser", "cli", "oracle", "formats"])
def test_symbolic_layer_imports_no_numpy(module):
    tree = ast.parse((SOURCES / f"{module}.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []
