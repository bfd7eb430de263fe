"""Every name a ``qid`` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import qid

MODULES = sorted(Path(qid.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no other line of it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_name():
    source = "from .operators import ket_bra, tensor\nimport numpy as np\n\nx = tensor(np.eye(2))\n"
    assert unused_imports(source) == ["ket_bra"]
