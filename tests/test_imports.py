"""Every name a ``qid`` module imports, and every private name it defines, is used in it.

Every name the benchmark's tracer wraps exists where it looks for it.
"""

import ast
import importlib
from pathlib import Path

import pytest

import qid

MODULES = sorted(Path(qid.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def unread_private_names(source: str) -> list[str]:
    """Private module-level functions, classes and constants that no line of the module reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(private - read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_private_name(path):
    assert unread_private_names(path.read_text()) == []


def test_guard_sees_an_unused_name():
    source = "from .operators import ket_bra, tensor\nimport numpy as np\n\nx = tensor(np.eye(2))\n"
    assert unused_imports(source) == ["ket_bra"]


def test_guard_sees_an_unread_private_name():
    source = (
        "_LIMIT = 3\n_unused = 4\n\n\n"
        "def _helper(x):\n    return x + _LIMIT\n\n\n"
        "def _left_over(n):\n    return n\n\n\n"
        "def public():\n    return _helper(1)\n"
    )
    assert unread_private_names(source) == ["_left_over", "_unused"]


def traced_names(source: str) -> dict:
    """The tracer's ``FUNCTIONS`` and ``METHODS`` literals, read without importing it."""
    return {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS")
    }


def test_every_traced_name_exists():
    # A traced name that is missing crashes every traced benchmark run.
    names = traced_names(TRACER.read_text())
    assert names["FUNCTIONS"] and names["METHODS"]
    for mod_name, funcs in names["FUNCTIONS"].items():
        mod = importlib.import_module(mod_name)
        for func in funcs:
            assert callable(getattr(mod, func, None)), f"{mod_name}.{func}"
    for mod_name, cls_name, meth in names["METHODS"]:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        assert cls is not None and meth in vars(cls), f"{mod_name}.{cls_name}.{meth}"


def product_structure_reads(source: str) -> dict:
    """Where a module touches the factor-and-copies structure: names ``kron_power``,
    passes ``copies=`` to a call, or reads ``.channel.n``."""
    tree = ast.parse(source)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names.update(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    return {
        "kron_power": "kron_power" in names,
        "copies=": any(
            kw.arg == "copies"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for kw in node.keywords
        ),
        ".channel.n": any(
            isinstance(node, ast.Attribute)
            and node.attr == "n"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "channel"
            for node in ast.walk(tree)
        ),
    }


# The one product-family type in protocol.py takes Kronecker powers and
# passes copy counts; channels.py defines kron_power and distinguishability.py
# partitions over the copies it is given.
KRON_POWER_MODULES = {"channels.py", "protocol.py", "distinguishability.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_family_type_knows_the_copies(path):
    reads = product_structure_reads(path.read_text())
    assert not reads["kron_power"] or path.name in KRON_POWER_MODULES
    assert not reads["copies="] or path.name == "protocol.py"
    assert not reads[".channel.n"]


def test_guard_sees_the_copies_outside_the_family():
    source = (
        "from .channels import kron_power\n\n\n"
        "def information(inst, table):\n"
        "    part = distinguishable_partition(inst.b.factor, copies=inst.channel.n)\n"
        "    return kron_power(table, inst.channel.n), part\n"
    )
    assert product_structure_reads(source) == {"kron_power": True, "copies=": True, ".channel.n": True}
    assert product_structure_reads("x = inst.b.copies\n") == {
        "kron_power": False,
        "copies=": False,
        ".channel.n": False,
    }
