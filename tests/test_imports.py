"""Package modules use each other only through public names."""

import ast
from pathlib import Path

import cgalgebra

PACKAGE = Path(cgalgebra.__file__).resolve().parent


def private_imports(path: Path) -> list:
    """(line, module, name) of each underscore name ``path`` takes from another
    package module, by ``from .m import _x`` or as ``m._x`` after ``from . import m``."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {}  # local name -> package module imported under it
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0 and not source.startswith("cgalgebra"):
            continue
        for alias in node.names:
            if not source or source == "cgalgebra":  # from . import m
                modules[alias.asname or alias.name] = alias.name
            elif alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append((node.lineno, source, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append((node.lineno, modules[node.value.id], node.attr))
    return found


def test_no_module_imports_another_modules_private_names():
    found = {path.name: private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_check_sees_both_import_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import fock\nfrom .weyl import _falling, multiply\nfock._pairing\n")
    assert private_imports(probe) == [(2, "weyl", "_falling"), (3, "fock", "_pairing")]
