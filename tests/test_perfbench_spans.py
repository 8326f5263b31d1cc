"""The benchmark's traced runs patch names that exist.

``perfbench/spans.py`` wraps library functions in place with
``recorder.patch(owner, "attribute", ...)``, which reads
``vars(owner)[attribute]``: a function that is renamed, deleted or moved
to another class makes every ``--trace 1`` run fail at start-up.  This
test reads the ``install_*`` functions of that file with :mod:`ast`,
resolves each owner through the ``from ... import ...`` statements they
make, and checks that every patched attribute is still defined on its
owner.  It imports nothing from ``perfbench/``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _patched_names():
    """``(installer, owner module, owner name, attribute)`` per patch."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    found = []
    for function in tree.body:
        if not (isinstance(function, ast.FunctionDef)
                and function.name.startswith("install_")):
            continue
        imported = {}
        for node in ast.walk(function):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    imported[alias.asname or alias.name] = (node.module,
                                                            alias.name)
        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "patch"):
                owner, attribute = node.args[0], node.args[1]
                module, name = imported[owner.id]
                found.append((function.name, module, name, attribute.value))
    return found


PATCHED = _patched_names()


def _resolve(module: str, name: str):
    """What ``from module import name`` binds."""
    package = importlib.import_module(module)
    if hasattr(package, name):
        return getattr(package, name)
    return importlib.import_module(f"{module}.{name}")


def test_every_installer_was_read():
    # Guards the parse: both installers must contribute patches.
    installers = {installer for installer, *_ in PATCHED}
    assert installers == {"install_library", "install_serve"}


@pytest.mark.parametrize(
    "installer,module,name,attribute", PATCHED,
    ids=[f"{name}.{attribute}" for _, _, name, attribute in PATCHED])
def test_patched_attribute_exists(installer, module, name, attribute):
    owner = _resolve(module, name)
    assert attribute in vars(owner), (
        f"{installer} patches {module}.{name}.{attribute}, which "
        f"{name} no longer defines")
