"""Every module-level import of the package is read somewhere in its module."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nonholib"


def _module_imports(body):
    """The import statements of a module body, also those inside module-level
    if/try blocks, but not those inside functions or classes."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_imports(getattr(node, field, []))


def _unused_imports(source: str) -> list:
    """The names that the module-level imports of source bind and that the
    module neither reads nor lists in __all__; __future__ features excepted."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in _module_imports(tree.body)
        if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if alias.name != "*"
    ]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:  # re-exports
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "__all__"
        ]:
            read |= set(ast.literal_eval(node.value))
    return sorted(set(bound) - read)


def test_unused_import_check_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Callable, Optional\n"
        "from .ode import integrate\n"
        "try:\n"
        "    import scipy\n"
        "except ImportError:\n"
        "    import json\n"
        "def f(x: Optional[int]):\n"
        "    import sys\n"
        "    return np.sqrt(x)\n"
        "__all__ = ['integrate']\n"
    )
    assert _unused_imports(source) == ["Callable", "json", "os", "scipy"]


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert _unused_imports(path.read_text()) == []
