"""Every module-level import of the package is read somewhere in its module,
and every public top-level function and class is read somewhere in the
package or named in a table that says why it stays."""

import ast
import re
from pathlib import Path

import pytest

_TESTS = Path(__file__).resolve().parent
_PACKAGE = _TESTS.parent / "src" / "nonholib"


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


#: Public names that no module of the package reads, and why each stays: the
#: test that uses it as an oracle or an independent route, its perfbench use,
#: or the ROADMAP item that reserves it.  The independent routes that only
#: tests read live in tests/oracles.py, not here.
KEPT_UNREAD = {
    "energy_audit": "ROADMAP item 15 puts it in the compare report; criterion 06 "
    "and perfbench's analysis.energy_audit_ms probe run it",
    "friction_field_chart": "perfbench's tracer rebinds dynamics.christoffel, which only "
    "this function reads; test_chart_field_matches_frame_field's independent route",
    "first_order_field": "the corrected scheme's generic term (ROADMAP item 20); "
    "criterion 10 checks it against the sleigh's closed form",
    "corrected_field": "perfbench's dynamics.corrected.rhs_us probe; ROADMAP item 6 "
    "registers it for pendulum-friction",
    "energy_frame": "perfbench's tracer rebinds dynamics.frame_metric, which only this "
    "function reads; test_nh_field_conserves_energy measures energy with it",
    "expansion_defect": "ROADMAP item 7 takes h2 from its invariance relation; "
    "test_expansion_defect_quadratic_in_eps",
    "pendulum_frame": "ROADMAP item 6 builds the pendulum's corrected field on it; "
    "test_nh_pendulum_generic_matches_hand_coded",
    "rows_read": "the rows a field's rates read, which test_ode, test_systems and "
    "test_cli check per field; integrate reads _rows_read of the text it looked up",
}


def _missing_citations(reasons: dict, sources: dict) -> list:
    """(name, citation) for each test function ("test_name") and acceptance
    criterion ("criterion NN", a test_criterion_NN_* function) that the
    reason for name cites and no source defines.  sources maps a test
    module's name, which a reason may also cite (test_cli), to its text."""
    functions = {
        node.name
        for text in sources.values()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef)
    }
    missing = []
    for name, reason in reasons.items():
        missing += [
            (name, test)
            for test in re.findall(r"\b(test_\w+)", reason)
            if test not in functions and test not in sources
        ]
        missing += [
            (name, f"criterion {n}")
            for n in re.findall(r"\bcriterion (\d\d)\b", reason)
            if not any(f.startswith(f"test_criterion_{n}_") for f in functions)
        ]
    return missing


def test_citation_check_finds_what_it_should():
    sources = {"test_cli": "def test_here(): pass\ndef test_criterion_06_x(): pass\n"}
    reasons = {
        "kept": "criterion 06, test_cli and test_here's route",
        "stale": "criterion 07 checks it; test_gone",
    }
    assert _missing_citations(reasons, sources) == [
        ("stale", "test_gone"),
        ("stale", "criterion 07"),
    ]


def test_every_cited_test_exists():
    # a reason that cites a renamed or deleted test would go stale silently
    sources = {path.stem: path.read_text() for path in sorted(_TESTS.glob("test_*.py"))}
    assert _missing_citations(KEPT_UNREAD, sources) == []


def _public_names(source: str) -> set:
    """The public top-level functions and classes that source defines."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _read_names(source: str) -> set:
    """The names that source loads, as a name or as an attribute, or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_public_name_check_finds_what_it_should():
    source = (
        "from .ode import integrate\n"
        "class Kept: pass\n"
        "class _Private: pass\n"
        "def unread(x):\n"
        "    def inner(): pass\n"
        "    return ode.as_attribute(x)\n"
        "def as_attribute(x): return Kept\n"
    )
    unread = _public_names(source) - _read_names(source)
    assert unread == {"unread"}


def test_every_public_name_is_read_or_kept_for_a_stated_reason():
    sources = [path.read_text() for path in sorted(_PACKAGE.glob("*.py"))]
    public = set().union(*map(_public_names, sources))
    read = set().union(*map(_read_names, sources))
    assert sorted(public - read - set(KEPT_UNREAD)) == []
    # a kept name that is gone or has gained a reader leaves the table
    assert sorted(set(KEPT_UNREAD) - public) == []
    assert sorted(set(KEPT_UNREAD) & read) == []
