"""The README's library example runs as written against the package."""

import re
from pathlib import Path

import nonholib

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text()
    match = re.search(r"^## Library example\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under '## Library example'"
    return match.group(1)


def test_readme_library_example_runs():
    block = library_example()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["traj"]) == 101
    # the package exports exactly what the example imports from it
    imported = re.search(r"from nonholib import \((.*?)\)", block, re.S).group(1)
    assert sorted(n.strip() for n in imported.split(",")) == sorted(nonholib.__all__)
