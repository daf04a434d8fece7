"""The README's library example and config block hold against the package."""

import argparse
import dataclasses
import re
from pathlib import Path

import nonholib
from nonholib.cli import SETTINGS, ExperimentConfig, _flag, build_config, read_config_file
from nonholib.systems import REGISTRY

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


def test_readme_config_block_matches_settings(tmp_path):
    text = README.read_text()
    match = re.search(r"^### Config files\n.*?^```\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no block under '### Config files'"
    path = tmp_path / "readme.cfg"
    path.write_text(match.group(1))
    keys = read_config_file(str(path))
    assert {k for k in keys if not k.startswith("params.")} == {s[0] for s in SETTINGS}
    cfg = build_config(argparse.Namespace(config=str(path)))
    assert cfg.eps == (8e-3, 4e-3, 2e-3)
    assert cfg.params == {"m": 1, "I": 1, "a": 0.2}
    # every ExperimentConfig field is set by one table row, params by --param
    attrs = [s[1] for s in SETTINGS] + ["params"]
    assert sorted(attrs) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))


def test_readme_models_and_header_match_registry():
    text = README.read_text()
    models = re.search(r"`--model \{(.*?)\}`", text).group(1).split("|")
    assert sorted(models) == sorted(set().union(*(e.models for e in REGISTRY.values())))
    header = re.search(r"friction sleigh:\s+`(t,.*?)`", text).group(1)
    assert header.split(",") == ["t", *REGISTRY["sleigh"].models["friction"].columns]


def test_readme_flags_match_parser():
    text = README.read_text()
    match = re.search(r"^Flags: (.*?)\n\n", text, re.S | re.M)
    assert match, "README has no 'Flags:' paragraph"
    # --t0/--t1/--dt/--sample-dt names four flags
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", match.group(1)))
    assert named == {_flag(s[0]) for s in SETTINGS} | {"--config", "--param"}
