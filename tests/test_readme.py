"""README: its Python and CLI examples run, its overview names only real functions, and it
names every export that ``src/`` does not use."""

from __future__ import annotations

import ast
import re
import shlex

import pytest

import qcm
from conftest import REPO_ROOT
from qcm.cli import main

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)
CLI_BLOCK = re.search(r"^## CLI\n\n```\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)[1]
CLI_LINES = CLI_BLOCK.splitlines()


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs_from_repo_root(index, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out != ""


def test_readme_has_cli_examples():
    assert len(CLI_LINES) >= 5
    assert all(line.startswith("qcm ") for line in CLI_LINES)


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    argv = shlex.split(line)[1:]
    if "--plot" in argv:
        at = argv.index("--plot") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out != ""


def test_overview_functions_resolve_on_qcm():
    overview = README.split("\n## ", 1)[0]
    names = re.findall(r"`([A-Za-z_]\w*)(?:\(\))?`", overview)
    assert len(names) >= 10
    missing = [name for name in names if not callable(getattr(qcm, name, None))]
    assert missing == []


def test_every_export_is_used_in_src_or_named_in_readme():
    loaded = set()
    for path in (REPO_ROOT / "src" / "qcm").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    prose = re.sub(r"^```.*?^```", "", README, flags=re.DOTALL | re.MULTILINE)
    spans = re.findall(r"`([^`\n]+)`", prose)
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    # __version__ is package metadata, not part of the analysis API
    exports = [name for name in qcm.__all__ if name != "__version__"]
    assert [name for name in exports if name not in loaded | named] == []
