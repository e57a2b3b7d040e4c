"""README: its Python examples run, and its overview names only real functions."""

from __future__ import annotations

import re

import pytest

import qcm
from conftest import REPO_ROOT

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs_from_repo_root(index, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out != ""


def test_overview_functions_resolve_on_qcm():
    overview = README.split("\n## ", 1)[0]
    names = re.findall(r"`([A-Za-z_]\w*)(?:\(\))?`", overview)
    assert len(names) >= 10
    missing = [name for name in names if not callable(getattr(qcm, name, None))]
    assert missing == []
