"""Start-up cost: ``import qcm`` and each subcommand execute only what they use.

Lazily loaded modules sit in ``sys.modules`` before they run, as instances
of a ``types.ModuleType`` subclass; a module counts as executed once its
type is ``types.ModuleType`` itself.  Every probe runs in a fresh process
under ``python -S``, so no ``.pth`` file preloads a module, and reports the
slow standard-library modules it loaded beside the qcm modules it executed.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT, child_env

import qcm

# costly to import (``dataclasses`` imports ``inspect``, ``html`` imports
# ``html.entities``), and qcm needs none of them
_SLOW_STDLIB = ("dataclasses", "html", "inspect", "typing")

_EXECUTED = (
    "import json, sys, types\n"
    "print(json.dumps(sorted(name for name, module in sys.modules.items()\n"
    "    if name.split('.')[0] == 'qcm' and type(module) is types.ModuleType\n"
    f"    or name in {_SLOW_STDLIB!r})))\n"
)


def _probe(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env=child_env(), cwd=REPO_ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _executed_by(argv: list[str]) -> set[str]:
    code = (
        "import contextlib, io\n"
        "from qcm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    return set(json.loads(_probe(code + _EXECUTED)))


def test_import_qcm_executes_no_submodule():
    assert json.loads(_probe("import qcm\n" + _EXECUTED)) == ["qcm"]


_CLI = {"qcm", "qcm.cli", "qcm.data", "qcm.errors"}
_ALL = {"qcm.classicality", "qcm.fock", "qcm.hilbert", "qcm.stats"}


@pytest.mark.parametrize("argv,modules", [
    (["classicality", "--input", "data/goldfish.csv"], {"qcm.classicality"}),
    (["fock-fit", "--input", "data/hampton.csv"], {"qcm.fock"}),
    (["fock-fit", "--input", "data/goldfish.csv", "--mode", "general"], {"qcm.fock"}),
    (["chsh", "--input", "data/animal_acts_table.json",
      "--model", "data/animal_acts_model.json"], {"qcm.hilbert"}),
    (["stats-fit", "--input", "data/uniform11.json"], {"qcm.stats"}),
    (["stats-fit", "--input", "data/uniform11.json", "--plot", "{tmp}"],
     {"qcm.stats", "qcm.svg"}),
    (["report", "--manifest", "data/report_manifest.json"], _ALL),
    (["report", "--manifest", "data/report_manifest.json", "--plot", "{tmp}"],
     _ALL | {"qcm.svg"}),
])
def test_each_command_executes_only_its_modules(argv, modules, tmp_path):
    argv = [arg.replace("{tmp}", str(tmp_path / "plot.svg")) for arg in argv]
    assert _executed_by(argv) == _CLI | modules


@pytest.mark.parametrize("module", ["classicality", "fock", "hilbert", "stats", "svg"])
def test_analysis_module_imports_no_other_analysis_module(module):
    # so each command executes only the analysis modules it calls
    path = REPO_ROOT / "src" / "qcm" / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert {name for name in imported if name.startswith((".", "qcm"))} <= {".data", ".errors"}


def test_submodule_imported_after_cli_is_bound_on_the_package():
    code = "import qcm.cli\nimport qcm.stats\nprint(qcm.stats.fit_distribution.__name__)\n"
    assert _probe(code) == "fit_distribution\n"


def test_every_exported_name_resolves_in_a_fresh_process():
    code = (
        "import qcm\n"
        "namespace = {}\n"
        "exec('from qcm import *', namespace)\n"
        "missing = [name for name in qcm.__all__ if name not in namespace]\n"
        "assert not missing, missing\n"
        "assert all(getattr(qcm, name) is namespace[name] for name in qcm.__all__)\n"
    )
    _probe(code)


def test_dir_lists_every_exported_name():
    assert set(qcm.__all__) <= set(dir(qcm))
    assert len(set(qcm.__all__)) == len(qcm.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcm.no_such_name
