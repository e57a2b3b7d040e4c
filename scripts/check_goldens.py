#!/usr/bin/env python3
"""Check that each given Python reproduces every golden output byte for byte.

Usage, from anywhere:

    python3 scripts/check_goldens.py PYTHON [PYTHON ...]

Each PYTHON is an interpreter path, e.g. ``/usr/bin/python3.12``.  The
invocations are the ones the test suite compares with ``tests/golden/``:
``GOLDEN_RUNS``, ``GOLDEN_PAYLOAD_RUNS`` and ``GOLDEN_PLOT`` in
``tests/conftest.py`` and ``PLOT_GOLDENS`` in ``tests/test_cli.py``, read
from those files' source so that neither the test suite nor its
dependencies need to import.  Each interpreter runs them all through
``qcm.cli.main`` in one child process, with ``src/`` on its path and the
repository root as its working directory.

Prints one line per interpreter, ``identical N/N`` or ``differs N/M`` with
the names of the files that differ, and exits 1 if any interpreter differs
or fails, else 0.  Needs only the standard library.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
_TABLES = ("GOLDEN_RUNS", "GOLDEN_PAYLOAD_RUNS", "GOLDEN_PLOT", "PLOT_GOLDENS")

# reads [name, argv, is_plot] triples on stdin; prints {name: [exit code, output]}
_CHILD = """
import contextlib, io, json, os, sys, tempfile
from qcm.cli import main
outputs = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, argv, is_plot in json.load(sys.stdin):
        target = os.path.join(tmp, name)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--plot", target] if is_plot else argv)
        if is_plot and code == 0:
            with open(target, "rb") as handle:
                outputs[name] = [code, handle.read().decode("utf-8")]
        else:
            outputs[name] = [code, stdout.getvalue()]
json.dump(outputs, sys.stdout)
"""


def golden_invocations() -> list[tuple[str, list[str], bool]]:
    """Every (golden file name, argv, whether the file is the --plot output)."""
    found: dict = {}
    for path in (ROOT / "tests" / "conftest.py", ROOT / "tests" / "test_cli.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in _TABLES
            ):
                # evaluated over the tables assigned before it, as in the source
                code = compile(ast.Expression(node.value), str(path), "eval")
                found[node.targets[0].id] = eval(code, dict(found))
    plot_name, plot_argv = found["GOLDEN_PLOT"]
    runs = [(name, argv, False) for name, argv in found["GOLDEN_RUNS"].items()]
    runs += [(name, argv, False) for name, argv in found["GOLDEN_PAYLOAD_RUNS"].items()]
    runs += [(plot_name, plot_argv, True)]
    runs += [(name, argv, True) for name, argv in found["PLOT_GOLDENS"].items()]
    return runs


def check(python: str, runs: list) -> tuple[bool, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        done = subprocess.run(
            [python, "-c", _CHILD], input=json.dumps(runs), capture_output=True,
            text=True, env=env, cwd=ROOT,
        )
    except OSError as exc:
        return False, f"cannot run: {exc}"
    if done.returncode != 0:
        return False, f"child failed: {(done.stderr.strip().splitlines() or ['no output'])[-1]}"
    outputs = json.loads(done.stdout)
    differing = [
        name for name, _, _ in runs
        if outputs[name] != [0, (GOLDEN_DIR / name).read_bytes().decode("utf-8")]
    ]
    if differing:
        return False, f"differs {len(runs) - len(differing)}/{len(runs)}: {', '.join(differing)}"
    return True, f"identical {len(runs)}/{len(runs)}"


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(__doc__)
        return 2
    runs = golden_invocations()
    ok = True
    for python in argv:
        passed, summary = check(python, runs)
        ok = ok and passed
        print(f"{python}: {summary}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
