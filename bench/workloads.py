"""The benchmark's workloads: how each one sets up, runs one op and checks it.

Every op is one ``qcm`` command.  ``cli-bundled`` starts a fresh
``python -m qcm`` process per op; the other two call ``qcm.cli.main`` in the
benchmark's own process.  One client runs ops back to back (a closed loop),
so the next op starts when the previous one returns.
"""

from __future__ import annotations

import ast
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import checks
import gen

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120


class Op(NamedTuple):
    key: str
    argv: list[str]


class Outcome(NamedTuple):
    elapsed_ns: int
    error: str | None  # set when the op raised or exited non-zero
    output: object  # what the checks read; None when ``error`` is set
    stdout_bytes: int


def child_env(root: Path) -> dict[str, str]:
    """Environment for qcm subprocesses: absolute ``src`` path, no QCM_TOLERANCE."""
    env = {key: value for key, value in os.environ.items() if key != "QCM_TOLERANCE"}
    env["PYTHONPATH"] = str(root / "src")
    return env


# Each workload reports latency at a fixed ``tail_percentile``; a timed phase
# runs enough whole rounds of ``ops`` to leave at least ten ops above it, so
# the percentile, and the op sizes it lands on, never depend on speed.


class _InProcess:
    """Ops that call ``qcm.cli.main`` inside this process."""

    in_process = True

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.ops: list[Op] = []
        self.main = None

    def setup(self) -> None:
        """Import qcm, write the generated inputs and run one warm-up op."""
        import qcm.cli

        self.main = qcm.cli.main
        self._generate()
        self.run(self.ops[0])

    def run(self, op: Op, tracer=None) -> Outcome:
        main = self.main if tracer is None else tracer.main
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter_ns()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(op.argv)
            error = None if code == 0 else f"exit {code}: {err.getvalue().strip()}"
        except Exception as exc:  # an uncaught error is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        text = out.getvalue()
        output = None if error else self._output(op, text)
        return Outcome(elapsed, error, output, len(text.encode("utf-8")))

    def _output(self, op: Op, text: str):
        return text


class ConceptReport(_InProcess):
    name = "concept-report"
    why = ("in-process report over generated concept-pair tables; "
           "the general quadruple fit does most of the work")
    tail_percentile = 90.0
    TABLES = 8

    def _generate(self) -> None:
        self.records = {}
        for index in range(self.TABLES):
            text, records = gen.concept_table(self.rng, index)
            key = f"table-{index}"
            table = self.workdir / f"{key}.csv"
            table.write_text(text, encoding="utf-8")
            manifest = self.workdir / f"{key}.manifest.json"
            manifest.write_text(json.dumps({"runs": [
                {"name": "classicality", "command": "classicality", "input": table.name},
                {"name": "two-sector", "command": "fock-fit", "input": table.name,
                 "mode": "two-sector"},
                {"name": "general", "command": "fock-fit", "input": table.name,
                 "mode": "general"},
            ]}), encoding="utf-8")
            self.records[key] = records
            self.ops.append(Op(key, ["report", "--manifest", str(manifest), "--output", "json"]))

    def properties(self) -> dict:
        records = [r for table in self.records.values() for r in table]
        return {
            "tables": len(self.records),
            "records_per_table": gen.TABLE_RECORDS,
            "classical_shortcut_share": sum(r["classical"] for r in records) / len(records),
            "both_and_or_share": sum("muAorB" in r and "muAandB" in r for r in records) / len(records),
        }

    def check(self, schemas, op: Op, output) -> list[str]:
        return checks.check_concept_report(schemas, output, self.records[op.key])

    def corrupt(self, op: Op, output) -> list:
        return checks.corrupt_concept_report(output)


class CountFits(_InProcess):
    name = "count-fits"
    why = ("in-process MB/BE fits with SVG plots over an N ladder; "
           "the MB fit grows super-linearly in N")
    tail_percentile = 80.0

    def _generate(self) -> None:
        self.datasets = {}
        self.probe_ops = []
        # kind-major order spreads the ops of one size across the round
        for kind in gen.COUNT_KINDS:
            for n_total in (*gen.COUNT_LADDER, *gen.OVERFLOW_SIZES):
                key = f"{kind}-{n_total}"
                dataset = gen.count_dataset(self.rng, kind, n_total)
                path = self.workdir / f"{key}.json"
                path.write_text(json.dumps(dataset, indent=2) + "\n", encoding="utf-8")
                self.datasets[key] = dataset
                op = Op(key, ["stats-fit", "--input", str(path), "--output", "json",
                              "--plot", str(self.workdir / f"{key}.svg")])
                (self.ops if n_total in gen.COUNT_LADDER else self.probe_ops).append(op)

    def _output(self, op: Op, text: str):
        return text, Path(op.argv[-1]).read_text(encoding="utf-8")

    def properties(self) -> dict:
        return {
            "kinds": list(gen.COUNT_KINDS),
            "n_ladder": list(gen.COUNT_LADDER),
            "expected_failure_sizes": list(gen.OVERFLOW_SIZES),
        }

    def check(self, schemas, op: Op, output) -> list[str]:
        return checks.check_count_fit(schemas, *output, self.datasets[op.key])

    def corrupt(self, op: Op, output) -> list:
        return checks.corrupt_count_fit(*output)


def golden_runs(conftest: Path) -> tuple[dict, tuple]:
    """``GOLDEN_RUNS`` and ``GOLDEN_PLOT`` from the test suite, read without importing it."""
    found = {}
    for node in ast.parse(conftest.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("GOLDEN_RUNS", "GOLDEN_PLOT"):
                found[node.targets[0].id] = ast.literal_eval(node.value)
    return found["GOLDEN_RUNS"], found["GOLDEN_PLOT"]


class CliBundled:
    name = "cli-bundled"
    why = ("what a user types: one fresh qcm process per golden invocation, "
           "so interpreter start and import dominate")
    tail_percentile = 65.0
    in_process = False

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.ops: list[Op] = []
        self.expected: dict[str, dict] = {}

    def setup(self) -> None:
        golden = self.root / "tests" / "golden"
        runs, (plot_name, plot_argv) = golden_runs(self.root / "tests" / "conftest.py")
        for name, argv in runs.items():
            self.ops.append(Op(name, list(argv)))
            self.expected[name] = {"golden": name, "stdout": (golden / name).read_bytes()}
        plot_text = next(name for name, argv in runs.items() if argv == plot_argv)
        self.ops.append(Op(plot_name, [*plot_argv, "--plot", str(self.workdir / plot_name)]))
        self.expected[plot_name] = {
            **self.expected[plot_text],
            "plot_golden": plot_name,
            "plot": (golden / plot_name).read_bytes(),
        }
        self.ops.append(Op("report-json", ["report", "--manifest", "data/report_manifest.json",
                                           "--output", "json"]))
        self.expected["report-json"] = {"schema": "combined"}

    def run(self, op: Op, tracer=None) -> Outcome:
        if tracer is None:
            command = [sys.executable, "-m", "qcm", *op.argv]
        else:
            spans_path = self.workdir / "spans.json"
            spans_path.unlink(missing_ok=True)
            command = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), *op.argv]
        plot = self.workdir / op.key if "--plot" in op.argv else None
        start = time.perf_counter_ns()
        try:
            done = subprocess.run(command, cwd=self.root, env=self.env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Outcome(time.perf_counter_ns() - start, "timed out", None, 0)
        elapsed = time.perf_counter_ns() - start
        if tracer is not None and spans_path.exists():
            tracer.merge(json.loads(spans_path.read_text(encoding="utf-8")))
        if done.returncode != 0:
            error = f"exit {done.returncode}: {done.stderr.decode(errors='replace').strip()}"
            return Outcome(elapsed, error, None, len(done.stdout))
        output = (done.stdout, plot.read_bytes() if plot else None)
        return Outcome(elapsed, None, output, len(done.stdout))

    def properties(self) -> dict:
        return {"ops": [op.key for op in self.ops], "golden_compared": len(self.ops) - 1}

    def check(self, schemas, op: Op, output) -> list[str]:
        return checks.check_cli_output(schemas, self.expected[op.key], output)

    def corrupt(self, op: Op, output) -> list:
        return checks.corrupt_cli_output(self.expected[op.key], output)


WORKLOADS = {w.name: w for w in (CliBundled, ConceptReport, CountFits)}
