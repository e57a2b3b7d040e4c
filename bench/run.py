"""qcm's benchmark: seeded workloads, checked outputs, end-to-end and layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``cli-bundled``, ``concept-report`` and
``count-fits``.  One client runs whole rounds of the workload's ops back to
back until ``--seconds`` have passed.  Every distinct output is checked
afterwards; an op that raised, exited non-zero or failed a check is a
failed op.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced and reports the per-layer metrics, with spans
written to ``.bench_out/``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import checks
import tracer as tracing
from workloads import WORKLOADS, child_env

SETUP_SAMPLES = 3
TAIL_SAMPLES = 10  # completed ops a phase leaves above the tail percentile
IMPORTTIME_SAMPLES = 3
REQUIRED = ("src/qcm/__init__.py", "src/qcm/schemas", "tests/conftest.py", "tests/golden", "data")

# ROADMAP's one-off baseline, per call: (label, span name, N filter, milliseconds)
BASELINE = (
    ("fit_two_sector", "fock.fit_two_sector", None, 0.018),
    ("fit_general_quadruple (search)", "fock.fit_general_quadruple", None, 5.3),
    ("fit_distribution MB N=11", "stats.fit_distribution.MB", 11, 11.0),
    ("fit_distribution MB N=50", "stats.fit_distribution.MB", 50, 24.0),
    ("fit_distribution MB N=200", "stats.fit_distribution.MB", 200, 246.0),
    ("fit_distribution BE N=11", "stats.fit_distribution.BE", 11, 0.8),
    ("verify_reference_model", "hilbert.verify_reference_model", None, 0.56),
)


def _environment(root: Path, seed: int) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "seed": seed,
    }


# ------------------------------------------------------------------- timing


def _setup_seconds(workload, root: Path, seed: int, workdir: Path) -> list[float]:
    """Wall time of fresh processes from start to the point the first op could run."""
    samples = []
    for index in range(SETUP_SAMPLES):
        if workload.in_process:
            probe_dir = workdir / f"setup-{index}"
            probe_dir.mkdir()
            command = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                       workload.name, str(seed), str(probe_dir)]
        else:
            command = [sys.executable, "-c", "import qcm; print('ready', flush=True)"]
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            _, err = probe.communicate()
        if probe.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return samples


def _import_ms(root: Path) -> dict[str, float]:
    """Median cumulative import time of qcm, scipy and numpy from ``-X importtime``."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qcm"],
                              cwd=root, env=child_env(root), capture_output=True, text=True,
                              check=True)
        cumulative = defaultdict(float)
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, total, module = (part.strip() for part in line[len("import time:"):].split("|"))
            if not total.isdigit():
                continue
            top = module.split(".")[0]
            if top in ("qcm", "scipy", "numpy"):
                cumulative[top] = max(cumulative[top], int(total) / 1000.0)
        for top in ("qcm", "scipy", "numpy"):
            samples[top].append(cumulative[top])
    return {top: statistics.median(values) for top, values in samples.items()}


class Phase:
    """One closed-loop timed phase: outcomes per op and outputs grouped for checking."""

    def __init__(self, workload, seconds: float, tracer=None, min_rounds: int = 1):
        self.outcomes = []  # (op, Outcome) in run order, outputs dropped
        self.outputs = defaultdict(dict)  # op key -> output -> indexes into outcomes
        start = time.perf_counter()
        rounds = 0
        # whole rounds, so every run sees the same mix of ops
        while rounds < min_rounds or time.perf_counter() - start < seconds:
            for op in workload.ops:
                if tracer is not None:
                    tracer.op = len(self.outcomes)
                outcome = workload.run(op, tracer)
                if outcome.error is None:
                    self.outputs[op.key].setdefault(outcome.output, []).append(len(self.outcomes))
                self.outcomes.append((op, outcome._replace(output=None)))
            rounds += 1
        self.wall_s = time.perf_counter() - start


def _percentile(latencies: list[float], percentile: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[max(math.ceil(percentile / 100.0 * len(ordered)), 1) - 1]


# ------------------------------------------------------------------ checking


def _check(workload, phases, schemas) -> tuple[set[int], list[str], list[str]]:
    """Check each distinct output; returns failed (phase, index) pairs and messages."""
    failed, problems, selftest = set(), [], []
    ops = {op.key: op for op in workload.ops}
    verified = {}
    for number, phase in enumerate(phases):
        failed |= {(number, i) for i, (_, outcome) in enumerate(phase.outcomes) if outcome.error}
        problems += sorted({f"{op.key}: {o.error}" for op, o in phase.outcomes if o.error})
        for key, outputs in phase.outputs.items():
            for output, indexes in outputs.items():
                errors = workload.check(schemas, ops[key], output)
                if errors:
                    failed |= {(number, i) for i in indexes}
                    problems += [f"{key}: {e}" for e in errors[:5]]
                else:
                    verified.setdefault(key, output)
    for key, output in verified.items():  # every check must reject damaged copies
        for damaged in workload.corrupt(ops[key], output):
            if not workload.check(schemas, ops[key], damaged):
                selftest.append(f"{key}: a corrupted output passed the check")
    return failed, problems, selftest


# ------------------------------------------------------------------- tracing


def _layer_metrics(tracer, phase, imports: dict) -> tuple[dict, list[str]]:
    """Per-op layer metrics from the traced phase, and any self-time violations."""
    spans = tracer.spans
    ops = len(phase.outcomes)
    per_op_self = defaultdict(int)
    totals = defaultdict(lambda: [0, 0, 0])  # calls, self ns, errors
    for span, own in zip(spans, tracing.self_times(spans)):
        entry = totals[span[tracing.NAME]]
        entry[0] += 1
        entry[1] += own
        entry[2] += span[tracing.ERROR]
        per_op_self[span[tracing.OP]] += own
    problems = [
        f"op {op}: self times add up to {total} ns, more than its wall time"
        for op, total in per_op_self.items() if total > phase.outcomes[op][1].elapsed_ns
    ]
    metrics = {}
    for name in tracing.TRACED:
        calls, self_ns, errors = totals[name]
        metrics[f"{name}.calls"] = (calls / ops, "1/op")
        metrics[f"{name}.self_ms"] = (self_ns / ops / 1e6, "ms")
        metrics[f"{name}.errors"] = (errors / ops, "1/op")
    for top in ("qcm", "scipy", "numpy"):
        metrics[f"import.{top}_ms"] = (imports[top], "ms")
    notes = [s[tracing.NOTE] for s in spans
             if s[tracing.NAME] == "fock.fit_general_quadruple" and s[tracing.NOTE]]
    metrics["fock.fit_general_quadruple.shortcut_frac"] = (
        sum(n["shortcut"] for n in notes) / len(notes) if notes else 0.0, "frac")
    metrics["fock.fit_general_quadruple.interference_sum"] = (
        sum(n["interference"] for n in notes) / ops, "1/op")
    metrics["svg.render.bytes"] = (
        sum(s[tracing.NOTE] or 0 for s in spans if s[tracing.NAME] == "svg.render") / ops, "B/op")
    metrics["cli.main.stdout_bytes"] = (
        sum(o.stdout_bytes for _, o in phase.outcomes) / ops, "B/op")
    return metrics, problems


def _baseline_rows(spans: list, imports: dict) -> list[tuple[str, str, str]]:
    """Traced per-call medians beside the ROADMAP baseline rows."""
    durations = defaultdict(list)
    for span in spans:
        name, note = span[tracing.NAME], span[tracing.NOTE]
        if name == "fock.fit_general_quadruple" and note and note["shortcut"]:
            continue  # the baseline timed the search, not the classical shortcut
        size = note if name.startswith("stats.fit_distribution") else None
        durations[(name, size)].append((span[tracing.END] - span[tracing.START]) / 1e6)
    rows = [("import qcm", "1180 ms", f"{imports['qcm']:.1f} ms")]
    for label, name, size, ms in BASELINE:
        found = durations.get((name, size))
        rows.append((label, f"{ms} ms",
                     f"{statistics.median(found):.3f} ms" if found else "not exercised"))
    return rows


def _write_spans(root: Path, workload: str, seed: int, spans: list) -> Path:
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    fields = ("name", "start_ns", "end_ns", "parent", "op", "error", "note")
    path.write_text(json.dumps([dict(zip(fields, span)) for span in spans]), encoding="utf-8")
    return path.relative_to(root)


# ---------------------------------------------------------------------- main


def _traced_phases(workload, seconds: float) -> tuple[list[Phase], tracing.Tracer]:
    """Half the time untraced, half traced, for the layer metrics and the overhead."""
    phases = [Phase(workload, seconds / 2)]
    tracer = tracing.Tracer()
    uninstall = None
    if workload.in_process:
        import qcm.cli

        uninstall = tracing.install(tracer, qcm.cli)
    try:
        phases.append(Phase(workload, seconds / 2, tracer))
    finally:
        if uninstall:
            uninstall()
    return phases, tracer


def _probe_expected_failures(workload, schemas) -> dict[str, str]:
    """Run each op the program is expected to fail today once, untimed."""
    probes = {}
    for op in getattr(workload, "probe_ops", ()):
        outcome = workload.run(op)
        if outcome.error is not None:
            probes[op.key] = f"failed: {outcome.error.split(':')[0]}"
        else:
            errors = workload.check(schemas, op, outcome.output)
            probes[op.key] = f"wrong output: {errors[0]}" if errors else "completed"
    return probes


def _run(args, root: Path, workdir: Path) -> dict:
    workload_class = WORKLOADS[args.workload]
    report = {"workload": args.workload, "why": workload_class.why,
              "environment": _environment(root, args.seed)}
    if args.trace:
        imports = _import_ms(root)
    else:
        setup = _setup_seconds(workload_class, root, args.seed, workdir)
        report["setup_s_samples"] = setup
    main_dir = workdir / "main"
    main_dir.mkdir()
    workload = workload_class(root, args.seed, main_dir)
    workload.setup()
    report["inputs"] = workload.properties()

    if args.trace:
        phases, tracer = _traced_phases(workload, args.seconds)
    else:
        beyond = (1.0 - workload.tail_percentile / 100.0) * len(workload.ops)
        phases = [Phase(workload, args.seconds, min_rounds=math.ceil(TAIL_SAMPLES / beyond))]
        peak_kb = resource.getrusage(
            resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN).ru_maxrss

    schemas = checks.Schemas(root / "src/qcm/schemas")
    failed, problems, selftest = _check(workload, phases, schemas)
    probes = _probe_expected_failures(workload, schemas)
    attempted = sum(len(phase.outcomes) for phase in phases)
    correct = not failed and not selftest and not any(
        outcome.startswith("wrong") for outcome in probes.values())
    report.update(failed_ops=problems[:20],
                  selftest=selftest or "every corrupted output was rejected",
                  fail_frac=len(failed) / attempted)
    if probes:
        report["expected_failure_probe"] = probes

    completed = [
        [o.elapsed_ns / 1e6 for i, (_, o) in enumerate(phase.outcomes) if (n, i) not in failed]
        for n, phase in enumerate(phases)
    ]
    ops_per_s = [len(done) / phase.wall_s for done, phase in zip(completed, phases)]
    if args.trace:
        metrics, trace_problems = _layer_metrics(tracer, phases[1], imports)
        metrics["trace.overhead_frac"] = (ops_per_s[0] / ops_per_s[1] - 1.0, "frac")
        correct = correct and not trace_problems
        op_ms = statistics.fmean(completed[1])
        report.update(
            trace_problems=trace_problems[:20],
            spans_file=str(_write_spans(root, args.workload, args.seed, tracer.spans)),
            baseline=_baseline_rows(tracer.spans, imports),
            share_of_traced_op={
                name: metrics[name][0] / op_ms
                for name in ("fock.fit_general_quadruple.self_ms",
                             "stats.fit_distribution.MB.self_ms", "cli.main.self_ms")
            } | {"import.qcm_ms": None if workload.in_process else imports["qcm"] / op_ms},
        )
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (ops_per_s[0], "1/s"),
            "op_ms.p50": (statistics.median(completed[0]), "ms"),
            "op_ms.tail": (_percentile(completed[0], workload.tail_percentile), "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        report["op_ms.tail"] = {"percentile": workload.tail_percentile,
                                "samples": len(completed[0])}
    report.update(attempted=attempted, failed=len(failed))
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [path for path in REQUIRED if not (root / path).exists()]
    if missing:
        print(f"bench: run from the root of a qcm checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    os.environ.pop("QCM_TOLERANCE", None)
    sys.path.insert(0, str(root / "src"))

    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result = _run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
