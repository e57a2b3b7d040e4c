#!/usr/bin/env python3
"""Run the benchmark on two commits in alternating pairs and summarise the runs.

Usage, from anywhere inside the repository:

    python3 scripts/bench_pairs.py --base REF [--head REF] --workload NAME
        [--workload NAME ...] --seeds FIRST-LAST [--seconds S] --output FILE

Each ref is ``git archive``d into its own temporary directory, so both sides
run from their committed files only, and ``bench/run.py --trace 0`` runs
there under this interpreter.  Each seed is one pair: one run per side with
that seed, the base first for even-numbered pairs and the head first for
odd-numbered ones, so slow drift in the host's speed falls on both sides.

FILE is JSON, rewritten after every pair: the Python version, both refs
and commits, every run's end-to-end metrics, and per workload and metric
the medians and quartiles of each side, the head's change of median, and
how many pairs the head won (strictly better, in the direction
``BENCHMARK.json`` gives).  Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles by ``statistics.quantiles``' inclusive method."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric: each side's quartiles, the head's change of median, and pairs won.

    ``runs`` are ``{"pair", "side", "metrics": {name: value}}`` records;
    ``better`` maps each metric to "lower" or "higher".  A pair counts only
    when both of its runs report the metric.
    """
    summary = {}
    for name, direction in better.items():
        by_pair: dict[int, dict[str, float]] = {}
        for run in runs:
            if name in run["metrics"]:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"][name]
        pairs = [sides for sides in by_pair.values() if len(sides) == 2]
        if not pairs:
            continue
        sign = 1.0 if direction == "lower" else -1.0
        base = quartiles([sides["base"] for sides in pairs])
        head = quartiles([sides["head"] for sides in pairs])
        summary[name] = {
            "better": direction,
            "base": base,
            "head": head,
            "change": head["median"] / base["median"] - 1.0 if base["median"] else None,
            "pairs": len(pairs),
            "head_won": sum(sign * (sides["head"] - sides["base"]) < 0.0 for sides in pairs),
        }
    return summary


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _checkout(ref: str, into: Path) -> str:
    """Extract ``ref``'s committed files into ``into``; return its commit id."""
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=_git("archive", ref), check=True)
    return _git("rev-parse", f"{ref}^{{commit}}").decode().strip()


def _bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent ref")
    parser.add_argument("--head", default="HEAD", help="the changed ref (default HEAD)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="FIRST-LAST, one pair each")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--output", required=True, type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        refs = {"base": args.base, "head": args.head}
        report = {
            "python": sys.version,
            "platform": platform.platform(),
            "seconds": args.seconds,
            **{side: {"ref": refs[side], "commit": _checkout(refs[side], trees[side])}
               for side in SIDES},
            "workloads": {},
        }
        for workload in args.workload:
            runs: list[dict] = []
            entry = report["workloads"][workload] = {"runs": runs, "summary": {}}
            for pair, seed in enumerate(args.seeds):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    run = _bench(trees[side], workload, seed, args.seconds)
                    runs.append({"pair": pair, "seed": seed, "side": side, **run})
                    print(f"{workload} seed {seed} {side}: {run['metrics']}", flush=True)
                entry["summary"] = summarize(runs, better)
                args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
