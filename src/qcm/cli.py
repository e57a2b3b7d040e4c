"""Command-line front end.

Subcommands: ``classicality`` (representability verdicts and deviation
profiles for membership tables), ``fock-fit`` (two-sector or general
interference-model fits), ``chsh`` (expectation values, CHSH, marginal-law
comparisons, optional reference-model verification), ``stats-fit``
(MB vs BE distribution fits with BIC comparison), and ``report`` (a
combined run driven by a manifest file).

Exit codes: 0 success, 1 validation or usage error, 2 I/O error.  Text
output renders floats at 4 decimals (round half to even) so reports are
byte-stable; JSON output keeps full precision.  The environment variable
QCM_TOLERANCE overrides per-command default tolerances; an explicit
--tolerance flag wins over the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from . import classicality as cls
from . import fock, hilbert, stats, svg
from .data import (
    BLOCKS,
    MembershipRecord,
    parse_coincidence,
    parse_count_datasets,
    parse_membership_table,
)
from .errors import DataValidationError, QcmError

_PROG = "qcm"


class UsageError(QcmError):
    """Bad flags or subcommand; rendered with usage text, exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants 1, so route
    # through an exception the driver can catch
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _fmt(value: float) -> str:
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _resolve_tolerance(flag_value: float | None, default: float) -> float:
    if flag_value is not None:
        value, source = flag_value, "--tolerance"
    else:
        env = os.environ.get("QCM_TOLERANCE")
        if env is None or env.strip() == "":
            return default
        try:
            value, source = float(env), "QCM_TOLERANCE"
        except ValueError:
            raise DataValidationError(f"QCM_TOLERANCE is not a number: {env!r}")
    if not (math.isfinite(value) and value > 0.0):
        raise DataValidationError(f"{source} must be a finite number > 0, got {value!r}")
    return value


def _input_name(path: str) -> str:
    return "stdin" if path == "-" else os.path.basename(path)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _membership_format(path: str, flag: str | None) -> str:
    if flag is not None:
        return flag
    if path != "-" and path.lower().endswith(".json"):
        return "json"
    return "csv"


def _record_title(index: int, record: MembershipRecord) -> str:
    return (
        f"[{index}] {record.exemplar} "
        f"({record.concept_a} / {record.concept_b})"
    )


# ---------------------------------------------------------------- classicality


def _verdict_payload(verdict: cls.ClassicalityVerdict) -> dict:
    return {
        "satisfied": verdict.satisfied,
        "residuals": {name: value for name, value in verdict.residuals.items()},
    }


def _verdict_lines(label: str, verdict: cls.ClassicalityVerdict) -> list[str]:
    lines = [f"  {label}: {'satisfied' if verdict.satisfied else 'violated'}"]
    for name, value in verdict.residuals.items():
        lines.append(f"    {name} = {_fmt(value)}")
    return lines


def _cmd_classicality(args) -> tuple[str, dict, list[svg.Chart]]:
    tolerance = _resolve_tolerance(args.tolerance, cls.DEFAULT_TOLERANCE)
    fmt = _membership_format(args.input, args.format)
    records = parse_membership_table(_read_input(args.input), format=fmt)
    name = _input_name(args.input)

    lines = [
        f"classicality report: {name}",
        f"tolerance: {tolerance!r}",
        f"records: {len(records)}",
    ]
    entries = []
    profiles = []
    profile_series = []
    for index, record in enumerate(records, start=1):
        lines.append("")
        lines.append(_record_title(index, record))
        entry = {
            "exemplar": record.exemplar,
            "conceptA": record.concept_a,
            "conceptB": record.concept_b,
            "conjunction": None,
            "disjunction": None,
            "negation": None,
            "deviationProfile": None,
        }
        if record.has("muAandB"):
            verdict = cls.check_conjunction(
                record.mu_a, record.mu_b, record.mu_a_and_b, tolerance
            )
            entry["conjunction"] = _verdict_payload(verdict)
            lines.extend(_verdict_lines("conjunction", verdict))
        if record.has("muAorB"):
            verdict = cls.check_disjunction(
                record.mu_a, record.mu_b, record.mu_a_or_b, tolerance
            )
            entry["disjunction"] = _verdict_payload(verdict)
            lines.extend(_verdict_lines("disjunction", verdict))
        if record.negation_complete():
            verdict = cls.check_negation(record, tolerance)
            entry["negation"] = _verdict_payload(verdict)
            lines.extend(_verdict_lines("negation", verdict))
            profile = cls.deviation_profile(record)
            profiles.append(profile)
            profile_series.append(
                svg.Series(
                    label=record.exemplar,
                    values=tuple(profile.as_dict()[k] for k in cls.PROFILE_KEYS),
                )
            )
            entry["deviationProfile"] = dict(profile.as_dict())
            lines.append("  deviation profile:")
            lines.append(
                "    "
                + "  ".join(
                    f"{key} = {_fmt(value)}"
                    for key, value in profile.as_dict().items()
                )
            )
        entries.append(entry)

    lines.append("")
    statistics_payload = None
    if len(profiles) >= 3:
        statistics = cls.profile_statistics(profiles, confidence=args.confidence)
        lines.append(
            f"profile statistics (n = {len(profiles)}, "
            f"confidence {args.confidence:g}):"
        )
        quantities = {}
        for key in cls.PROFILE_KEYS:
            reg = statistics[key]
            quantities[key] = {
                "mean": reg.mean,
                "ciLow": reg.ci_low,
                "ciHigh": reg.ci_high,
                "slope": reg.slope,
                "intercept": reg.intercept,
                "r2": reg.r2,
            }
            lines.append(
                f"  {key:<6} mean = {_fmt(reg.mean)}  "
                f"ci = [{_fmt(reg.ci_low)}, {_fmt(reg.ci_high)}]  "
                f"slope = {_fmt(reg.slope)}  r2 = {_fmt(reg.r2)}"
            )
        statistics_payload = {
            "n": len(profiles),
            "confidence": args.confidence,
            "quantities": quantities,
        }
    else:
        lines.append(
            "profile statistics: not computed "
            f"(needs at least 3 complete records, have {len(profiles)})"
        )

    payload = {
        "report": "classicality",
        "input": name,
        "tolerance": tolerance,
        "records": entries,
        "profileStatistics": statistics_payload,
    }
    charts = []
    if profile_series:
        charts.append(
            svg.Chart(
                title=f"deviation profiles: {name}",
                categories=cls.PROFILE_KEYS,
                series=tuple(profile_series),
            )
        )
    return "\n".join(lines) + "\n", payload, charts


# -------------------------------------------------------------------- fock-fit


def _fit_two_sector_entry(
    record: MembershipRecord, connective: str, policy: fock.FitPolicy
) -> tuple[dict, fock.FitResult, float]:
    column = "muAandB" if connective == "and" else "muAorB"
    target = record.value(column)
    result = fock.fit_two_sector(record.mu_a, record.mu_b, target, connective, policy)
    params = result.params
    evaluate = fock.eval_conjunction if connective == "and" else fock.eval_disjunction
    predicted = evaluate(record.mu_a, record.mu_b, params)
    family = result.family
    entry = {
        "exemplar": record.exemplar,
        "conceptA": record.concept_a,
        "conceptB": record.concept_b,
        "connective": connective,
        "muA": record.mu_a,
        "muB": record.mu_b,
        "target": target,
        "m2": params.m2,
        "n2": params.n2,
        "thetaDeg": params.theta_deg,
        "predicted": predicted.value,
        "inRange": predicted.in_range,
        "residual": result.residual,
        "feasible": result.feasible,
        "solutionSet": {
            "kind": family.kind,
            "m2Min": family.m2_min,
            "m2Max": family.m2_max,
            "note": family.note,
        },
    }
    return entry, result, predicted.value


def _cmd_fock_fit(args) -> tuple[str, dict, list[svg.Chart]]:
    tolerance = _resolve_tolerance(args.tolerance, fock.FIT_TOLERANCE)
    fmt = _membership_format(args.input, args.format)
    records = parse_membership_table(_read_input(args.input), format=fmt)
    name = _input_name(args.input)

    if args.mode == "two-sector":
        policy = fock.FitPolicy(name=args.policy, tolerance=tolerance)
        lines = [
            f"fock fit report: {name}",
            "mode: two-sector",
            f"policy: {args.policy}",
            f"tolerance: {tolerance!r}",
        ]
        fits = []
        labels = []
        targets = []
        predictions = []
        index = 0
        for record in records:
            for connective, column in (("and", "muAandB"), ("or", "muAorB")):
                if not record.has(column):
                    continue
                index += 1
                entry, result, predicted = _fit_two_sector_entry(
                    record, connective, policy
                )
                fits.append(entry)
                labels.append(f"{record.exemplar} ({connective})")
                targets.append(entry["target"])
                predictions.append(predicted)
                lines.append("")
                lines.append(
                    f"{_record_title(index, record)} {connective}: "
                    f"muA = {_fmt(record.mu_a)}  muB = {_fmt(record.mu_b)}  "
                    f"target = {_fmt(entry['target'])}"
                )
                lines.append(
                    f"  m2 = {_fmt(entry['m2'])}  n2 = {_fmt(entry['n2'])}  "
                    f"theta = {_fmt(entry['thetaDeg'])} deg"
                )
                range_flag = "" if entry["inRange"] else "  [outside [0, 1]]"
                lines.append(
                    f"  predicted = {_fmt(predicted)}{range_flag}  "
                    f"residual = {_fmt(entry['residual'])}  "
                    f"feasible: {_yesno(entry['feasible'])}"
                )
                solution = entry["solutionSet"]
                if solution["kind"] == "empty":
                    lines.append(f"  solution set: empty ({solution['note']})")
                else:
                    lines.append(
                        f"  solution set: {solution['kind']} with m2 in "
                        f"[{_fmt(solution['m2Min'])}, {_fmt(solution['m2Max'])}]"
                    )
        lines.append("")
        lines.append(f"fits: {index}")
        payload = {
            "report": "fock-fit",
            "mode": "two-sector",
            "input": name,
            "policy": args.policy,
            "tolerance": tolerance,
            "fits": fits,
        }
        charts = []
        if labels:
            charts.append(
                svg.Chart(
                    title=f"two-sector fits: {name}",
                    categories=tuple(labels),
                    series=(
                        svg.Series("target", tuple(targets)),
                        svg.Series("predicted", tuple(predictions)),
                    ),
                )
            )
        return "\n".join(lines) + "\n", payload, charts

    # general quadruple mode
    lines = [
        f"fock fit report: {name}",
        "mode: general",
        f"seed: {args.seed}",
        f"tolerance: {tolerance!r}",
    ]
    fits = []
    residual_series = []
    index = 0
    for record in records:
        if not (record.negation_complete() and record.has("muAandB")):
            continue
        index += 1
        result = fock.fit_general_quadruple(record, tolerance)
        params = result.params
        targets = dict(zip(fock.PAIR_KEYS, fock.joint_targets(record)))
        predictions = fock.eval_general_record(record, params)
        lines.append("")
        lines.append(
            f"{_record_title(index, record)}: targets "
            + "  ".join(f"{k} = {_fmt(targets[k])}" for k in fock.PAIR_KEYS)
        )
        lines.append(
            f"  max residual = {_fmt(result.residual)}  "
            f"feasible: {_yesno(result.feasible)}"
        )
        pair_payload = {}
        for key in fock.PAIR_KEYS:
            pair = params.pair(key)
            predicted = predictions[key]
            pair_payload[key] = {
                "m2": pair.m2,
                "n2": pair.n2,
                "alpha": pair.alpha,
                "beta": pair.beta,
                "phiDeg": pair.phi_deg,
                "predicted": predicted.value,
                "inRange": predicted.in_range,
            }
            lines.append(
                f"  {key:<4}: alpha = {_fmt(pair.alpha)}  m2 = {_fmt(pair.m2)}  "
                f"beta = {_fmt(pair.beta)}  phi = {_fmt(pair.phi_deg)} deg  "
                f"predicted = {_fmt(predicted.value)}"
            )
        residual_series.append(
            svg.Series(
                label=record.exemplar,
                values=tuple(
                    abs(predictions[k].value - targets[k]) for k in fock.PAIR_KEYS
                ),
            )
        )
        fits.append(
            {
                "exemplar": record.exemplar,
                "conceptA": record.concept_a,
                "conceptB": record.concept_b,
                "targets": targets,
                "maxResidual": result.residual,
                "feasible": result.feasible,
                "pairs": pair_payload,
            }
        )
    lines.append("")
    lines.append(f"fits: {index}")
    payload = {
        "report": "fock-fit",
        "mode": "general",
        "input": name,
        "seed": args.seed,
        "tolerance": tolerance,
        "fits": fits,
    }
    charts = []
    if residual_series:
        charts.append(
            svg.Chart(
                title=f"general fit residuals: {name}",
                categories=fock.PAIR_KEYS,
                series=tuple(residual_series),
            )
        )
    return "\n".join(lines) + "\n", payload, charts


# ------------------------------------------------------------------------ chsh


_EXPECTATION_LABELS = {
    "AB": "E(A,B)",
    "ABp": "E(A,B')",
    "ApB": "E(A',B)",
    "ApBp": "E(A',B')",
}


def _cmd_chsh(args) -> tuple[str, dict, list[svg.Chart]]:
    tolerance = _resolve_tolerance(args.tolerance, 0.01)
    table = parse_coincidence(_read_input(args.input))
    name = _input_name(args.input)
    report = hilbert.expectations_from_table(table)
    expectations = report.expectations()

    lines = [f"chsh report: {name}", "", "expectation values:"]
    for key in BLOCKS:
        lines.append(f"  {_EXPECTATION_LABELS[key]:<9}= {_fmt(expectations[key])}")
    lines.append("")
    lines.append("combination: E(A',B') + E(A',B) + E(A,B') - E(A,B)")
    lines.append(f"CHSH = {_fmt(report.chsh)}")
    lines.append(
        f"classical bound violated: {_yesno(report.classical_violated)} (|CHSH| > 2)"
    )
    lines.append(
        f"tsirelson bound respected: {_yesno(report.tsirelson_respected)} "
        f"(|CHSH| <= {_fmt(hilbert.TSIRELSON_BOUND)})"
    )
    lines.append(
        "note: expectation values inherit the rounding of the input "
        "probabilities; 3-decimal inputs make CHSH accurate to about +/- 0.005"
    )

    comparisons = hilbert.marginal_law_check(table, tolerance=tolerance)
    label_width = max(len(c.label) for c in comparisons)
    lines.append("")
    lines.append(f"marginal-law comparisons (tolerance {tolerance!r}):")
    for c in comparisons:
        status = "VIOLATED" if c.violated else "ok"
        lines.append(
            f"  {c.label:<{label_width}}  {c.block_a:<4} vs {c.block_b:<4}: "
            f"{_fmt(c.lhs)} vs {_fmt(c.rhs)}  {status}"
        )
    violated = sum(c.violated for c in comparisons)
    lines.append(f"violated: {violated} of {len(comparisons)}")

    payload = {
        "report": "chsh",
        "input": name,
        "expectations": {key: expectations[key] for key in BLOCKS},
        "chsh": report.chsh,
        "classicalBoundViolated": report.classical_violated,
        "tsirelsonBoundRespected": report.tsirelson_respected,
        "marginalTolerance": tolerance,
        "marginalComparisons": [
            {
                "label": c.label,
                "blockA": c.block_a,
                "blockB": c.block_b,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "violated": c.violated,
            }
            for c in comparisons
        ],
        "marginalViolations": violated,
        "model": None,
    }

    if args.model is not None:
        model = hilbert.parse_model(_read_input(args.model))
        verification = hilbert.verify_reference_model(
            model, table, hilbert.VerifyTolerances(marginal=tolerance)
        )
        model_name = _input_name(args.model)
        lines.append("")
        lines.append(f"model verification: {model_name}")
        name_width = max(len(item.name) for item in verification.checks)
        for item in verification.checks:
            status = "ok  " if item.passed else "FAIL"
            lines.append(f"  {item.name:<{name_width}}  {status}  {item.detail}")
        lines.append(f"all checks passed: {_yesno(verification.all_passed)}")
        classification = verification.classification
        lines.append(f"classification: {classification if classification else 'none'}")
        payload["model"] = {
            "input": model_name,
            "allPassed": verification.all_passed,
            "classification": classification,
            "checks": [
                {"name": item.name, "passed": item.passed, "detail": item.detail}
                for item in verification.checks
            ],
        }

    charts = [
        svg.Chart(
            title=f"expectation values: {name}",
            categories=tuple(_EXPECTATION_LABELS[key] for key in BLOCKS),
            series=(svg.Series("expectation", tuple(expectations[key] for key in BLOCKS)),),
        )
    ]
    return "\n".join(lines) + "\n", payload, charts


# ------------------------------------------------------------------- stats-fit


def _fit_payload(fit: stats.DistFit) -> dict:
    return {
        "p1": fit.params.p1,
        "rss": fit.rss,
        "r2": fit.r2,
        "bic": fit.bic,
    }


def _cmd_stats_fit(args) -> tuple[str, dict, list[svg.Chart]]:
    datasets = parse_count_datasets(_read_input(args.input))
    name = _input_name(args.input)
    lines = [f"stats fit report: {name}"]
    entries = []
    charts = []
    for index, dataset in enumerate(datasets, start=1):
        mb = stats.fit_distribution(dataset, "MB")
        be = stats.fit_distribution(dataset, "BE")
        comparison = stats.compare_bic(mb, be)
        lines.append("")
        lines.append(
            f"[{index}] {dataset.category} (N = {dataset.n_total}, "
            f"states {dataset.state_labels[0]} / {dataset.state_labels[1]})"
        )
        for label, fit in (("MB", mb), ("BE", be)):
            r2_text = "n/a" if fit.r2 is None else _fmt(fit.r2)
            lines.append(
                f"  {label}: p1 = {_fmt(fit.params.p1)}  rss = {_fmt(fit.rss)}  "
                f"r2 = {r2_text}  bic = {_fmt(fit.bic)}"
            )
        lines.append(
            f"  delta BIC (MB - BE) = {_fmt(comparison.delta_bic)}  "
            f"winner {comparison.winner} ({comparison.strength})"
        )
        entries.append(
            {
                "category": dataset.category,
                "N": dataset.n_total,
                "stateLabels": list(dataset.state_labels),
                "fits": {"MB": _fit_payload(mb), "BE": _fit_payload(be)},
                "comparison": {
                    "deltaBic": comparison.delta_bic,
                    "winner": comparison.winner,
                    "strength": comparison.strength,
                },
            }
        )
        charts.append(
            svg.Chart(
                title=f"{dataset.category} (N = {dataset.n_total})",
                categories=tuple(str(n) for n in range(dataset.n_total + 1)),
                series=(
                    svg.Series("observed", dataset.observed),
                    svg.Series("MB fit", stats.pmf_vector(mb.params)),
                    svg.Series("BE fit", stats.pmf_vector(be.params)),
                ),
            )
        )
    lines.append("")
    lines.append(f"datasets: {len(datasets)}")
    payload = {"report": "stats-fit", "input": name, "datasets": entries}
    return "\n".join(lines) + "\n", payload, charts


# ---------------------------------------------------------------------- report


_MANIFEST_COMMANDS = ("classicality", "fock-fit", "chsh", "stats-fit")


def _cmd_report(args) -> tuple[str, dict, list[svg.Chart]]:
    manifest_text = _read_input(args.manifest)
    try:
        manifest = json.loads(manifest_text)
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"manifest: invalid JSON: {exc}")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("runs"), list):
        raise DataValidationError("manifest: expected an object with a 'runs' array")
    base = "" if args.manifest == "-" else os.path.dirname(os.path.abspath(args.manifest))

    def resolve(path: str) -> str:
        if path == "-" or os.path.isabs(path) or base == "":
            return path
        return os.path.join(base, path)

    name = _input_name(args.manifest)
    lines = [f"combined report: {name}", f"runs: {len(manifest['runs'])}"]
    run_payloads = []
    all_charts: list[svg.Chart] = []
    for index, run in enumerate(manifest["runs"], start=1):
        if not isinstance(run, dict) or "command" not in run:
            raise DataValidationError(f"manifest run {index}: missing 'command'")
        command = run["command"]
        if command not in _MANIFEST_COMMANDS:
            raise DataValidationError(
                f"manifest run {index}: unknown command {command!r}"
            )
        if "input" not in run:
            raise DataValidationError(f"manifest run {index}: missing 'input'")
        argv = [command, "--input", resolve(str(run["input"]))]
        for key, flag in (
            ("format", "--format"),
            ("mode", "--mode"),
            ("policy", "--policy"),
            ("model", "--model"),
            ("tolerance", "--tolerance"),
            ("seed", "--seed"),
        ):
            if key in run:
                value = str(run[key])
                argv.extend([flag, resolve(value) if key == "model" else value])
        sub_args = _build_parser().parse_args(argv)
        text, payload, charts = _DISPATCH[command](sub_args)
        run_name = run.get("name", f"run {index}")
        lines.append("")
        lines.append(f"=== {run_name}: {command} {_input_name(str(run['input']))} ===")
        lines.append(text.rstrip("\n"))
        run_payloads.append(
            {"name": run_name, "command": command, "report": payload}
        )
        all_charts.extend(charts)
    payload = {"report": "combined", "manifest": name, "runs": run_payloads}
    return "\n".join(lines) + "\n", payload, all_charts


# ---------------------------------------------------------------------- driver


_DISPATCH = {
    "classicality": _cmd_classicality,
    "fock-fit": _cmd_fock_fit,
    "chsh": _cmd_chsh,
    "stats-fit": _cmd_stats_fit,
    "report": _cmd_report,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog=_PROG, description="concept-combination analysis toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, with_plot=True):
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--tolerance", type=float, default=None)
        if with_plot:
            p.add_argument("--plot", default=None, metavar="SVG_PATH")

    p = sub.add_parser(
        "classicality", help="representability checks for a membership table"
    )
    p.add_argument("--input", required=True, help="membership table path or -")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--confidence", type=float, default=0.95)
    common(p)

    p = sub.add_parser("fock-fit", help="two-sector or general interference fits")
    p.add_argument("--input", required=True, help="membership table path or -")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--mode", choices=("two-sector", "general"), default="two-sector")
    p.add_argument(
        "--policy", choices=("min-interference", "min-m2"), default="min-interference"
    )
    p.add_argument(
        "--seed", type=int, default=0, help="accepted and echoed only; the general fit is exact"
    )
    common(p)

    p = sub.add_parser("chsh", help="CHSH and marginal-law analysis of a coincidence table")
    p.add_argument("--input", required=True, help="coincidence table path or -")
    p.add_argument("--model", default=None, help="optional reference model to verify")
    common(p)

    p = sub.add_parser("stats-fit", help="MB vs BE distribution fits")
    p.add_argument("--input", required=True, help="count dataset path or -")
    common(p)

    p = sub.add_parser("report", help="combined run over a manifest")
    p.add_argument("--manifest", required=True, help="manifest path or -")
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.add_argument("--plot", default=None, metavar="SVG_PATH")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command is None:
            raise UsageError(f"{parser.format_usage()}{_PROG}: error: a command is required")
        text, payload, charts = _DISPATCH[args.command](args)
        if args.output == "json":
            sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        else:
            sys.stdout.write(text)
        if getattr(args, "plot", None):
            with open(args.plot, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(svg.render(charts))
        return 0
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except QcmError as exc:
        sys.stderr.write(f"{_PROG}: error: {exc}\n")
        return 1
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"{_PROG}: error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"{_PROG}: i/o error: {exc}\n")
        return 2


def console_main() -> None:
    sys.exit(main())
