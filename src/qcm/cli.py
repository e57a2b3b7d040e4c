"""Command-line front end.

Subcommands: ``classicality`` (representability verdicts and deviation
profiles for membership tables), ``fock-fit`` (two-sector or general
interference-model fits), ``chsh`` (expectation values, CHSH, marginal-law
comparisons, optional reference-model verification), ``stats-fit``
(MB vs BE distribution fits with BIC comparison), and ``report`` (a
combined run driven by a manifest file).

Each command builds its report once, as the JSON payload; ``--output
text`` renders the text from that payload.  A record enters the payload
under the keys of ``Record.as_dict``, the one key rule.  Text renders
floats at 4 decimals (round half to even) so reports are byte-stable;
JSON keeps full precision and never holds NaN or infinities.

A command executes only the analysis modules it calls: ``cls``, ``fock``,
``hilbert``, ``stats`` and ``svg`` are bound here as the lazy modules
``qcm.__getattr__`` makes, executed on first attribute access, and charts
are built only for ``--plot``.  A membership table's format, CSV or JSON, is
read from its content, not from a flag or the file name.

Exit codes: 0 success, 1 bad data or usage (a ``QcmError``), 2 I/O error;
any other exception is a bug and keeps its traceback.  ``main`` builds every
error line, ``{usage}{prog}: error: {message}``: only a ``UsageError`` carries
usage text and a subcommand's prog, and an error raised by a report's run
gets the run's name prefixed to its message.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Sequence

from .data import (
    BLOCKS,
    FIT_POLICIES,
    _check_positive,
    _check_text,
    _load_json,
    _object,
    _sum,
    parse_coincidence,
    parse_count_datasets,
    parse_membership_table,
)
from .errors import DataValidationError, QcmError, SchemaError
from . import classicality as cls, fock, hilbert, stats, svg

_PROG = "qcm"


class UsageError(QcmError):
    """Bad flags or subcommand, exit code 1; ``main`` writes ``usage`` and ``prog``
    before the message."""

    def __init__(self, message: str, usage: str = "", prog: str = _PROG):
        super().__init__(message)
        self.usage, self.prog = usage, prog


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants 1, so route
    # through an exception the driver can catch
    def __init__(self, **kwargs):  # flags are spelled in full, as manifest run keys are
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message, self.format_usage(), self.prog)


def _fmt(value: float) -> str:
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _resolve_tolerance(value: float | None, default: float) -> float:
    return default if value is None else _check_positive(value, "--tolerance")


def _input_name(path: str) -> str:
    return "stdin" if path == "-" else os.path.basename(path)


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{_input_name(path)}: not valid UTF-8: {exc}") from None
    except ValueError as exc:  # open() refuses a path holding NUL or a lone surrogate
        raise DataValidationError(f"input path {path!r}: {exc}") from None


def _record_payload(record) -> dict:
    return {
        "exemplar": record.exemplar,
        "conceptA": record.concept_a,
        "conceptB": record.concept_b,
    }


def _record_title(index: int, entry: dict) -> str:
    return f"[{index}] {entry['exemplar']} ({entry['conceptA']} / {entry['conceptB']})"


# ---------------------------------------------------------------- classicality


def _verdict_payload(verdict: cls.ClassicalityVerdict) -> dict:
    return {
        "satisfied": verdict.satisfied,
        "residuals": dict(verdict.residuals),
    }


def _cmd_classicality(args, plot: bool) -> tuple[dict, list[svg.Chart]]:
    _check_positive(args.confidence, "--confidence", 1.0)
    tolerance = _resolve_tolerance(args.tolerance, cls.DEFAULT_TOLERANCE)
    records = parse_membership_table(_read_input(args.input))
    name = _input_name(args.input)

    entries = []
    profiles = []
    for record in records:
        entry = {
            **_record_payload(record),
            "conjunction": None,
            "disjunction": None,
            "negation": None,
            "deviationProfile": None,
        }
        if record.has("muAandB"):
            entry["conjunction"] = _verdict_payload(
                cls.check_conjunction(record.mu_a, record.mu_b, record.mu_a_and_b, tolerance)
            )
        if record.has("muAorB"):
            entry["disjunction"] = _verdict_payload(
                cls.check_disjunction(record.mu_a, record.mu_b, record.mu_a_or_b, tolerance)
            )
        if record.negation_complete():
            entry["negation"] = _verdict_payload(cls.check_negation(record, tolerance))
            profile = cls.deviation_profile(record)
            profiles.append(profile)
            entry["deviationProfile"] = profile.as_dict()
        entries.append(entry)

    statistics_payload = None
    if len(profiles) >= 3:
        statistics = cls.profile_statistics(profiles, confidence=args.confidence)
        statistics_payload = {
            "n": len(profiles),
            "confidence": args.confidence,
            "quantities": {
                key: {
                    "mean": reg.mean,
                    "ciLow": reg.ci_low,
                    "ciHigh": reg.ci_high,
                    "slope": reg.slope,
                    "intercept": reg.intercept,
                    "r2": reg.r2,
                }
                for key, reg in statistics.items()
            },
        }

    payload = {
        "report": "classicality",
        "input": name,
        "tolerance": tolerance,
        "records": entries,
        "profileStatistics": statistics_payload,
    }
    if not plot:
        return payload, []
    series = tuple(
        svg.Series(entry["exemplar"], tuple(entry["deviationProfile"].values()))
        for entry in entries
        if entry["deviationProfile"] is not None
    )
    chart = svg.Chart(f"deviation profiles: {name}", cls.PROFILE_KEYS, series)
    return payload, [chart] if series else []


def _render_classicality(payload: dict) -> list[str]:
    entries = payload["records"]
    lines = [
        f"classicality report: {payload['input']}",
        f"tolerance: {payload['tolerance']!r}",
        f"records: {len(entries)}",
    ]
    for index, entry in enumerate(entries, start=1):
        lines += ["", _record_title(index, entry)]
        for label in ("conjunction", "disjunction", "negation"):
            verdict = entry[label]
            if verdict is not None:
                lines.append(f"  {label}: {'satisfied' if verdict['satisfied'] else 'violated'}")
                lines += [f"    {k} = {_fmt(v)}" for k, v in verdict["residuals"].items()]
        profile = entry["deviationProfile"]
        if profile is not None:
            lines += [
                "  deviation profile:",
                "    " + "  ".join(f"{key} = {_fmt(value)}" for key, value in profile.items()),
            ]

    lines.append("")
    statistics = payload["profileStatistics"]
    if statistics is None:
        have = _sum(entry["deviationProfile"] is not None for entry in entries)
        lines.append(
            "profile statistics: not computed "
            f"(needs at least 3 complete records, have {have})"
        )
        return lines
    lines.append(
        f"profile statistics (n = {statistics['n']}, "
        f"confidence {statistics['confidence']:g}):"
    )
    for key, reg in statistics["quantities"].items():
        lines.append(
            f"  {key:<6} mean = {_fmt(reg['mean'])}  "
            f"ci = [{_fmt(reg['ciLow'])}, {_fmt(reg['ciHigh'])}]  "
            f"slope = {_fmt(reg['slope'])}  r2 = {_fmt(reg['r2'])}"
        )
    return lines


# -------------------------------------------------------------------- fock-fit


def _cmd_fock_fit(args, plot: bool) -> tuple[dict, list[svg.Chart]]:
    if args.mode == "general" and args.policy is not None:  # the general fit has one policy
        raise UsageError("--policy applies only to --mode two-sector")
    policy = args.policy or "min-interference"
    tolerance = _resolve_tolerance(args.tolerance, fock.FIT_TOLERANCE)
    records = parse_membership_table(_read_input(args.input))
    name = _input_name(args.input)

    fits = []
    if args.mode == "two-sector":
        for record in records:
            for connective, column in (("and", "muAandB"), ("or", "muAorB")):
                if not record.has(column):
                    continue
                target = record.value(column)
                result = fock.fit_two_sector(
                    record.mu_a, record.mu_b, target, connective, policy, tolerance
                )
                params, predicted = result.params, result.predictions[0]
                fits.append(
                    {
                        **_record_payload(record),
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
                        "solutionSet": result.family.as_dict(),
                    }
                )
    else:
        for record in records:
            if not record.negation_complete():
                continue
            result = fock.fit_general_quadruple(record, tolerance)
            pairs = {}
            for key, predicted in zip(BLOCKS, result.predictions):
                pair = result.params.pair(key)
                pairs[key] = {
                    "m2": pair.m2,
                    "n2": pair.n2,
                    "alpha": pair.alpha,
                    "beta": pair.beta,
                    "phiDeg": pair.phi_deg,
                    "predicted": predicted.value,
                    "inRange": predicted.in_range,
                }
            fits.append(
                {
                    **_record_payload(record),
                    "targets": dict(zip(BLOCKS, fock.joint_targets(record))),
                    "maxResidual": result.residual,
                    "feasible": result.feasible,
                    "pairs": pairs,
                }
            )
    payload = {
        "report": "fock-fit",
        "mode": args.mode,
        "input": name,
        **({"policy": policy} if args.mode == "two-sector" else {}),
        "tolerance": tolerance,
        "fits": fits,
    }
    if not (plot and fits):
        return payload, []
    if args.mode == "two-sector":
        chart = svg.Chart(
            title=f"two-sector fits: {name}",
            categories=tuple(f"{fit['exemplar']} ({fit['connective']})" for fit in fits),
            series=(
                svg.Series("target", tuple(fit["target"] for fit in fits)),
                svg.Series("predicted", tuple(fit["predicted"] for fit in fits)),
            ),
        )
    else:
        chart = svg.Chart(
            title=f"general fit residuals: {name}",
            categories=BLOCKS,
            series=tuple(
                svg.Series(
                    label=fit["exemplar"],
                    values=tuple(
                        abs(fit["pairs"][k]["predicted"] - fit["targets"][k])
                        for k in BLOCKS
                    ),
                )
                for fit in fits
            ),
        )
    return payload, [chart]


def _render_fock_fit(payload: dict) -> list[str]:
    two_sector = payload["mode"] == "two-sector"
    lines = [
        f"fock fit report: {payload['input']}",
        f"mode: {payload['mode']}",
        *([f"policy: {payload['policy']}"] if two_sector else []),
        f"tolerance: {payload['tolerance']!r}",
    ]
    for index, fit in enumerate(payload["fits"], start=1):
        title = _record_title(index, fit)
        if two_sector:
            range_flag = "" if fit["inRange"] else "  [outside [0, 1]]"
            solution = fit["solutionSet"]
            if solution["kind"] == "empty":
                solution_text = f"empty ({solution['note']})"
            else:
                solution_text = (
                    f"{solution['kind']} with m2 in "
                    f"[{_fmt(solution['m2Min'])}, {_fmt(solution['m2Max'])}]"
                )
            lines += [
                "",
                f"{title} {fit['connective']}: muA = {_fmt(fit['muA'])}  "
                f"muB = {_fmt(fit['muB'])}  target = {_fmt(fit['target'])}",
                f"  m2 = {_fmt(fit['m2'])}  n2 = {_fmt(fit['n2'])}  "
                f"theta = {_fmt(fit['thetaDeg'])} deg",
                f"  predicted = {_fmt(fit['predicted'])}{range_flag}  "
                f"residual = {_fmt(fit['residual'])}  feasible: {_yesno(fit['feasible'])}",
                f"  solution set: {solution_text}",
            ]
        else:
            targets = fit["targets"]
            lines += [
                "",
                f"{title}: targets "
                + "  ".join(f"{k} = {_fmt(targets[k])}" for k in BLOCKS),
                f"  max residual = {_fmt(fit['maxResidual'])}  "
                f"feasible: {_yesno(fit['feasible'])}",
            ]
            for key, pair in fit["pairs"].items():
                lines.append(
                    f"  {key:<4}: alpha = {_fmt(pair['alpha'])}  m2 = {_fmt(pair['m2'])}  "
                    f"beta = {_fmt(pair['beta'])}  phi = {_fmt(pair['phiDeg'])} deg  "
                    f"predicted = {_fmt(pair['predicted'])}"
                )
    lines += ["", f"fits: {len(payload['fits'])}"]
    return lines


# ------------------------------------------------------------------------ chsh


_EXPECTATION_LABELS = {
    "AB": "E(A,B)",
    "ABp": "E(A,B')",
    "ApB": "E(A',B)",
    "ApBp": "E(A',B')",
}


def _cmd_chsh(args, plot: bool) -> tuple[dict, list[svg.Chart]]:
    if args.input == "-" and args.model == "-":
        raise UsageError("--input and --model cannot both read stdin")
    tolerance = _resolve_tolerance(args.tolerance, hilbert.MARGINAL_TOLERANCE)
    table = parse_coincidence(_read_input(args.input))
    name = _input_name(args.input)
    report = hilbert.expectations_from_table(table)
    comparisons = hilbert.marginal_law_check(table, tolerance=tolerance)

    payload = {
        "report": "chsh",
        "input": name,
        "expectations": report.expectations(),
        "chsh": report.chsh,
        "classicalBoundViolated": report.classical_violated,
        "tsirelsonBoundRespected": report.tsirelson_respected,
        "marginalTolerance": tolerance,
        "marginalComparisons": [c.as_dict() for c in comparisons],
        "marginalViolations": _sum(c.violated for c in comparisons),
        "model": None,
    }

    if args.model is not None:
        model = hilbert.parse_model(_read_input(args.model))
        verification = hilbert.verify_reference_model(model, table, tolerance)
        payload["model"] = {
            "input": _input_name(args.model),
            "allPassed": verification.all_passed,
            "classification": verification.classification,
            "checks": [item.as_dict() for item in verification.checks],
        }

    if not plot:
        return payload, []
    chart = svg.Chart(
        title=f"expectation values: {name}",
        categories=tuple(_EXPECTATION_LABELS[key] for key in payload["expectations"]),
        series=(svg.Series("expectation", tuple(payload["expectations"].values())),),
    )
    return payload, [chart]


def _render_chsh(payload: dict) -> list[str]:
    lines = [f"chsh report: {payload['input']}", "", "expectation values:"]
    for key, value in payload["expectations"].items():
        lines.append(f"  {_EXPECTATION_LABELS[key]:<9}= {_fmt(value)}")
    comparisons = payload["marginalComparisons"]
    label_width = max(len(c["label"]) for c in comparisons)
    lines += [
        "",
        "combination: E(A',B') + E(A',B) + E(A,B') - E(A,B)",
        f"CHSH = {_fmt(payload['chsh'])}",
        f"classical bound violated: {_yesno(payload['classicalBoundViolated'])} (|CHSH| > 2)",
        f"tsirelson bound respected: {_yesno(payload['tsirelsonBoundRespected'])} "
        f"(|CHSH| <= {_fmt(hilbert.TSIRELSON_BOUND)})",
        "note: expectation values inherit the rounding of the input "
        "probabilities; 3-decimal inputs make CHSH accurate to about +/- 0.005",
        "",
        f"marginal-law comparisons (tolerance {payload['marginalTolerance']!r}):",
    ]
    for c in comparisons:
        status = "VIOLATED" if c["violated"] else "ok"
        lines.append(
            f"  {c['label']:<{label_width}}  {c['blockA']:<4} vs {c['blockB']:<4}: "
            f"{_fmt(c['lhs'])} vs {_fmt(c['rhs'])}  {status}"
        )
    lines.append(f"violated: {payload['marginalViolations']} of {len(comparisons)}")

    model = payload["model"]
    if model is not None:
        lines += ["", f"model verification: {model['input']}"]
        name_width = max(len(item["name"]) for item in model["checks"])
        for item in model["checks"]:
            status = "ok  " if item["passed"] else "FAIL"
            lines.append(f"  {item['name']:<{name_width}}  {status}  {item['detail']}")
        lines += [
            f"all checks passed: {_yesno(model['allPassed'])}",
            f"classification: {model['classification'] or 'none'}",
        ]
    return lines


# ------------------------------------------------------------------- stats-fit


def _cmd_stats_fit(args, plot: bool) -> tuple[dict, list[svg.Chart]]:
    datasets = parse_count_datasets(_read_input(args.input))
    name = _input_name(args.input)
    entries = []
    charts = []
    for dataset in datasets:
        mb = stats.fit_distribution(dataset, "MB")
        be = stats.fit_distribution(dataset, "BE")
        entries.append(
            {
                "category": dataset.category,
                "N": dataset.n_total,
                "stateLabels": list(dataset.state_labels),
                "fits": {
                    fit.params.family: {
                        "p1": fit.params.p1, "rss": fit.rss, "r2": fit.r2, "bic": fit.bic
                    }
                    for fit in (mb, be)
                },
                "comparison": stats.compare_bic(mb, be).as_dict(),
            }
        )
        if plot:  # the chart needs the observations and fitted pmfs, which the payload lacks
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
    payload = {"report": "stats-fit", "input": name, "datasets": entries}
    return payload, charts


def _render_stats_fit(payload: dict) -> list[str]:
    lines = [f"stats fit report: {payload['input']}"]
    for index, entry in enumerate(payload["datasets"], start=1):
        first, second = entry["stateLabels"]
        lines += [
            "",
            f"[{index}] {entry['category']} (N = {entry['N']}, states {first} / {second})",
        ]
        for label, fit in entry["fits"].items():
            r2_text = "n/a" if fit["r2"] is None else _fmt(fit["r2"])
            lines.append(
                f"  {label}: p1 = {_fmt(fit['p1'])}  rss = {_fmt(fit['rss'])}  "
                f"r2 = {r2_text}  bic = {_fmt(fit['bic'])}"
            )
        comparison = entry["comparison"]
        lines.append(
            f"  delta BIC (MB - BE) = {_fmt(comparison['deltaBic'])}  "
            f"winner {comparison['winner']} ({comparison['strength']})"
        )
    lines += ["", f"datasets: {len(payload['datasets'])}"]
    return lines


# ---------------------------------------------------------------------- report


_MANIFEST_COMMANDS = ("classicality", "fock-fit", "chsh", "stats-fit")


def _cmd_report(args, plot: bool) -> tuple[dict, list[svg.Chart]]:
    manifest = _object(_load_json(_read_input(args.manifest), "manifest"), "manifest", ("runs",))
    if not isinstance(manifest["runs"], list):
        raise SchemaError("manifest: runs must be an array")
    base = "" if args.manifest == "-" else os.path.dirname(os.path.abspath(args.manifest))

    def resolve(path: str) -> str:
        if path == "-" or os.path.isabs(path) or base == "":
            return path
        return os.path.join(base, path)

    stdin_read = args.manifest == "-"  # stdin holds one document per process
    run_payloads = []
    all_charts: list[svg.Chart] = []
    for index, run in enumerate(manifest["runs"], start=1):
        try:
            if not isinstance(run, dict) or "command" not in run:
                raise DataValidationError("missing 'command'")
            command = run["command"]
            if command not in _MANIFEST_COMMANDS:
                raise DataValidationError(f"unknown command {command!r}")
            name = _check_text(run.get("name", f"run {index}"), "'name'")
            # every other key is one of the command's own flags, spelled in full
            flags = {}
            for key, value in run.items():
                if key in ("command", "name"):
                    continue
                if key in ("output", "plot"):
                    raise DataValidationError(f"{key!r} is set on qcm report, not per run")
                if not isinstance(value, (str, int, float)) or isinstance(value, bool):
                    raise DataValidationError(
                        f"{key!r} must be a string or a number, got {value!r:.40}"
                    )
                value = str(value)
                if key in ("input", "model"):
                    if value == "-" and stdin_read:
                        raise UsageError(f"{key} '-' reads stdin again")
                    stdin_read = stdin_read or value == "-"
                    value = resolve(value)
                flags[f"--{key}={value}"] = key
            sub_args, unknown = _build_parser().parse_known_args([command, *flags])
            if unknown:
                keys = [flags[arg] for arg in unknown]
                raise UsageError(f"{command} has no flag for keys {keys}")
            payload, charts = _COMMANDS[command][0](sub_args, plot)
        except (QcmError, OSError) as exc:  # name the run
            message = f"manifest run {index}: {exc}"
            if isinstance(exc, OSError):  # whose str ignores args once errno is set
                raise OSError(message) from exc
            exc.args = (message,)
            raise
        run_payloads.append({"name": name, "command": command, "report": payload})
        all_charts.extend(charts)
    payload = {
        "report": "combined",
        "manifest": _input_name(args.manifest),
        "runs": run_payloads,
    }
    return payload, all_charts


def _render_combined(payload: dict) -> list[str]:
    lines = [f"combined report: {payload['manifest']}", f"runs: {len(payload['runs'])}"]
    for run in payload["runs"]:
        report = run["report"]
        lines += ["", f"=== {run['name']}: {run['command']} {report['input']} ==="]
        lines += _COMMANDS[run["command"]][1](report)
    return lines


# ---------------------------------------------------------------------- driver


# command -> (builder of its payload and, for --plot, its charts; text renderer of the payload)
_COMMANDS = {
    "classicality": (_cmd_classicality, _render_classicality),
    "fock-fit": (_cmd_fock_fit, _render_fock_fit),
    "chsh": (_cmd_chsh, _render_chsh),
    "stats-fit": (_cmd_stats_fit, _render_stats_fit),
    "report": (_cmd_report, _render_combined),
}


@functools.cache  # argparse parsers are reusable; a report reuses this one per run
def _build_parser() -> _Parser:
    parser = _Parser(prog=_PROG, description="concept-combination analysis toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")
    parser.commands = sub.choices  # command -> its parser, whose usage an error shows

    def common(p):
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--plot", default=None, metavar="SVG_PATH")

    p = sub.add_parser(
        "classicality", help="representability checks for a membership table"
    )
    p.add_argument("--input", required=True, help="membership table path or -")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--tolerance", type=float, default=None)
    common(p)

    p = sub.add_parser("fock-fit", help="two-sector or general interference fits")
    p.add_argument("--input", required=True, help="membership table path or -")
    p.add_argument("--mode", choices=("two-sector", "general"), default="two-sector")
    p.add_argument("--policy", choices=FIT_POLICIES, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    common(p)

    p = sub.add_parser("chsh", help="CHSH and marginal-law analysis of a coincidence table")
    p.add_argument("--input", required=True, help="coincidence table path or -")
    p.add_argument("--model", default=None, help="optional reference model to verify")
    p.add_argument("--tolerance", type=float, default=None)
    common(p)

    p = sub.add_parser("stats-fit", help="MB vs BE distribution fits")
    p.add_argument("--input", required=True, help="count dataset path or -")
    common(p)

    p = sub.add_parser("report", help="combined run over a manifest")
    p.add_argument("--manifest", required=True, help="manifest path or -")
    common(p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(None if argv is None else list(argv))
        if unknown:
            chosen = parser if args.command is None else parser.commands[args.command]
            chosen.error(f"unrecognized arguments: {' '.join(unknown)}")
        if args.command is None:
            parser.error("a command is required")
        build, render = _COMMANDS[args.command]
        payload, charts = build(args, bool(args.plot))
        if args.output == "json":
            sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
        else:
            sys.stdout.write("\n".join(render(payload)) + "\n")
        if args.plot:
            with open(args.plot, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(svg.render(charts))
        return 0
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except QcmError as exc:  # the one place an error line is built
        head = f"{exc.usage}{exc.prog}" if isinstance(exc, UsageError) else _PROG
        sys.stderr.write(f"{head}: error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"{_PROG}: i/o error: {exc}\n")
        return 2


def console_main() -> None:
    sys.exit(main())
