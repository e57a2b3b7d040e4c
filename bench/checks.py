"""Independent checks of qcm's outputs, plus the corruptions that prove them.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.  The checks recompute what they can from the
generated inputs with the benchmark's own arithmetic instead of trusting
the numbers qcm reports.  Every ``corrupt_*`` function returns damaged
copies of a correct output that its check must reject.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from gen import binomial_pmf, linear_pmf, log_binomial_coefficients

SCHEMAS = {
    "classicality": "classicality_report.json",
    "fock-fit": "fock_fit_report.json",
    "chsh": "chsh_report.json",
    "stats-fit": "stats_fit_report.json",
    "combined": "combined_report.json",
}

EXACT = 1e-12  # recomputed residuals follow qcm's formulas term by term
MODEL = 1e-9  # model values re-evaluated from reported (rounded-trip) angles
MB_GRID = 400  # p1 grid the MB fit must not lose to


class Schemas:
    """Validators for ``src/qcm/schemas``, read from the checkout."""

    def __init__(self, schema_dir: Path):
        from jsonschema import Draft202012Validator

        self._validators = {
            report: Draft202012Validator(json.loads((schema_dir / name).read_text("utf-8")))
            for report, name in SCHEMAS.items()
        }

    def errors(self, report: str, payload) -> list[str]:
        return [
            f"{report} schema: {error.message}"
            for error in self._validators[report].iter_errors(payload)
        ]

    def combined(self, payload) -> list[str]:
        errors = self.errors("combined", payload)
        if not errors:
            for run in payload["runs"]:
                errors += self.errors(run["command"], run["report"])
        return errors


def _near(label: str, got, want: float, tol: float) -> list[str]:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        return [f"{label}: reported {got!r}, recomputed {want!r}"]
    return []


def _interference(mu_x: float, mu_y: float) -> float:
    if mu_x + mu_y > 1.0:
        return math.sqrt((1.0 - mu_x) * (1.0 - mu_y))
    return math.sqrt(mu_x * mu_y)


# ------------------------------------------------------------- concept-report


def _classicality_errors(report: dict, records: list[dict]) -> list[str]:
    errors = []
    tol = report["tolerance"]
    entries = report["records"]
    if len(entries) != len(records):
        return [f"classicality: {len(entries)} records reported, {len(records)} in the input"]
    profiles = []
    for entry, r in zip(entries, records):
        where = f"classicality {r['exemplar']}"
        a, b, ap, bp = r["muA"], r["muB"], r["muAp"], r["muBp"]
        ab, abp, apb, apbp = r["muAandB"], r["muAandBp"], r["muApandB"], r["muApandBp"]
        expected = {
            "conjunction": ({"min_rule": ab - min(a, b), "kolmogorov": a + b - ab - 1.0}, False),
            "disjunction": ({"max_rule": max(a, b) - r["muAorB"],
                             "kolmogorov": -(a + b - r["muAorB"])}, False),
            "negation": ({"marginal_A": a - ab - abp, "marginal_B": b - ab - apb,
                          "marginal_Ap": ap - apbp - apb, "marginal_Bp": bp - apbp - abp,
                          "unit_mass": (ab + abp + apb + apbp) - 1.0}, True),
        }
        for section, (residuals, equality) in expected.items():
            verdict = entry[section]
            if verdict is None or set(verdict["residuals"]) != set(residuals):
                errors.append(f"{where}: {section} residuals missing or renamed")
                continue
            for name, value in residuals.items():
                errors += _near(f"{where} {section} {name}", verdict["residuals"][name], value, EXACT)
            got = verdict["residuals"].values()
            satisfied = all((abs(x) if equality else x) <= tol for x in got)
            if verdict["satisfied"] != satisfied:
                errors.append(f"{where}: {section} satisfied={verdict['satisfied']} contradicts residuals")
        if r["classical"] and not (entry["negation"] or {}).get("satisfied"):
            errors.append(f"{where}: classical joint reported as non-classical")
        profile = entry["deviationProfile"]
        if profile is None:
            errors.append(f"{where}: deviation profile missing")
            continue
        negation = expected["negation"][0]
        for key, name in (("iA", "marginal_A"), ("iB", "marginal_B"),
                          ("iAp", "marginal_Ap"), ("iBp", "marginal_Bp")):
            errors += _near(f"{where} {key}", profile[key], negation[name], EXACT)
        errors += _near(f"{where} iTotal", profile["iTotal"], -negation["unit_mass"], EXACT)
        errors += _near(f"{where} iTotal vs unit_mass", profile["iTotal"],
                        -entry["negation"]["residuals"]["unit_mass"], EXACT)
        profiles.append(profile)

    stats = report["profileStatistics"]
    if stats is None or stats["n"] != len(profiles):
        return errors + ["classicality: profile statistics missing or miscounted"]
    n = len(profiles)
    xs = list(range(1, n + 1))
    x_mean = sum(xs) / n
    sxx = sum((x - x_mean) ** 2 for x in xs)
    for key, quantity in stats["quantities"].items():
        ys = [p[key] for p in profiles]
        y_mean = sum(ys) / n
        slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx
        intercept = y_mean - slope * x_mean
        ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
        ss_tot = sum((y - y_mean) ** 2 for y in ys)
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
        where = f"profile statistics {key}"
        errors += _near(f"{where} mean", quantity["mean"], y_mean, EXACT)
        errors += _near(f"{where} slope", quantity["slope"], slope, EXACT)
        errors += _near(f"{where} intercept", quantity["intercept"], intercept, EXACT)
        errors += _near(f"{where} r2", quantity["r2"], r2, MODEL)
        low, high = quantity["ciHigh"] - y_mean, y_mean - quantity["ciLow"]
        if not (low >= 0.0 and abs(low - high) <= EXACT):
            errors.append(f"{where}: confidence interval not centred on the mean")
    return errors


def _two_sector_errors(report: dict, records: list[dict]) -> list[str]:
    errors = []
    tol = report["tolerance"]
    expected = [(r, c) for r in records for c in ("and", "or")]
    if len(report["fits"]) != len(expected):
        return [f"two-sector: {len(report['fits'])} fits, expected {len(expected)}"]
    for fit, (r, connective) in zip(report["fits"], expected):
        where = f"two-sector {r['exemplar']} {connective}"
        a, b = r["muA"], r["muB"]
        target = r["muAandB"] if connective == "and" else r["muAorB"]
        if (fit["connective"], fit["muA"], fit["muB"], fit["target"]) != (connective, a, b, target):
            errors.append(f"{where}: inputs echoed wrongly")
            continue
        logical = a * b if connective == "and" else a + b - a * b
        value = fit["m2"] * logical + fit["n2"] * (
            (a + b) / 2.0 + _interference(a, b) * math.cos(math.radians(fit["thetaDeg"]))
        )
        errors += _near(f"{where} predicted", fit["predicted"], value, MODEL)
        errors += _near(f"{where} residual", fit["residual"], abs(fit["predicted"] - target), EXACT)
        errors += _near(f"{where} m2 + n2", fit["m2"] + fit["n2"], 1.0, EXACT)
        if fit["feasible"] != (fit["residual"] <= tol):
            errors.append(f"{where}: feasible flag contradicts the residual")
    return errors


_PAIRS = {
    "AB": ("muA", "muB", "muAandB"),
    "ABp": ("muA", "muBp", "muAandBp"),
    "ApB": ("muAp", "muB", "muApandB"),
    "ApBp": ("muAp", "muBp", "muApandBp"),
}


def _general_errors(report: dict, records: list[dict]) -> list[str]:
    errors = []
    tol = report["tolerance"]
    if len(report["fits"]) != len(records):
        return [f"general: {len(report['fits'])} fits, expected {len(records)}"]
    for fit, r in zip(report["fits"], records):
        where = f"general {r['exemplar']}"
        worst = 0.0
        alpha_sum = 0.0
        for key, (x, y, target) in _PAIRS.items():
            pair = fit["pairs"][key]
            if fit["targets"][key] != r[target]:
                errors.append(f"{where} {key}: target echoed wrongly")
            value = pair["m2"] * pair["alpha"] + pair["n2"] * (
                (r[x] + r[y]) / 2.0 + pair["beta"] * math.cos(math.radians(pair["phiDeg"]))
            )
            errors += _near(f"{where} {key} predicted", pair["predicted"], value, MODEL)
            worst = max(worst, abs(pair["predicted"] - r[target]))
            alpha_sum += pair["alpha"]
            if r["classical"] and pair["m2"] != 1.0:
                errors.append(f"{where} {key}: classical record fitted with m2={pair['m2']!r}")
        errors += _near(f"{where} max residual", fit["maxResidual"], worst, EXACT)
        errors += _near(f"{where} alpha sum", alpha_sum, 1.0, MODEL)
        if fit["feasible"] != (fit["maxResidual"] <= tol):
            errors.append(f"{where}: feasible flag contradicts the residual")
        if r["classical"] and fit["maxResidual"] != 0.0:
            errors.append(f"{where}: classical record left residual {fit['maxResidual']!r}")
    return errors


def check_concept_report(schemas: Schemas, text: str, records: list[dict]) -> list[str]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    errors = schemas.combined(payload)
    if errors:
        return errors
    runs = {run["name"]: run["report"] for run in payload["runs"]}
    if set(runs) != {"classicality", "two-sector", "general"}:
        return [f"report runs {sorted(runs)} do not match the manifest"]
    return (
        _classicality_errors(runs["classicality"], records)
        + _two_sector_errors(runs["two-sector"], records)
        + _general_errors(runs["general"], records)
    )


_CONCEPT_DAMAGE = (
    lambda payload, runs: runs["classicality"]["records"][0]["negation"]["residuals"].update(
        unit_mass=0.25),
    lambda payload, runs: runs["classicality"]["profileStatistics"]["quantities"]["iA"].update(
        slope=1.0),
    lambda payload, runs: runs["two-sector"]["fits"][1].update(
        predicted=runs["two-sector"]["fits"][1]["predicted"] + 0.01),
    lambda payload, runs: runs["general"]["fits"][-1]["pairs"]["ApB"].update(
        alpha=runs["general"]["fits"][-1]["pairs"]["ApB"]["alpha"] + 0.1),
    lambda payload, runs: payload.update(report="classicality"),
)


def corrupt_concept_report(text: str) -> list[str]:
    damaged = []
    for damage in _CONCEPT_DAMAGE:
        payload = json.loads(text)
        damage(payload, {run["name"]: run["report"] for run in payload["runs"]})
        damaged.append(json.dumps(payload))
    return damaged


# ------------------------------------------------------------------ count-fits


def _rss(pmf: list[float], observed: list[float]) -> float:
    return sum((p - o) ** 2 for p, o in zip(pmf, observed))


def _bic(rss: float, nobs: int) -> float:
    return nobs * math.log(max(rss, 1e-300) / nobs) + math.log(nobs)


def _be_minimiser(n_total: int, observed: list[float]) -> float:
    # BE pmf = c_n + p1 d_n, so its RSS is a parabola in p1
    scale = n_total * (n_total + 1) / 2
    c = [(n_total - n) / scale for n in range(n_total + 1)]
    d = [(2 * n - n_total) / scale for n in range(n_total + 1)]
    p1 = sum(dn * (o - cn) for cn, dn, o in zip(c, d, observed)) / sum(dn * dn for dn in d)
    return min(max(p1, 0.0), 1.0)


def check_count_fit(schemas: Schemas, text: str, svg: str, dataset: dict) -> list[str]:
    import xml.etree.ElementTree as ElementTree

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stats-fit output is not JSON: {exc}"]
    errors = schemas.errors("stats-fit", payload)
    if errors:
        return errors
    try:
        root = ElementTree.fromstring(svg)
        if root.tag != "{http://www.w3.org/2000/svg}svg":
            errors.append(f"plot root element is {root.tag!r}")
    except ElementTree.ParseError as exc:
        errors.append(f"plot is not XML: {exc}")
    if len(payload["datasets"]) != 1:
        return errors + ["stats-fit: expected exactly one dataset"]
    entry = payload["datasets"][0]
    n_total, observed = dataset["N"], dataset["observed"]
    nobs = n_total + 1
    where = dataset["category"]
    if (entry["category"], entry["N"]) != (where, n_total):
        errors.append(f"{where}: dataset echoed wrongly")
    mb, be = entry["fits"]["MB"], entry["fits"]["BE"]
    log_comb = log_binomial_coefficients(n_total)
    mb_rss = _rss(binomial_pmf(n_total, mb["p1"], log_comb), observed)
    errors += _near(f"{where} MB rss", mb["rss"], mb_rss, 1e-9 * mb_rss + 1e-18)
    grid_best = min(_rss(binomial_pmf(n_total, i / MB_GRID, log_comb), observed)
                    for i in range(MB_GRID + 1))
    if mb["rss"] > grid_best * (1.0 + 1e-9) + 1e-18:
        errors.append(f"{where}: MB rss {mb['rss']!r} worse than a {MB_GRID}-step grid ({grid_best!r})")
    # near its minimum the RSS is flat to float precision, so p1 is only
    # pinned to ~1e-8; the RSS it reaches must match the exact minimum
    be_best = _be_minimiser(n_total, observed)
    errors += _near(f"{where} BE p1", be["p1"], be_best, 1e-6)
    be_rss = _rss(linear_pmf(n_total, be["p1"]), observed)
    best_rss = _rss(linear_pmf(n_total, be_best), observed)
    errors += _near(f"{where} BE rss", be["rss"], be_rss, 1e-9 * be_rss + 1e-18)
    errors += _near(f"{where} BE rss vs closed form", be_rss, best_rss, 1e-9 * best_rss + 1e-18)
    for label, fit in (("MB", mb), ("BE", be)):
        errors += _near(f"{where} {label} bic", fit["bic"], _bic(fit["rss"], nobs), 1e-9 * nobs)
    comparison = entry["comparison"]
    delta = mb["bic"] - be["bic"]
    errors += _near(f"{where} delta BIC", comparison["deltaBic"], delta, EXACT * nobs)
    if delta != 0.0 and comparison["winner"] != ("BE" if delta > 0.0 else "MB"):
        errors.append(f"{where}: winner {comparison['winner']} contradicts delta BIC {delta!r}")
    return errors


def corrupt_count_fit(text: str, svg: str) -> list[tuple[str, str]]:
    damaged = []
    for family, field, shift in (("MB", "p1", 0.05), ("BE", "p1", 0.05), ("MB", "rss", 0.01)):
        payload = json.loads(text)
        fit = payload["datasets"][0]["fits"][family]
        fit[field] = fit[field] - shift if fit[field] >= shift else fit[field] + shift
        damaged.append((json.dumps(payload), svg))
    damaged.append((text, svg[: len(svg) // 2]))
    return damaged


# ----------------------------------------------------------------- cli-bundled


def check_cli_output(schemas: Schemas, expected: dict, output: tuple[bytes, bytes | None]) -> list[str]:
    """``expected`` holds golden bytes (``stdout``, optional ``plot``) or ``schema``."""
    stdout, plot = output
    errors = []
    if "schema" in expected:
        try:
            errors += schemas.combined(json.loads(stdout))
        except json.JSONDecodeError as exc:
            errors.append(f"report is not JSON: {exc}")
    elif stdout != expected["stdout"]:
        errors.append(f"stdout differs from golden {expected['golden']}")
    if "plot" in expected and plot != expected["plot"]:
        errors.append(f"plot differs from golden {expected['plot_golden']}")
    return errors


def corrupt_cli_output(
    expected: dict, output: tuple[bytes, bytes | None]
) -> list[tuple[bytes, bytes | None]]:
    stdout, plot = output
    damaged = []
    if "schema" in expected:
        payload = json.loads(stdout)
        payload["runs"][0]["report"]["records"] = "none"
        damaged.append((json.dumps(payload).encode(), plot))
    else:
        digit = next(i for i, ch in enumerate(stdout) if chr(ch).isdigit())
        flipped = b"2" if stdout[digit:digit + 1] == b"1" else b"1"
        damaged.append((stdout[:digit] + flipped + stdout[digit + 1:], plot))
    if plot is not None:
        damaged.append((stdout, plot.replace(b"<svg", b"<svq", 1)))
    return damaged
