#!/usr/bin/env python3
"""Recompute the headline numbers from the bundled datasets.

Covers the CHSH value and its expectation quadruple, the marginal-law
violations, the Goldfish deviation profile and general-model fit, the
Mint/Sunglasses two-sector fits, and the MB/BE closed-form checks, one
printed section per analysis.  ``qcm`` must be importable: from the
repository root run ``PYTHONPATH=src python3
scripts/reproduce_headline_numbers.py``, or install the package first.
The bundled data is found relative to this file, so any working
directory will do once ``qcm`` imports.
"""

from pathlib import Path

import qcm

DATA = Path(__file__).resolve().parent.parent / "data"


def main() -> None:
    table = qcm.parse_coincidence(
        DATA.joinpath("animal_acts_table.json").read_text(encoding="utf-8")
    )
    report = qcm.expectations_from_table(table)
    print("== coincidence analysis ==")
    for key, value in report.expectations().items():
        print(f"E[{key}] = {value:+.4f}")
    print(f"CHSH = {report.chsh:.4f} (classical bound 2, quantum bound 2.8284)")

    print()
    print("== marginal-law comparisons ==")
    for c in qcm.marginal_law_check(table):
        flag = "violated" if c.violated else "ok"
        print(f"{c.label:<9} {c.block_a} vs {c.block_b}: {c.lhs:.3f} vs {c.rhs:.3f} [{flag}]")

    model = qcm.parse_model(DATA.joinpath("animal_acts_model.json").read_text(encoding="utf-8"))
    verification = qcm.verify_reference_model(model, table)
    print()
    print("== reference model ==")
    print(f"all checks passed: {verification.all_passed}")
    print(f"classification: {verification.classification}")

    records = qcm.parse_membership_table(DATA.joinpath("goldfish.csv").read_text())
    goldfish = records[0]
    profile = qcm.deviation_profile(goldfish)
    print()
    print("== goldfish negation quadruple ==")
    print("deviation profile:", {k: round(v, 4) for k, v in profile.as_dict().items()})
    fit = qcm.fit_general_quadruple(goldfish)
    print(f"general fit: max residual = {fit.residual:.2e}, feasible = {fit.feasible}")

    print()
    print("== two-sector fits ==")
    for label, (mu_a, mu_b, target, connective) in {
        "Mint (and)": (0.87, 0.81, 0.9, "and"),
        "Sunglasses (or)": (0.4, 0.2, 0.1, "or"),
    }.items():
        result = qcm.fit_two_sector(mu_a, mu_b, target, connective)
        params = result.params
        print(
            f"{label}: m2 = {params.m2:.4f}, theta = {params.theta_deg:.2f} deg, "
            f"residual = {result.residual:.2e}"
        )

    print()
    print("== distribution statistics ==")
    mb = qcm.pmf_vector(qcm.DistParams(family="MB", p1=0.5, n_total=11))
    print(
        "MB(N=11, p1=0.5): pmf(11) = %.6f, pmf(10) = %.6f, pmf(6) = %.6f"
        % (mb[11], mb[10], mb[6])
    )
    be_params = qcm.DistParams(family="BE", p1=0.5, n_total=11)
    values = qcm.pmf_vector(be_params)
    print(f"BE(N=11, p1=0.5): uniform = {all(v == values[0] for v in values)}")
    datasets = qcm.parse_count_datasets(
        DATA.joinpath("uniform11.json").read_text(encoding="utf-8")
    )
    mb = qcm.fit_distribution(datasets[0], "MB")
    be = qcm.fit_distribution(datasets[0], "BE")
    comparison = qcm.compare_bic(mb, be)
    print(
        f"uniform data: winner {comparison.winner} "
        f"(delta BIC = {comparison.delta_bic:.1f}, p1 = {be.params.p1:.4f})"
    )


if __name__ == "__main__":
    main()
