"""End-to-end acceptance checks, one per headline requirement.

Each test prints a single [PASS]/[FAIL] line (visible with -s or on
failure) naming the behavior it certifies, then asserts it.
"""

from __future__ import annotations

import contextlib
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    GOLDEN_PLOT,
    GOLDEN_RUNS,
    REPO_ROOT,
    assert_matches_golden,
    born_product_table,
    child_env,
    local_model_table,
    random_joint_record,
    run_cli,
    sector_one_limit_record,
    two_sector_grid_check,
)
from qcm import (
    NONLOCAL_NON_MARGINAL_BOX_1,
    TSIRELSON_BOUND,
    CountDataset,
    DistParams,
    check_conjunction,
    check_disjunction,
    check_negation,
    deviation_profile,
    eval_general_record,
    expectations_from_table,
    fit_distribution,
    fit_general_quadruple,
    fit_two_sector,
    joint_targets,
    marginal_law_check,
    pmf_vector,
    verify_reference_model,
)

from test_fock import REFERENCE_TRIPLES, reference_general_params


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_chsh_reproduction_from_coincidence_table(animal_table):
    with criterion("CHSH and expectation values from the coincidence table"):
        report = expectations_from_table(animal_table)
        assert report.e_ab == pytest.approx(-0.778, abs=0.002)
        assert report.e_apb == pytest.approx(0.655, abs=0.002)
        assert report.e_abp == pytest.approx(0.358, abs=0.002)
        assert report.e_apbp == pytest.approx(0.630, abs=0.002)
        assert report.chsh == pytest.approx(2.4197, abs=0.005)
        # warm timing: average of repeated runs must stay under 1 ms
        start = time.perf_counter()
        for _ in range(100):
            expectations_from_table(animal_table)
        per_run = (time.perf_counter() - start) / 100
        assert per_run < 1e-3


def test_marginal_law_violations(animal_table):
    with criterion("all shared-concept marginal pairs violated beyond 0.01"):
        comparisons = marginal_law_check(animal_table, tolerance=0.01)
        assert len(comparisons) == 8
        assert all(c.violated for c in comparisons)
        assert all(abs(c.lhs - c.rhs) > 0.01 for c in comparisons)
        horse = next(c for c in comparisons if c.label == "Horse")
        assert horse.lhs == pytest.approx(0.679, abs=1e-9)
        assert horse.rhs == pytest.approx(0.618, abs=1e-9)


def test_reference_model_verification(animal_model, animal_table):
    with criterion("bundled state and operators pass every model check"):
        report = verify_reference_model(animal_model, animal_table)
        assert report.all_passed
        assert report.classification == NONLOCAL_NON_MARGINAL_BOX_1
        assert report.check("state.schmidt_rank").passed
        for key in ("AB", "ABp", "ApB", "ApBp"):
            assert report.check(f"observable[{key}].invariants").passed
            assert report.check(f"expectation[{key}]").passed
            assert report.check(f"operator[{key}].entangled").passed


def test_count_distribution_closed_forms():
    with criterion("binomial reference values and exact uniform split"):
        mb = pmf_vector(DistParams(family="MB", p1=0.5, n_total=11))
        assert mb[11] == pytest.approx(0.0005, abs=5e-4)
        assert mb[10] == pytest.approx(0.0054, abs=5e-4)
        assert mb[6] == pytest.approx(0.2256, abs=5e-4)
        be = pmf_vector(DistParams(family="BE", p1=0.5, n_total=11))
        for n in range(12):
            assert be[n] == 1.0 / 12.0


def test_general_model_on_reference_quadruple(goldfish_record):
    with criterion("reference parameters and fitter both hit the quadruple"):
        targets = joint_targets(goldfish_record)
        predictions = eval_general_record(goldfish_record, reference_general_params())
        for value, target in zip(
            (predictions[k].value for k in ("AB", "ABp", "ApB", "ApBp")), targets
        ):
            assert abs(value - target) < 0.02
        fit = fit_general_quadruple(goldfish_record)
        fitted = eval_general_record(goldfish_record, fit.params)
        max_residual = max(
            abs(fitted[k].value - t)
            for k, t in zip(("AB", "ABp", "ApB", "ApBp"), targets)
        )
        assert max_residual <= 0.01


def test_deviation_profile_values(goldfish_record):
    with criterion("deviation profile arithmetic and the averaging limit"):
        profile = deviation_profile(goldfish_record)
        assert profile.i_a == pytest.approx(-0.41, abs=1e-9)
        assert profile.i_b == pytest.approx(-0.44, abs=1e-9)
        assert profile.i_ap == pytest.approx(-0.49, abs=1e-9)
        assert profile.i_bp == pytest.approx(-0.53, abs=1e-9)
        assert profile.i_total == pytest.approx(-0.95, abs=1e-9)
        limit = deviation_profile(sector_one_limit_record())
        assert (limit.i_a, limit.i_b, limit.i_ap, limit.i_bp, limit.i_total) == (
            -0.5, -0.5, -0.5, -0.5, -1.0,
        )


def test_classicality_property_suite():
    with criterion("classical joints, local models, and Born tables obey bounds"):
        start = time.perf_counter()

        rng = random.Random(20240815)
        for i in range(1000):
            record = random_joint_record(rng, i)
            conj = check_conjunction(
                record.mu_a, record.mu_b, record.mu_a_and_b, tolerance=1e-12
            )
            disj = check_disjunction(
                record.mu_a, record.mu_b, record.mu_a_or_b, tolerance=1e-12
            )
            neg = check_negation(record, tolerance=1e-12)
            assert conj.satisfied and disj.satisfied and neg.satisfied
            fit = fit_general_quadruple(record)
            assert fit.residual <= 1e-9
            assert all(
                fit.params.pair(k).m2 == 1.0 for k in ("AB", "ABp", "ApB", "ApBp")
            )

        local_rng = random.Random(7)
        for _ in range(1000):
            report = expectations_from_table(local_model_table(local_rng))
            assert abs(report.chsh) <= 2.0 + 1e-12

        born_rng = np.random.default_rng(7)
        for _ in range(1000):
            report = expectations_from_table(born_product_table(born_rng))
            assert abs(report.chsh) <= TSIRELSON_BOUND + 1e-9

        assert time.perf_counter() - start < 10.0


def test_fit_round_trips():
    with criterion("two-sector fits verified on a dense grid; p1 recovery"):
        overextended = fit_two_sector(0.87, 0.81, 0.9, "and")
        assert overextended.feasible and overextended.residual <= 1e-9
        two_sector_grid_check(0.87, 0.81, 0.9, "and", overextended)
        underextended = fit_two_sector(0.4, 0.2, 0.1, "or")
        assert underextended.feasible and underextended.residual <= 1e-9
        two_sector_grid_check(0.4, 0.2, 0.1, "or", underextended)
        for n_total in (7, 8, 9, 11):
            for family, p1 in (("MB", 0.57), ("MB", 0.31), ("BE", 0.57), ("BE", 0.8)):
                planted = pmf_vector(DistParams(family=family, p1=p1, n_total=n_total))
                dataset = CountDataset(
                    category="planted", n_total=n_total, observed=planted
                )
                fit = fit_distribution(dataset, family)
                assert abs(fit.params.p1 - p1) <= 1e-6


def test_documented_parameter_discrepancies():
    with criterion("published reference triples miss their targets; exact fits exist"):
        assert len(REFERENCE_TRIPLES) == 3
        for _, connective, mu_a, mu_b, _, _, reported, predicted in REFERENCE_TRIPLES:
            # each quoted triple misses its own target by a visible margin
            assert abs(predicted - reported) > 5e-3
            # while an exact solution for the target does exist
            refit = fit_two_sector(mu_a, mu_b, reported, connective)
            assert refit.feasible and refit.residual <= 1e-9


def test_cli_outputs_byte_match_goldens(tmp_path):
    with criterion("every bundled invocation byte-matches its golden file"):
        for golden_name, args in sorted(GOLDEN_RUNS.items()):
            proc = run_cli(args)
            assert proc.returncode == 0, proc.stderr
            assert_matches_golden(golden_name, proc.stdout)
        svg_name, args = GOLDEN_PLOT
        target = tmp_path / "plot.svg"
        proc = run_cli([*args, "--plot", str(target)])
        assert proc.returncode == 0, proc.stderr
        assert_matches_golden(svg_name, target.read_text(encoding="utf-8"))


def test_headline_script_runs_outside_the_repo(tmp_path):
    with criterion("the headline-numbers script runs to the end from another cwd"):
        done = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "reproduce_headline_numbers.py")],
            capture_output=True, text=True, env=child_env(), cwd=tmp_path,
        )
        assert done.returncode == 0, done.stderr
        section = done.stdout.split("== distribution statistics ==\n", 1)[1]
        assert "BE(N=11, p1=0.5): uniform = True" in section
        assert "uniform data: winner BE (delta BIC = 8259.7, p1 = 0.5000)" in section
