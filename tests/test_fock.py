"""Two-sector and general interference models: closed forms, fits, diagnostics."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    general_fit_grid_oracle,
    general_fit_interference,
    random_joint_record,
    two_sector_grid_check,
)
from qcm import (
    BLOCKS,
    DataValidationError,
    FitResult,
    FeasibleSet,
    FockParams,
    GeneralFockParams,
    MembershipRecord,
    PairParams,
    eval_general,
    eval_general_record,
    eval_two_sector,
    fit_general_quadruple,
    fit_two_sector,
    interference_magnitude,
    joint_targets,
    record_marginals,
)

unit = st.floats(min_value=0.0, max_value=1.0)
thousandths = st.integers(min_value=0, max_value=1000).map(lambda n: n / 1000)


def pair(m2=0.0, alpha=0.25, beta=0.0, phi_deg=90.0):
    return PairParams(
        m2=m2, n2=1.0 - m2, alpha=alpha, beta=beta, phi_rad=math.radians(phi_deg)
    )


class TestInterferenceMagnitude:
    def test_low_mass_branch(self):
        assert interference_magnitude(0.4, 0.2) == math.sqrt(0.4 * 0.2)
        assert interference_magnitude(0.4, 0.2) == 0.28284271247461906

    def test_high_mass_branch(self):
        assert interference_magnitude(0.87, 0.81) == math.sqrt((1 - 0.87) * (1 - 0.81))
        assert interference_magnitude(0.87, 0.81) == 0.1571623364550171

    def test_branches_agree_on_the_seam(self):
        # at mu_a + mu_b = 1 both formulas give sqrt(mu_a * mu_b)
        assert interference_magnitude(0.3, 0.7) == pytest.approx(
            math.sqrt(0.21), abs=1e-15
        )

    def test_vanishes_at_certain_membership(self):
        assert interference_magnitude(0.0, 0.4) == 0.0
        assert interference_magnitude(1.0, 0.6) == 0.0

    @settings(max_examples=200)
    @given(mu_a=unit, mu_b=unit)
    def test_symmetric_and_bounded(self, mu_a, mu_b):
        value = interference_magnitude(mu_a, mu_b)
        assert value == interference_magnitude(mu_b, mu_a)
        assert 0.0 <= value <= 0.5 + 1e-12


class TestFockParams:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DataValidationError, match="sum to 1"):
            FockParams(m2=0.5, n2=0.6, theta_rad=0.0, connective="and")

    def test_weight_range(self):
        with pytest.raises(DataValidationError, match="m2"):
            FockParams(m2=1.4, n2=-0.4, theta_rad=0.0, connective="and")

    def test_angle_range(self):
        with pytest.raises(DataValidationError, match="theta"):
            FockParams(m2=0.5, n2=0.5, theta_rad=math.pi + 0.2, connective="and")

    def test_connective_vocabulary(self):
        with pytest.raises(DataValidationError, match="connective"):
            FockParams(m2=0.5, n2=0.5, theta_rad=0.0, connective="xor")

    def test_from_degrees_fills_complement(self):
        params = FockParams.from_degrees(0.3, 50.21, "and")
        assert params.n2 == pytest.approx(0.7, abs=1e-15)
        assert params.theta_rad == pytest.approx(math.radians(50.21), abs=1e-15)


class TestTwoSectorEvaluation:
    def test_conjunction_reference_point(self):
        params = FockParams.from_degrees(0.3, 50.21, "and")
        prediction = eval_two_sector(0.87, 0.81, params)
        assert prediction.value == 0.8698160422853267
        assert prediction.in_range

    def test_disjunction_reference_point(self):
        params = FockParams.from_degrees(0.03, 155.0, "or")
        prediction = eval_two_sector(0.4, 0.2, params)
        assert prediction.value == 0.05794772376235406
        assert prediction.in_range

    def test_borderline_conjunction_point(self):
        params = FockParams.from_degrees(0.77, 0.0, "and")
        assert eval_two_sector(0.01, 0.95, params).value == pytest.approx(
            0.140133, abs=5e-7
        )

    def test_rounded_disjunction_angle_recovers_target(self):
        # the two-decimal angle 135.02 deg at m2=0 lands within 1e-4 of 0.1
        params = FockParams.from_degrees(0.0, 135.02, "or")
        assert eval_two_sector(0.4, 0.2, params).value == pytest.approx(0.1, abs=1e-4)

    def test_sector_two_logical_values(self):
        # at theta=90 deg the interference term drops out, exposing the
        # logical-sector value: product for and, probabilistic sum for or
        conj = FockParams.from_degrees(1.0, 90.0, "and")
        disj = FockParams.from_degrees(1.0, 90.0, "or")
        assert eval_two_sector(0.6, 0.4, conj).value == pytest.approx(0.24)
        assert eval_two_sector(0.6, 0.4, disj).value == pytest.approx(0.76)

    def test_sector_one_averaging_limit(self):
        params = FockParams.from_degrees(0.0, 90.0, "and")
        assert eval_two_sector(0.75, 0.25, params).value == pytest.approx(0.5)

    @settings(max_examples=300)
    @given(mu_a=unit, mu_b=unit, m2=unit, theta=st.floats(min_value=0.0, max_value=math.pi))
    def test_predictions_never_leave_unit_interval(self, mu_a, mu_b, m2, theta):
        # both sector values and the interference-shifted average stay inside
        # [0, 1], so the two-sector model cannot produce out-of-range weights
        for connective in ("and", "or"):
            params = FockParams(m2=m2, n2=1.0 - m2, theta_rad=theta, connective=connective)
            prediction = eval_two_sector(mu_a, mu_b, params)
            assert prediction.in_range
            assert -1e-12 <= prediction.value <= 1.0 + 1e-12


class TestTwoSectorFit:
    def test_conjunction_overextension_solved_exactly(self):
        result = fit_two_sector(0.87, 0.81, 0.9, "and")
        assert result.feasible
        assert result.residual <= 1e-9
        assert result.params.m2 == 0.0
        assert math.degrees(result.params.theta_rad) == pytest.approx(
            67.55658312205784, abs=1e-9
        )
        assert result.family.kind == "curve"
        assert result.family.m2_min == pytest.approx(0.0, abs=1e-12)
        assert result.family.m2_max == pytest.approx(0.33217, abs=1e-4)
        two_sector_grid_check(0.87, 0.81, 0.9, "and", result)

    def test_disjunction_underextension_solved_exactly(self):
        result = fit_two_sector(0.4, 0.2, 0.1, "or")
        assert result.feasible
        assert math.degrees(result.params.theta_rad) == pytest.approx(135.0, abs=1e-9)
        assert result.family.m2_max == pytest.approx(0.1647, abs=1e-3)
        two_sector_grid_check(0.4, 0.2, 0.1, "or", result)

    def test_second_disjunction_example(self):
        result = fit_two_sector(0.56, 0.63, 0.65, "and")
        assert result.feasible
        assert math.degrees(result.params.theta_rad) == pytest.approx(82.1655, abs=1e-3)
        two_sector_grid_check(0.56, 0.63, 0.65, "and", result)

    def test_infeasible_target_reported_honestly(self):
        # mu(A or B)=0.8 exceeds every value the model can reach for these
        # marginals; the best attainable is 0.55
        result = fit_two_sector(0.5, 0.1, 0.8, "or")
        assert not result.feasible
        assert result.residual == pytest.approx(0.25, abs=1e-9)
        assert result.family.kind == "empty"
        assert "attainable range" in result.family.note
        two_sector_grid_check(0.5, 0.1, 0.8, "or", result)

    def test_policy_changes_canonical_point_not_residual(self):
        # target sits where cos(theta)=0 is reachable at m2 = 0.1923..., so
        # min-interference parks there while min-m2 stays at the left edge
        least_interference = fit_two_sector(0.6, 0.4, 0.45, "and")
        least_m2 = fit_two_sector(0.6, 0.4, 0.45, "and", policy="min-m2")
        assert least_interference.residual <= 1e-9
        assert least_m2.residual <= 1e-9
        assert math.degrees(least_interference.params.theta_rad) == pytest.approx(90.0)
        assert least_m2.params.m2 == pytest.approx(0.0, abs=1e-12)
        assert least_m2.params.m2 < least_interference.params.m2
        assert least_interference.policy == "min-interference"
        assert least_m2.policy == "min-m2"

    def test_target_equal_to_logical_value(self):
        # target = mu_a * mu_b makes cos(theta) independent of m2
        result = fit_two_sector(0.8, 0.5, 0.4, "and")
        assert result.feasible
        assert result.family.kind == "curve"
        assert "constant across m2" in result.family.note
        two_sector_grid_check(0.8, 0.5, 0.4, "and", result)

    def test_dead_interference_point_solution(self):
        # mu_a = 0 kills the interference term; the target picks out one m2
        result = fit_two_sector(0.0, 0.3, 0.075, "and")
        assert result.feasible
        assert result.family.kind == "point"
        assert result.params.m2 == pytest.approx(0.5, abs=1e-9)
        assert "theta unconstrained" in result.family.note

    def test_dead_interference_unreachable_target(self):
        # value = (1-m2)*avg tops out at 0.15 here, so 0.3 is out of reach
        result = fit_two_sector(0.0, 0.3, 0.3, "and")
        assert not result.feasible
        assert result.family.kind == "empty"
        assert "attainable range [0, 0.15]" in result.family.note
        assert result.residual == pytest.approx(0.15, abs=1e-12)

    def test_fully_degenerate_inputs(self):
        # both marginals zero: every parameter choice predicts 0
        hit = fit_two_sector(0.0, 0.0, 0.0, "and")
        assert hit.feasible and hit.family.kind == "curve"
        assert "any (m2, theta) works" in hit.family.note
        miss = fit_two_sector(0.0, 0.0, 0.2, "and")
        assert not miss.feasible and miss.family.kind == "empty"

    @pytest.mark.parametrize(
        "call, label",
        [
            (lambda: fit_two_sector(0.5, 0.5, 1.2, "and"), "target"),
            (lambda: fit_two_sector(math.nan, 0.5, 0.3, "or"), "muA"),
            (lambda: interference_magnitude(0.2, -0.1), "muY"),
            (
                lambda: eval_two_sector(0.5, math.inf, FockParams.from_degrees(0.5, 90.0, "and")),
                "muB",
            ),
        ],
        ids=["fit-target", "fit-nan", "magnitude", "evaluate-inf"],
    )
    def test_rejects_weight_outside_unit_interval(self, call, label):
        with pytest.raises(DataValidationError, match=rf"{label}=.* outside \[0, 1\]"):
            call()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            fit_two_sector(0.6, 0.4, 0.45, "and", policy="maximize-drama")

    def test_feasibility_residual_invariant(self):
        with pytest.raises(DataValidationError, match="residual"):
            FitResult(
                params=FockParams.from_degrees(0.0, 90.0, "and"),
                residual=0.5,
                feasible=True,
                family=FeasibleSet(kind="point"),
                policy="min-interference",
            )

    @settings(max_examples=150, deadline=None)
    @given(mu_a=unit, mu_b=unit, target=unit)
    def test_feasible_fits_reproduce_their_target(self, mu_a, mu_b, target):
        for connective in ("and", "or"):
            result = fit_two_sector(mu_a, mu_b, target, connective)
            value = eval_two_sector(mu_a, mu_b, result.params).value
            if result.feasible:
                assert abs(value - target) <= 1e-9
            else:
                assert abs(value - target) == pytest.approx(result.residual, abs=1e-9)


class TestGeneralModelStructure:
    def test_pair_weight_sum_window(self):
        # reference parameter lists quote m and n to two decimals, so the
        # squares only sum to 1 within 0.02
        PairParams(m2=0.45**2, n2=0.89**2, alpha=0.1, beta=0.0, phi_rad=1.0)
        with pytest.raises(DataValidationError, match="m2\\+n2"):
            PairParams(m2=0.5, n2=0.6, alpha=0.1, beta=0.0, phi_rad=1.0)

    def test_pair_parameter_ranges(self):
        with pytest.raises(DataValidationError, match="beta"):
            pair(beta=1.5)
        with pytest.raises(DataValidationError, match="phi"):
            PairParams(m2=0.5, n2=0.5, alpha=0.1, beta=0.0, phi_rad=-0.2)

    def test_alpha_coefficients_must_sum_to_one(self):
        with pytest.raises(DataValidationError, match="alpha"):
            GeneralFockParams(pair(alpha=0.5), pair(alpha=0.5), pair(alpha=0.5), pair(alpha=0.5))

    def test_pair_lookup(self):
        params = GeneralFockParams(pair(), pair(), pair(), pair())
        assert params.pair("ApB") is params.apb
        with pytest.raises(KeyError, match="XY"):
            params.pair("XY")

    def test_out_of_range_prediction_is_flagged(self):
        # beta=1 at phi=0 pushes the sector-1 value past 1; the general
        # model reports it instead of clipping
        params = GeneralFockParams(
            pair(beta=1.0, phi_deg=0.0), pair(), pair(), pair()
        )
        prediction = eval_general(0.9, 0.9, params, "AB")
        assert prediction.value == pytest.approx(1.9)
        assert not prediction.in_range

    def test_record_marginals_pairing(self, goldfish_record):
        marginals = record_marginals(goldfish_record)
        assert marginals["AB"] == (0.93, 0.17)
        assert marginals["ABp"] == (0.93, 0.81)
        assert marginals["ApB"] == (0.12, 0.17)
        assert marginals["ApBp"] == (0.12, 0.81)

    def test_joint_targets_order(self, goldfish_record):
        assert joint_targets(goldfish_record) == (0.43, 0.91, 0.18, 0.43)


REFERENCE_PAIR_VALUES = {
    # (m, n, alpha, beta, phi_deg) per combination, quoted to two decimals
    "AB": (0.45, 0.89, 0.12, -0.24, 78.90),
    "ABp": (0.45, 0.90, 0.80, 0.10, 43.15),
    "ApB": (0.48, 0.88, 0.05, 0.12, 54.74),
    "ApBp": (0.45, 0.89, 0.03, 0.30, 77.94),
}


def reference_general_params() -> GeneralFockParams:
    pairs = []
    for key in BLOCKS:
        m, n, alpha, beta, phi_deg = REFERENCE_PAIR_VALUES[key]
        pairs.append(
            PairParams(
                m2=m * m, n2=n * n, alpha=alpha, beta=beta, phi_rad=math.radians(phi_deg)
            )
        )
    return GeneralFockParams(*pairs)


class TestGeneralModelFit:
    def test_reference_parameters_reproduce_quadruple(self, goldfish_record):
        predictions = eval_general_record(goldfish_record, reference_general_params())
        expected = {
            "AB": 0.423356,
            "ABp": 0.925795,
            "ApB": 0.177454,
            "ApBp": 0.424051,
        }
        targets = dict(zip(BLOCKS, joint_targets(goldfish_record)))
        for key in BLOCKS:
            assert predictions[key].value == pytest.approx(expected[key], abs=1e-6)
            assert abs(predictions[key].value - targets[key]) < 0.02
            assert predictions[key].in_range

    def test_fit_solves_quadruple_exactly(self, goldfish_record):
        result = fit_general_quadruple(goldfish_record)
        assert result.feasible
        assert result.residual <= 1e-9
        predictions = eval_general_record(goldfish_record, result.params)
        targets = dict(zip(BLOCKS, joint_targets(goldfish_record)))
        for key in BLOCKS:
            assert predictions[key].value == pytest.approx(targets[key], abs=1e-9)

    def test_fit_respects_marginal_slack(self, goldfish_record):
        result = fit_general_quadruple(goldfish_record)
        alphas = {key: result.params.pair(key).alpha for key in BLOCKS}
        assert abs(alphas["AB"] + alphas["ABp"] - 0.93) <= 0.05 + 1e-9
        assert abs(alphas["AB"] + alphas["ApB"] - 0.17) <= 0.05 + 1e-9

    def test_fit_is_deterministic(self, goldfish_record):
        first = fit_general_quadruple(goldfish_record)
        second = fit_general_quadruple(goldfish_record)
        assert first.params == second.params
        assert first.residual == second.residual

    def test_classical_record_takes_sector_two_shortcut(self):
        record = random_joint_record(random.Random(42))
        result = fit_general_quadruple(record)
        assert result.feasible
        assert result.residual <= 1e-12
        targets = dict(zip(BLOCKS, joint_targets(record)))
        for key in BLOCKS:
            fitted = result.params.pair(key)
            assert fitted.m2 == 1.0
            assert fitted.alpha == pytest.approx(targets[key], abs=1e-12)

    def test_least_interference_regression(self):
        # a multistart search reached only 1.555 here; the 41^3 grid gives 0.895
        record = MembershipRecord(
            exemplar="regression",
            mu_a=0.857,
            mu_b=0.558,
            mu_ap=0.277,
            mu_bp=0.871,
            mu_a_and_b=0.232,
            mu_a_and_bp=0.204,
            mu_ap_and_b=0.613,
            mu_ap_and_bp=0.798,
        )
        result = fit_general_quadruple(record)
        assert result.feasible
        assert general_fit_interference(result) == pytest.approx(0.895, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(weights=st.lists(thousandths, min_size=8, max_size=8))
    def test_never_above_grid_oracle(self, weights):
        mu_a, mu_b, mu_ap, mu_bp, ab, abp, apb, apbp = weights
        record = MembershipRecord(
            exemplar="random",
            mu_a=mu_a,
            mu_b=mu_b,
            mu_ap=mu_ap,
            mu_bp=mu_bp,
            mu_a_and_b=ab,
            mu_a_and_bp=abp,
            mu_ap_and_b=apb,
            mu_ap_and_bp=apbp,
        )
        result = fit_general_quadruple(record)
        assert result.feasible
        assert abs(result.params.ab.alpha + result.params.abp.alpha - mu_a) <= 0.05 + 1e-9
        assert abs(result.params.ab.alpha + result.params.apb.alpha - mu_b) <= 0.05 + 1e-9
        assert general_fit_interference(result) <= general_fit_grid_oracle(record) + 1e-9


# Published two-sector triples that miss their own target weight: (label,
# connective, muA, muB, m2, theta in degrees, reported weight, the closed form
# at the quoted parameters).  They are historical reference output, not oracles.
REFERENCE_TRIPLES = (
    ("Mint", "and", 0.87, 0.81, 0.3, 50.21, 0.9, 0.8698160422853267),
    ("Sunglasses", "or", 0.4, 0.2, 0.03, 155.0, 0.1, 0.05794772376235406),
    ("Tall/Not-Tall borderline", "and", 0.01, 0.95, 0.77, 0.0, 0.15, 0.1401326269930606),
)


class TestCompatibilityNotes:
    def test_reference_triples_and_gaps(self):
        gaps = {
            label: abs(predicted - reported)
            for label, *_, reported, predicted in REFERENCE_TRIPLES
        }
        assert len(gaps) == 3
        assert gaps["Mint"] == pytest.approx(0.030184, abs=1e-6)
        assert gaps["Sunglasses"] == pytest.approx(0.042052, abs=1e-6)
        assert gaps["Tall/Not-Tall borderline"] == pytest.approx(0.009867, abs=1e-6)

    def test_notes_are_self_consistent(self):
        # predicted is literally the closed form evaluated at the quoted
        # parameters, so re-evaluating must agree exactly
        for _, connective, mu_a, mu_b, m2, theta_deg, _, predicted in REFERENCE_TRIPLES:
            params = FockParams.from_degrees(m2=m2, theta_deg=theta_deg, connective=connective)
            assert eval_two_sector(mu_a, mu_b, params).value == predicted

    def test_exact_fit_exists_despite_quoted_gap(self):
        # a feasible (m2, theta) always exists for these targets: the gaps
        # come from the quoted parameters, not from the model family
        for _, connective, mu_a, mu_b, _, _, reported, _ in REFERENCE_TRIPLES:
            result = fit_two_sector(mu_a, mu_b, reported, connective)
            assert result.feasible
            assert result.residual <= 1e-9
