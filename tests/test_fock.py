"""Two-sector and general interference models: closed forms, fits, diagnostics."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR,
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
from qcm import fock
from qcm.data import FIT_POLICIES, parse_membership_table
from qcm.fock import _EPS, MARGINAL_SLACK, _apart, _least_slack_point

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

    def test_one_point_solution_set_is_a_point(self):
        # the exact interval closes to m2 = 0 here: one point, not a curve
        result = fit_two_sector(0.766, 0.766, 0.532, "and")
        assert result.feasible
        assert result.family.kind == "point"
        assert result.family.m2_min == result.family.m2_max == 0.0

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

    def test_unknown_connective_rejected(self):
        # FockParams holds the one connective check, and every fit result builds one
        with pytest.raises(DataValidationError, match="connective must be 'and' or 'or', got 'xor'"):
            fit_two_sector(0.5, 0.5, 0.3, "xor")

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


# float resolution in the model's own units: the fit snaps solution-set ends
# within 1e-12 of 0 or 1 and treats an interference weight <= 1e-12 as dead
SOLUTION_SET_SLACK = 1e-11


def exact_workable_interval(mu_a, mu_b, target, connective, slack):
    """{m2 in [0, 1]: |offset - m2*span| <= (1-m2)*I + slack} in exact rationals, or None."""
    a, b, t = Fraction(mu_a), Fraction(mu_b), Fraction(target)
    logical = a * b if connective == "and" else a + b - a * b
    avg = (a + b) / 2
    interf = Fraction(interference_magnitude(mu_a, mu_b))
    offset, span = t - avg, logical - avg
    lo, hi = Fraction(0), Fraction(1)
    for s in (1, -1):  # m2 * (I - s*span) <= I - s*offset + slack
        coef, rhs = interf - s * span, interf - s * offset + Fraction(slack)
        if coef > 0:
            hi = min(hi, rhs / coef)
        elif coef < 0:
            lo = max(lo, rhs / coef)
        elif rhs < 0:
            return None
    return (lo, hi) if lo <= hi else None


class TestTwoSectorSolutionSet:
    """The reported solution set is exact; the tolerance decides only the verdict."""

    @settings(max_examples=300, deadline=None)
    @given(
        mu_a=st.one_of(unit, thousandths),
        mu_b=st.one_of(unit, thousandths),
        target=st.one_of(unit, thousandths),
        connective=st.sampled_from(["and", "or"]),
        policy=st.sampled_from(["min-interference", "min-m2"]),
        tolerance=st.sampled_from([1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.2]),
    )
    @example(0.222, 0.749, 0.077, "and", "min-interference", 1e-3)  # a NaN interval before
    def test_solution_set_matches_the_analytic_interval(
        self, mu_a, mu_b, target, connective, policy, tolerance
    ):
        result = fit_two_sector(mu_a, mu_b, target, connective, policy, tolerance)
        family = result.family
        floats = [result.params.m2, result.params.theta_rad, result.residual]
        floats += [end for end in (family.m2_min, family.m2_max) if end is not None]
        assert all(math.isfinite(value) for value in floats)
        assert result.feasible == (result.residual <= tolerance)

        # the analytic set, shrunk and grown by the slack: the fit's set lies between
        sharp = exact_workable_interval(mu_a, mu_b, target, connective, -SOLUTION_SET_SLACK)
        loose = exact_workable_interval(mu_a, mu_b, target, connective, SOLUTION_SET_SLACK)
        if sharp is not None:
            assert family.kind != "empty"
        if loose is None:
            assert family.kind == "empty"
        if family.kind == "empty":
            logical = mu_a * mu_b if connective == "and" else mu_a + mu_b - mu_a * mu_b
            avg = (mu_a + mu_b) / 2.0
            interf = interference_magnitude(mu_a, mu_b)
            lo, hi = min(logical, avg - interf), max(logical, avg + interf)
            distance = max(lo - target, target - hi, 0.0)
            assert result.residual == pytest.approx(distance, abs=SOLUTION_SET_SLACK)
            return
        assert family.m2_min <= result.params.m2 <= family.m2_max
        m2_min, m2_max = Fraction(family.m2_min), Fraction(family.m2_max)
        assert loose[0] <= m2_min and m2_max <= loose[1]
        if sharp is not None:
            assert m2_min <= sharp[0] and sharp[1] <= m2_max


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


class TestFitPredictions:
    @settings(max_examples=100, deadline=None)
    @given(weights=st.lists(unit, min_size=8, max_size=8), policy=st.sampled_from(FIT_POLICIES))
    def test_predictions_are_the_fitted_model_at_each_target(self, weights, policy):
        mu_a, mu_b, mu_ap, mu_bp, ab, abp, apb, apbp = weights
        for connective, target in (("and", ab), ("or", abp)):
            fit = fit_two_sector(mu_a, mu_b, target, connective, policy)
            assert fit.predictions == (eval_two_sector(mu_a, mu_b, fit.params),)
            assert fit.residual == abs(fit.predictions[0].value - target)
        record = MembershipRecord(
            exemplar="random", mu_a=mu_a, mu_b=mu_b, mu_ap=mu_ap, mu_bp=mu_bp,
            mu_a_and_b=ab, mu_a_and_bp=abp, mu_ap_and_b=apb, mu_ap_and_bp=apbp,
        )
        fit = fit_general_quadruple(record)
        assert fit.predictions == tuple(eval_general_record(record, fit.params).values())
        assert fit.residual == max(
            abs(p.value - t) for p, t in zip(fit.predictions, joint_targets(record))
        )


# the general fit's alpha slice: alpha = sign*a1 + f0 + f1*sa + f2*sb, pair by pair
def slice_forms(mu_a, mu_b):
    return (
        (1.0, (0.0, 0.0, 0.0)),
        (-1.0, (mu_a, 1.0, 0.0)),
        (-1.0, (mu_b, 0.0, 1.0)),
        (1.0, (1.0 - mu_a - mu_b, -1.0, -1.0)),
    )


@st.composite
def slack_problems(draw):
    """Bounds on a1 and a slack box of the shapes fit_general_quadruple builds."""
    weight = st.one_of(thousandths, unit)
    mu_a, mu_b = draw(weight), draw(weight)
    forms = slice_forms(mu_a, mu_b)
    # every alpha >= 0, then alpha >= level or alpha <= level for some pairs
    wanted = [(form, 0.0, 1.0) for form in forms]
    wanted += [
        (form, draw(weight), draw(st.sampled_from([1.0, -1.0])))
        for form in forms
        if draw(st.booleans())
    ]
    bounds = [
        (side * sign > 0.0, (sign * (level - f0), -sign * f1, -sign * f2))
        for (sign, (f0, f1, f2)), level, side in wanted
    ]
    delta = MARGINAL_SLACK
    box = (max(-delta, -mu_a), min(delta, 1.0 - mu_a), max(-delta, -mu_b), min(delta, 1.0 - mu_b))
    return bounds, box


def least_slack_vertex(bounds, box):
    """Brute-force oracle for ``_least_slack_point``: every crossing of two lines.

    Eliminating a1 leaves lower - upper <= 0 for every pair of bounds, a
    2-D polygon inside the box.  |sa| + |sb| is linear on each quadrant, so
    its minimum lies on a vertex of the polygon cut by the axes: an
    intersection of two of those lines, all pairs of which are tried.  Ties
    go to the smallest sa, then sb; a1 sits at its lower bound.
    """
    tol = _EPS / 10
    lowers = [form for lower, form in bounds if lower]
    uppers = [form for lower, form in bounds if not lower]
    sa_lo, sa_hi, sb_lo, sb_hi = box
    constraints = {(sa_lo, -1.0, 0.0), (-sa_hi, 1.0, 0.0), (sb_lo, 0.0, -1.0), (-sb_hi, 0.0, 1.0)}
    for low in lowers:
        for up in uppers:
            g = (low[0] - up[0], low[1] - up[1], low[2] - up[2])
            if g[1] == g[2] == 0.0:
                if g[0] > tol:
                    return None
            else:
                constraints.add(g)
    constraints = list(constraints)
    lines = constraints + [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]  # plus the axes
    best = None
    for i, (c0, c1, c2) in enumerate(lines):
        for d0, d1, d2 in lines[i + 1:]:
            det = c1 * d2 - c2 * d1
            if det == 0.0:
                continue
            sa = (c2 * d0 - c0 * d2) / det
            sb = (c0 * d1 - c1 * d0) / det
            if all(g0 + g1 * sa + g2 * sb <= tol for g0, g1, g2 in constraints):
                key = (round(abs(sa) + abs(sb), 12), sa, sb)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    _, sa, sb = best
    a1 = max(c0 + c1 * sa + c2 * sb for c0, c1, c2 in lowers)
    return best + (a1,)


class TestLeastSlackClip:
    """The clipped polygon's quadrant vertices give what every crossing gives."""

    @settings(max_examples=400, deadline=None)
    @given(problem=slack_problems())
    # feasible only within float noise of one vertex: a clip relaxed by 0 rejects both
    @example(problem=(
        [(True, (0.0, -0.0, -0.0)), (False, (0.842, 1.0, 0.0)), (False, (0.883, 0.0, 1.0)),
         (True, (0.725, 1.0, 1.0)), (True, (0.43799999999999994, 1.0, 0.0)),
         (True, (0.775, 0.0, 1.0)), (False, (0.725, 1.0, 1.0))],
        (-0.05, 0.05, -0.05, 0.05),
    ))
    @example(problem=(
        [(True, (0.0, -0.0, -0.0)), (False, (-0.0, 1.0, 0.0)), (False, (0.023, 0.0, 1.0)),
         (True, (-0.977, 1.0, 1.0)), (True, (-0.298, 1.0, 0.0)),
         (True, (-0.26699999999999996, 0.0, 1.0)), (True, (0.02300000000000002, 1.0, 1.0))],
        (-0.0, 0.05, -0.023, 0.05),
    ))
    # a float-noise tie at slack 0: the enumeration picks sb = -5.55e-17, the clip 0.0
    @example(problem=(
        [(True, (0.0, -0.0, -0.0)), (False, (0.06, 1.0, 0.0)), (False, (1.0, 0.0, 1.0)),
         (True, (0.06000000000000005, 1.0, 1.0)), (False, (0.17400000000000004, 0.0, 1.0)),
         (False, (0.09300000000000005, 1.0, 1.0))],
        (-0.05, 0.05, -0.05, 0.0),
    ))
    # a1 >= 0.5 and a1 <= 0.2 whatever sa and sb are: a constant bound that fails
    @example(problem=(
        [(True, (0.5, 0.0, 0.0)), (False, (0.2, 0.0, 0.0))], (-0.05, 0.05, -0.05, 0.05),
    ))
    def test_clip_agrees_with_the_enumeration(self, problem):
        solved, enumerated = _least_slack_point(*problem), least_slack_vertex(*problem)
        if solved is None or enumerated is None:
            assert solved is enumerated is None
        else:
            assert solved[0] == enumerated[0]  # the rounded slack
            assert all(abs(x - y) <= 1e-12 for x, y in zip(solved[1:], enumerated[1:]))

    @settings(max_examples=400, deadline=None)
    @given(problem=slack_problems())
    @example(problem=(
        [(True, (0.5, 0.0, 0.0)), (False, (0.2, 0.0, 0.0))], (-0.05, 0.05, -0.05, 0.05),
    ))
    # a1 >= 0.05 + 5e-14 + sa and a1 <= 0: met within tol at sa = -0.05 only
    @example(problem=(
        [(True, (0.05 + 5e-14, 1.0, 0.0)), (False, (0.0, 0.0, 0.0))], (-0.05, 0.05, -0.05, 0.05),
    ))
    def test_bounds_apart_leave_no_least_slack_point(self, problem):
        bounds, box = problem
        if any(_apart(one, other, box) for one, other in combinations(bounds, 2)):
            assert _least_slack_point(bounds, box) is None

    def test_clip_rejects_some_generated_problems(self):
        bounds, box = find(
            slack_problems(),
            lambda problem: _least_slack_point(*problem) is None,
            settings=settings(max_examples=400, database=None),
        )
        assert least_slack_vertex(bounds, box) is None


def count_calls(monkeypatch, name):
    """Every argument tuple passed to ``fock.<name>`` from now on."""
    calls = []
    function = getattr(fock, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(fock, name, counted)
    return calls


def bundled_negation_records():
    return [
        record
        for path in sorted(DATA_DIR.glob("*.csv"))
        for record in parse_membership_table(path.read_text(encoding="utf-8"))
        if record.negation_complete()
    ]


def seeded_negation_records(count, seed):
    """Three-decimal weights, a quarter of them 0, 0.5 or 1; every fifth record
    is a classical joint, which takes the sector-2 shortcut."""
    rng = random.Random(seed)

    def weight():
        return rng.choice((0.0, 0.5, 1.0)) if rng.random() < 0.25 else rng.randint(0, 1000) / 1000

    fields = ("mu_a", "mu_b", "mu_ap", "mu_bp",
              "mu_a_and_b", "mu_a_and_bp", "mu_ap_and_b", "mu_ap_and_bp")
    return [
        random_joint_record(rng, index) if index % 5 == 0
        else MembershipRecord(exemplar=f"seeded-{index}", **{f: weight() for f in fields})
        for index in range(count)
    ]


@pytest.mark.parametrize("name, lps", [("goldfish.csv", 1), ("negation_demo.csv", 4)])
def test_general_fit_solves_an_lp_only_where_no_bounds_are_apart(monkeypatch, name, lps):
    # every subset search here meets one feasible LP per record; without the
    # table of bound conflicts it solved 7 and 10 LPs
    calls = count_calls(monkeypatch, "_least_slack_point")
    for record in parse_membership_table((DATA_DIR / name).read_text(encoding="utf-8")):
        fit_general_quadruple(record)
    assert len(calls) == lps


def test_bound_conflicts_change_no_general_fit(monkeypatch):
    # with no conflict reported, every subset goes to its LP: the search the
    # table prunes is the oracle, down to the repr of each result
    records = bundled_negation_records() + seeded_negation_records(1000, seed=30)
    calls = count_calls(monkeypatch, "_least_slack_point")
    pruned = [repr(fit_general_quadruple(record)) for record in records]
    # one LP, a feasible one, per record off the classical shortcut (5 + 800)
    assert len(calls) == 805
    monkeypatch.setattr(fock, "_apart", lambda one, other, box: False)
    assert [repr(fit_general_quadruple(record)) for record in records] == pruned


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
