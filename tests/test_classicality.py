"""Classicality checks: rule residuals, deviation profiles, and band summaries."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, random_joint_record, sector_one_limit_record
from qcm import (
    PROFILE_KEYS,
    DataValidationError,
    DeviationProfile,
    IncompleteRecordError,
    InsufficientDataError,
    MembershipRecord,
    check_conjunction,
    check_disjunction,
    check_negation,
    deviation_profile,
    parse_membership_table,
    profile_statistics,
)
from qcm.stats import _t_quantile


class TestConjunction:
    def test_overextension_flagged(self):
        # conjunction weight above both marginals
        verdict = check_conjunction(0.87, 0.81, 0.9)
        assert verdict.condition_set == "conjunction"
        assert not verdict.satisfied
        assert verdict.residuals["min_rule"] == pytest.approx(0.09, abs=1e-12)
        assert verdict.residuals["kolmogorov"] == pytest.approx(-0.22, abs=1e-12)

    def test_classical_point_accepted(self):
        # mu(A and B)=0.85 with marginals 0.9/0.9 admits the atom weights
        # (0.85, 0.05, 0.05, 0.05), so both residuals must come out clean
        verdict = check_conjunction(0.9, 0.9, 0.85)
        assert verdict.satisfied
        assert verdict.residuals["min_rule"] == pytest.approx(-0.05, abs=1e-12)
        assert verdict.residuals["kolmogorov"] == pytest.approx(-0.05, abs=1e-12)

    def test_joint_mass_deficit_flagged(self):
        # marginals 0.9/0.9 force mu(A and B) >= 0.8; 0.75 undershoots
        verdict = check_conjunction(0.9, 0.9, 0.75)
        assert not verdict.satisfied
        assert verdict.residuals["min_rule"] == pytest.approx(-0.15, abs=1e-12)
        assert verdict.residuals["kolmogorov"] == pytest.approx(0.05, abs=1e-12)

    def test_tolerance_can_absorb_violation(self):
        assert check_conjunction(0.87, 0.81, 0.9, tolerance=0.1).satisfied
        assert not check_conjunction(0.87, 0.81, 0.9, tolerance=0.05).satisfied

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(DataValidationError, match="muAandB"):
            check_conjunction(0.5, 0.5, 1.2)


class TestDisjunction:
    def test_underextension_flagged(self):
        verdict = check_disjunction(0.4, 0.2, 0.1)
        assert verdict.condition_set == "disjunction"
        assert not verdict.satisfied
        assert verdict.residuals["max_rule"] == pytest.approx(0.3, abs=1e-12)

    def test_mass_excess_flagged(self):
        # mu(A or B)=0.8 exceeds muA + muB = 0.6
        verdict = check_disjunction(0.5, 0.1, 0.8)
        assert not verdict.satisfied
        assert verdict.residuals["kolmogorov"] == pytest.approx(0.2, abs=1e-12)

    def test_classical_point_accepted(self):
        verdict = check_disjunction(0.5, 0.3, 0.6)
        assert verdict.satisfied
        assert verdict.residuals["max_rule"] == pytest.approx(-0.1, abs=1e-12)
        assert verdict.residuals["kolmogorov"] == pytest.approx(-0.2, abs=1e-12)


class TestNegation:
    def test_goldfish_residuals(self, goldfish_record):
        verdict = check_negation(goldfish_record)
        assert verdict.condition_set == "negation"
        assert not verdict.satisfied
        assert verdict.residuals["marginal_A"] == pytest.approx(0.93 - 1.34, abs=1e-9)
        assert verdict.residuals["marginal_B"] == pytest.approx(0.17 - 0.61, abs=1e-9)
        assert verdict.residuals["marginal_Ap"] == pytest.approx(0.12 - 0.61, abs=1e-9)
        assert verdict.residuals["marginal_Bp"] == pytest.approx(0.81 - 1.34, abs=1e-9)
        assert verdict.residuals["unit_mass"] == pytest.approx(0.95, abs=1e-9)

    def test_classical_decomposition_passes(self):
        rng = random.Random(7)
        verdict = check_negation(random_joint_record(rng))
        assert verdict.satisfied
        assert all(abs(v) <= 1e-12 for v in verdict.residuals.values())

    def test_equality_violations_count_both_signs(self):
        rng = random.Random(9)
        record = random_joint_record(rng)
        # shift one conjunction weight down: residuals move negative, still a violation
        shifted = MembershipRecord(
            exemplar=record.exemplar,
            mu_a=record.mu_a,
            mu_b=record.mu_b,
            mu_ap=record.mu_ap,
            mu_bp=record.mu_bp,
            mu_a_and_b=record.mu_a_and_b - 0.05,
            mu_a_and_bp=record.mu_a_and_bp,
            mu_ap_and_b=record.mu_ap_and_b,
            mu_ap_and_bp=record.mu_ap_and_bp,
        )
        verdict = check_negation(shifted)
        assert not verdict.satisfied
        assert verdict.residuals["marginal_A"] == pytest.approx(0.05, abs=1e-12)
        assert verdict.residuals["unit_mass"] == pytest.approx(-0.05, abs=1e-12)

    def test_requires_all_eight_weights(self):
        partial = MembershipRecord(exemplar="t", mu_a=0.5, mu_b=0.5, mu_a_and_b=0.4)
        with pytest.raises(IncompleteRecordError) as excinfo:
            check_negation(partial)
        assert excinfo.value.field == "muAp"


class TestDeviationProfile:
    def test_goldfish_profile(self, goldfish_record):
        profile = deviation_profile(goldfish_record)
        assert profile.i_a == pytest.approx(0.93 - 1.34, abs=1e-9)
        assert profile.i_b == pytest.approx(0.17 - 0.61, abs=1e-9)
        assert profile.i_ap == pytest.approx(0.12 - 0.61, abs=1e-9)
        assert profile.i_bp == pytest.approx(0.81 - 1.34, abs=1e-9)
        assert profile.i_total == pytest.approx(1.0 - 1.95, abs=1e-9)

    def test_classical_profile_is_zero(self):
        rng = random.Random(11)
        profile = deviation_profile(random_joint_record(rng))
        values = profile.as_dict().values()
        assert all(abs(v) <= 1e-12 for v in values)

    def test_averaging_limit_is_exact(self):
        # dyadic inputs make the limiting profile exactly representable
        profile = deviation_profile(sector_one_limit_record())
        assert profile.as_dict() == {
            "iA": -0.5,
            "iB": -0.5,
            "iAp": -0.5,
            "iBp": -0.5,
            "iTotal": -1.0,
        }

    def test_bounds_enforced(self):
        with pytest.raises(DataValidationError):
            DeviationProfile(i_a=1.5, i_b=0.0, i_ap=0.0, i_bp=0.0, i_total=0.0)
        with pytest.raises(DataValidationError):
            DeviationProfile(i_a=0.0, i_b=0.0, i_ap=0.0, i_bp=0.0, i_total=1.5)

    def test_profile_sign_matches_negation_residuals(self, goldfish_record):
        # iTotal flips the sign of the unit-mass residual; marginals match
        verdict = check_negation(goldfish_record)
        profile = deviation_profile(goldfish_record)
        assert profile.i_a == pytest.approx(verdict.residuals["marginal_A"])
        assert profile.i_total == pytest.approx(-verdict.residuals["unit_mass"])


class TestProfileStatistics:
    def test_needs_three_profiles(self):
        rng = random.Random(3)
        profiles = [deviation_profile(random_joint_record(rng, i)) for i in range(2)]
        with pytest.raises(InsufficientDataError, match="3"):
            profile_statistics(profiles)

    def test_constant_profiles_have_flat_line(self):
        profile = deviation_profile(sector_one_limit_record())
        stats = profile_statistics([profile] * 4)
        assert set(stats) == set(PROFILE_KEYS)
        for key, expected in zip(PROFILE_KEYS, (-0.5, -0.5, -0.5, -0.5, -1.0)):
            assert stats[key].mean == pytest.approx(expected, abs=1e-12)
            assert stats[key].slope == pytest.approx(0.0, abs=1e-12)
            assert stats[key].ci_low == pytest.approx(expected, abs=1e-12)
            assert stats[key].ci_high == pytest.approx(expected, abs=1e-12)
            assert stats[key].n == 4

    def test_linear_trend_recovered(self):
        # profiles with iA = -0.1 * index: slope exactly -0.1
        profiles = [
            DeviationProfile(i_a=-0.1 * i, i_b=0, i_ap=0, i_bp=0, i_total=0)
            for i in range(1, 6)
        ]
        stats = profile_statistics(profiles)
        assert stats["iA"].slope == pytest.approx(-0.1, abs=1e-12)
        assert stats["iA"].r2 == pytest.approx(1.0, abs=1e-12)
        assert stats["iA"].mean == pytest.approx(-0.3, abs=1e-12)

    def test_quantile_evaluated_once_per_call(self):
        # every quantity shares (confidence, n - 1); each bisection step is O(df)
        rng = random.Random(5)
        profiles = [deviation_profile(random_joint_record(rng, i)) for i in range(7)]
        _t_quantile.cache_clear()
        profile_statistics(profiles, confidence=0.9)
        info = _t_quantile.cache_info()
        assert info.misses == 1
        assert info.hits == len(PROFILE_KEYS) - 1
        # the cached value is the one a fresh evaluation gives
        assert _t_quantile(0.9, 6) == _t_quantile.__wrapped__(0.9, 6)


# 95% confidence bands on the mean of each deviation quantity reported by the
# reference conjunction-negation experiments: a cross-dataset sanity check,
# not a fit target
REFERENCE_MEAN_BANDS = {
    "iA": (-0.51, -0.33),
    "iB": (-0.52, -0.34),
    "iAp": (-0.42, -0.28),
    "iBp": (-0.40, -0.26),
    "iTotal": (-0.97, -0.64),
}


def means_within_bands(profiles) -> dict[str, bool]:
    statistics = profile_statistics(profiles)
    assert set(statistics) == set(REFERENCE_MEAN_BANDS)
    return {
        key: low < statistics[key].mean < high
        for key, (low, high) in REFERENCE_MEAN_BANDS.items()
    }


class TestReferenceBands:
    def test_bundled_synthetic_set_sits_inside_bands(self):
        records = parse_membership_table(DATA_DIR.joinpath("negation_demo.csv").read_text())
        within = means_within_bands([deviation_profile(r) for r in records])
        assert all(within.values())

    def test_classical_means_fall_outside(self):
        rng = random.Random(5)
        profiles = [deviation_profile(random_joint_record(rng, i)) for i in range(5)]
        assert not any(means_within_bands(profiles).values())

    def test_band_shape(self):
        for low, high in REFERENCE_MEAN_BANDS.values():
            assert low < high < 0


@settings(max_examples=100)
@given(
    weights=st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=4, max_size=4
    )
)
def test_classical_joint_satisfies_every_rule(weights):
    total = sum(weights)
    normalized = [w / total for w in weights]
    record = random_joint_record(random.Random(0), atoms=normalized)
    conj = check_conjunction(record.mu_a, record.mu_b, record.mu_a_and_b)
    disj = check_disjunction(record.mu_a, record.mu_b, record.mu_a_or_b)
    assert conj.satisfied and disj.satisfied and check_negation(record).satisfied
