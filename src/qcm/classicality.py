"""Classical (Kolmogorovian) representability tests and deviation profiles.

A membership pattern is classically representable when a single
probability space reproduces every measured weight as an event
probability.  For a conjunction weight this reduces to two inequalities,
for a disjunction weight to two others, and for the full negation
quadruple to five equalities; each check reports signed residuals
(positive = amount of violation for inequalities).

The deviation profile collects the five signed quantities measuring how
far the quadruple sits from additivity; a classical record has the zero
profile, and the pure averaging limit (every combination weight equal to
the mean of its members, with complementary negation weights) lands
exactly on (-0.5, -0.5, -0.5, -0.5, -1).
"""

from __future__ import annotations

from collections.abc import Sequence

from .data import MembershipRecord, Record, _check_positive, _check_range
from .errors import InsufficientDataError
from .stats import RegressionResult, linear_regression

DEFAULT_TOLERANCE = 1e-9

PROFILE_KEYS = ("iA", "iB", "iAp", "iBp", "iTotal")


class ClassicalityVerdict(Record):
    """Outcome of one representability check.

    ``residuals`` maps condition name to signed deviation.  For inequality
    conditions a positive residual is the violation amount; for equality
    conditions the residual is lhs - rhs and must vanish.
    """

    condition_set: str  # conjunction | disjunction | negation
    satisfied: bool
    residuals: dict[str, float]
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        object.__setattr__(self, "tolerance", _check_positive(self.tolerance, "tolerance"))


def check_conjunction(
    mu_a: float, mu_b: float, mu_a_and_b: float, tolerance: float = DEFAULT_TOLERANCE
) -> ClassicalityVerdict:
    """Conjunction representability: needs both residuals <= 0.

    min_rule = mu(A and B) - min(mu(A), mu(B));
    kolmogorov = mu(A) + mu(B) - mu(A and B) - 1.
    """
    tolerance = _check_positive(tolerance, "tolerance")
    mu_a = _check_range(mu_a, "muA")
    mu_b = _check_range(mu_b, "muB")
    mu_a_and_b = _check_range(mu_a_and_b, "muAandB")
    residuals = {
        "min_rule": mu_a_and_b - min(mu_a, mu_b),
        "kolmogorov": mu_a + mu_b - mu_a_and_b - 1.0,
    }
    satisfied = all(r <= tolerance for r in residuals.values())
    return ClassicalityVerdict("conjunction", satisfied, residuals, tolerance)


def check_disjunction(
    mu_a: float, mu_b: float, mu_a_or_b: float, tolerance: float = DEFAULT_TOLERANCE
) -> ClassicalityVerdict:
    """Disjunction representability: needs both residuals <= 0.

    max_rule = max(mu(A), mu(B)) - mu(A or B);
    kolmogorov = -(mu(A) + mu(B) - mu(A or B)).
    """
    tolerance = _check_positive(tolerance, "tolerance")
    mu_a = _check_range(mu_a, "muA")
    mu_b = _check_range(mu_b, "muB")
    mu_a_or_b = _check_range(mu_a_or_b, "muAorB")
    residuals = {
        "max_rule": max(mu_a, mu_b) - mu_a_or_b,
        "kolmogorov": -(mu_a + mu_b - mu_a_or_b),
    }
    satisfied = all(r <= tolerance for r in residuals.values())
    return ClassicalityVerdict("disjunction", satisfied, residuals, tolerance)


def check_negation(
    record: MembershipRecord, tolerance: float = DEFAULT_TOLERANCE
) -> ClassicalityVerdict:
    """Negation-quadruple representability: five equalities, lhs - rhs.

    marginal_A:  mu(A)  = mu(A and B)  + mu(A and B')
    marginal_B:  mu(B)  = mu(A and B)  + mu(A' and B)
    marginal_Ap: mu(A') = mu(A' and B') + mu(A' and B)
    marginal_Bp: mu(B') = mu(A' and B') + mu(A and B')
    unit_mass:   the four conjunction weights sum to 1

    When all five hold, the four conjunction weights are a classical joint
    distribution reproducing every marginal.
    """
    tolerance = _check_positive(tolerance, "tolerance")
    mu_a, mu_b, mu_ap, mu_bp, ab, abp, apb, apbp = record.require(
        "muA", "muB", "muAp", "muBp", "muAandB", "muAandBp", "muApandB", "muApandBp"
    )
    residuals = {
        "marginal_A": mu_a - ab - abp,
        "marginal_B": mu_b - ab - apb,
        "marginal_Ap": mu_ap - apbp - apb,
        "marginal_Bp": mu_bp - apbp - abp,
        "unit_mass": (ab + abp + apb + apbp) - 1.0,
    }
    satisfied = all(abs(r) <= tolerance for r in residuals.values())
    return ClassicalityVerdict("negation", satisfied, residuals, tolerance)


class DeviationProfile(Record):
    """Signed deviations of a negation quadruple from additivity."""

    i_a: float
    i_b: float
    i_ap: float
    i_bp: float
    i_total: float

    def __post_init__(self):
        for name in ("i_a", "i_b", "i_ap", "i_bp", "i_total"):  # bounds for [0, 1] inputs
            lo = (-3.0 if name == "i_total" else -2.0) - 1e-12
            value = _check_range(getattr(self, name), name, lo, 1.0 + 1e-12)
            object.__setattr__(self, name, value)


def deviation_profile(record: MembershipRecord) -> DeviationProfile:
    """The five deviation quantities of the negation quadruple.

    iA = mu(A) - mu(A and B) - mu(A and B'), analogously for iB, iAp, iBp;
    iTotal = 1 - sum of the four conjunction weights.  All five vanish
    exactly on classical data.  These are check_negation's residuals, with
    iTotal = -unit_mass.
    """
    residuals = check_negation(record).residuals
    return DeviationProfile(
        i_a=residuals["marginal_A"],
        i_b=residuals["marginal_B"],
        i_ap=residuals["marginal_Ap"],
        i_bp=residuals["marginal_Bp"],
        # 0.0 - x, not -x: a zero unit_mass must stay +0.0
        i_total=0.0 - residuals["unit_mass"],
    )


def profile_statistics(
    profiles: Sequence[DeviationProfile], confidence: float = 0.95
) -> dict[str, RegressionResult]:
    """Per-quantity OLS over exemplar index plus a CI on the mean.

    The regression abscissa is the 1-based index of each profile in input
    order.  Requires at least 3 profiles.
    """
    confidence = _check_positive(confidence, "confidence", 1.0)
    if len(profiles) < 3:
        raise InsufficientDataError(f"need at least 3 profiles, got {len(profiles)}")
    xs = [float(i) for i in range(1, len(profiles) + 1)]
    result = {}
    for key, name in zip(PROFILE_KEYS, DeviationProfile._fields):
        ys = [getattr(profile, name) for profile in profiles]
        result[key] = linear_regression(xs, ys, confidence)
    return result

