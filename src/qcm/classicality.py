"""Classical (Kolmogorovian) representability tests, deviation profiles and their regression.

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

The regression's confidence interval needs one Student-t quantile.  Its
degrees of freedom are always the integer n - 1, for which the CDF is a
finite sum (Abramowitz & Stegun 26.7.3 for odd, 26.7.4 for even df); the
quantile inverts that sum by bisection, so only ``math`` is needed.
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Sequence

from .data import MembershipRecord, Record, _check_positive, _check_range, _sum
from .errors import DataValidationError, InsufficientDataError

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


class RegressionResult(Record):
    """OLS line plus a Student-t confidence interval on the mean of y."""

    slope: float
    intercept: float
    r2: float
    mean: float
    ci_low: float
    ci_high: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "r2", _check_range(self.r2, "r2", -math.inf, 1.0 + 1e-12))
        if not self.ci_low <= self.mean <= self.ci_high:
            raise DataValidationError("confidence interval does not bracket the mean")


def _t_two_sided(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer df >= 2 (A&S 26.7.3, 26.7.4)."""
    theta = math.atan(t / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    odd = df % 2
    term = total = 1.0
    for k in range(2, df - 1, 2):
        term *= cos2 * (k - 1 + odd) / (k + odd)
        total += term
    if odd:
        return (theta + math.sin(theta) * math.cos(theta) * total) * 2.0 / math.pi
    return math.sin(theta) * total


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


# the bit pattern of 2.0**64, where the CDF rounds to 1.0 for every df >= 2
_QUANTILE_TOP = struct.unpack("<q", struct.pack("<d", 2.0**64))[0]


@functools.lru_cache
def _t_quantile(confidence: float, df: int) -> float:
    """The t with P(|T| <= t) = confidence, i.e. the (1 + confidence) / 2 quantile.

    Bisects the bit patterns of (0, 2**64], which order like the doubles
    they encode, so at most 63 halvings pin the crossing to one ulp.  Two
    confidences make the same comparisons up to the first that differs,
    after which the larger one's bracket lies above, so the quantile never
    decreases as confidence rises, even where the CDF's last bits are noise.
    Each bisection step costs O(df), so results are cached: a regression
    over several quantities of one sample asks for the same quantile each time.
    """
    lo, hi = 0, _QUANTILE_TOP
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _t_two_sided(_double(mid), df) < confidence:
            lo = mid
        else:
            hi = mid
    return _double(hi)


def linear_regression(
    xs: Sequence[float], ys: Sequence[float], confidence: float = 0.95
) -> RegressionResult:
    """Ordinary least squares of ys on xs plus a CI on mean(ys)."""
    confidence = _check_positive(confidence, "confidence", 1.0)
    if len(xs) != len(ys):
        raise InsufficientDataError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    n = len(xs)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 points, got {n}")
    xs = [_check_range(x, f"xs[{i}]", -math.inf, math.inf) for i, x in enumerate(xs)]
    ys = [_check_range(y, f"ys[{i}]", -math.inf, math.inf) for i, y in enumerate(ys)]
    x_mean = _sum(xs) / n
    y_mean = _sum(ys) / n
    sxx = _sum((x - x_mean) ** 2 for x in xs)
    sxy = _sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    if sxx == 0.0:
        raise InsufficientDataError("all x values identical; slope undefined")
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_res = _sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = _sum((y - y_mean) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    variance = ss_tot / (n - 1)
    half_width = _t_quantile(confidence, n - 1) * math.sqrt(variance / n)
    return RegressionResult(
        slope=slope,
        intercept=intercept,
        r2=r2,
        mean=y_mean,
        ci_low=y_mean - half_width,
        ci_high=y_mean + half_width,
        n=n,
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

