"""Distribution fitting and shared regression utilities.

Two one-parameter families over the N+1 occupation splits of N identical
instances between two states:

* MB: distinguishable instances; binomial over configurations,
  ``pmf(n) = C(N, n) * p1**n * (1 - p1)**(N - n)``.
* BE: indistinguishable instances; pmf linear in the occupation number,
  ``pmf(n) = (n * p1 + (N - n) * (1 - p1)) / (N * (N + 1) / 2)``.

``pmf_vector`` gives either family's N+1 probabilities.  Fits minimize
the residual sum of squares over p1 in [0, 1].  The BE pmf is linear in
p1, so its RSS is a parabola whose minimiser has a closed form, clipped
to [0, 1].  The MB RSS need not be unimodal, and its features narrow like
1/sqrt(N): its fit tabulates the RSS on 16 * ceil(sqrt(N) / 4) equal cells
of [0, 1], refines each grid point no higher than its neighbours by Brent's
method, and keeps the least point found.  That is deterministic but not
proven global.  The MB fit tabulates the N+1 binomial coefficients as
floats once, so an RSS evaluation does no big-integer work; its terms
repeat ``pmf_vector``'s float operations in order, so every reported RSS
matches one computed from ``pmf_vector`` bit for bit.

Model comparison uses the Gaussian least-squares BIC
``nobs * ln(RSS / nobs) + k * ln(nobs)`` with k = 1 and nobs = N + 1.

The regression's confidence interval needs one Student-t quantile.  Its
degrees of freedom are always the integer n - 1, for which the CDF is a
finite sum (Abramowitz & Stegun 26.7.3 for odd, 26.7.4 for even df); the
quantile inverts that sum by bisection, so only ``math`` is needed.
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Callable, Sequence

from .data import CountDataset, Record, _check_unit_interval, _sum
from .errors import DataValidationError, InsufficientDataError

_GOLD = (3.0 - math.sqrt(5.0)) / 2.0  # the golden-section step, 1/phi^2
# absolute p1 tolerance of the MB fit's Brent searches, small enough for an exact
# fit to reach its RSS's float floor (~1e-27; a 1e-12 tolerance can stop at ~1e-24)
_P1_TOL = 1e-14

# guard: exact fits give RSS = 0; floor keeps ln finite and JSON-safe
_RSS_FLOOR = 1e-300

# within 2 BIC units, R^2 values further apart than this make the evidence "weak"
R2_MARGIN = 0.01

FAMILIES = ("MB", "BE")


def brent_minimize(
    f: Callable[[float], float], lo: float, hi: float, x: float, fx: float
) -> tuple[float, float]:
    """A local minimum of f on [lo, hi] by Brent's method, as ``(f(x), x)``.

    Starts from x in [lo, hi] with fx = f(x), and steps to the vertex of the
    parabola through the three best points, or by golden section where that
    vertex is not trusted (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5).  Stops once the bracket [a, b] around the
    best point x has max(x - a, b - x) <= 2 * _P1_TOL, so a local minimiser
    lies within 2e-14 of x.  f is never evaluated outside [lo, hi].
    """
    tol = _P1_TOL
    a, b = lo, hi
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return fx, x
        p = q = r = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            # the vertex is inside the bracket, and the step is under half the one before last
            d = p / q
            if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (a if x >= m else b) - x
            d = _GOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


class DistParams(Record):
    """One fitted family: MB or BE, success weight p1, N instances."""

    family: str
    p1: float
    n_total: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataValidationError(f"unknown family {self.family!r} (expected MB or BE)")
        if not isinstance(self.n_total, int) or isinstance(self.n_total, bool) or self.n_total < 1:
            raise DataValidationError(f"N must be an integer >= 1, got {self.n_total!r}")
        object.__setattr__(self, "p1", _check_unit_interval(self.p1, "p1"))


def pmf_vector(params: DistParams) -> tuple[float, ...]:
    """The family's probability of each n = 0..N, as in the module docstring."""
    big_n, p1 = params.n_total, params.p1
    if params.family == "MB":
        return tuple(
            math.comb(big_n, n) * p1**n * (1.0 - p1) ** (big_n - n) for n in range(big_n + 1)
        )
    scale = big_n * (big_n + 1) / 2
    return tuple((n * p1 + (big_n - n) * (1.0 - p1)) / scale for n in range(big_n + 1))


class DistFit(Record):
    """A fitted family with its goodness-of-fit summary.

    ``r2`` is None when TSS = 0 (constant observations) and the fit is not
    exact; the undefined flag propagates to reports as n/a.
    """

    params: DistParams
    rss: float
    r2: float | None
    bic: float
    dataset: str | None = None

    def __post_init__(self):
        if self.rss < 0.0:
            raise DataValidationError(f"rss={self.rss!r} negative")
        if self.r2 is not None and self.r2 > 1.0 + 1e-12:
            raise DataValidationError(f"r2={self.r2!r} exceeds 1")


def _bic(rss: float, nobs: int) -> float:
    return nobs * math.log(max(rss, _RSS_FLOOR) / nobs) + math.log(nobs)


def _rss_evaluator(big_n: int, observed: tuple[float, ...]) -> Callable[[float], float]:
    """MB RSS against ``observed`` as a function of p1, tabulated once per dataset.

    Each term repeats ``pmf_vector``'s float operations in their order (an
    int times a float rounds the int to float first), and the terms add left
    to right, so every value equals ``_sum((p - o) ** 2 for p, o in
    zip(pmf_vector(params), observed))`` bit for bit.  The loop is written
    out because this is the MB fit's hot path, where a call per term costs 10-15%.
    """
    rows = tuple((float(math.comb(big_n, n)), n, big_n - n, o) for n, o in enumerate(observed))

    def rss_at(p1: float) -> float:
        q = 1.0 - p1
        total = 0.0
        for c, n, m, o in rows:
            total += (c * p1**n * q**m - o) ** 2
        return total

    return rss_at


def fit_distribution(data: CountDataset, family: str) -> DistFit:
    """Least-squares fit of p1 for one family against observed frequencies.

    BE: with S = N(N+1)/2 the pmf is ((N - n) + p1 (2n - N)) / S, so setting
    the RSS's derivative to zero gives p1 = 1/2 + 3 sum((2n - N) o_n) / (2(N + 2)),
    clipped to [0, 1].  MB: the least ``(rss, p1)`` over a grid of
    16 * ceil(sqrt(N) / 4) equal cells, endpoints included, and a Brent search
    to 1e-14 from each grid point no higher than its neighbours, over the
    cells beside it.  Not proven global.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} (expected MB or BE)")
    observed = data.observed
    big_n = data.n_total
    nobs = big_n + 1

    if family == "BE":
        moment = _sum((2 * n - big_n) * o for n, o in enumerate(observed))
        p1 = min(max(0.5 + 3.0 * moment / (2 * (big_n + 2)), 0.0), 1.0)
        pmf = pmf_vector(DistParams("BE", p1, big_n))
        rss = _sum((p - o) ** 2 for p, o in zip(pmf, observed))
    else:
        # the RSS's features narrow like 1/sqrt(N): grid spacing <= 1/(4 sqrt(N))
        rss_at = _rss_evaluator(big_n, observed)
        cells = 16 * math.ceil(math.sqrt(big_n) / 4.0)
        grid = [(rss_at(i / cells), i / cells) for i in range(cells + 1)]
        refined = []
        for i, (rss, p1) in enumerate(grid):
            left, right = grid[max(i - 1, 0)], grid[min(i + 1, cells)]
            if rss <= left[0] and rss <= right[0]:
                refined.append(brent_minimize(rss_at, left[1], right[1], p1, rss))
        rss, p1 = min(grid + refined)

    mean = _sum(observed) / nobs
    tss = _sum((o - mean) ** 2 for o in observed)
    # constant observations accumulate ~1e-33 of float noise in tss; treat
    # anything below 1e-20 as zero variance rather than dividing by it
    if tss > 1e-20:
        r2 = 1.0 - rss / tss
    else:
        r2 = 1.0 if rss <= 1e-12 else None
    return DistFit(
        params=DistParams(family, p1, big_n),
        rss=rss,
        r2=r2,
        bic=_bic(rss, nobs),
        dataset=data.category,
    )


class BicComparison(Record):
    delta_bic: float
    winner: str
    strength: str


def compare_bic(fit_a: DistFit, fit_b: DistFit) -> BicComparison:
    """Compare an MB fit and a BE fit of the same dataset.

    ``delta_bic = fit_a.bic - fit_b.bic``; with the canonical call order
    (MB, BE), positive values favor BE.  Strength thresholds: |delta| > 6
    strong, 2 < |delta| <= 6 positive, otherwise weak when the R^2 values
    separate by more than ``R2_MARGIN``, else none.  Boundary values fall
    in the weaker class.
    """
    families = {fit_a.params.family, fit_b.params.family}
    if families != {"MB", "BE"}:
        raise ValueError(f"need one MB fit and one BE fit, got {sorted(families)}")
    if fit_a.params.n_total != fit_b.params.n_total:
        raise ValueError("fits are for different N; not the same dataset")
    if fit_a.dataset is not None and fit_b.dataset is not None and fit_a.dataset != fit_b.dataset:
        raise ValueError(
            f"fits are for different datasets ({fit_a.dataset!r} vs {fit_b.dataset!r})"
        )
    delta = fit_a.bic - fit_b.bic
    if delta > 0.0:
        winner = fit_b.params.family
    elif delta < 0.0:
        winner = fit_a.params.family
    else:
        r2_a = fit_a.r2 if fit_a.r2 is not None else -math.inf
        r2_b = fit_b.r2 if fit_b.r2 is not None else -math.inf
        if r2_a > r2_b:
            winner = fit_a.params.family
        elif r2_b > r2_a:
            winner = fit_b.params.family
        else:
            winner = "MB"
    magnitude = abs(delta)
    if magnitude > 6.0:
        strength = "strong"
    elif magnitude > 2.0:
        strength = "positive"
    else:
        r2_known = fit_a.r2 is not None and fit_b.r2 is not None
        separated = r2_known and abs(fit_a.r2 - fit_b.r2) > R2_MARGIN
        strength = "weak" if separated else "none"
    return BicComparison(delta_bic=delta, winner=winner, strength=strength)


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
        if self.r2 > 1.0 + 1e-12:
            raise DataValidationError(f"r2={self.r2!r} exceeds 1")
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
    if not 0.0 < confidence < 1.0:
        raise DataValidationError(f"confidence={confidence!r} outside (0, 1)")
    if len(xs) != len(ys):
        raise InsufficientDataError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    n = len(xs)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 points, got {n}")
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
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
