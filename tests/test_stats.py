"""Count-distribution fitting, BIC comparison, and regression helpers."""

from __future__ import annotations

import ast
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, REPO_ROOT, child_env
from qcm import (
    BicComparison,
    CountDataset,
    DataValidationError,
    DistFit,
    DistParams,
    InsufficientDataError,
    compare_bic,
    fit_distribution,
    linear_regression,
    parse_count_datasets,
    pmf_vector,
)
from qcm import stats
from qcm.data import _sum
from qcm.stats import _t_quantile, brent_minimize


def load_dataset(name):
    return parse_count_datasets(DATA_DIR.joinpath(name).read_text(encoding="utf-8"))[0]


class TestDistParams:
    def test_family_vocabulary(self):
        with pytest.raises(DataValidationError, match="family"):
            DistParams(family="XX", p1=0.5, n_total=9)

    def test_p1_range(self):
        with pytest.raises(DataValidationError, match="p1"):
            DistParams(family="MB", p1=1.2, n_total=9)

    def test_n_total_positive_integer(self):
        with pytest.raises(DataValidationError, match="N"):
            DistParams(family="MB", p1=0.5, n_total=0)


class TestBinomialPmf:
    def test_symmetric_half_values_are_exact_dyadics(self):
        # C(11,n)/2048 is exactly representable, so equality is exact
        vector = pmf_vector(DistParams(family="MB", p1=0.5, n_total=11))
        assert vector[0] == 0.00048828125
        assert vector[1] == 0.00537109375
        assert vector[5] == 0.2255859375

    def test_matches_fraction_arithmetic(self):
        vector = pmf_vector(DistParams(family="MB", p1=0.25, n_total=9))
        for n in range(10):
            exact = math.comb(9, n) * Fraction(1, 4) ** n * Fraction(3, 4) ** (9 - n)
            assert vector[n] == pytest.approx(float(exact), rel=1e-14)

    def test_degenerate_endpoints(self):
        vector = pmf_vector(DistParams(family="MB", p1=1.0, n_total=5))
        assert vector[5] == 1.0
        assert vector[0] == 0.0


class TestOccupationSplitPmf:
    def test_balanced_split_is_uniform_exactly(self):
        # (n + (11-n)) * 0.5 / 66 == 1/12 in floating point for every n
        vector = pmf_vector(DistParams(family="BE", p1=0.5, n_total=11))
        for n in range(12):
            assert vector[n] == 1.0 / 12.0

    def test_fully_tilted_split_is_linear(self):
        vector = pmf_vector(DistParams(family="BE", p1=1.0, n_total=11))
        assert vector[0] == 0.0
        assert vector[11] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert vector[6] == pytest.approx(6.0 / 66.0, abs=1e-15)


class TestPmfVector:
    @pytest.mark.parametrize("family", ["MB", "BE"])
    @pytest.mark.parametrize("p1", [0.0, 0.3, 0.57, 1.0])
    def test_normalized(self, family, p1):
        params = DistParams(family=family, p1=p1, n_total=9)
        vector = pmf_vector(params)
        assert len(vector) == 10
        assert sum(vector) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0.0 for v in vector)


class TestBrentMinimize:
    @staticmethod
    def run(f, lo, hi, x):
        """brent_minimize from x, with every point it evaluates."""
        seen = []

        def logged(t):
            seen.append(t)
            return f(t)

        fx, x = brent_minimize(logged, lo, hi, x, f(x))
        assert fx == f(x)
        return x, seen

    def test_parabola_minimum(self):
        x, _ = self.run(lambda t: (t - 0.3) ** 2, 0.0, 1.0, 0.5)
        assert abs(x - 0.3) <= 2e-14

    @pytest.mark.parametrize("start", ["lo", "hi"])
    @pytest.mark.parametrize("slope", [1.0, -1.0], ids=["min-at-lo", "min-at-hi"])
    def test_edge_minimum(self, slope, start):
        lo, hi = 0.25, 0.375
        x, _ = self.run(lambda t: slope * t, lo, hi, lo if start == "lo" else hi)
        # the stopping rule leaves the minimiser within 2 tol of x
        assert abs(x - (lo if slope > 0.0 else hi)) <= 2e-14

    @pytest.mark.parametrize("f", [
        lambda t: (t - 0.3) ** 2,
        lambda t: t,
        lambda t: -t,
        lambda t: math.cos(40.0 * t),
        lambda t: abs(t - 0.1),
    ], ids=["parabola", "rising", "falling", "cosine", "kink"])
    @pytest.mark.parametrize("start", [0.0, 0.05, 0.2])
    def test_never_evaluates_outside_the_bracket(self, f, start):
        _, seen = self.run(f, 0.0, 0.2, start)
        assert seen and all(0.0 <= t <= 0.2 for t in seen)

    def test_constant_function_terminates(self):
        x, seen = self.run(lambda t: 1.0, 0.0, 1.0, 0.5)
        assert 0.0 <= x <= 1.0
        assert len(seen) <= 100


class TestFitDistribution:
    @pytest.mark.parametrize("n_total", [7, 8, 9, 11, 50, 100, 300])
    @pytest.mark.parametrize("family", ["MB", "BE"])
    @pytest.mark.parametrize("p1", [0.07, 0.31, 0.5, 0.93])
    def test_recovers_planted_parameter(self, n_total, family, p1):
        params = DistParams(family=family, p1=p1, n_total=n_total)
        dataset = CountDataset(
            category="planted", n_total=n_total, observed=pmf_vector(params)
        )
        fit = fit_distribution(dataset, family)
        assert fit.params.p1 == pytest.approx(p1, abs=1e-6)
        assert fit.rss <= 1e-15
        assert fit.r2 == pytest.approx(1.0, abs=1e-9) or fit.r2 is None

    def test_uniform_dataset_reference_numbers(self):
        uniform = load_dataset("uniform11.json")
        mb = fit_distribution(uniform, "MB")
        be = fit_distribution(uniform, "BE")
        assert mb.params.p1 == pytest.approx(0.5, abs=1e-6)
        assert mb.rss == pytest.approx(0.0848547617594401, abs=1e-9)
        # uniform observations have zero variance, so R^2 is undefined
        assert mb.r2 is None
        assert mb.bic == pytest.approx(-56.93574317737722, abs=1e-6)
        assert be.params.p1 == 0.5
        assert be.rss == 0.0
        # zero-variance data fitted with zero residual: reported as perfect
        assert be.r2 == 1.0
        # an exact fit takes its BIC from the RSS floor
        assert be.bic == pytest.approx(-8316.640307926233, abs=1e-4)

    def test_planted_binomial_reference_numbers(self):
        planted = load_dataset("mb_exact_n9.json")
        mb = fit_distribution(planted, "MB")
        be = fit_distribution(planted, "BE")
        assert mb.params.p1 == pytest.approx(0.57, abs=1e-9)
        assert mb.rss <= 1e-15
        assert mb.r2 == pytest.approx(1.0, abs=1e-12)
        assert be.params.p1 == pytest.approx(0.6718181818, abs=1e-6)
        assert be.rss == pytest.approx(0.08261491955263364, abs=1e-9)
        assert be.r2 == pytest.approx(0.05502846430571873, abs=1e-6)

    def test_zero_rss_keeps_bic_finite(self):
        dataset = CountDataset(category="z", n_total=1, observed=(0.5, 0.5))
        fit = fit_distribution(dataset, "BE")
        assert math.isfinite(fit.bic)

    def test_unknown_family(self):
        uniform = load_dataset("uniform11.json")
        with pytest.raises(ValueError, match="family"):
            fit_distribution(uniform, "XY")

    def test_dataset_label_attached(self):
        uniform = load_dataset("uniform11.json")
        assert fit_distribution(uniform, "MB").dataset == "Uniform Survey"


def make_fit(family, bic, r2=0.9, n_total=9, dataset=None):
    return DistFit(
        params=DistParams(family=family, p1=0.5, n_total=n_total),
        rss=0.01,
        r2=r2,
        bic=bic,
        dataset=dataset,
    )


class TestCompareBic:
    def test_reference_datasets(self):
        uniform = load_dataset("uniform11.json")
        result = compare_bic(
            fit_distribution(uniform, "MB"), fit_distribution(uniform, "BE")
        )
        assert result.delta_bic == pytest.approx(8259.70456, abs=1e-3)
        assert result.winner == "BE"
        assert result.strength == "strong"
        planted = load_dataset("mb_exact_n9.json")
        result = compare_bic(
            fit_distribution(planted, "MB"), fit_distribution(planted, "BE")
        )
        assert result.winner == "MB"
        assert result.strength == "strong"

    def test_antisymmetric_in_argument_order(self):
        mb = make_fit("MB", -100.0)
        be = make_fit("BE", -90.0)
        forward = compare_bic(mb, be)
        backward = compare_bic(be, mb)
        assert forward.delta_bic == -backward.delta_bic
        assert forward.winner == backward.winner == "MB"
        assert forward.strength == backward.strength == "strong"

    def test_strength_boundaries(self):
        # strict thresholds: 6.0 is positive, 2.0 falls through to the
        # r2-separation rule
        assert compare_bic(make_fit("MB", -106.000001), make_fit("BE", -100.0)).strength == "strong"
        assert compare_bic(make_fit("MB", -106.0), make_fit("BE", -100.0)).strength == "positive"
        assert compare_bic(make_fit("MB", -103.0), make_fit("BE", -100.0)).strength == "positive"
        close = compare_bic(make_fit("MB", -102.0, r2=0.95), make_fit("BE", -100.0, r2=0.5))
        assert close.strength == "weak"
        tied = compare_bic(make_fit("MB", -102.0, r2=0.95), make_fit("BE", -100.0, r2=0.945))
        assert tied.strength == "none"

    def test_exact_tie_prefers_higher_r2(self):
        result = compare_bic(make_fit("MB", -100.0, r2=0.5), make_fit("BE", -100.0, r2=0.9))
        assert result.winner == "BE"
        assert compare_bic(make_fit("MB", -100.0, r2=0.9), make_fit("BE", -100.0, r2=0.5)).winner == "MB"

    def test_tie_with_equal_r2_defaults_to_mb(self):
        result = compare_bic(make_fit("MB", -100.0, r2=0.9), make_fit("BE", -100.0, r2=0.9))
        assert result.winner == "MB"

    def test_requires_one_fit_per_family(self):
        with pytest.raises(ValueError, match="MB"):
            compare_bic(make_fit("MB", -100.0), make_fit("MB", -90.0))

    def test_requires_matching_datasets(self):
        with pytest.raises(ValueError, match="different N"):
            compare_bic(make_fit("MB", -100.0), make_fit("BE", -90.0, n_total=7))
        with pytest.raises(ValueError, match="different datasets"):
            compare_bic(
                make_fit("MB", -100.0, dataset="a"), make_fit("BE", -90.0, dataset="b")
            )


class TestLinearRegression:
    def test_exact_line(self):
        result = linear_regression([1, 2, 3, 4], [2, 4, 6, 8])
        assert result.slope == 2.0
        assert result.intercept == 0.0
        assert result.r2 == 1.0
        assert result.mean == 5.0
        assert result.ci_low < 5.0 < result.ci_high
        assert result.n == 4

    def test_constant_series(self):
        result = linear_regression([1, 2, 3], [5, 5, 5])
        assert result.slope == 0.0
        assert result.r2 == 1.0
        assert result.ci_low == result.ci_high == 5.0

    def test_interval_narrows_with_confidence(self):
        xs = list(range(1, 11))
        ys = [0.1 * x + ((-1) ** x) * 0.05 for x in xs]
        wide = linear_regression(xs, ys, confidence=0.99)
        narrow = linear_regression(xs, ys, confidence=0.80)
        assert wide.ci_high - wide.ci_low > narrow.ci_high - narrow.ci_low

    def test_needs_three_points(self):
        with pytest.raises(InsufficientDataError, match="3"):
            linear_regression([1, 2], [1, 2])

    def test_length_mismatch(self):
        with pytest.raises(InsufficientDataError, match="mismatch"):
            linear_regression([1, 2, 3], [1, 2])

    def test_degenerate_abscissa(self):
        with pytest.raises(InsufficientDataError, match="identical"):
            linear_regression([1, 1, 1], [1, 2, 3])

    def test_confidence_range(self):
        with pytest.raises(DataValidationError, match="confidence"):
            linear_regression([1, 2, 3], [1, 2, 3], confidence=1.5)

    def test_half_width_matches_textbook_t_value(self):
        # df = 2: P(|T| <= t) = t / sqrt(2 + t^2), so t = c * sqrt(2 / (1 - c^2)) exactly
        t_975_2 = 0.95 * math.sqrt(2.0 / (1.0 - 0.95**2))
        assert t_975_2 == pytest.approx(4.302652729749462, rel=1e-15)
        result = linear_regression([1, 2, 3], [1.0, 3.0, 2.0], confidence=0.95)
        # ys have mean 2 and sample variance 1, so the half-width is t / sqrt(3)
        half_width = (result.ci_high - result.ci_low) / 2.0
        assert half_width == pytest.approx(t_975_2 / math.sqrt(3.0), rel=1e-12)


class TestStudentTQuantile:
    def test_matches_scipy(self):
        from scipy.stats import t as student_t  # test-only oracle

        for df in [*range(2, 401), 1000, 5000]:
            for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                expected = student_t.ppf((1.0 + confidence) / 2.0, df)
                assert _t_quantile(confidence, df) == pytest.approx(expected, rel=1e-10), (
                    df, confidence,
                )

    def test_df_two_closed_form_at_extremes(self):
        # scipy's (1 + c) / 2 loses tiny confidences; at df = 2 the exact value is known.
        # Near c = 1 the CDF is flat, so its last-bit rounding moves t by ~1e-7 relative.
        for confidence in (5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-9):
            exact = confidence * math.sqrt(2.0 / ((1.0 - confidence) * (1.0 + confidence)))
            assert _t_quantile(confidence, 2) == pytest.approx(exact, rel=1e-6)


EDGE_CONFIDENCES = st.floats(
    min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True
) | st.sampled_from([5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, math.nextafter(1.0, 0.0)])


@settings(max_examples=150, deadline=None)
@given(
    df=st.integers(min_value=2, max_value=500),
    confidence=EDGE_CONFIDENCES,
    other=EDGE_CONFIDENCES,
    ulps=st.integers(min_value=0, max_value=3),
)
def test_t_quantile_finite_positive_and_monotone(df, confidence, other, ulps):
    # compare with an independent confidence and with one a few ulps above
    nearby = confidence
    for _ in range(ulps):
        nearby = min(math.nextafter(nearby, 1.0), math.nextafter(1.0, 0.0))
    quantile = _t_quantile(confidence, df)
    assert 0.0 < quantile < math.inf
    assert quantile <= _t_quantile(nearby, df)
    lower, upper = sorted((confidence, other))
    assert 0.0 < _t_quantile(lower, df) <= _t_quantile(upper, df) < math.inf


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(["MB", "BE"]),
    weights=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=61
    ).filter(lambda ws: sum(ws) > 0.0),
)
def test_fit_rss_is_bit_identical_to_pmf_vector(family, weights):
    # the fit's tabulated evaluator must not drift from the public pmf
    total = sum(weights)
    observed = tuple(w / total for w in weights)
    dataset = CountDataset(category="drawn", n_total=len(observed) - 1, observed=observed)
    fit = fit_distribution(dataset, family)
    pmf = pmf_vector(fit.params)
    assert fit.rss == _sum((p - o) ** 2 for p, o in zip(pmf, dataset.observed))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def bracketed_multistart_fit(observed):
    """Oracle for the MB fit: the least (rss, p1) of 16 golden-section searches and both ends.

    Each search narrows one bracket [i/16, (i+1)/16] to 1e-9, so it finds a
    minimum only where its bracket holds one; the fit must never lose to it.
    """
    rss_at = stats._rss_evaluator(len(observed) - 1, observed)

    def golden_section(lo, hi):
        h = hi - lo
        c, d = lo + _INV_PHI2 * h, lo + _INV_PHI * h
        fc, fd = rss_at(c), rss_at(d)
        for _ in range(math.ceil(math.log(1e-9 / h) / math.log(_INV_PHI))):
            h *= _INV_PHI
            if fc < fd:
                hi, d, fd = d, c, fc
                c = lo + _INV_PHI2 * h
                fc = rss_at(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + _INV_PHI * h
                fd = rss_at(d)
        return (lo + hi) / 2.0

    starts = [golden_section(i / 16.0, (i + 1) / 16.0) for i in range(16)]
    return min((rss_at(p1), p1) for p1 in (*starts, 0.0, 1.0))


def binomial_mixture(n_total, weight, a, b, noise=()):
    """Normalised weight * Bin(N, a) + (1 - weight) * Bin(N, b), each term times (1 + noise)."""
    first = pmf_vector(DistParams(family="MB", p1=a, n_total=n_total))
    second = pmf_vector(DistParams(family="MB", p1=b, n_total=n_total))
    noise = noise or (0.0,) * (n_total + 1)
    mix = [(weight * x + (1.0 - weight) * y) * (1.0 + z) for x, y, z in zip(first, second, noise)]
    total = _sum(mix)
    return CountDataset(category="mixture", n_total=n_total, observed=tuple(m / total for m in mix))


@st.composite
def mixtures(draw):
    n_total = draw(st.integers(min_value=1, max_value=60))
    unit = st.floats(min_value=0.0, max_value=1.0)
    amplitude = draw(st.sampled_from([0.0, 0.3, 0.9]))
    noise = draw(st.lists(st.floats(min_value=-amplitude, max_value=amplitude),
                          min_size=n_total + 1, max_size=n_total + 1))
    return binomial_mixture(n_total, draw(unit), draw(unit), draw(unit), tuple(noise))


@settings(max_examples=30, deadline=None)
@given(dataset=mixtures())
# exact fits: a 1e-12 Brent tolerance stops at RSS 1.2e-24, where the multistart has 6.5e-25
@example(dataset=binomial_mixture(24, 1.0, 0.2979344233126421, 0.2979344233126421))
# the grid point 0.95 is the minimiser, with RSS 1.5e-32; two ulps from it the RSS is 2.2e-30
@example(dataset=binomial_mixture(7, 1.0, 0.95, 0.95))
def test_mb_fit_never_loses_to_the_multistart_or_a_fine_grid(dataset):
    fit = fit_distribution(dataset, "MB")
    rss_at = stats._rss_evaluator(dataset.n_total, dataset.observed)
    oracle_rss, _ = bracketed_multistart_fit(dataset.observed)
    assert fit.rss <= oracle_rss * (1.0 + 1e-12) + 1e-30
    for i in range(1001):
        p1 = i / 1000.0
        # a grid point within the stopping rule's 2 * _P1_TOL of the fit is the same minimum
        near = abs(fit.params.p1 - p1) <= 2.0 * stats._P1_TOL
        assert near or fit.rss <= rss_at(p1) * (1.0 + 1e-12) + 1e-30


def test_mb_fit_finds_the_minimum_two_close_peaks_hide():
    # two minima closer than 1/16 shared one bracket of the bracketed multistart
    dataset = binomial_mixture(800, 0.5029426772934626, 0.8310678415317, 0.869177276716651)
    fit = fit_distribution(dataset, "MB")
    assert abs(fit.params.p1 - 0.861216) <= 1e-6
    assert fit.rss <= 0.0113958570


def count_rss_evaluations(monkeypatch):
    calls = []
    evaluator = stats._rss_evaluator

    def counting(*args):
        rss_at = evaluator(*args)

        def counted(p1):
            calls.append(p1)
            return rss_at(p1)

        return counted

    monkeypatch.setattr(stats, "_rss_evaluator", counting)
    return calls


def seeded_mixture(n_total, seed):
    rng = random.Random(seed)
    return binomial_mixture(n_total, rng.random(), rng.random(), rng.random())


@pytest.mark.parametrize("dataset, budget", [
    (lambda: load_dataset("uniform11.json"), 80),
    (lambda: seeded_mixture(300, seed=300), 200),
], ids=["uniform11", "mixture-N300"])
def test_mb_fit_evaluation_budget(monkeypatch, dataset, budget):
    # counts, not timings: a search that regresses to hundreds of O(N) calls fails here
    data = dataset()
    calls = count_rss_evaluations(monkeypatch)
    fit_distribution(data, "MB")
    assert 0 < len(calls) <= budget


def exact_be_minimiser(observed):
    """The BE p1 of least RSS on [0, 1], in exact arithmetic from the float observations."""
    big_n = len(observed) - 1
    scale = Fraction(big_n * (big_n + 1), 2)
    base = [Fraction(big_n - n) / scale for n in range(big_n + 1)]
    slope = [Fraction(2 * n - big_n) / scale for n in range(big_n + 1)]
    # the RSS is a parabola in p1: its normal equation, then the clip to [0, 1]
    numerator = sum(d * (Fraction(o) - c) for c, d, o in zip(base, slope, observed))
    p1 = numerator / sum(d * d for d in slope)
    return min(max(p1, Fraction(0)), Fraction(1))


@settings(max_examples=100, deadline=None)
@given(
    weights=st.integers(min_value=1, max_value=300).flatmap(
        lambda n_total: st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=n_total + 1, max_size=n_total + 1
        )
    ).filter(lambda ws: sum(ws) > 0.0),
)
def test_be_fit_is_the_exact_minimiser(weights):
    total = sum(weights)
    observed = tuple(w / total for w in weights)
    dataset = CountDataset(category="drawn", n_total=len(observed) - 1, observed=observed)
    p1 = fit_distribution(dataset, "BE").params.p1
    assert abs(Fraction(p1) - exact_be_minimiser(observed)) <= 2e-15


@pytest.mark.parametrize("n_total", [1, 2, 11, 300])
@pytest.mark.parametrize("at, p1", [(0, 0.0), (-1, 1.0)], ids=["n=0", "n=N"])
def test_be_fit_clips_to_the_end_holding_all_mass(n_total, at, p1):
    observed = [0.0] * (n_total + 1)
    observed[at] = 1.0
    dataset = CountDataset(category="edge", n_total=n_total, observed=tuple(observed))
    assert fit_distribution(dataset, "BE").params.p1 == p1


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["MB", "BE"]),
    p1=st.floats(min_value=0.0, max_value=1.0),
    n_total=st.integers(min_value=1, max_value=14),
)
def test_pmf_always_a_distribution(family, p1, n_total):
    params = DistParams(family=family, p1=p1, n_total=n_total)
    vector = pmf_vector(params)
    assert len(vector) == n_total + 1
    assert sum(vector) == pytest.approx(1.0, abs=1e-9)
    assert all(v >= -1e-15 for v in vector)


def test_qcm_runs_without_importing_scipy(tmp_path):
    # numpy and scipy are test-only oracles; qcm must not load them, even while
    # running chsh --model (the last user of numpy) or plotting
    probe = (
        "import sys, qcm\n"
        "from qcm import cli\n"
        "def absent(when):\n"
        "    for name in ('numpy', 'scipy'):\n"
        "        assert name not in sys.modules, f'{when} loaded {name}'\n"
        "absent('import qcm')\n"
        "assert cli.main(['classicality', '--input', 'data/goldfish.csv']) == 0\n"
        "absent('classicality')\n"
        "assert cli.main(['chsh', '--input', 'data/animal_acts_table.json',\n"
        "                 '--model', 'data/animal_acts_model.json']) == 0\n"
        "absent('chsh --model')\n"
        "assert cli.main(['stats-fit', '--input', 'data/uniform11.json',\n"
        f"                 '--plot', {str(tmp_path / 'plot.svg')!r}]) == 0\n"
        "absent('stats-fit --plot')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=child_env(), cwd=REPO_ROOT,
    )
    assert done.returncode == 0, done.stderr


def test_package_imports_only_the_standard_library():
    for path in sorted((REPO_ROOT / "src" / "qcm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # relative imports name qcm itself
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names | {"qcm"}, f"{path.name}: {module}"


def test_package_sums_only_through_one_helper():
    # Python 3.12 made the built-in sum of floats compensated; qcm's output must
    # not depend on the interpreter, so every sum goes through data._sum
    for path in sorted((REPO_ROOT / "src" / "qcm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "sum", f"{path.name}:{node.lineno}: bare sum()"


def test_package_reads_no_environment_variable():
    # the output depends only on argv and the input
    for path in sorted((REPO_ROOT / "src" / "qcm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name not in {"environ", "environb", "getenv", "getenvb"}, (
                    f"{path.name}:{node.lineno}: os.{name}"
                )
