"""Count-distribution fitting, BIC comparison, and regression helpers."""

from __future__ import annotations

import ast
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, REPO_ROOT, child_env
from qcm import (
    BicComparison,
    CountDataset,
    DataValidationError,
    DistFit,
    DistParams,
    InsufficientDataError,
    be_pmf,
    compare_bic,
    fit_distribution,
    linear_regression,
    mb_pmf,
    parse_count_datasets,
    pmf_vector,
)
from qcm.stats import _t_quantile, golden_section_minimize


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
        params = DistParams(family="MB", p1=0.5, n_total=11)
        assert mb_pmf(params, 0) == 0.00048828125
        assert mb_pmf(params, 1) == 0.00537109375
        assert mb_pmf(params, 5) == 0.2255859375

    def test_matches_fraction_arithmetic(self):
        params = DistParams(family="MB", p1=0.25, n_total=9)
        for n in range(10):
            exact = math.comb(9, n) * Fraction(1, 4) ** n * Fraction(3, 4) ** (9 - n)
            assert mb_pmf(params, n) == pytest.approx(float(exact), rel=1e-14)

    def test_degenerate_endpoints(self):
        params = DistParams(family="MB", p1=1.0, n_total=5)
        assert mb_pmf(params, 5) == 1.0
        assert mb_pmf(params, 0) == 0.0

    def test_family_guard(self):
        with pytest.raises(ValueError, match="MB"):
            mb_pmf(DistParams(family="BE", p1=0.5, n_total=9), 1)

    def test_occupation_range(self):
        with pytest.raises(ValueError, match="range"):
            mb_pmf(DistParams(family="MB", p1=0.5, n_total=9), 10)


class TestOccupationSplitPmf:
    def test_balanced_split_is_uniform_exactly(self):
        # (n + (11-n)) * 0.5 / 66 == 1/12 in floating point for every n
        params = DistParams(family="BE", p1=0.5, n_total=11)
        for n in range(12):
            assert be_pmf(params, n) == 1.0 / 12.0

    def test_fully_tilted_split_is_linear(self):
        params = DistParams(family="BE", p1=1.0, n_total=11)
        assert be_pmf(params, 0) == 0.0
        assert be_pmf(params, 11) == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert be_pmf(params, 6) == pytest.approx(6.0 / 66.0, abs=1e-15)

    def test_family_guard(self):
        with pytest.raises(ValueError, match="BE"):
            be_pmf(DistParams(family="MB", p1=0.5, n_total=9), 1)


class TestPmfVector:
    @pytest.mark.parametrize("family", ["MB", "BE"])
    @pytest.mark.parametrize("p1", [0.0, 0.3, 0.57, 1.0])
    def test_normalized(self, family, p1):
        params = DistParams(family=family, p1=p1, n_total=9)
        vector = pmf_vector(params)
        assert len(vector) == 10
        assert sum(vector) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0.0 for v in vector)


class TestGoldenSection:
    def test_parabola_minimum(self):
        x = golden_section_minimize(lambda t: (t - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-8)

    def test_edge_minimum(self):
        x = golden_section_minimize(lambda t: t, 0.0, 1.0)
        assert x == pytest.approx(0.0, abs=1e-8)


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
        assert be.params.p1 == pytest.approx(0.5, abs=1e-6)
        assert be.rss <= 1e-15
        # zero-variance data fitted with zero residual: reported as perfect
        assert be.r2 == 1.0
        assert be.bic == pytest.approx(-599.5894091960124, abs=1e-4)

    def test_planted_binomial_reference_numbers(self):
        planted = load_dataset("mb_exact_n9.json")
        mb = fit_distribution(planted, "MB")
        be = fit_distribution(planted, "BE")
        assert mb.params.p1 == pytest.approx(0.57, abs=1e-9)
        assert mb.rss <= 1e-15
        assert mb.r2 == pytest.approx(1.0, abs=1e-12)
        assert be.params.p1 == pytest.approx(0.6718181922, abs=1e-6)
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
        assert result.delta_bic == pytest.approx(542.65366, abs=1e-3)
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
    assert fit.rss == sum((p - o) ** 2 for p, o in zip(pmf_vector(fit.params), dataset.observed))


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
