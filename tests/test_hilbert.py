"""Four-dimensional complex model layer: expectations, box diagnostics, tensor tests."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from conftest import (
    DATA_DIR,
    born_product_table,
    local_model_table,
    nearest_product_oracle,
)
from qcm import (
    BLOCKS,
    NONLOCAL_NON_MARGINAL_BOX_1,
    TSIRELSON_BOUND,
    ChshReport,
    CoincidenceOutcome,
    CoincidenceTable,
    ComplexVector4,
    DataValidationError,
    Observable4,
    SchemaError,
    expectation,
    expectations_from_table,
    marginal_law_check,
    operator_product_test,
    parse_model,
    state_schmidt,
    verify_reference_model,
)
from qcm.hilbert import _eigvalsh, _parse_complex, realign

SIGMA_Z = np.diag([1.0, -1.0])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
ZZ = np.kron(SIGMA_Z, SIGMA_Z)
BELL = ComplexVector4((2**-0.5, 0.0, 0.0, 2**-0.5))


def model_doc(state) -> dict:
    """A model file's document: ``state`` as given, Z (x) Z for every block."""
    return {"state": state, "operators": {key: ZZ.tolist() for key in BLOCKS}}


@pytest.fixture(scope="module")
def chsh_report(animal_table):
    return expectations_from_table(animal_table)


@pytest.fixture(scope="module")
def verification(animal_model, animal_table):
    return verify_reference_model(animal_model, animal_table)


class TestComplexVector4:
    def test_requires_four_amplitudes(self):
        with pytest.raises(DataValidationError, match="4 amplitudes"):
            ComplexVector4((1.0, 0.0, 0.0))

    def test_state_must_be_normalized(self):
        with pytest.raises(DataValidationError, match="norm"):
            ComplexVector4((1.0, 1.0, 0.0, 0.0))

    def test_norm_tolerance_window(self):
        # reference amplitudes are quoted to two decimals; norm 0.9999 passes
        ComplexVector4((0.23, 0.62, 0.75, 0.0))
        with pytest.raises(DataValidationError, match="by more than 0.001"):
            ComplexVector4((0.23, 0.62, 0.75, 0.05))  # norm 1.00115

    def test_non_state_vectors_skip_the_norm_check(self):
        ComplexVector4((3.0, 4.0, 0.0, 0.0), is_state=False)


class TestObservable4:
    def test_dichotomic_two_plus_two_spectrum_accepted(self):
        obs = Observable4(ZZ)
        assert isinstance(obs.matrix, tuple)
        with pytest.raises(TypeError):
            obs.matrix[0][0] = 0.0

    def test_source_array_is_copied(self):
        raw = ZZ.copy()
        obs = Observable4(raw)
        raw[0, 0] = 99.0
        assert obs.matrix[0][0] == 1.0

    def test_shape_enforced(self):
        with pytest.raises(DataValidationError, match="4x4"):
            Observable4(SIGMA_Z)

    def test_hermiticity_enforced(self):
        skew = np.zeros((4, 4))
        skew[0, 1] = 1.0
        with pytest.raises(DataValidationError, match="Hermitian"):
            Observable4(skew)

    def test_trace_enforced(self):
        with pytest.raises(DataValidationError, match="trace"):
            Observable4(np.eye(4))

    def test_spectrum_enforced(self):
        # traceless and Hermitian, but eigenvalues are not two pairs of +-1
        with pytest.raises(DataValidationError, match="eigenvalue"):
            Observable4(np.diag([2.0, -2.0, 1.0, -1.0]))


class TestExpectation:
    def test_bell_state_correlations(self):
        assert expectation(BELL, ZZ).value == pytest.approx(1.0, abs=1e-12)
        assert expectation(BELL, np.kron(SIGMA_X, SIGMA_X)).value == pytest.approx(
            1.0, abs=1e-12
        )
        assert expectation(BELL, np.kron(SIGMA_Z, SIGMA_X)).value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_accepts_wrapped_observable(self):
        assert expectation(BELL, Observable4(ZZ)).value == pytest.approx(1.0)

    def test_imag_part_reported(self):
        value = expectation(BELL, ZZ)
        assert value.imag_part == pytest.approx(0.0, abs=1e-12)

    def test_raw_matrix_must_be_hermitian(self):
        skew = np.zeros((4, 4))
        skew[0, 1] = 1.0
        with pytest.raises(DataValidationError, match="Hermitian"):
            expectation(BELL, skew)


class TestChshFromTable:
    def test_reference_expectation_values(self, chsh_report):
        assert chsh_report.e_ab == pytest.approx(-0.778, abs=1e-12)
        assert chsh_report.e_abp == pytest.approx(0.358, abs=1e-12)
        assert chsh_report.e_apb == pytest.approx(0.655, abs=1e-12)
        assert chsh_report.e_apbp == pytest.approx(0.630, abs=1e-12)

    def test_reference_chsh_value(self, chsh_report):
        assert chsh_report.chsh == pytest.approx(2.421, abs=1e-12)
        assert chsh_report.classical_violated
        assert chsh_report.tsirelson_respected

    def test_combination_signs(self, chsh_report):
        combined = (
            chsh_report.e_apbp
            + chsh_report.e_apb
            + chsh_report.e_abp
            - chsh_report.e_ab
        )
        assert chsh_report.chsh == pytest.approx(combined, abs=1e-12)

    def test_expectations_mapping(self, chsh_report):
        assert chsh_report.expectations() == {
            "AB": chsh_report.e_ab,
            "ABp": chsh_report.e_abp,
            "ApB": chsh_report.e_apb,
            "ApBp": chsh_report.e_apbp,
        }

    def test_report_bounds_validated(self):
        with pytest.raises(DataValidationError):
            ChshReport(
                e_ab=1.5,
                e_abp=0.0,
                e_apb=0.0,
                e_apbp=0.0,
                chsh=-1.5,
                classical_violated=False,
                tsirelson_respected=True,
            )

    def test_report_bounds_admit_every_parsable_table(self):
        # a block may sum to 1.001, so |E| may reach 1.001 and |CHSH| 4.004
        ChshReport(
            e_ab=-1.001,
            e_abp=1.001,
            e_apb=1.001,
            e_apbp=1.001,
            chsh=4.004,
            classical_violated=True,
            tsirelson_respected=False,
        )
        with pytest.raises(DataValidationError, match=r"outside \[-1.001, 1.001\]"):
            ChshReport(
                e_ab=1.0011,
                e_abp=0.0,
                e_apb=0.0,
                e_apbp=0.0,
                chsh=-1.0011,
                classical_violated=False,
                tsirelson_respected=True,
            )

    def test_local_models_respect_classical_bound(self):
        rng = random.Random(20240815)
        for _ in range(300):
            report = expectations_from_table(local_model_table(rng))
            assert abs(report.chsh) <= 2.0 + 1e-9

    def test_born_product_tables_respect_tsirelson(self):
        rng = np.random.default_rng(20240815)
        for _ in range(300):
            report = expectations_from_table(born_product_table(rng))
            assert abs(report.chsh) <= TSIRELSON_BOUND + 1e-9


class TestMarginalLawCheck:
    def test_reference_table_violates_all_eight(self, animal_table):
        comparisons = marginal_law_check(animal_table)
        assert len(comparisons) == 8
        assert all(c.violated for c in comparisons)
        by_label = {c.label: c for c in comparisons}
        horse = by_label["Horse"]
        assert horse.block_a == "AB" and horse.block_b == "ABp"
        assert horse.lhs == pytest.approx(0.679, abs=1e-12)
        assert horse.rhs == pytest.approx(0.618, abs=1e-12)
        tiger = by_label["Tiger"]
        assert tiger.lhs == pytest.approx(0.864, abs=1e-12)
        assert tiger.rhs == pytest.approx(0.234, abs=1e-12)

    def test_both_sides_of_each_pairing_checked(self, animal_table):
        labels = {c.label for c in marginal_law_check(animal_table)}
        assert labels == {
            "Horse", "Bear", "Tiger", "Cat", "Growls", "Whinnies", "Snorts", "Meows",
        }

    def test_consistent_tables_pass(self):
        rng = random.Random(3)
        comparisons = marginal_law_check(local_model_table(rng))
        assert not any(c.violated for c in comparisons)

    def test_tolerance_controls_verdict(self, animal_table):
        lenient = marginal_law_check(animal_table, tolerance=1.0)
        assert not any(c.violated for c in lenient)

    def test_label_mismatch_rejected(self):
        # renaming one block's first-side outcomes makes the per-label sums
        # incomparable, which is a schema problem rather than a violation
        from qcm import parse_coincidence

        doc = json.loads(DATA_DIR.joinpath("animal_acts_table.json").read_text())
        doc["ABp"][0]["first"] = "Unicorn"
        doc["ABp"][1]["first"] = "Unicorn"
        with pytest.raises(SchemaError, match="label"):
            marginal_law_check(parse_coincidence(json.dumps(doc)))


class TestStateSchmidt:
    def test_product_state_rank_one(self):
        report = state_schmidt(ComplexVector4((1.0, 0.0, 0.0, 0.0)))
        assert report.rank == 1
        assert report.singular_values[0] == pytest.approx(1.0, abs=1e-12)

    def test_bell_state_rank_two(self):
        report = state_schmidt(BELL)
        assert report.rank == 2
        assert report.singular_values == pytest.approx((2**-0.5, 2**-0.5), abs=1e-12)

    def test_reference_state_decomposition(self, animal_model):
        report = state_schmidt(ComplexVector4(animal_model.state))
        assert report.rank == 2
        assert report.singular_values[0] == pytest.approx(0.8266846558887299, abs=1e-9)
        assert report.singular_values[1] == pytest.approx(0.5624877596162714, abs=1e-9)

    def test_singular_values_square_sum_to_norm(self, animal_model):
        report = state_schmidt(ComplexVector4(animal_model.state))
        norm2 = sum(abs(a) ** 2 for a in animal_model.state)
        assert sum(s**2 for s in report.singular_values) == pytest.approx(
            norm2, abs=1e-12
        )


class TestOperatorSchmidt:
    def test_realign_maps_products_to_rank_one(self):
        realigned = realign(np.kron(SIGMA_Z, SIGMA_X))
        assert np.linalg.matrix_rank(realigned) == 1

    def test_product_operator_detected(self):
        report = operator_product_test(np.kron(SIGMA_Z, SIGMA_X))
        assert report.product
        assert report.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert report.coefficients[1] == pytest.approx(0.0, abs=1e-12)
        assert report.nearest_product_error == pytest.approx(0.0, abs=1e-9)

    def test_entangling_sum_detected(self):
        # Z x Z + X x X has two equal Schmidt coefficients
        report = operator_product_test(ZZ + np.kron(SIGMA_X, SIGMA_X))
        assert not report.product
        assert report.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert report.coefficients[1] == pytest.approx(2.0, abs=1e-12)

    def test_reference_operators_all_entangled(self, animal_model):
        for key in ("AB", "ABp", "ApB", "ApBp"):
            report = operator_product_test(animal_model.operators[key])
            assert not report.product
            assert report.nearest_product_error > 0.1

    def test_reference_coefficients(self, animal_model):
        report = operator_product_test(animal_model.operators["AB"])
        assert report.coefficients == pytest.approx(
            (1.9246, 0.4658, 0.266, 0.066), abs=5e-4
        )

    def test_error_matches_independent_minimizer(self, animal_model):
        # alternating least squares gives the same distance as the
        # singular-value tail of the realigned operator
        for key in ("AB", "ApBp"):
            matrix = animal_model.operators[key]
            report = operator_product_test(matrix)
            assert report.nearest_product_error == pytest.approx(
                nearest_product_oracle(matrix), abs=1e-6
            )

    def test_error_matches_oracle_on_random_hermitian(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        matrix = raw + raw.conj().T
        report = operator_product_test(matrix)
        assert report.nearest_product_error == pytest.approx(
            nearest_product_oracle(matrix), abs=1e-6
        )


class TestParseModel:
    def test_bundled_model_parses(self, animal_model):
        assert len(animal_model.state) == 4
        assert set(animal_model.operators) == {"AB", "ABp", "ApB", "ApBp"}
        matrix = animal_model.operators["AB"]
        assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
        assert all(type(entry) is complex for row in matrix for entry in row)

    def test_polar_form_conversion(self, animal_model):
        amp = animal_model.state[0]
        assert abs(amp) == pytest.approx(0.23, abs=1e-12)
        assert math.degrees(math.atan2(amp.imag, amp.real)) == pytest.approx(13.93)

    def test_rectangular_and_plain_number_forms(self):
        doc = model_doc([1.0, 0, {"re": 0.0, "im": 0.0}, {"mod": 0.0, "argDeg": 0.0}])
        model = parse_model(json.dumps(doc))
        assert model.state == (1 + 0j, 0j, 0j, 0j)

    def test_polar_degrees_value(self):
        doc = model_doc([{"mod": 1.0, "argDeg": 90.0}, 0.0, 0.0, 0.0])
        state = parse_model(json.dumps(doc)).state
        assert state[0] == pytest.approx(1j, abs=1e-12)
        assert all(type(a) is complex for a in state)

    def test_missing_operator_block(self, animal_model):
        doc = json.loads(DATA_DIR.joinpath("animal_acts_model.json").read_text())
        del doc["operators"]["ApBp"]
        with pytest.raises(SchemaError, match="ApBp"):
            parse_model(json.dumps(doc))

    def test_malformed_complex_entry(self):
        doc = json.loads(DATA_DIR.joinpath("animal_acts_model.json").read_text())
        doc["state"][0] = {"mod": 0.23}
        with pytest.raises(SchemaError, match="state\\[0\\]"):
            parse_model(json.dumps(doc))

    def test_wrong_operator_shape(self):
        # parse_model checks only the JSON types it walks; HilbertModel checks the shape
        doc = json.loads(DATA_DIR.joinpath("animal_acts_model.json").read_text())
        doc["operators"]["AB"] = [[0, 1], [1, 0]]
        with pytest.raises(DataValidationError, match=r"operator AB must be 4x4, got rows of "
                           r"lengths \[2, 2\]"):
            parse_model(json.dumps(doc))
        doc["operators"]["AB"] = [0, 1, 1, 0]
        with pytest.raises(SchemaError, match="operator AB: expected an array of arrays"):
            parse_model(json.dumps(doc))

    def test_wrong_state_shape(self):
        doc = model_doc([1.0, 0.0, 0.0])
        with pytest.raises(DataValidationError, match="state needs 4 amplitudes, got 3"):
            parse_model(json.dumps(doc))
        doc["state"] = {"re": 1.0, "im": 0.0}
        with pytest.raises(SchemaError, match="hilbert model: state must be an array"):
            parse_model(json.dumps(doc))


class TestVerifyReferenceModel:
    def test_reference_model_passes_all_checks(self, verification):
        assert verification.all_passed
        assert verification.classification == NONLOCAL_NON_MARGINAL_BOX_1
        names = [item.name for item in verification.checks]
        assert len(names) == 15
        assert names[0] == "state.norm"
        assert "box_classification" in names

    def test_expectation_checks_within_tolerance(self, verification):
        for key, table_value in (
            ("AB", -0.778), ("ABp", 0.358), ("ApB", 0.655), ("ApBp", 0.630),
        ):
            item = verification.check(f"expectation[{key}]")
            assert item.passed
            assert f"{table_value:.4f}" in item.detail

    def test_chsh_report_embedded(self, verification):
        assert verification.chsh.chsh == pytest.approx(2.421, abs=1e-12)

    def test_unknown_check_lookup(self, verification):
        with pytest.raises(KeyError):
            verification.check("no-such-check")

    def test_tampered_state_fails_named_checks(self, animal_model, animal_table):
        from qcm import HilbertModel

        tampered = HilbertModel(
            state=(1.0 + 0j, 0j, 0j, 0j), operators=dict(animal_model.operators)
        )
        report = verify_reference_model(tampered, animal_table)
        assert not report.all_passed
        assert not report.check("state.schmidt_rank").passed
        # the classification describes the table, which did not change
        assert report.classification == NONLOCAL_NON_MARGINAL_BOX_1

    def test_local_table_gets_no_classification(self, animal_model):
        report = verify_reference_model(animal_model, local_model_table(random.Random(6)))
        assert report.classification is None
        assert not report.check("box_classification").passed

    def test_tightened_tolerance_fails_expectations(self, animal_model, animal_table):
        # moving 0.015 of A'B's probability from a +1 to a -1 outcome lowers the
        # table's E(A',B) from 0.655 to 0.625; the model's 0.6503 then misses it
        # by 0.0253, past the 0.02 expectation tolerance
        block = list(animal_table.apb)
        plus = next(i for i, o in enumerate(block) if o.sign == 1)
        minus = next(i for i, o in enumerate(block) if o.sign == -1)
        for i, shift in ((plus, -0.015), (minus, 0.015)):
            o = block[i]
            block[i] = CoincidenceOutcome(o.first, o.second, o.sign, o.p + shift)
        t = animal_table
        perturbed = CoincidenceTable(t.ab, t.abp, tuple(block), t.apbp)
        report = verify_reference_model(animal_model, perturbed)
        assert not report.all_passed
        assert report.check("expectation[AB]").passed
        assert not report.check("expectation[ApB]").passed

    def test_huge_state_fails_norm_check_without_overflow(self, animal_model, animal_table):
        from qcm import HilbertModel

        huge = HilbertModel(state=(1e300, 0, 0, 0), operators=animal_model.operators)
        report = verify_reference_model(huge, animal_table)
        assert not report.check("state.norm").passed
        assert "1e+300" in report.check("state.norm").detail

    def test_never_raises_on_broken_operator(self, animal_model, animal_table):
        from qcm import HilbertModel

        broken = dict(animal_model.operators)
        broken["AB"] = np.eye(4)
        report = verify_reference_model(
            HilbertModel(state=animal_model.state, operators=broken), animal_table
        )
        assert not report.all_passed
        assert not report.check("observable[AB].invariants").passed


class TestNumberPolicy:
    """Models built in code follow the parser's policy: strings and bools are not numbers."""

    @pytest.mark.parametrize("bad", ["1", b"1", True])
    def test_state_entries(self, bad):
        with pytest.raises(DataValidationError, match=r"amplitude\[0\]=.* is not a number"):
            ComplexVector4((bad, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", ["1", b"1", True])
    def test_polar_entries(self, bad):
        # parse_model's {mod, argDeg} conversion, the one polar form
        with pytest.raises(DataValidationError, match=r"state\[0\]=.* is not a number"):
            _parse_complex({"mod": bad, "argDeg": 0.0}, "state[0]")
        with pytest.raises(DataValidationError, match=r"state\[1\]=.* is not a number"):
            _parse_complex({"mod": 0.0, "argDeg": bad}, "state[1]")

    @pytest.mark.parametrize("bad", ["1", b"1", True])
    def test_model_entries(self, bad, animal_model):
        from qcm import HilbertModel

        with pytest.raises(DataValidationError, match=r"state\[0\]=.* is not a number"):
            HilbertModel(state=(bad, 0.0, 0.0, 0.0), operators=animal_model.operators)
        operators = dict(animal_model.operators)
        operators["AB"] = [[bad, 0, 0, 0], *animal_model.operators["AB"][1:]]
        with pytest.raises(DataValidationError, match=r"operator AB\[0\]\[0\]="):
            HilbertModel(state=animal_model.state, operators=operators)

    @pytest.mark.parametrize("bad", ["1", b"1", True])
    def test_matrix_entries(self, bad):
        rows = [list(row) for row in ZZ]
        rows[2][2] = bad
        with pytest.raises(DataValidationError, match=r"observable\[2\]\[2\]="):
            Observable4(rows)
        with pytest.raises(DataValidationError, match=r"observable\[2\]\[2\]="):
            expectation(BELL, rows)

    def test_numpy_scalars_accepted(self):
        assert ComplexVector4(np.array([1, 0, 0, 0])).amplitudes == (1, 0, 0, 0)
        assert ComplexVector4(np.array([1j, 0, 0, 0])).amplitudes == (1j, 0, 0, 0)
        assert Observable4(ZZ.astype(np.float32)).matrix[3][3] == 1


def _random_hermitian(rng) -> np.ndarray:
    """Alternately a Gaussian Hermitian matrix, a +-1 observable, or a product A (x) B."""
    kind = rng.integers(3)
    if kind == 0:
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        return (raw + raw.conj().T) * 10.0 ** rng.uniform(-3, 3)
    if kind == 1:
        unitary, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        return unitary @ np.diag([1.0, 1.0, -1.0, -1.0]) @ unitary.conj().T
    a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
    return np.kron(a + a.conj().T, b + b.conj().T)


def test_linear_algebra_matches_numpy_oracle():
    rng = np.random.default_rng(20240816)
    verdicts = set()
    for _ in range(2000):
        matrix = _random_hermitian(rng)
        expected = np.linalg.eigvalsh(matrix)
        assert np.abs(np.array(_eigvalsh(matrix)) - expected).max() <= 1e-12 * np.abs(
            expected
        ).max()

        singular = np.linalg.svd(np.array(realign(matrix)), compute_uv=False)
        report = operator_product_test(matrix)
        assert np.abs(np.array(report.coefficients) - singular).max() <= 1e-12 * singular[0]
        assert report.product == (np.sum(singular > 1e-6 * singular[0]) <= 1)

        vector = rng.normal(size=4) + 1j * rng.normal(size=4)
        if rng.integers(2):
            vector = np.kron(vector[:2], vector[2:])
        vector /= np.linalg.norm(vector)
        schmidt = state_schmidt(ComplexVector4(tuple(vector)))
        singular = np.linalg.svd(vector.reshape(2, 2), compute_uv=False)
        assert np.abs(np.array(schmidt.singular_values) - singular).max() <= 1e-12
        assert schmidt.rank == np.sum(singular > 1e-6)
        verdicts.add((report.product, schmidt.rank))
    assert verdicts == {(True, 1), (True, 2), (False, 1), (False, 2)}


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_eigenvalues_stop_on_non_finite_input(bad):
    matrix = [[1.0, bad, 0, 0], [bad, -1.0, 0, 0], [0, 0, 1.0, 0.5], [0, 0, 0.5, -1.0]]
    assert len(_eigvalsh(matrix)) == 4
    with pytest.raises(DataValidationError):
        Observable4(matrix)


def test_tsirelson_bound_constant():
    assert TSIRELSON_BOUND == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-15)
