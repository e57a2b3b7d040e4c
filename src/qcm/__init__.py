"""Analysis toolkit for concept-combination experiment data.

Four analysis layers over membership-weight and coincidence-probability
datasets: classical (Kolmogorovian) representability checks, two-sector
interference-model evaluation and fitting, CHSH/entanglement diagnostics
on C^4, and Maxwell-Boltzmann vs Bose-Einstein distribution fitting with
BIC model selection.

``import qcm`` runs none of them: each public name is imported from its
submodule on first use (PEP 562), so a caller pays only for the layers it
touches.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports; the one list of qcm's API
_EXPORTS = {
    "errors": (
        "QcmError",
        "DataValidationError",
        "SchemaError",
        "IncompleteRecordError",
        "InsufficientDataError",
    ),
    "data": (
        "MEMBERSHIP_COLUMNS",
        "BLOCKS",
        "MembershipRecord",
        "CoincidenceOutcome",
        "CoincidenceTable",
        "CountDataset",
        "parse_membership_table",
        "parse_coincidence",
        "parse_count_datasets",
    ),
    "classicality": (
        "DEFAULT_TOLERANCE",
        "PROFILE_KEYS",
        "REFERENCE_MEAN_BANDS",
        "ClassicalityVerdict",
        "DeviationProfile",
        "BandCheck",
        "check_conjunction",
        "check_disjunction",
        "check_negation",
        "check_reference_bands",
        "deviation_profile",
        "joint_atoms",
        "profile_statistics",
    ),
    "fock": (
        "FIT_TOLERANCE",
        "PAIR_KEYS",
        "MIN_INTERFERENCE",
        "MIN_M2",
        "FockParams",
        "Prediction",
        "PairParams",
        "GeneralFockParams",
        "FitPolicy",
        "FitResult",
        "FeasibleSet",
        "interference_magnitude",
        "eval_conjunction",
        "eval_disjunction",
        "eval_general",
        "eval_general_record",
        "fit_two_sector",
        "fit_general_quadruple",
        "joint_targets",
        "record_marginals",
        "compatibility_notes",
    ),
    "hilbert": (
        "TSIRELSON_BOUND",
        "NONLOCAL_NON_MARGINAL_BOX_1",
        "ComplexVector4",
        "Observable4",
        "ChshReport",
        "MarginalComparison",
        "SchmidtReport",
        "OperatorSchmidt",
        "HilbertModel",
        "VerifyTolerances",
        "ModelVerificationReport",
        "expectation",
        "expectations_from_table",
        "marginal_law_check",
        "state_schmidt",
        "realign",
        "operator_product_test",
        "parse_model",
        "verify_reference_model",
    ),
    "stats": (
        "DistParams",
        "DistFit",
        "BicComparison",
        "RegressionResult",
        "golden_section_minimize",
        "mb_pmf",
        "be_pmf",
        "pmf_vector",
        "fit_distribution",
        "compare_bic",
        "linear_regression",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
