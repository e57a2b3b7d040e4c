"""Analysis toolkit for concept-combination experiment data.

Four analysis layers over membership-weight and coincidence-probability
datasets: classical (Kolmogorovian) representability checks, two-sector
interference-model evaluation and fitting, CHSH/entanglement diagnostics
on C^4, and Maxwell-Boltzmann vs Bose-Einstein distribution fitting with
BIC model selection.

``import qcm`` runs none of them: each public name is imported from its
submodule on first use (PEP 562), so a caller pays only for the layers it
touches.  A submodule looked up on the package, as ``from . import stats``
does, is a lazily loaded module that executes on its first attribute
access.
"""

import importlib.util
import sys

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
        "ClassicalityVerdict",
        "DeviationProfile",
        "check_conjunction",
        "check_disjunction",
        "check_negation",
        "deviation_profile",
        "profile_statistics",
        "RegressionResult",
        "linear_regression",
    ),
    "fock": (
        "FIT_TOLERANCE",
        "FockParams",
        "Prediction",
        "PairParams",
        "GeneralFockParams",
        "FitResult",
        "FeasibleSet",
        "interference_magnitude",
        "eval_two_sector",
        "eval_general",
        "eval_general_record",
        "fit_two_sector",
        "fit_general_quadruple",
        "joint_targets",
        "record_marginals",
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
        "ModelVerificationReport",
        "expectation",
        "expectations_from_table",
        "marginal_law_check",
        "state_schmidt",
        "operator_product_test",
        "parse_model",
        "verify_reference_model",
    ),
    "stats": (
        "DistParams",
        "DistFit",
        "BicComparison",
        "pmf_vector",
        "fit_distribution",
        "compare_bic",
    ),
    "svg": (),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    elif name in _EXPORTS:  # a submodule: entered like an import, executed on first use
        fullname = f"{__name__}.{name}"
        value = sys.modules.get(fullname)
        if value is None:
            spec = importlib.util.find_spec(fullname)
            spec.loader = importlib.util.LazyLoader(spec.loader)
            value = sys.modules[fullname] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(value)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
