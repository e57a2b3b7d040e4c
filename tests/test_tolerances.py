"""One rule for every tolerance and confidence in qcm's public API.

The test walks ``qcm.__all__`` for every function parameter and record field
named ``tolerance``, ``*_tolerance`` or ``confidence``, so a new one is sampled
without being listed here.  Each must reject a value that would make its
verdict meaningless with a ``DataValidationError`` naming it.
"""

from __future__ import annotations

import functools
import inspect
import math

import pytest

import qcm
from conftest import DATA_DIR
from qcm import (
    DataValidationError,
    check_conjunction,
    deviation_profile,
    fit_two_sector,
    parse_coincidence,
    parse_membership_table,
    parse_model,
)
from qcm.data import Record

BAD_VALUES = [math.nan, math.inf, -math.inf, -1.0, 0.0, True, "0.1"]  # and 1.0 for a confidence

# valid values to show that each call fails on the sampled value alone
GOOD_VALUES = {"tolerance": 1e-3, "confidence": 0.9}


def _checked(name: str) -> bool:
    return name in ("tolerance", "confidence") or name.endswith("_tolerance")


def _sampled() -> list[tuple[object, str]]:
    """(owner, name) for every checked parameter of a public function or record."""
    found = []
    for export in qcm.__all__:
        owner = getattr(qcm, export)
        if isinstance(owner, type):
            names = owner._fields if issubclass(owner, Record) else ()
        elif callable(owner):
            names = inspect.signature(owner).parameters
        else:
            continue
        found += [(owner, name) for name in names if _checked(name)]
    return found


SAMPLED = _sampled()
CASES = [
    (owner, name, value)
    for owner, name in SAMPLED
    for value in BAD_VALUES + [1.0] * (name == "confidence")
]


@functools.cache
def _bundled() -> dict:
    """Valid bundled values for every argument the sampled functions require."""
    record = parse_membership_table((DATA_DIR / "goldfish.csv").read_text(encoding="utf-8"))[0]
    return {
        "mu_a": record.mu_a,
        "mu_b": record.mu_b,
        "mu_a_and_b": record.mu_a_and_b,
        "mu_a_or_b": max(record.mu_a, record.mu_b),
        "target": record.mu_a_and_b,
        "connective": "and",
        "record": record,
        "profiles": [deviation_profile(record)] * 3,
        "xs": [1.0, 2.0, 3.0],
        "ys": [0.5, 0.25, 1.0],
        "table": parse_coincidence((DATA_DIR / "animal_acts_table.json").read_text(encoding="utf-8")),
        "model": parse_model((DATA_DIR / "animal_acts_model.json").read_text(encoding="utf-8")),
    }


@functools.cache
def _records() -> dict:
    """A valid instance of each sampled record class, made by the code that makes it."""
    values = _bundled()
    return {
        qcm.FitResult: fit_two_sector(values["mu_a"], values["mu_b"], values["target"], "and"),
        qcm.ClassicalityVerdict: check_conjunction(values["mu_a"], values["mu_b"], values["target"]),
    }


def _call(owner, name: str, value):
    if isinstance(owner, type):
        sample = _records()[owner]
        fields = {field: getattr(sample, field) for field in owner._fields}
        return owner(**{**fields, name: value})
    parameters = inspect.signature(owner).parameters.values()
    required = [p.name for p in parameters if p.default is inspect.Parameter.empty]
    return owner(**{**{arg: _bundled()[arg] for arg in required}, name: value})


def _id(owner, name: str) -> str:
    return f"{owner.__name__}.{name}"


def test_every_tolerance_and_confidence_is_sampled():
    # the walk samples a new parameter by itself; this list pins the count
    assert sorted(_id(owner, name) for owner, name in SAMPLED) == [
        "ClassicalityVerdict.tolerance",
        "FitResult.tolerance",
        "check_conjunction.tolerance",
        "check_disjunction.tolerance",
        "check_negation.tolerance",
        "fit_general_quadruple.tolerance",
        "fit_two_sector.tolerance",
        "linear_regression.confidence",
        "marginal_law_check.tolerance",
        "profile_statistics.confidence",
        "verify_reference_model.marginal_tolerance",
    ]


@pytest.mark.parametrize("owner, name", SAMPLED, ids=[_id(*s) for s in SAMPLED])
def test_valid_value_accepted(owner, name):
    _call(owner, name, GOOD_VALUES[name.rsplit("_", 1)[-1]])


@pytest.mark.parametrize(
    "owner, name, value", CASES, ids=[f"{_id(owner, name)}={value!r}" for owner, name, value in CASES]
)
def test_invalid_value_rejected_by_name(owner, name, value):
    with pytest.raises(DataValidationError) as caught:
        _call(owner, name, value)
    assert str(caught.value).startswith((f"{name} must be ", f"{name}="))
