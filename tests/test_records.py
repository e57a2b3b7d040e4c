"""The record base: every qcm record behaves as the frozen dataclass it replaced.

Each record class is compared with a ``dataclasses`` twin built here from the
same class body, so ``repr``, equality, hashing, frozenness, argument binding
and ``__post_init__`` validation are checked against the standard library
rather than against a copy of the base's own logic.
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import DATA_DIR
from qcm import (
    ComplexVector4,
    Observable4,
    check_negation,
    compare_bic,
    deviation_profile,
    eval_two_sector,
    expectation,
    fit_distribution,
    fit_general_quadruple,
    fit_two_sector,
    linear_regression,
    marginal_law_check,
    operator_product_test,
    parse_coincidence,
    parse_count_datasets,
    parse_membership_table,
    parse_model,
    state_schmidt,
    verify_reference_model,
)
from qcm import classicality, data, fock, hilbert, stats, svg

_MODULES = (data, classicality, fock, hilbert, stats, svg)


def _read(name: str) -> str:
    return (DATA_DIR / name).read_text(encoding="utf-8")


def _samples() -> list:
    """One instance of every record class, made by the code that makes it."""
    record = next(r for r in parse_membership_table(_read("goldfish.csv")) if r.negation_complete())
    table = parse_coincidence(_read("animal_acts_table.json"))
    model = parse_model(_read("animal_acts_model.json"))
    counts = parse_count_datasets(_read("uniform11.json"))[0]
    mb, be = fit_distribution(counts, "MB"), fit_distribution(counts, "BE")
    two_sector = fit_two_sector(record.mu_a, record.mu_b, record.mu_a_and_b, "and")
    general = fit_general_quadruple(record)
    state = ComplexVector4(model.state)
    observable = Observable4(model.operators["AB"])
    report = verify_reference_model(model, table)
    series = svg.Series("fit", (0.25, 0.75))
    return [
        record, table.ab[0], table, counts,
        check_negation(record), deviation_profile(record),
        two_sector, two_sector.params, two_sector.family,
        eval_two_sector(record.mu_a, record.mu_b, two_sector.params),
        general.params, general.params.ab,
        state, observable, expectation(state, observable), report.chsh,
        marginal_law_check(table)[0], state_schmidt(state), operator_product_test(observable),
        model, report.checks[0], report,
        mb, mb.params, compare_bic(mb, be), linear_regression([0.0, 1.0, 2.0], [0.1, 0.9, 2.2]),
        series, svg.Chart("counts", ("n=0", "n=1"), (series,)),
    ]


SAMPLES = {type(sample): sample for sample in _samples()}

# ``norm`` was a field the dataclass kept out of __init__, repr and ==
_TWIN_EXTRA = {ComplexVector4: {"norm": dataclasses.field(init=False, repr=False, compare=False)}}


def _twin(cls):
    """The frozen dataclass with ``cls``'s body: its fields, defaults and methods."""
    body = {
        key: value for key, value in vars(cls).items()
        if key not in ("__dict__", "__weakref__", "__eq__", "__hash__", "_fields", "_field_set")
    }
    extra = _TWIN_EXTRA.get(cls, {})
    body.update(extra, __qualname__=cls.__qualname__)
    body["__annotations__"] = {**cls.__annotations__, **{name: "float" for name in extra}}
    identity = cls.__eq__ is object.__eq__
    return dataclasses.dataclass(frozen=True, eq=not identity)(type(cls.__name__, (), body))


TWINS = {cls: _twin(cls) for cls in SAMPLES}


def _values(cls) -> list:
    return [getattr(SAMPLES[cls], name) for name in cls._fields]


def _outcome(make):
    """``repr`` of what ``make()`` builds, or the type and message of its error."""
    try:
        return repr(make())
    except Exception as exc:  # the twin must fail the same way, whatever the error
        return type(exc), str(exc)


CLASSES = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


def test_every_record_class_has_a_sample():
    defined = {
        value for module in _MODULES for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, data.Record) and value is not data.Record
    }
    assert len(defined) == 28
    assert defined == set(SAMPLES)


@CLASSES
def test_fields_in_order(cls):
    assert cls._fields == tuple(f.name for f in dataclasses.fields(TWINS[cls]) if f.init)


@CLASSES
def test_construction_and_repr(cls):
    twin, values = TWINS[cls], _values(cls)
    keywords = dict(zip(cls._fields, values))
    assert repr(cls(*values)) == repr(twin(*values)) == repr(SAMPLES[cls])
    assert repr(cls(**keywords)) == repr(twin(**keywords))
    split = len(values) // 2
    mixed = cls(*values[:split], **dict(list(keywords.items())[split:]))
    assert repr(mixed) == repr(twin(*values[:split], **dict(list(keywords.items())[split:])))
    required = {
        name: value for name, value in keywords.items()
        if TWINS[cls].__dataclass_fields__[name].default is dataclasses.MISSING
    }
    assert _outcome(lambda: cls(**required)) == _outcome(lambda: twin(**required))
    for name in _TWIN_EXTRA.get(cls, ()):  # no longer a field, but still set
        assert getattr(cls(*values), name) == getattr(twin(*values), name)


@CLASSES
def test_equality_and_hash(cls):
    twin, values = TWINS[cls], _values(cls)
    first, second = cls(*values), cls(*values)
    twin_first, twin_second = twin(*values), twin(*values)
    assert first == first
    assert (first == second) is (twin_first == twin_second)
    assert (first != second) is (twin_first != twin_second)
    lookalike = type(cls.__name__, (data.Record,), {"__annotations__": cls.__annotations__})
    assert first != twin_first and first != lookalike(*values) and first != tuple(values)
    hashes = [_outcome(lambda obj=obj: hash(obj)) for obj in (first, second, twin_first)]
    if isinstance(hashes[0], tuple):  # an unhashable field
        assert hashes[0] == hashes[2]
    elif first == second:
        assert hashes[0] == hashes[1] == hashes[2]
    else:  # identity: equal hashes only by chance
        assert hash(first) == object.__hash__(first)


@CLASSES
def test_frozen(cls):
    record, twin = SAMPLES[cls], TWINS[cls](*_values(cls))
    for name in (*cls._fields, "not_a_field"):
        for change in (lambda obj: setattr(obj, name, 0), lambda obj: delattr(obj, name)):
            with pytest.raises(AttributeError) as ours:
                change(record)
            with pytest.raises(AttributeError) as theirs:
                change(twin)
            assert str(ours.value) == str(theirs.value)
    assert repr(record) == repr(twin)


@CLASSES
def test_bad_arguments_raise_type_error(cls):
    twin, values = TWINS[cls], _values(cls)
    first = cls._fields[0]
    calls = [  # arguments, and the name the message must give
        ((), {}, first),  # every field missing
        ((*values, 0), {}, None),  # one positional argument too many
        (values, {"not_a_field": 0}, "not_a_field"),
        (values, {first: values[0]}, first),  # the first field twice
    ]
    for args, kwargs, named in calls:
        with pytest.raises(TypeError) as ours:
            cls(*args, **kwargs)
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        assert str(ours.value).startswith(f"{cls.__qualname__}.__init__() ")
        assert named is None or repr(named) in str(ours.value)


_SUBSTITUTES = (None, True, -1.5, 0.25, 7, "x", (), [0.5, 0.5], float("nan"))


@CLASSES
def test_post_init_validates_as_the_twin_does(cls):
    twin, values = TWINS[cls], _values(cls)
    for index in range(len(values)):
        for substitute in _SUBSTITUTES:
            changed = [*values[:index], substitute, *values[index + 1:]]
            outcome = _outcome(lambda: cls(*changed))
            assert outcome == _outcome(lambda: twin(*changed)), (cls._fields[index], substitute)
            if isinstance(outcome, str):  # built: equal to the sample just when the twin is
                assert (cls(*changed) == SAMPLES[cls]) is (twin(*changed) == twin(*values))
