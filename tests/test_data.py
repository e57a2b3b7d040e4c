"""Parsing and validation behavior of the dataset layer."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from qcm import (
    BLOCKS,
    MEMBERSHIP_COLUMNS,
    ChshReport,
    CoincidenceOutcome,
    CoincidenceTable,
    CountDataset,
    DataValidationError,
    DeviationProfile,
    DistFit,
    DistParams,
    FockParams,
    IncompleteRecordError,
    MembershipRecord,
    PairParams,
    RegressionResult,
    SchemaError,
    parse_coincidence,
    parse_count_datasets,
    parse_membership_table,
    parse_model,
)


class TestMembershipRecord:
    def test_valid_record_normalizes_floats(self):
        record = MembershipRecord(exemplar="x", mu_a=1, mu_b=0, mu_a_and_b=0.5)
        assert record.mu_a == 1.0 and isinstance(record.mu_a, float)

    def test_out_of_range_weight_names_exemplar_and_column(self):
        with pytest.raises(DataValidationError, match=r"'Mint'.*muAandB"):
            MembershipRecord(exemplar="Mint", mu_a=0.5, mu_b=0.5, mu_a_and_b=1.2)

    def test_nan_rejected(self):
        with pytest.raises(DataValidationError):
            MembershipRecord(exemplar="x", mu_a=math.nan, mu_b=0.5, mu_a_or_b=0.5)

    @pytest.mark.parametrize(
        "field, column",
        [("exemplar", "exemplar"), ("concept_a", "conceptA"), ("concept_b", "conceptB")],
    )
    @pytest.mark.parametrize("value", [5, None, b"x"])
    def test_text_fields_must_be_strings(self, field, column, value):
        # records built in code meet the rule the JSON parser applies
        kwargs = {"exemplar": "x", "mu_a": 0.5, "mu_b": 0.5, "mu_a_and_b": 0.2, field: value}
        with pytest.raises(DataValidationError, match=f"{column} must be a string"):
            MembershipRecord(**kwargs)

    def test_json_text_field_error_names_record(self):
        doc = json.dumps([{"exemplar": "x", "conceptA": 5, "muA": 0.1, "muB": 0.2, "muAorB": 0.3}])
        with pytest.raises(DataValidationError, match="record 0: conceptA must be a string"):
            parse_membership_table(doc)

    def test_needs_at_least_one_combination_weight(self):
        with pytest.raises(DataValidationError, match="no combination weight"):
            MembershipRecord(exemplar="x", mu_a=0.5, mu_b=0.5)

    def test_value_by_column_name(self):
        record = MembershipRecord(exemplar="x", mu_a=0.2, mu_b=0.3, mu_a_or_b=0.4)
        assert record.value("muAorB") == 0.4
        assert record.value("muAandB") is None
        with pytest.raises(KeyError):
            record.value("muC")

    def test_require_raises_incomplete_with_field(self):
        record = MembershipRecord(exemplar="x", mu_a=0.2, mu_b=0.3, mu_a_or_b=0.4)
        assert record.require("muA", "muAorB") == (0.2, 0.4)
        with pytest.raises(IncompleteRecordError) as excinfo:
            record.require("muAandB")
        assert excinfo.value.field == "muAandB"

    def test_negation_complete(self, goldfish_record):
        assert goldfish_record.negation_complete()
        partial = MembershipRecord(exemplar="x", mu_a=0.2, mu_b=0.3, mu_a_and_b=0.1)
        assert not partial.negation_complete()


class TestMembershipParsing:
    def test_bundled_goldfish(self):
        records = parse_membership_table(DATA_DIR.joinpath("goldfish.csv").read_text())
        assert len(records) == 1
        record = records[0]
        assert record.exemplar == "Goldfish"
        assert record.concept_a == "Pets"
        assert record.mu_a_and_bp == 0.91
        assert record.mu_a_or_b is None

    def test_empty_input_is_empty_table(self):
        assert parse_membership_table("") == []
        assert parse_membership_table("  \n ") == []

    def test_unknown_header_column(self):
        with pytest.raises(SchemaError, match="muZ"):
            parse_membership_table("exemplar,muA,muB,muZ\nx,0.1,0.2,0.3\n")

    def test_duplicate_header_column(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse_membership_table("exemplar,muA,muA,muAorB\nx,0.1,0.2,0.3\n")

    def test_row_arity_error_names_row(self):
        text = "exemplar,muA,muB,muAorB\nx,0.1,0.2,0.3\ny,0.1,0.2\n"
        with pytest.raises(DataValidationError, match="row 3"):
            parse_membership_table(text)

    def test_bad_number_names_row_and_column(self):
        text = "exemplar,muA,muB,muAorB\nx,0.1,oops,0.3\n"
        with pytest.raises(DataValidationError, match=r"row 2.*muB"):
            parse_membership_table(text)

    def test_missing_required_column(self):
        with pytest.raises(DataValidationError, match="muB"):
            parse_membership_table("exemplar,muA,muAorB\nx,0.1,0.3\n")

    def test_json_unknown_key(self):
        doc = json.dumps([{"exemplar": "x", "muA": 0.1, "muB": 0.2, "bogus": 1}])
        with pytest.raises(SchemaError, match="bogus"):
            parse_membership_table(doc)

    def test_json_parses_null_as_absent(self):
        doc = json.dumps(
            [{"exemplar": "x", "muA": 0.1, "muB": 0.2, "muAorB": 0.3, "muAandB": None}]
        )
        record = parse_membership_table(doc)[0]
        assert record.mu_a_and_b is None

    @pytest.mark.parametrize("lead", ["", " \n\t"])
    def test_format_read_from_first_non_blank_character(self, lead):
        doc = '[{"exemplar": "x", "muA": 0.1, "muB": 0.2, "muAorB": 0.3}]'
        assert parse_membership_table(lead + doc)[0].mu_a_or_b == 0.3
        with pytest.raises(SchemaError, match="expected a JSON array of objects"):
            parse_membership_table(lead + '{"exemplar": "x"}')
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_membership_table(lead + "[exemplar,muA,muB,muAorB]\n")

    def test_row_number_is_the_physical_line(self):
        # blank lines count, as they do in the csv module's own "line N" messages
        text = "exemplar,muA,muB,muAorB\n\n\nx,0.1,oops,0.3\n"
        with pytest.raises(DataValidationError, match=r"^row 4, column muB: 'oops'"):
            parse_membership_table(text)

    @pytest.mark.parametrize("cell", ["x\0y", '"x\0y"', "\0"])
    def test_nul_in_a_cell_is_rejected(self, cell):
        # the csv module itself rejects a NUL only before Python 3.11
        text = f"exemplar,muA,muB,muAorB\n\n{cell},0.1,0.2,0.3\n"
        with pytest.raises(DataValidationError, match=r"^line 3: line contains NUL$"):
            parse_membership_table(text)

    def test_oversized_csv_field_names_line(self):
        # csv's field size limit is 131,072 characters; its csv.Error must not escape
        text = "exemplar,muA,muB,muAorB\nx,0.1,0.2,0.3\n" + "y" * 131_073 + ",0.1,0.2,0.3\n"
        with pytest.raises(DataValidationError, match=r"line 3: field larger than field limit"):
            parse_membership_table(text)


class TestCoincidenceTable:
    def test_bundled_table_blocks(self, animal_table):
        block = animal_table.block("AB")
        assert [o.first for o in block] == ["Horse", "Horse", "Bear", "Bear"]
        assert sum(o.p for o in block) == pytest.approx(1.0, abs=1e-9)
        assert sorted(o.sign for o in block) == [-1, -1, 1, 1]

    def test_three_decimal_sum_accepted(self, animal_table):
        # the A'B block of the bundled table sums to 0.999
        total = sum(o.p for o in animal_table.block("ApB"))
        assert total == pytest.approx(0.999, abs=1e-12)

    def test_block_sum_out_of_tolerance_names_block(self):
        doc = json.loads(DATA_DIR.joinpath("animal_acts_table.json").read_text())
        doc["ABp"][0]["p"] = 0.8
        with pytest.raises(DataValidationError, match="ABp"):
            parse_coincidence(json.dumps(doc))

    def test_signs_must_be_two_plus_two_minus(self):
        outcome = CoincidenceOutcome(first="u", second="v", sign=1, p=0.25)
        bad = (outcome, outcome, outcome, outcome)
        good_block = tuple(
            CoincidenceOutcome(first="u", second="v", sign=s, p=0.25)
            for s in (1, -1, -1, 1)
        )
        with pytest.raises(DataValidationError, match="two"):
            CoincidenceTable(ab=bad, abp=good_block, apb=good_block, apbp=good_block)

    def test_sign_other_than_unit_rejected(self):
        with pytest.raises(DataValidationError):
            CoincidenceOutcome(first="u", second="v", sign=2, p=0.25)

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0, "1"])
    def test_sign_must_be_an_int(self, sign):
        # outcomes built in code meet the rule the JSON parser applies
        with pytest.raises(DataValidationError, match="sign must be the integer"):
            CoincidenceOutcome(first="u", second="v", sign=sign, p=0.25)

    @pytest.mark.parametrize("field", ["first", "second"])
    @pytest.mark.parametrize("value", [None, [1], False, 5])
    def test_labels_must_be_strings(self, field, value):
        kwargs = {"first": "u", "second": "v", "sign": 1, "p": 0.25, field: value}
        with pytest.raises(DataValidationError, match=f"{field} must be a string"):
            CoincidenceOutcome(**kwargs)

    def test_parsed_label_error_names_block(self):
        doc = json.loads(DATA_DIR.joinpath("animal_acts_table.json").read_text())
        doc["ABp"][1]["first"] = None
        with pytest.raises(DataValidationError, match="block ABp: .*first must be a string"):
            parse_coincidence(json.dumps(doc))

    def test_parsed_sign_error_names_block(self):
        doc = json.loads(DATA_DIR.joinpath("animal_acts_table.json").read_text())
        doc["ApB"][2]["sign"] = -1.0
        with pytest.raises(DataValidationError, match="block ApB: .*sign must be the integer"):
            parse_coincidence(json.dumps(doc))

    def test_missing_block_key(self):
        with pytest.raises(SchemaError, match=r"missing keys \['ABp', 'ApB', 'ApBp'\]"):
            parse_coincidence(json.dumps({"AB": []}))

    def test_unknown_block_key(self):
        doc = {key: [] for key in BLOCKS}
        doc["XY"] = []
        with pytest.raises(SchemaError, match="XY"):
            parse_coincidence(json.dumps(doc))

    def test_unknown_block_lookup(self, animal_table):
        with pytest.raises(KeyError):
            animal_table.block("XY")


class TestCountDataset:
    def test_parse_single_object_and_list(self):
        uniform = parse_count_datasets(
            DATA_DIR.joinpath("uniform11.json").read_text(encoding="utf-8")
        )
        assert len(uniform) == 1
        assert uniform[0].n_total == 11
        assert len(uniform[0].observed) == 12
        planted = parse_count_datasets(
            DATA_DIR.joinpath("mb_exact_n9.json").read_text(encoding="utf-8")
        )
        assert planted[0].state_labels == ("Red", "Blue")

    def test_length_must_be_n_plus_one(self):
        with pytest.raises(DataValidationError, match="12"):
            CountDataset(category="c", n_total=11, observed=(1.0,) * 4)

    def test_sum_tolerance(self):
        with pytest.raises(DataValidationError, match="sum"):
            CountDataset(category="c", n_total=1, observed=(0.6, 0.6))

    def test_negative_frequency_rejected(self):
        with pytest.raises(DataValidationError):
            CountDataset(category="c", n_total=1, observed=(-0.1, 1.1))

    def test_n_total_must_be_positive_integer(self):
        with pytest.raises(DataValidationError):
            CountDataset(category="c", n_total=0, observed=(1.0,))

    @pytest.mark.parametrize("category", [None, [1], False, 5])
    def test_category_must_be_a_string(self, category):
        with pytest.raises(DataValidationError, match="category must be a string"):
            CountDataset(category=category, n_total=1, observed=(0.5, 0.5))

    @pytest.mark.parametrize("labels", [(None, "b"), ("a", [1]), (False, "b"), ("a", 5)])
    def test_state_labels_must_be_strings(self, labels):
        with pytest.raises(DataValidationError, match="two string state labels"):
            CountDataset(category="c", n_total=1, observed=(0.5, 0.5), state_labels=labels)

    @pytest.mark.parametrize("labels", ['["a"]', '["a", "b", "c"]', '"ab"', '[null, "b"]'])
    def test_parsed_state_labels_must_be_a_pair_of_strings(self, labels):
        text = '{"category": "c", "N": 1, "observed": [0.5, 0.5], "stateLabels": %s}' % labels
        with pytest.raises((DataValidationError, SchemaError), match=r"^count dataset 0: "):
            parse_count_datasets(text)

    @pytest.mark.parametrize("n_total", ["true", "1.0", '"1"'])
    def test_parsed_n_must_be_an_integer(self, n_total):
        text = '{"category": "c", "N": %s, "observed": [0.5, 0.5]}' % n_total
        with pytest.raises(DataValidationError, match=r"^count dataset 0: .*N must be an integer"):
            parse_count_datasets(text)


@settings(max_examples=60)
@given(
    weights=st.lists(
        st.floats(min_value=0.001, max_value=1.0), min_size=4, max_size=4
    ),
    or_present=st.booleans(),
)
def test_membership_round_trip_property(weights, or_present):
    total = sum(weights)
    ab, abp, apb, apbp = (w / total for w in weights)
    record = MembershipRecord(
        exemplar="h",
        concept_a="Pets",
        concept_b="Fish",
        mu_a=min(ab + abp, 1.0),
        mu_b=min(ab + apb, 1.0),
        mu_ap=min(apb + apbp, 1.0),
        mu_bp=min(abp + apbp, 1.0),
        mu_a_and_b=ab,
        mu_a_and_bp=abp,
        mu_ap_and_b=apb,
        mu_ap_and_bp=apbp,
        mu_a_or_b=min(ab + abp + apb, 1.0) if or_present else None,
    )
    fields = {c: record.value(c) for c in MEMBERSHIP_COLUMNS if record.value(c) is not None}
    csv_text = ",".join(fields) + "\n" + ",".join(map(str, fields.values())) + "\n"
    assert parse_membership_table(csv_text) == [record]
    assert parse_membership_table(json.dumps([fields])) == [record]


@pytest.mark.parametrize("name", sorted(path.name for path in DATA_DIR.glob("*.csv")))
def test_as_dict_round_trips_every_bundled_membership_table(name):
    records = parse_membership_table((DATA_DIR / name).read_text(encoding="utf-8"))
    payload = [record.as_dict() for record in records]
    assert records and all(list(entry) == list(MembershipRecord._keys) for entry in payload)
    assert set(MembershipRecord._keys) == set(MEMBERSHIP_COLUMNS)
    assert parse_membership_table(json.dumps(payload)) == records


def _ranged_fields() -> list:
    """(id, label, build) for every number checked by ``data._check_range`` in a
    record or a model file: ``build(value)`` puts ``value`` in that one place of
    an otherwise valid input, and a bad value's error starts with ``label=``."""
    def fields(cls, valid: dict, *names: str) -> list:
        return [
            (f"{cls.__name__}.{name}", name, lambda v, name=name: cls(**{**valid, name: v}))
            for name in names
        ]

    weights = {
        "mu_a": 0.5, "mu_b": 0.5, "mu_ap": 0.5, "mu_bp": 0.5, "mu_a_and_b": 0.25,
        "mu_a_and_bp": 0.25, "mu_ap_and_b": 0.25, "mu_ap_and_bp": 0.25, "mu_a_or_b": 0.75,
    }
    columns = dict(zip(weights, MEMBERSHIP_COLUMNS[3:]))  # mu_a -> muA, ..., mu_a_or_b -> muAorB
    pair = {"m2": 0.5, "n2": 0.5, "alpha": 0.25, "beta": 0.0, "phi_rad": 1.0}
    deviations = dict.fromkeys(("i_a", "i_b", "i_ap", "i_bp", "i_total"), 0.0)
    chsh = {
        **dict.fromkeys(("e_ab", "e_abp", "e_apb", "e_apbp"), 0.5), "chsh": 1.0,
        "classical_violated": False, "tsirelson_respected": True,
    }
    fit = {"params": DistParams("MB", 0.5, 2), "rss": 0.01, "r2": 0.5, "bic": -9.0}
    model = json.loads((DATA_DIR / "animal_acts_model.json").read_text(encoding="utf-8"))

    def state0(entry):
        return lambda value: parse_model(
            json.dumps({**model, "state": [entry(value), *model["state"][1:]]})
        )

    return [
        *(
            (f"MembershipRecord.{attr}", f"exemplar 'x': {columns[attr]}",
             lambda value, attr=attr: MembershipRecord("x", **{**weights, attr: value}))
            for attr in weights
        ),
        ("CoincidenceOutcome.p", "p(a,b)", lambda value: CoincidenceOutcome("a", "b", 1, value)),
        ("CountDataset.observed", "dataset 'c': observed[1]",
         lambda value: CountDataset("c", 2, (0.25, value, 0.25))),
        ("DistParams.p1", "p1", lambda value: DistParams("MB", value, 2)),
        *fields(FockParams, {"m2": 0.5, "n2": 0.5, "theta_rad": 1.0, "connective": "and"},
                "m2", "n2", "theta_rad"),
        *fields(PairParams, pair, *pair),
        *fields(DeviationProfile, deviations, *deviations),
        *fields(ChshReport, chsh, "e_ab", "e_abp", "e_apb", "e_apbp", "chsh"),
        *fields(DistFit, fit, "rss", "r2"),
        ("RegressionResult.r2", "r2",
         lambda value: RegressionResult(0.0, 0.5, value, 0.5, 0.4, 0.6, 3)),
        ("model re", "state[0]", state0(lambda value: {"re": value, "im": 0})),
        ("model im", "state[0]", state0(lambda value: {"re": 0, "im": value})),
        ("model mod", "state[0]", state0(lambda value: {"mod": value, "argDeg": 0})),
        ("model argDeg", "state[0]", state0(lambda value: {"mod": 1, "argDeg": value})),
    ]


RANGED_FIELDS = _ranged_fields()


@pytest.mark.parametrize(
    "label, build", [case[1:] for case in RANGED_FIELDS], ids=[case[0] for case in RANGED_FIELDS]
)
@pytest.mark.parametrize("bad", [True, "0.5", math.nan, math.inf], ids=repr)
def test_every_ranged_number_takes_the_one_number_and_range_rule(label, build, bad):
    """A bool, a numeric string, NaN and infinity are each rejected with an
    error naming the field, in every record and not only in the input layer."""
    with pytest.raises(DataValidationError) as error:
        build(bad)
    assert str(error.value).startswith(f"{label}=")


@pytest.mark.parametrize(
    "build", [case[2] for case in RANGED_FIELDS], ids=[case[0] for case in RANGED_FIELDS]
)
def test_the_ranged_inputs_are_valid_before_the_substitution(build):
    build(0.5)
