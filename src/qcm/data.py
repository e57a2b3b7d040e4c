"""Core data types and dataset ingestion.

Three dataset shapes are supported:

* membership tables (CSV or JSON): one row per exemplar with membership
  weights for two concepts, their negations, and their combinations;
* coincidence tables (JSON): four joint-measurement blocks of four signed
  outcomes each, the shape of a CHSH experiment;
* count datasets (JSON): relative frequencies over the N+1 occupation
  splits of N identical instances between two states.

All types are ``Record`` subclasses, immutable after construction and
fully validated in ``__post_init__``, which holds each field's one
validator; ``Record.as_dict`` holds the one rule for their JSON keys.
Every bounded number in qcm, field or argument, goes through
``_check_range``, or ``_check_positive`` for a tolerance or a confidence;
every text field through ``_check_text``, every count N through ``_check_count``.
Parsers take ``str`` and return validated values or raise a ``QcmError``.

CSV schema (header mandatory, UTF-8): the only accepted column names are

    exemplar, conceptA, conceptB, muA, muB, muAp, muBp,
    muAandB, muAandBp, muApandB, muApandBp, muAorB

``exemplar``, ``muA`` and ``muB`` are required; an empty cell means the
value is absent.  JSON membership files are arrays of objects using the
same key names.  The parser tells the two apart by the first non-blank
character: ``[`` or ``{`` is JSON, anything else CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .errors import DataValidationError, IncompleteRecordError, SchemaError

_TEXT_COLUMNS = ("exemplar", "conceptA", "conceptB")

# combination weights: a record must carry at least one of these
_COMBINATION_COLUMNS = ("muAandB", "muAandBp", "muApandB", "muApandBp", "muAorB")

BLOCKS = ("AB", "ABp", "ApB", "ApBp")

BLOCK_SUM_TOLERANCE = 1e-3  # published tables are 3-decimal rounded

# fock.fit_two_sector's policies; here so the CLI can list them without loading fock
FIT_POLICIES = ("min-interference", "min-m2")


def _sum(values):
    """Left to right, as the built-in ``sum`` added floats until Python 3.12 made
    it compensated; every sum in qcm comes here, so output is the same on every Python."""
    total = 0
    for value in values:
        total += value
    return total


def _load_json(text: str, what: str):
    def unique_keys(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):  # json.loads alone keeps the last of two equal keys
            keys = [key for key, _ in pairs]
            raise SchemaError(f"{what}: duplicate key {max(keys, key=keys.count)!r}")
        return doc

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
        # an unpaired surrogate, which cannot be encoded, needs a \u escape or non-ASCII text
        if "\\u" in text or not text.isascii():
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what}: invalid JSON: {exc}") from None
    except (RecursionError, UnicodeEncodeError) as exc:
        raise SchemaError(f"{what}: unsupported JSON: {exc}") from None
    return doc


def _object(doc, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """The one key rule: a JSON object with every ``required`` key and no key
    outside ``required`` and ``optional``."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    unknown = [key for key in doc if key not in required and key not in optional]
    if unknown:
        raise SchemaError(f"{what}: unknown keys {unknown}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise SchemaError(f"{what}: missing keys {missing}")
    return doc


def _to_float(value, label: str) -> float:
    """The one number policy: any real number, numpy's too, never a bool or a string."""
    real = isinstance(value, (int, float))
    if not real:  # a numpy scalar, or a value to reject; numbers is not loaded at startup
        import numbers
        real = isinstance(value, numbers.Real)
    if real and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise DataValidationError(f"{label}={value!r:.40} is not a number")


def _check_range(value, label: str, lo: float = 0.0, hi: float = 1.0) -> float:
    """The one range check for every bounded number in qcm: ``_to_float``'s
    policy, then a finite value in ``[lo, hi]``, inclusive; a bound may be infinite."""
    value = _to_float(value, label)
    if math.isfinite(value) and lo <= value <= hi:
        return value
    if math.isfinite(value) or math.isfinite(hi - lo):  # a finite range excludes inf and NaN
        raise DataValidationError(f"{label}={value!r} outside [{lo:g}, {hi:g}]")
    raise DataValidationError(f"{label}={value!r} is not finite")


def _check_positive(value, label: str, hi: float = math.inf) -> float:
    """The one rule for a tolerance (hi = inf) or a confidence (hi = 1): 0 < value < hi."""
    value = _to_float(value, label)
    if not 0.0 < value < hi:  # false for NaN, and for inf when hi is inf
        below = "" if hi == math.inf else f" and < {hi:g}"
        raise DataValidationError(f"{label} must be a finite number > 0{below}, got {value!r}")
    return value


def _check_text(value, label: str) -> str:
    """The one rule for a text field: a ``str``."""
    if not isinstance(value, str):
        raise DataValidationError(f"{label} must be a string, got {value!r:.40}")
    return value


def _check_count(value, label: str) -> int:
    """The one rule for a count N of instances: an integer >= 1, never a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DataValidationError(f"{label} must be an integer >= 1, got {value!r}")
    return value


def _json_key(name: str) -> str:  # m2_min -> m2Min, mu_ap_and_b -> muApandB
    first, *rest = name.split("_")
    return first + "".join(w if w in ("and", "or") else w[:1].upper() + w[1:] for w in rest)


class Record:
    """Base of qcm's immutable value types: a frozen dataclass, built without
    the per-class code generation that makes ``dataclasses`` slow to start.

    A subclass's fields, listed in ``_fields``, are the names annotated in its
    own body, and a class attribute of the same name is a field's default.
    Its JSON keys, in ``_keys``, are the field names in camelCase with the
    connectives ``and`` and ``or`` kept in lower case: ``mu_a`` is ``muA`` and
    ``mu_ap_and_b`` is ``muApandB``, so a membership record's keys are its
    table's column names.
    ``__init__`` takes fields by position or keyword and calls
    ``__post_init__``, which may normalise a field with ``object.__setattr__``.
    Records compare, hash and ``repr`` by their fields as a dataclass does; a
    subclass declared with ``eq=False`` compares by identity.
    """

    def __init_subclass__(cls, eq: bool = True):
        cls._fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(cls._fields)
        cls._keys = tuple(_json_key(name) for name in cls._fields)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        values = self.__dict__
        if args:
            values.update(zip(self._fields, args))
        values.update(kwargs)
        if values.keys() != self._field_set or len(values) != len(args) + len(kwargs):
            self._check_arguments(args, kwargs)
        self.__post_init__()

    def _check_arguments(self, args: tuple, kwargs: dict) -> None:
        """Pass when only fields with defaults were left out, else raise ``TypeError``."""
        fields, given, defaults = self._fields, self.__dict__, type(self).__dict__
        missing = [name for name in fields if name not in given and name not in defaults]
        if not missing and len(given) == len(args) + len(kwargs) and given.keys() <= self._field_set:
            return
        problems = {
            "unexpected arguments": [*args[len(fields):], *(n for n in kwargs if n not in fields)],
            "arguments given twice": [name for name in fields[: len(args)] if name in kwargs],
            "missing arguments": missing,
        }
        for problem, names in problems.items():
            if names:
                raise TypeError(f"{type(self).__qualname__}.__init__() {problem}: {names}")

    def __post_init__(self):
        pass

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def as_dict(self) -> dict:
        """The fields, in order, under their ``_keys``, the keys a JSON payload gives them."""
        return {key: getattr(self, name) for key, name in zip(self._keys, self._fields)}

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MembershipRecord(Record):
    """Membership weights of one exemplar under two concepts A and B.

    Negation weights are free empirical quantities: ``mu_ap`` is NOT
    constrained to equal ``1 - mu_a``.
    """

    exemplar: str
    mu_a: float
    mu_b: float
    concept_a: str = "A"
    concept_b: str = "B"
    mu_ap: float | None = None
    mu_bp: float | None = None
    mu_a_and_b: float | None = None
    mu_a_and_bp: float | None = None
    mu_ap_and_b: float | None = None
    mu_ap_and_bp: float | None = None
    mu_a_or_b: float | None = None

    def __post_init__(self):
        for column in _TEXT_COLUMNS:
            _check_text(getattr(self, _COLUMN_TO_ATTR[column]), column)
        for column, attr in _COLUMN_TO_ATTR.items():
            value = getattr(self, attr)
            if value is None or column in _TEXT_COLUMNS:
                continue
            try:
                value = _check_range(value, column)
            except DataValidationError as exc:
                raise DataValidationError(f"exemplar {self.exemplar!r}: {exc}") from None
            object.__setattr__(self, attr, value)
        if all(self.value(c) is None for c in _COMBINATION_COLUMNS):
            raise DataValidationError(
                f"exemplar {self.exemplar!r}: no combination weight present "
                f"(need one of {', '.join(_COMBINATION_COLUMNS)})"
            )

    def value(self, column: str):
        """Field access by canonical column name."""
        try:
            return getattr(self, _COLUMN_TO_ATTR[column])
        except KeyError:
            raise KeyError(f"unknown column {column!r}") from None

    def require(self, *columns: str) -> tuple[float, ...]:
        """Return the named fields, raising IncompleteRecordError if absent."""
        values = []
        for column in columns:
            value = self.value(column)
            if value is None:
                raise IncompleteRecordError(
                    column, f"exemplar {self.exemplar!r}: missing field {column!r}"
                )
            values.append(value)
        return tuple(values)

    def has(self, *columns: str) -> bool:
        return all(self.value(c) is not None for c in columns)

    def negation_complete(self) -> bool:
        """True when all eight weights of the negation quadruple are present."""
        return self.has("muA", "muB", "muAp", "muBp",
                        "muAandB", "muAandBp", "muApandB", "muApandBp")


_COLUMN_TO_ATTR = dict(zip(MembershipRecord._keys, MembershipRecord._fields))

MEMBERSHIP_COLUMNS = (*_TEXT_COLUMNS, *(c for c in _COLUMN_TO_ATTR if c not in _TEXT_COLUMNS))


def _record_from_fields(fields: dict, context: str) -> MembershipRecord:
    for required in ("exemplar", "muA", "muB"):
        if required not in fields:
            raise DataValidationError(f"{context}: missing required column {required!r}")
    kwargs = {_COLUMN_TO_ATTR[col]: val for col, val in fields.items()}
    try:
        return MembershipRecord(**kwargs)
    except DataValidationError as exc:
        raise DataValidationError(f"{context}: {exc}") from None


def parse_membership_table(text: str) -> list[MembershipRecord]:
    """Parse a membership table: JSON when its first non-blank character is
    ``[`` or ``{``, which no CSV header of column names starts with, else CSV.
    Empty input parses to an empty list."""
    head = text.lstrip()[:1]
    if head == "":
        return []
    return _membership_from_json(text) if head in "[{" else _membership_from_csv(text)


def _membership_from_csv(text: str) -> list[MembershipRecord]:
    reader = csv.reader(io.StringIO(text))
    rows = []  # (physical line, cells); csv yields [] for blank lines
    try:
        for row in reader:
            if any("\0" in cell for cell in row):  # csv itself rejects NUL only before 3.11
                raise csv.Error("line contains NUL")
            if row:
                rows.append((reader.line_num, row))
    except csv.Error as exc:  # a NUL, or a field over csv's size limit
        raise DataValidationError(f"line {reader.line_num}: {exc}") from None
    header = [cell.strip() for cell in rows[0][1]]
    seen = set()
    for name in header:
        if name not in MEMBERSHIP_COLUMNS:
            raise SchemaError(f"header: unknown column {name!r}")
        if name in seen:
            raise SchemaError(f"header: duplicate column {name!r}")
        seen.add(name)
    records = []
    for lineno, row in rows[1:]:
        if all(cell.strip() == "" for cell in row):
            continue
        if len(row) != len(header):
            raise DataValidationError(
                f"row {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        fields = {}
        for column, cell in zip(header, row):
            cell = cell.strip()
            if cell == "":
                continue
            if column in _TEXT_COLUMNS:
                fields[column] = cell
            else:
                try:
                    fields[column] = float(cell)
                except ValueError:
                    raise DataValidationError(
                        f"row {lineno}, column {column}: {cell!r} is not a number"
                    ) from None
        records.append(_record_from_fields(fields, f"row {lineno}"))
    return records


def _membership_from_json(text: str) -> list[MembershipRecord]:
    doc = _load_json(text, "membership table")
    if not isinstance(doc, list):
        raise SchemaError("membership table: expected a JSON array of objects")
    records = []
    for index, item in enumerate(doc):
        context = f"record {index}"
        fields = _object(item, context, (), MEMBERSHIP_COLUMNS)
        fields = {key: value for key, value in fields.items() if value is not None}
        records.append(_record_from_fields(fields, context))
    return records


class CoincidenceOutcome(Record):
    """One labeled outcome of a joint measurement: labels, sign, probability."""

    first: str
    second: str
    sign: int
    p: float

    def __post_init__(self):
        for name in ("first", "second"):
            _check_text(getattr(self, name), f"outcome {name}")
        if type(self.sign) is not int or self.sign not in (1, -1):  # a bool is not a sign
            raise DataValidationError(
                f"outcome ({self.first!r}, {self.second!r}): sign must be the integer "
                f"+1 or -1, got {self.sign!r:.40}"
            )
        object.__setattr__(
            self, "p", _check_range(self.p, f"p({self.first},{self.second})")
        )


class CoincidenceTable(Record):
    """Four coincidence-measurement blocks of four signed outcomes each.

    Block keys, in fixed order: AB, ABp, ApB, ApBp (p marks the primed
    measurement choice).  Each block must sum to 1 within 1e-3 and carry
    exactly two +1 and two -1 outcomes.
    """

    ab: tuple[CoincidenceOutcome, ...]
    abp: tuple[CoincidenceOutcome, ...]
    apb: tuple[CoincidenceOutcome, ...]
    apbp: tuple[CoincidenceOutcome, ...]

    def __post_init__(self):
        for key in BLOCKS:
            outcomes = tuple(self.block(key))
            object.__setattr__(self, _BLOCK_ATTR[key], outcomes)
            if len(outcomes) != 4:
                raise DataValidationError(
                    f"block {key}: expected 4 outcomes, got {len(outcomes)}"
                )
            signs = sorted(o.sign for o in outcomes)
            if signs != [-1, -1, 1, 1]:
                raise DataValidationError(
                    f"block {key}: needs exactly two +1 and two -1 outcomes"
                )
            total = _sum(o.p for o in outcomes)
            # inclusive bound with an epsilon pad: 3-decimal tables can sum
            # to 0.999 exactly, which float addition may overshoot by 1 ulp
            if abs(total - 1.0) > BLOCK_SUM_TOLERANCE + 1e-12:
                raise DataValidationError(
                    f"block {key}: probabilities sum to {total:.6f}, not 1 "
                    f"within {BLOCK_SUM_TOLERANCE}"
                )

    def block(self, key: str) -> tuple[CoincidenceOutcome, ...]:
        try:
            return getattr(self, _BLOCK_ATTR[key])
        except KeyError:
            raise KeyError(f"unknown block {key!r} (expected one of {BLOCKS})") from None


_BLOCK_ATTR = {"AB": "ab", "ABp": "abp", "ApB": "apb", "ApBp": "apbp"}


def parse_coincidence(text: str) -> CoincidenceTable:
    """Parse a coincidence table from JSON.

    Document shape: an object with exactly the keys AB, ABp, ApB, ApBp,
    each a list of four outcome objects {"first", "second", "sign", "p"}.
    """
    doc = _object(_load_json(text, "coincidence table"), "coincidence table", BLOCKS)
    blocks = []
    for key in BLOCKS:
        entries = doc[key]
        if not isinstance(entries, list):
            raise SchemaError(f"block {key}: expected a list of outcomes")
        outcomes = []
        for index, entry in enumerate(entries):
            _object(entry, f"block {key}: outcome {index}", ("first", "second", "sign", "p"))
            try:
                outcomes.append(CoincidenceOutcome(**entry))
            except DataValidationError as exc:
                raise DataValidationError(f"block {key}: {exc}") from None
        blocks.append(outcomes)
    return CoincidenceTable(*blocks)  # its fields are the blocks, in BLOCKS order


class CountDataset(Record):
    """Observed relative frequencies over the N+1 occupation splits.

    ``observed[n]`` is the frequency of the configuration with n instances
    in the first state and N - n in the second.
    """

    category: str
    n_total: int
    observed: tuple[float, ...]
    state_labels: tuple[str, str] = ("state1", "state2")

    SUM_TOLERANCE = 1e-6

    def __post_init__(self):
        _check_text(self.category, "category")
        _check_count(self.n_total, f"dataset {self.category!r}: N")
        observed = []
        for n, value in enumerate(self.observed):
            try:
                observed.append(_check_range(value, "observed", 0.0, math.inf))
            except DataValidationError:  # label a value only once it fails, then raise with it
                _check_range(value, f"dataset {self.category!r}: observed[{n}]", 0.0, math.inf)
        observed = tuple(observed)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "state_labels", tuple(self.state_labels))
        if len(self.state_labels) != 2 or not all(isinstance(s, str) for s in self.state_labels):
            raise DataValidationError(
                f"dataset {self.category!r}: exactly two string state labels required, "
                f"got {self.state_labels!r:.60}"
            )
        if len(observed) != self.n_total + 1:
            raise DataValidationError(
                f"dataset {self.category!r}: expected {self.n_total + 1} frequencies, "
                f"got {len(observed)}"
            )
        total = _sum(observed)
        if abs(total - 1.0) > self.SUM_TOLERANCE:
            raise DataValidationError(
                f"dataset {self.category!r}: frequencies sum to {total!r}, not 1 "
                f"within {self.SUM_TOLERANCE}"
            )


def parse_count_datasets(text: str) -> list[CountDataset]:
    """Parse one or a list of count datasets from JSON."""
    doc = _load_json(text, "count dataset")
    items = doc if isinstance(doc, list) else [doc]
    datasets = []
    for index, item in enumerate(items):
        context = f"count dataset {index}"
        _object(item, context, ("category", "N", "observed"), ("stateLabels",))
        labels = item.get("stateLabels", ["state1", "state2"])
        for key, value in (("observed", item["observed"]), ("stateLabels", labels)):
            if not isinstance(value, list):
                raise SchemaError(f"{context}: {key} must be an array")
        try:
            dataset = CountDataset(
                category=item["category"],
                n_total=item["N"],
                observed=tuple(item["observed"]),
                state_labels=tuple(labels),
            )
        except DataValidationError as exc:
            raise DataValidationError(f"{context}: {exc}") from None
        datasets.append(dataset)
    return datasets
