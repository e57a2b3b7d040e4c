"""CHSH analysis, small complex linear algebra, and entanglement diagnostics.

Works on C^4 with the canonical isomorphism C^4 = C^2 (x) C^2 under
row-major factor ordering: index 0 <-> (0,0), 1 <-> (0,1), 2 <-> (1,0),
3 <-> (1,1); the first factor is the A-measurement side.

A coincidence table yields four expectation values (sum of sign times
probability per block) and the CHSH combination
E(A',B') + E(A',B) + E(A,B') - E(A,B), with the classical bound 2 and the
Tsirelson bound 2*sqrt(2).  The marginal-law check compares each single
measurement's outcome marginals across the two blocks sharing it.

Entanglement diagnostics: a state is entangled iff its 2x2 reshape has
singular-value rank 2; an observable is a product measurement iff its
realignment (the 4x4 matrix reindexed as a map between factor spaces)
has operator-Schmidt rank 1.

The linear algebra is plain Python on matrices held as tuples of rows of
``complex``.  Hermitian eigenvalues come from the cyclic complex Jacobi
method (Golub & Van Loan, *Matrix Computations*, 4th ed., section 8.5):
each rotation zeroes one off-diagonal pair, and sweeps over all pairs
converge quadratically.  The singular values of M are the non-negative
eigenvalues of the Hermitian [[0, M], [M^H, 0]] (Golub & Van Loan,
section 8.6), from the same routine.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping, Sequence

from .data import (
    BLOCK_SUM_TOLERANCE, BLOCKS, CoincidenceTable, Record, _load_json, _object, _sum, _to_float,
)
from .errors import DataValidationError, SchemaError

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# tolerances sized for 3-decimal printed states and matrices
NORM_TOLERANCE = 1e-3  # |norm - 1| of a state
HERMITIAN_TOLERANCE = 1e-3  # entrywise |M - M^H| of an observable
EIGENVALUE_TOLERANCE = 0.05  # distance of each eigenvalue from +-1
TRACE_TOLERANCE = 0.05  # |trace| of an observable
EXPECTATION_TOLERANCE = 0.02  # |<p|E|p> - table expectation| in model verification
STATE_RANK_TOLERANCE = 1e-6  # a state's Schmidt coefficients at or below this count as 0
OPERATOR_RANK_TOLERANCE = 1e-6  # the same for operator-Schmidt ones, relative to the largest
MARGINAL_TOLERANCE = 0.01  # default |difference| of a shared marginal across two blocks

NONLOCAL_NON_MARGINAL_BOX_1 = "nonlocal non-marginal box modeling 1"

Matrix4 = tuple[tuple[complex, ...], ...]


def _complex(value, label: str) -> complex:
    """``data._to_float``'s number policy for complex entries: never a bool or a string."""
    if isinstance(value, numbers.Number) and not isinstance(value, bool):
        try:
            return complex(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise DataValidationError(f"{label}={value!r:.40} is not a number")


def _matrix4(rows, what: str = "observable") -> Matrix4:
    """An immutable copy of ``rows`` as a 4x4 complex matrix."""
    try:
        matrix = tuple(tuple(row) for row in rows)
    except TypeError:
        raise DataValidationError(f"{what} must be a 4x4 array of numbers") from None
    if len(matrix) != 4 or any(len(row) != 4 for row in matrix):
        raise DataValidationError(
            f"{what} must be 4x4, got rows of lengths {[len(row) for row in matrix]}"
        )
    return tuple(
        tuple(_complex(x, f"{what}[{i}][{j}]") for j, x in enumerate(row))
        for i, row in enumerate(matrix)
    )


def _hermitian_part(m: Matrix4) -> Matrix4:
    return tuple(
        tuple((m[i][j] + m[j][i].conjugate()) / 2.0 for j in range(4)) for i in range(4)
    )


def _braket(v: Sequence[complex], m: Matrix4) -> complex:
    """<v|M|v>."""
    return _sum(v[i].conjugate() * m[i][j] * v[j] for i in range(4) for j in range(4))


def _eigvalsh(h: Sequence[Sequence[complex]]) -> list[float]:
    """Ascending eigenvalues of the Hermitian matrix ``h`` (cyclic Jacobi).

    Rotation (p, q) first turns a_pq real with the phase e = a_pq / |a_pq|,
    then applies the real symmetric Schur rotation (Golub & Van Loan,
    Algorithm 8.5.1), so the combined unitary has columns (c, -s conj(e))
    and (s, c conj(e)) in rows (p, q).
    """
    a = [list(row) for row in h]
    n = len(a)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    diag = [a[i][i].real for i in range(n)]
    for _ in range(50):  # finite input needs under 10 sweeps; the cap ends inf/NaN
        off = math.hypot(*(abs(a[p][q]) for p, q in pairs))
        if off <= 1e-16 * math.hypot(*diag):  # false for NaN and for inf off the diagonal
            break
        for p, q in pairs:
            g = abs(a[p][q])
            if g == 0.0:
                continue
            phase = a[p][q].conjugate() / g
            tau = (diag[q] - diag[p]) / (2.0 * g)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            diag[p] -= t * g
            diag[q] += t * g
            a[p][q] = a[q][p] = 0j
            for k in range(n):
                if k != p and k != q:
                    x, y = a[k][p], a[k][q]
                    a[k][p] = c * x - s * phase * y
                    a[k][q] = s * x + c * phase * y
                    a[p][k] = a[k][p].conjugate()
                    a[q][k] = a[k][q].conjugate()
    return sorted(diag)


def _singular_values(m: Sequence[Sequence[complex]]) -> list[float]:
    """Descending singular values of the square matrix ``m``.

    They are the upper half of the spectrum of the Hermitian [[0, M], [M^H, 0]],
    accurate to rounding of the largest; square roots of the eigenvalues of
    M^H M would lose half the digits of the small ones.
    """
    n = len(m)
    zeros = [0j] * n
    h = [zeros + list(row) for row in m]
    h += [[m[j][i].conjugate() for j in range(n)] + zeros for i in range(n)]
    return [max(value, 0.0) for value in _eigvalsh(h)[: n - 1 : -1]]


class ComplexVector4(Record):
    """Four complex amplitudes, optionally validated as a unit state.

    ``norm`` is derived from the amplitudes, not a field, so it stays out of
    ``__init__``, ``repr`` and ``==``.
    """

    amplitudes: tuple[complex, complex, complex, complex]
    is_state: bool = True

    def __post_init__(self):
        amplitudes = tuple(
            _complex(a, f"amplitude[{i}]") for i, a in enumerate(self.amplitudes)
        )
        if len(amplitudes) != 4:
            raise DataValidationError(f"need 4 amplitudes, got {len(amplitudes)}")
        object.__setattr__(self, "amplitudes", amplitudes)
        # hypot scales internally, so huge amplitudes give a huge norm, not an overflow
        norm = math.hypot(*(abs(a) for a in amplitudes))
        object.__setattr__(self, "norm", norm)
        if self.is_state and not abs(norm - 1.0) <= NORM_TOLERANCE:
            raise DataValidationError(
                f"state norm {norm!r} differs from 1 by more than {NORM_TOLERANCE}"
            )


class Observable4(Record, eq=False):
    """A 4x4 two-outcome observable with spectrum {+1, -1}, each twice.

    Hermitian within ``HERMITIAN_TOLERANCE`` entrywise, with eigenvalues
    within ``EIGENVALUE_TOLERANCE`` of +-1 and trace within
    ``TRACE_TOLERANCE`` of 0.
    """

    matrix: Matrix4

    def __post_init__(self):
        matrix = _matrix4(self.matrix)
        object.__setattr__(self, "matrix", matrix)
        _check_hermitian(matrix)
        trace = _sum(matrix[i][i] for i in range(4))
        if not abs(trace) <= TRACE_TOLERANCE:
            raise DataValidationError(
                f"trace {trace:.6g} not within {TRACE_TOLERANCE} of 0"
            )
        eigenvalues = _eigvalsh(_hermitian_part(matrix))
        spectrum = zip(eigenvalues, (-1.0, -1.0, 1.0, 1.0))
        if not all(abs(value - target) <= EIGENVALUE_TOLERANCE for value, target in spectrum):
            raise DataValidationError(
                f"eigenvalues {[round(value, 4) for value in eigenvalues]} not within "
                f"{EIGENVALUE_TOLERANCE} of -1, -1, +1, +1"
            )


def _check_hermitian(matrix: Matrix4) -> None:
    deviation = max(
        abs(matrix[i][j] - matrix[j][i].conjugate()) for i in range(4) for j in range(4)
    )
    if not deviation <= HERMITIAN_TOLERANCE:
        raise DataValidationError(
            f"not Hermitian: max entry deviation {deviation:.6g} exceeds {HERMITIAN_TOLERANCE}"
        )


class ExpectationValue(Record):
    """Real part of <p|E|p> plus the imaginary residue as a diagnostic."""

    value: float
    imag_part: float


def expectation(state: ComplexVector4, obs: Observable4 | Matrix4) -> ExpectationValue:
    """<p|E|p> of a Hermitian ``obs``; the imaginary residue is reported."""
    if isinstance(obs, Observable4):
        matrix = obs.matrix
    else:
        matrix = _matrix4(obs)
        _check_hermitian(matrix)
    raw = _braket(state.amplitudes, matrix)
    return ExpectationValue(value=raw.real, imag_part=abs(raw.imag))


class ChshReport(Record):
    e_ab: float
    e_abp: float
    e_apb: float
    e_apbp: float
    chsh: float
    classical_violated: bool
    tsirelson_respected: bool

    def __post_init__(self):
        # a block may sum to 1 + BLOCK_SUM_TOLERANCE, and so may |E|
        bound = 1.0 + BLOCK_SUM_TOLERANCE
        eps = 1e-9
        for name in ("e_ab", "e_abp", "e_apb", "e_apbp"):
            value = getattr(self, name)
            if not -bound - eps <= value <= bound + eps:
                raise DataValidationError(f"{name}={value!r} outside [-{bound}, {bound}]")
        if not -4.0 * bound - eps <= self.chsh <= 4.0 * bound + eps:
            raise DataValidationError(f"chsh={self.chsh!r} outside [-{4 * bound}, {4 * bound}]")

    def expectations(self) -> dict[str, float]:
        return dict(zip(BLOCKS, (self.e_ab, self.e_abp, self.e_apb, self.e_apbp)))


def expectations_from_table(table: CoincidenceTable) -> ChshReport:
    """Per-block expectations and the CHSH combination."""
    e = {
        key: _sum(outcome.sign * outcome.p for outcome in table.block(key))
        for key in BLOCKS
    }
    chsh = e["ApBp"] + e["ApB"] + e["ABp"] - e["AB"]
    return ChshReport(
        e_ab=e["AB"],
        e_abp=e["ABp"],
        e_apb=e["ApB"],
        e_apbp=e["ApBp"],
        chsh=chsh,
        classical_violated=abs(chsh) > 2.0,
        tsirelson_respected=abs(chsh) <= TSIRELSON_BOUND,
    )


class MarginalComparison(Record):
    label: str
    block_a: str
    block_b: str
    lhs: float
    rhs: float
    violated: bool


# blocks sharing a measurement: (block, block, which outcome label side)
_MARGINAL_PAIRINGS = (
    ("AB", "ABp", "first"),
    ("ApB", "ApBp", "first"),
    ("AB", "ApB", "second"),
    ("ABp", "ApBp", "second"),
)


def marginal_law_check(
    table: CoincidenceTable, tolerance: float = MARGINAL_TOLERANCE
) -> tuple[MarginalComparison, ...]:
    """Compare each shared single-measurement marginal across block pairs.

    For the blocks sharing the A-side measurement (AB vs ABp, ApB vs ApBp)
    each first-factor label's summed probability must agree, and likewise
    for the B-side (second-factor) labels; 2 labels per side gives 8
    comparisons.  Disagreement beyond ``tolerance`` marks a violation.
    """
    comparisons = []
    for block_a, block_b, side in _MARGINAL_PAIRINGS:
        labels_a = _side_labels(table, block_a, side)
        labels_b = _side_labels(table, block_b, side)
        if set(labels_a) != set(labels_b):
            raise SchemaError(
                f"blocks {block_a} and {block_b} do not share {side}-side labels: "
                f"{sorted(labels_a)} vs {sorted(labels_b)}"
            )
        for label in labels_a:
            lhs = _marginal_sum(table, block_a, side, label)
            rhs = _marginal_sum(table, block_b, side, label)
            comparisons.append(
                MarginalComparison(
                    label=label,
                    block_a=block_a,
                    block_b=block_b,
                    lhs=lhs,
                    rhs=rhs,
                    violated=abs(lhs - rhs) > tolerance,
                )
            )
    return tuple(comparisons)


def _side_labels(table: CoincidenceTable, block: str, side: str) -> list[str]:
    return list(dict.fromkeys(getattr(outcome, side) for outcome in table.block(block)))


def _marginal_sum(table: CoincidenceTable, block: str, side: str, label: str) -> float:
    return _sum(o.p for o in table.block(block) if getattr(o, side) == label)


class SchmidtReport(Record):
    singular_values: tuple[float, float]
    rank: int


def state_schmidt(state: ComplexVector4) -> SchmidtReport:
    """Schmidt decomposition of the state across the two factors.

    Rank 2 (both singular values above ``STATE_RANK_TOLERANCE``) means the state
    is entangled; rank 1 means it is a product state.
    """
    a = state.amplitudes
    singular = _singular_values(((a[0], a[1]), (a[2], a[3])))
    return SchmidtReport(
        singular_values=(singular[0], singular[1]),
        rank=_sum(s > STATE_RANK_TOLERANCE for s in singular),
    )


def realign(matrix: Matrix4) -> Matrix4:
    """Reindex M[(i,j),(k,l)] as R[(i,k),(j,l)].

    Tensor products A (x) B realign to the rank-1 outer product
    vec(A) vec(B)^T, so the singular values of R are the operator-Schmidt
    coefficients of M.
    """
    m = _matrix4(matrix)
    return tuple(
        tuple(m[2 * i + j][2 * k + l] for j in range(2) for l in range(2))
        for i in range(2)
        for k in range(2)
    )


class OperatorSchmidt(Record):
    coefficients: tuple[float, float, float, float]  # descending
    product: bool
    nearest_product_error: float


def operator_product_test(obs: Observable4 | Matrix4) -> OperatorSchmidt:
    """Operator-Schmidt coefficients and product/entangled classification.

    ``product`` iff exactly one coefficient exceeds ``OPERATOR_RANK_TOLERANCE`` times
    the largest; ``nearest_product_error`` is the Frobenius distance to the
    best product (rank-1) approximation.
    """
    singular = _singular_values(realign(obs.matrix if isinstance(obs, Observable4) else obs))
    threshold = OPERATOR_RANK_TOLERANCE * singular[0] if singular[0] > 0.0 else 0.0
    return OperatorSchmidt(
        coefficients=tuple(singular),
        product=_sum(s > threshold for s in singular) <= 1,
        nearest_product_error=math.sqrt(_sum(s * s for s in singular[1:])),
    )


class HilbertModel(Record, eq=False):
    """A C^4 state plus the four block observables, unvalidated.

    Validation happens in ``verify_reference_model`` so that defective
    models produce a named check failure instead of a parse error.
    """

    state: tuple[complex, complex, complex, complex]
    operators: Mapping[str, Matrix4]

    def __post_init__(self):
        state = tuple(_complex(a, f"state[{i}]") for i, a in enumerate(self.state))
        if len(state) != 4:
            raise DataValidationError(f"state needs 4 amplitudes, got {len(state)}")
        object.__setattr__(self, "state", state)
        operators = {}
        for key in BLOCKS:
            if key not in self.operators:
                raise SchemaError(f"model missing operator for block {key}")
            operators[key] = _matrix4(self.operators[key], f"operator {key}")
        object.__setattr__(self, "operators", operators)


# a unit state and +-1 observables have entries of modulus <= 1; far larger
# ones, and infinities or NaN, would overflow the checks' arithmetic
_MAX_MODEL_NUMBER = 1e6


def _model_number(value, context: str) -> float:
    number = _to_float(value, context)
    if not abs(number) <= _MAX_MODEL_NUMBER:  # also false for NaN
        raise DataValidationError(
            f"{context}: {number!r} is not a finite number within +-{_MAX_MODEL_NUMBER:g}"
        )
    return number


def _parse_complex(value, context: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_model_number(value, context), 0.0)
    if isinstance(value, dict):
        if "re" in value or "im" in value:
            _object(value, context, ("re", "im"))
            return complex(
                _model_number(value["re"], context), _model_number(value["im"], context)
            )
        _object(value, context, ("mod", "argDeg"))
        arg = math.radians(_model_number(value["argDeg"], context))
        mod = _model_number(value["mod"], context)
        return complex(mod * math.cos(arg), mod * math.sin(arg))
    raise SchemaError(
        f"{context}: complex numbers must be a number, {{re, im}}, or {{mod, argDeg}}"
    )


def parse_model(text: str) -> HilbertModel:
    """Parse a model file: {"state": [complex x4], "operators": {block: 4x4}}."""
    doc = _object(_load_json(text, "hilbert model"), "hilbert model", ("state", "operators"))
    # only the JSON types needed to walk the document; HilbertModel checks the shapes
    if not isinstance(doc["state"], list):
        raise SchemaError("hilbert model: state must be an array")
    state = tuple(_parse_complex(v, f"state[{i}]") for i, v in enumerate(doc["state"]))
    operators = {}
    for key, rows in _object(doc["operators"], "hilbert model operators", BLOCKS).items():
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise SchemaError(f"operator {key}: expected an array of arrays")
        operators[key] = [
            [_parse_complex(v, f"operator {key}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    return HilbertModel(state=state, operators=operators)


class CheckItem(Record):
    name: str
    passed: bool
    detail: str


class ModelVerificationReport(Record):
    checks: tuple[CheckItem, ...]
    all_passed: bool
    classification: str | None
    chsh: ChshReport

    def check(self, name: str) -> CheckItem:
        for item in self.checks:
            if item.name == name:
                return item
        raise KeyError(f"no check named {name!r}")


def verify_reference_model(
    model: HilbertModel,
    table: CoincidenceTable,
    marginal_tolerance: float = MARGINAL_TOLERANCE,
) -> ModelVerificationReport:
    """Run every model check against the observed coincidence table.

    Checks: per-operator invariants, expectation match against the table,
    state entanglement (Schmidt rank 2), operator entanglement (all four
    non-product), and the box classification.  The classification string
    is emitted when the CHSH value exceeds the classical bound while
    respecting the Tsirelson bound and ANY shared marginal is violated,
    by more than ``marginal_tolerance``; the other checks use this module's
    tolerance constants.  Sub-check failures are listed in the report;
    nothing throws.
    """
    checks: list[CheckItem] = []
    report = expectations_from_table(table)
    table_e = report.expectations()

    try:
        state = ComplexVector4(model.state, is_state=True)
        checks.append(CheckItem("state.norm", True, f"norm = {state.norm:.6f}"))
    except DataValidationError as exc:
        state = ComplexVector4(model.state, is_state=False)
        checks.append(CheckItem("state.norm", False, str(exc)))

    for key in BLOCKS:
        try:
            Observable4(model.operators[key])
            checks.append(CheckItem(f"observable[{key}].invariants", True, "Hermitian, spectrum ~ {+1,+1,-1,-1}, trace ~ 0"))
        except DataValidationError as exc:
            checks.append(CheckItem(f"observable[{key}].invariants", False, str(exc)))

    for key in BLOCKS:
        raw = _braket(state.amplitudes, _hermitian_part(model.operators[key]))
        difference = abs(raw.real - table_e[key])
        checks.append(
            CheckItem(
                f"expectation[{key}]",
                difference <= EXPECTATION_TOLERANCE,
                f"<p|E|p> = {raw.real:.4f} vs table {table_e[key]:.4f} "
                f"(|diff| = {difference:.4f})",
            )
        )

    schmidt = state_schmidt(state)
    checks.append(
        CheckItem(
            "state.schmidt_rank",
            schmidt.rank == 2,
            f"singular values {schmidt.singular_values[0]:.4f}, "
            f"{schmidt.singular_values[1]:.4f} -> rank {schmidt.rank}",
        )
    )

    for key in BLOCKS:
        result = operator_product_test(model.operators[key])
        checks.append(
            CheckItem(
                f"operator[{key}].entangled",
                not result.product,
                f"schmidt coefficients {tuple(round(c, 4) for c in result.coefficients)}",
            )
        )

    marginals = marginal_law_check(table, tolerance=marginal_tolerance)
    any_marginal_violated = any(m.violated for m in marginals)
    box_condition = (
        report.classical_violated and report.tsirelson_respected and any_marginal_violated
    )
    classification = NONLOCAL_NON_MARGINAL_BOX_1 if box_condition else None
    checks.append(
        CheckItem(
            "box_classification",
            box_condition,
            f"CHSH = {report.chsh:.4f}, classical violated = {report.classical_violated}, "
            f"tsirelson respected = {report.tsirelson_respected}, "
            f"marginal violations = {_sum(m.violated for m in marginals)}/{len(marginals)}",
        )
    )

    return ModelVerificationReport(
        checks=tuple(checks),
        all_passed=all(item.passed for item in checks),
        classification=classification,
        chsh=report,
    )
