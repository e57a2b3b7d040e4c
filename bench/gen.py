"""Seeded input generators for the benchmark workloads.

Standard library only.  Every generator takes a ``random.Random`` built
from the benchmark's ``--seed``, so the same seed gives byte-identical
input files; qcm sees nothing but those files.
"""

from __future__ import annotations

import math
import random

MEMBERSHIP_COLUMNS = (
    "exemplar", "conceptA", "conceptB", "muA", "muB", "muAp", "muBp",
    "muAandB", "muAandBp", "muApandB", "muApandBp", "muAorB",
)

TABLE_RECORDS = 24
# a quarter of the records are exact classical joints: they take the
# general fit's classical shortcut, the rest take its multistart search
CLASSICAL_RECORDS = TABLE_RECORDS // 4

# N for the count-fit ladder; each op fits one dataset of one size.  Seven
# sizes of equal weight keep p50 and p80 inside one size class each; the
# largest stays at 300 so a run holds enough rounds for steady medians.
COUNT_LADDER = (11, 24, 50, 100, 150, 200, 300)
# above the MB overflow threshold (N ~ 1030); probed once per run, untimed
OVERFLOW_SIZES = (1100,)
COUNT_KINDS = ("binomial", "linear", "mixture")

_CONCEPTS = (
    ("Pets", "Farmyard Animals"), ("Furniture", "Household Appliances"),
    ("Fruits", "Vegetables"), ("Sports", "Games"), ("Tools", "Weapons"),
)


def _classical_weights(rng: random.Random) -> dict[str, float]:
    # four joint atoms in thousandths summing to 1000, so every marginal is
    # an exact 3-decimal value and the atoms sum to 1 up to float rounding
    cuts = sorted(rng.sample(range(1, 1000), 3))
    ab, abp, apb, apbp = (b - a for a, b in zip([0, *cuts], [*cuts, 1000]))
    thousandths = {
        "muA": ab + abp, "muB": ab + apb, "muAp": apb + apbp, "muBp": abp + apbp,
        "muAandB": ab, "muAandBp": abp, "muApandB": apb, "muApandBp": apbp,
        "muAorB": ab + abp + apb,
    }
    return {column: value / 1000 for column, value in thousandths.items()}


def _free_weights(rng: random.Random) -> dict[str, float]:
    return {column: round(rng.uniform(0.05, 0.95), 3) for column in MEMBERSHIP_COLUMNS[3:]}


def concept_table(rng: random.Random, index: int) -> tuple[str, list[dict]]:
    """One membership table as CSV text plus its records as column dicts.

    Each record carries a ``classical`` flag for the output checks; that
    flag is not written to the CSV.
    """
    classical = set(rng.sample(range(TABLE_RECORDS), CLASSICAL_RECORDS))
    concept_a, concept_b = rng.choice(_CONCEPTS)
    records = []
    lines = [",".join(MEMBERSHIP_COLUMNS)]
    for row in range(TABLE_RECORDS):
        weights = _classical_weights(rng) if row in classical else _free_weights(rng)
        record = {
            "exemplar": f"item-{index:02d}-{row:02d}",
            "conceptA": concept_a,
            "conceptB": concept_b,
            **weights,
        }
        lines.append(",".join(str(record[c]) for c in MEMBERSHIP_COLUMNS))
        records.append({**record, "classical": row in classical})
    return "\n".join(lines) + "\n", records


def log_binomial_coefficients(n_total: int) -> list[float]:
    head = math.lgamma(n_total + 1)
    return [head - math.lgamma(n + 1) - math.lgamma(n_total - n + 1) for n in range(n_total + 1)]


def binomial_pmf(n_total: int, p: float, log_comb: list[float] | None = None) -> list[float]:
    """C(N, n) p^n (1-p)^(N-n) in log space, so it holds for any N."""
    if p <= 0.0 or p >= 1.0:
        edge = 0 if p <= 0.0 else n_total
        return [1.0 if n == edge else 0.0 for n in range(n_total + 1)]
    log_comb = log_comb or log_binomial_coefficients(n_total)
    log_p, log_q = math.log(p), math.log1p(-p)
    return [
        math.exp(c + n * log_p + (n_total - n) * log_q) for n, c in enumerate(log_comb)
    ]


def linear_pmf(n_total: int, p1: float) -> list[float]:
    """(n p1 + (N - n)(1 - p1)) / (N (N + 1) / 2)."""
    scale = n_total * (n_total + 1) / 2
    return [(n * p1 + (n_total - n) * (1.0 - p1)) / scale for n in range(n_total + 1)]


def count_dataset(rng: random.Random, kind: str, n_total: int) -> dict:
    """One count dataset: a planted MB or BE law, or a noisy mixture of both."""
    if kind == "binomial":
        observed = binomial_pmf(n_total, rng.uniform(0.1, 0.9))
    elif kind == "linear":
        observed = linear_pmf(n_total, rng.uniform(0.0, 1.0))
    else:
        weight = rng.uniform(0.2, 0.8)
        mb = binomial_pmf(n_total, rng.uniform(0.2, 0.8))
        be = linear_pmf(n_total, rng.uniform(0.0, 1.0))
        observed = [
            (weight * x + (1.0 - weight) * y) * (1.0 + 0.3 * rng.uniform(-1.0, 1.0))
            for x, y in zip(mb, be)
        ]
    total = sum(observed)
    return {
        "category": f"{kind} N={n_total}",
        "N": n_total,
        "stateLabels": ["first", "second"],
        "observed": [value / total for value in observed],
    }
