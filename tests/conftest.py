"""Shared fixtures, samplers, and oracles for the test suite.

The samplers build random-but-reproducible inputs whose theoretical
properties are known exactly (classical joint distributions, local
hidden-variable models, Born-rule product measurements); the oracles
recompute model quantities by an independent method (grid search,
alternating least squares) so fitter results are not self-certifying.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from qcm import CoincidenceOutcome, CoincidenceTable, MembershipRecord

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# every bundled invocation with a committed golden output; golden name -> argv
GOLDEN_RUNS = {
    "classicality_goldfish.txt": ["classicality", "--input", "data/goldfish.csv"],
    "classicality_negation_demo.txt": [
        "classicality", "--input", "data/negation_demo.csv",
    ],
    "fock_fit_hampton_two_sector.txt": ["fock-fit", "--input", "data/hampton.csv"],
    "fock_fit_goldfish_general.txt": [
        "fock-fit", "--input", "data/goldfish.csv", "--mode", "general",
    ],
    "chsh_animal_acts.txt": [
        "chsh", "--input", "data/animal_acts_table.json",
        "--model", "data/animal_acts_model.json",
    ],
    "stats_fit_uniform11.txt": ["stats-fit", "--input", "data/uniform11.json"],
    "stats_fit_mb_exact_n9.txt": ["stats-fit", "--input", "data/mb_exact_n9.json"],
    "report_manifest.txt": ["report", "--manifest", "data/report_manifest.json"],
}

GOLDEN_PLOT = ("stats_fit_uniform11.svg", ["stats-fit", "--input", "data/uniform11.json"])

# the JSON report of every GOLDEN_RUNS invocation, plus text for chsh without a
# model; kept apart because the benchmark reads GOLDEN_RUNS as its op mix
GOLDEN_PAYLOAD_RUNS = {
    **{
        name.replace(".txt", ".json"): [*argv, "--output", "json"]
        for name, argv in GOLDEN_RUNS.items()
    },
    "chsh_animal_acts_no_model.txt": ["chsh", "--input", "data/animal_acts_table.json"],
}


def child_env() -> dict[str, str]:
    """This process's environment for a child python."""
    env = dict(os.environ)
    # the child may run in another cwd, where a relative PYTHONPATH=src is lost
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH")))
    )
    return env


def run_cli(args, *, env_extra=None, stdin_text=None, cwd=None):
    env = child_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qcm", *args],
        capture_output=True,
        text=True,
        env=env,
        input=stdin_text,
        cwd=cwd or REPO_ROOT,
    )


def assert_matches_golden(name: str, actual: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN") == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(actual, encoding="utf-8", newline="")
        return
    expected = path.read_text(encoding="utf-8")
    assert actual == expected, f"output differs from golden file {name}"


@pytest.fixture(scope="session")
def goldfish_record() -> MembershipRecord:
    return MembershipRecord(
        exemplar="Goldfish",
        concept_a="Pets",
        concept_b="Farmyard Animals",
        mu_a=0.93,
        mu_b=0.17,
        mu_ap=0.12,
        mu_bp=0.81,
        mu_a_and_b=0.43,
        mu_a_and_bp=0.91,
        mu_ap_and_b=0.18,
        mu_ap_and_bp=0.43,
    )


@pytest.fixture(scope="session")
def animal_table():
    from qcm import parse_coincidence

    return parse_coincidence(
        DATA_DIR.joinpath("animal_acts_table.json").read_text(encoding="utf-8")
    )


@pytest.fixture(scope="session")
def animal_model():
    from qcm import parse_model

    return parse_model(DATA_DIR.joinpath("animal_acts_model.json").read_text(encoding="utf-8"))


def random_joint_record(
    rng: random.Random, index: int = 0, atoms: Sequence[float] | None = None
) -> MembershipRecord:
    """A record whose weights come from an explicit 4-atom joint distribution.

    Such records are classical by construction: every representability
    condition must hold up to float rounding.  Pass ``atoms`` (four normalized
    masses) to pin the distribution instead of drawing one.
    """
    if atoms is None:
        raw = [rng.random() + 1e-9 for _ in range(4)]
        total = sum(raw)
        atoms = [x / total for x in raw]
    ab, abp, apb, apbp = atoms
    return MembershipRecord(
        exemplar=f"joint-{index}",
        mu_a=ab + abp,
        mu_b=ab + apb,
        mu_ap=apb + apbp,
        mu_bp=abp + apbp,
        mu_a_and_b=ab,
        mu_a_and_bp=abp,
        mu_ap_and_b=apb,
        mu_ap_and_bp=apbp,
        mu_a_or_b=ab + abp + apb,
    )


def local_model_table(rng: random.Random) -> CoincidenceTable:
    """Coincidence table of a local hidden-variable model.

    Hidden states carry deterministic +-1 outcomes for both measurement
    choices on each side; mixing weights are random.  CHSH for any such
    table obeys the classical bound |CHSH| <= 2.
    """
    n_hidden = rng.randint(1, 6)
    weights = [rng.random() + 1e-9 for _ in range(n_hidden)]
    total = sum(weights)
    weights = [w / total for w in weights]
    assignments = [
        tuple(rng.choice((1, -1)) for _ in range(4))  # (a, a', b, b')
        for _ in range(n_hidden)
    ]

    def block(side_a: int, side_b: int) -> tuple[CoincidenceOutcome, ...]:
        probs = {(1, 1): 0.0, (1, -1): 0.0, (-1, 1): 0.0, (-1, -1): 0.0}
        for w, outcome in zip(weights, assignments):
            probs[(outcome[side_a], outcome[side_b])] += w
        labels = {1: "up", -1: "down"}
        # normalized weights can sum to 1 + 1 ulp; clamp into the unit interval
        return tuple(
            CoincidenceOutcome(
                first=labels[x], second=labels[y], sign=x * y, p=min(probs[(x, y)], 1.0)
            )
            for x, y in ((1, 1), (1, -1), (-1, 1), (-1, -1))
        )

    return CoincidenceTable(
        ab=block(0, 2), abp=block(0, 3), apb=block(1, 2), apbp=block(1, 3)
    )


def _random_qubit_basis(rng: np.random.Generator) -> np.ndarray:
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(raw)
    # fix the phase so the basis is deterministic given the raw draw
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))

def born_product_table(rng: np.random.Generator) -> CoincidenceTable:
    """Coincidence table of product +-1 measurements on a random C^4 state.

    Outcome probabilities follow the Born rule for the product basis
    u_i (x) v_j with outcome sign s_i * t_j, the measurement structure for
    which the Tsirelson bound |CHSH| <= 2*sqrt(2) is a theorem.
    """
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    bases_a = (_random_qubit_basis(rng), _random_qubit_basis(rng))
    bases_b = (_random_qubit_basis(rng), _random_qubit_basis(rng))
    signs = (1, -1)
    labels = {1: "plus", -1: "minus"}

    def block(u: np.ndarray, v: np.ndarray) -> tuple[CoincidenceOutcome, ...]:
        outcomes = []
        for i in range(2):
            for j in range(2):
                vector = np.kron(u[:, i], v[:, j])
                p = min(float(abs(np.vdot(vector, state)) ** 2), 1.0)
                outcomes.append(
                    CoincidenceOutcome(
                        first=labels[signs[i]],
                        second=labels[signs[j]],
                        sign=signs[i] * signs[j],
                        p=p,
                    )
                )
        return tuple(outcomes)

    return CoincidenceTable(
        ab=block(bases_a[0], bases_b[0]),
        abp=block(bases_a[0], bases_b[1]),
        apb=block(bases_a[1], bases_b[0]),
        apbp=block(bases_a[1], bases_b[1]),
    )


def sector_one_limit_record() -> MembershipRecord:
    """Averaging-limit quadruple built from dyadic weights.

    Every combination weight equals the plain average of its marginals and
    all inputs are exactly representable in binary floating point, so the
    deviation profile is exactly (-0.5, -0.5, -0.5, -0.5, -1).
    """
    mu_a, mu_b = 0.75, 0.25
    mu_ap, mu_bp = 1.0 - mu_a, 1.0 - mu_b
    return MembershipRecord(
        exemplar="averaging-limit",
        mu_a=mu_a,
        mu_b=mu_b,
        mu_ap=mu_ap,
        mu_bp=mu_bp,
        mu_a_and_b=(mu_a + mu_b) / 2.0,
        mu_a_and_bp=(mu_a + mu_bp) / 2.0,
        mu_ap_and_b=(mu_ap + mu_b) / 2.0,
        mu_ap_and_bp=(mu_ap + mu_bp) / 2.0,
    )


def two_sector_grid_check(
    mu_a: float,
    mu_b: float,
    target: float,
    connective: str,
    result,
    n_m2: int = 1000,
    n_theta: int = 1000,
) -> None:
    """Verify a two-sector fit against a dense parameter grid.

    Checks (a) the grid's best residual agrees with feasibility, and
    (b) the reported solution interval matches the m2 values for which a
    workable theta exists.  Workability per m2 is decided analytically:
    the model is m2*logical + (1-m2)*(avg + I*cos(theta)), so m2 admits an
    exact solution iff |target - avg - m2*(logical - avg)| <= (1-m2)*I.
    """
    from qcm import interference_magnitude

    logical = mu_a * mu_b if connective == "and" else mu_a + mu_b - mu_a * mu_b
    avg = (mu_a + mu_b) / 2.0
    interf = interference_magnitude(mu_a, mu_b)
    m2_values = np.linspace(0.0, 1.0, n_m2)
    theta = np.linspace(0.0, math.pi, n_theta)[None, :]
    values = m2_values[:, None] * logical + (1.0 - m2_values[:, None]) * (
        avg + interf * np.cos(theta)
    )
    grid_best = float(np.abs(values - target).min())
    grid_step = max(
        abs(logical - avg) + interf, interf * math.pi
    ) / min(n_m2, n_theta)

    offset = target - avg
    span = logical - avg
    workable = np.abs(offset - m2_values * span) <= (1.0 - m2_values) * interf + 1e-12

    if result.feasible:
        assert result.residual <= result.tolerance
        assert grid_best <= 10.0 * grid_step
        assert workable.any()
        family = result.family
        assert family.m2_min is not None and family.m2_max is not None
        step = 1.0 / (n_m2 - 1)
        assert abs(float(m2_values[workable].min()) - family.m2_min) <= 2.0 * step
        assert abs(float(m2_values[workable].max()) - family.m2_max) <= 2.0 * step
    else:
        assert not workable.any()
        assert grid_best > result.tolerance
        # the reported residual is the distance to the closest attainable
        # value, which the dense grid must approach
        assert grid_best <= result.residual + 1e-12
        assert result.residual <= grid_best + 10.0 * grid_step


def general_fit_interference(result) -> float:
    """Total interference sum(n2 * |beta * cos(phi)|) of a general fit."""
    params = result.params
    return sum(
        pair.n2 * abs(pair.beta * math.cos(pair.phi_rad))
        for pair in (params.ab, params.abp, params.apb, params.apbp)
    )


def general_fit_grid_oracle(record: MembershipRecord, n: int = 13, slack: float = 0.05) -> float:
    """Least total interference over an n^3 grid of the general fit's alpha slice.

    The slice is parameterized by marginal shifts (sa, sb) within the slack
    and frac placing alpha_AB in its feasible interval.  A pair costs
    nothing when its target lies between its alpha and its marginal
    average, and |target - average| otherwise.
    """
    mu_a, mu_b, mu_ap, mu_bp = record.mu_a, record.mu_b, record.mu_ap, record.mu_bp
    targets = (record.mu_a_and_b, record.mu_a_and_bp, record.mu_ap_and_b, record.mu_ap_and_bp)
    avgs = ((mu_a + mu_b) / 2, (mu_a + mu_bp) / 2, (mu_ap + mu_b) / 2, (mu_ap + mu_bp) / 2)
    steps = [i / (n - 1) for i in range(n)]
    sa_lo, sa_hi = max(-slack, -mu_a), min(slack, 1.0 - mu_a)
    sb_lo, sb_hi = max(-slack, -mu_b), min(slack, 1.0 - mu_b)
    best = math.inf
    for u in steps:
        ma = mu_a + sa_lo + u * (sa_hi - sa_lo)
        for v in steps:
            mb = mu_b + sb_lo + v * (sb_hi - sb_lo)
            lo, hi = max(0.0, ma + mb - 1.0), min(ma, mb)
            for frac in steps:
                a1 = lo + frac * (hi - lo)
                alphas = (a1, ma - a1, mb - a1, 1.0 - ma - mb + a1)
                best = min(best, sum(
                    0.0 if min(alpha, avg) - 1e-12 <= target <= max(alpha, avg) + 1e-12
                    else abs(target - avg)
                    for alpha, avg, target in zip(alphas, avgs, targets)
                ))
    return best


def nearest_product_oracle(matrix: np.ndarray, iterations: int = 200) -> float:
    """Frobenius distance to the closest product operator, found by ALS.

    Alternates closed-form least-squares updates of the two 2x2 factors;
    independent of the realignment/SVD route used by the library.
    """
    tensor = np.asarray(matrix, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    flat = tensor.reshape(4, 4)  # rows index (i,k) of A, cols (j,l) of B
    rng = np.random.default_rng(7)
    best = math.inf
    for _ in range(3):
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        for _ in range(iterations):
            a = flat @ b.conj() / float(np.vdot(b, b).real)
            b = flat.T @ a.conj() / float(np.vdot(a, a).real)
        best = min(best, float(np.linalg.norm(flat - np.outer(a, b))))
    return best
