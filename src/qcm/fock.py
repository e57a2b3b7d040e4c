"""Two-sector interference models for concept combinations.

A combination weight is modeled as a convex mixture of two sectors:

* sector 2, the "logical" mode, contributes the classical product formula
  (mu_a * mu_b for a conjunction, mu_a + mu_b - mu_a * mu_b for a
  disjunction);
* sector 1, the "emergent" mode, contributes the plain average of the two
  membership weights shifted by an interference term
  ``interference_magnitude(mu_a, mu_b) * cos(theta)``.

So ``value = m2 * logical + n2 * ((mu_a + mu_b) / 2 + I * cos(theta))``
with m2 + n2 = 1.  The general quadruple model replaces the logical term
with a free coefficient alpha per combination and the interference
magnitude with a free beta in [-1, 1], under the constraints sum(alpha)=1
and soft marginal matching.

Predictions outside [0, 1] are flagged, never clamped: an out-of-range
value signals an invalid parameter region, and fitters must avoid it.

Angles cross the API boundary in degrees; record fields store radians.
"""

from __future__ import annotations

import math
from itertools import combinations

from .data import (
    BLOCKS, FIT_POLICIES, _BLOCK_ATTR, MembershipRecord, Record, _check_unit_interval, _sum,
)
from .errors import DataValidationError

FIT_TOLERANCE = 1e-9

ALPHA_SUM_TOLERANCE = 1e-9  # the general model's alpha coefficients sum to 1 within this

_EPS = 1e-12


def interference_magnitude(mu_x: float, mu_y: float) -> float:
    """Coefficient multiplying cos(theta) in the sector-1 prediction.

    sqrt(1-mu_x) * sqrt(1-mu_y) when mu_x + mu_y > 1, else
    sqrt(mu_x) * sqrt(mu_y).
    """
    mu_x = _check_unit_interval(mu_x, "muX")
    mu_y = _check_unit_interval(mu_y, "muY")
    if mu_x + mu_y > 1.0:
        return math.sqrt((1.0 - mu_x) * (1.0 - mu_y))
    return math.sqrt(mu_x * mu_y)


class FockParams(Record):
    """Two-sector parameters for a single conjunction or disjunction."""

    m2: float
    n2: float
    theta_rad: float
    connective: str

    def __post_init__(self):
        for name in ("m2", "n2"):
            object.__setattr__(self, name, _check_unit_interval(getattr(self, name), name))
        if abs(self.m2 + self.n2 - 1.0) > 1e-9:
            raise DataValidationError(
                f"sector weights must sum to 1: m2={self.m2!r}, n2={self.n2!r}"
            )
        if not -_EPS <= self.theta_rad <= math.pi + _EPS:
            raise DataValidationError(
                f"theta={math.degrees(self.theta_rad)!r} deg outside [0, 180]"
            )
        if self.connective not in ("and", "or"):
            raise DataValidationError(f"connective must be 'and' or 'or', got {self.connective!r}")

    @classmethod
    def from_degrees(
        cls, m2: float, theta_deg: float, connective: str, n2: float | None = None
    ) -> "FockParams":
        return cls(
            m2=m2,
            n2=1.0 - m2 if n2 is None else n2,
            theta_rad=math.radians(theta_deg),
            connective=connective,
        )

    @property
    def theta_deg(self) -> float:
        return math.degrees(self.theta_rad)


class Prediction(Record):
    """Model output with an explicit range flag (no silent clamping)."""

    value: float
    in_range: bool


def _flagged(value: float) -> Prediction:
    return Prediction(value=value, in_range=-_EPS <= value <= 1.0 + _EPS)


def _logical(mu_a: float, mu_b: float, connective: str) -> float:
    if connective == "and":
        return mu_a * mu_b
    return mu_a + mu_b - mu_a * mu_b


def eval_two_sector(mu_a: float, mu_b: float, params: FockParams) -> Prediction:
    """m2 * logical + n2 * ((mu_a+mu_b)/2 + I cos theta).

    The logical value is mu_a mu_b for ``params.connective`` 'and' and
    mu_a + mu_b - mu_a mu_b for 'or'.
    """
    mu_a = _check_unit_interval(mu_a, "muA")
    mu_b = _check_unit_interval(mu_b, "muB")
    sector1 = (mu_a + mu_b) / 2.0 + interference_magnitude(mu_a, mu_b) * math.cos(
        params.theta_rad
    )
    sector2 = _logical(mu_a, mu_b, params.connective)
    return _flagged(params.m2 * sector2 + params.n2 * sector1)


class PairParams(Record):
    """General-model parameters for one combination XY."""

    m2: float
    n2: float
    alpha: float
    beta: float
    phi_rad: float

    WEIGHT_SUM_TOLERANCE = 0.02  # reference parameter lists sum to 0.9946..1.0125

    def __post_init__(self):
        for name, lo, hi in (
            ("m2", 0.0, 1.0),
            ("n2", 0.0, 1.0),
            ("alpha", 0.0, 1.0),
            ("beta", -1.0, 1.0),
        ):
            value = float(getattr(self, name))
            if not math.isfinite(value) or not lo - _EPS <= value <= hi + _EPS:
                raise DataValidationError(f"{name}={value!r} outside [{lo}, {hi}]")
            object.__setattr__(self, name, value)
        if abs(self.m2 + self.n2 - 1.0) > self.WEIGHT_SUM_TOLERANCE:
            raise DataValidationError(
                f"pair weights m2+n2={self.m2 + self.n2!r} not within "
                f"{self.WEIGHT_SUM_TOLERANCE} of 1"
            )
        if not -_EPS <= self.phi_rad <= math.pi + _EPS:
            raise DataValidationError(
                f"phi={math.degrees(self.phi_rad)!r} deg outside [0, 180]"
            )

    @property
    def phi_deg(self) -> float:
        return math.degrees(self.phi_rad)


class GeneralFockParams(Record):
    """Per-combination general-model parameters for the negation quadruple.

    The sector-2 state enters only through the alpha coefficients, which
    must sum to 1 (within ``ALPHA_SUM_TOLERANCE``).
    """

    ab: PairParams
    abp: PairParams
    apb: PairParams
    apbp: PairParams

    def __post_init__(self):
        total = self.ab.alpha + self.abp.alpha + self.apb.alpha + self.apbp.alpha
        if abs(total - 1.0) > ALPHA_SUM_TOLERANCE:
            raise DataValidationError(
                f"alpha coefficients sum to {total!r}, not 1 within {ALPHA_SUM_TOLERANCE}"
            )

    def pair(self, which: str) -> PairParams:
        try:
            return getattr(self, _BLOCK_ATTR[which])
        except KeyError:
            raise KeyError(f"unknown pair {which!r} (expected one of {BLOCKS})") from None


def eval_general(
    mu_x: float, mu_y: float, params: GeneralFockParams, which: str
) -> Prediction:
    """m2_XY * alpha_XY + n2_XY * ((mu_x+mu_y)/2 + beta_XY cos phi_XY).

    ``mu_x, mu_y`` must be the marginals matching ``which`` (for ApB pass
    mu(A'), mu(B)).
    """
    mu_x = _check_unit_interval(mu_x, "muX")
    mu_y = _check_unit_interval(mu_y, "muY")
    pair = params.pair(which)
    sector1 = (mu_x + mu_y) / 2.0 + pair.beta * math.cos(pair.phi_rad)
    return _flagged(pair.m2 * pair.alpha + pair.n2 * sector1)


def record_marginals(record: MembershipRecord) -> dict[str, tuple[float, float]]:
    """The (mu_x, mu_y) marginal pair feeding each combination."""
    mu_a, mu_b, mu_ap, mu_bp = record.require("muA", "muB", "muAp", "muBp")
    return {
        "AB": (mu_a, mu_b),
        "ABp": (mu_a, mu_bp),
        "ApB": (mu_ap, mu_b),
        "ApBp": (mu_ap, mu_bp),
    }


def eval_general_record(
    record: MembershipRecord, params: GeneralFockParams
) -> dict[str, Prediction]:
    marginals = record_marginals(record)
    return {
        which: eval_general(*marginals[which], params, which) for which in BLOCKS
    }


class FeasibleSet(Record):
    """Shape of the full solution set of an underdetermined fit."""

    kind: str  # empty | point | curve
    m2_min: float | None = None
    m2_max: float | None = None
    note: str = ""


class FitResult(Record):
    params: object
    residual: float
    feasible: bool
    family: FeasibleSet | None
    policy: str
    tolerance: float = FIT_TOLERANCE

    def __post_init__(self):
        if self.feasible and self.residual > self.tolerance:
            raise DataValidationError(
                f"feasible fit with residual {self.residual!r} above tolerance"
            )


def fit_two_sector(
    mu_a: float,
    mu_b: float,
    target: float,
    connective: str,
    policy: str = "min-interference",
    tolerance: float = FIT_TOLERANCE,
) -> FitResult:
    """Solve for (m2, theta) reproducing ``target``; ``tolerance`` decides only ``feasible``.

    The model is linear in m2 and in cos(theta): with ``offset = target -
    avg`` and ``span = logical - avg``, m2 reproduces the target exactly iff
    ``|offset - m2*span| <= (1-m2)*I``, at ``cos(theta) = (offset - m2*span)
    / ((1-m2)*I)``.  Those two linear inequalities cut one interval of m2
    from [0, 1], the exact solution set reported as ``family``; its ends
    are snapped to 0 or 1 only at float resolution.  When it is empty the
    fit returns the closest attainable point.  ``feasible`` is ``residual
    <= tolerance`` either way, and infeasibility is a result state.

    Policies pick the canonical point of an underdetermined fit.
    ``min-interference``: smallest |cos theta|, ties broken by smallest m2
    (attribute as little to interference as possible).  ``min-m2``:
    smallest sector-2 weight, ties broken by smallest |cos theta|.
    """
    mu_a = _check_unit_interval(mu_a, "muA")
    mu_b = _check_unit_interval(mu_b, "muB")
    target = _check_unit_interval(target, "target")
    if connective not in ("and", "or"):
        raise ValueError(f"connective must be 'and' or 'or', got {connective!r}")
    if policy not in FIT_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")

    logical = _logical(mu_a, mu_b, connective)
    avg = (mu_a + mu_b) / 2.0
    interf = interference_magnitude(mu_a, mu_b)
    offset = target - avg  # sector-1 shift the interference must supply at m2=0
    span = logical - avg

    def result(m2: float, theta_rad: float, feasible_set: FeasibleSet) -> FitResult:
        params = FockParams(m2=m2, n2=1.0 - m2, theta_rad=theta_rad, connective=connective)
        residual = abs(eval_two_sector(mu_a, mu_b, params).value - target)
        return FitResult(params=params, residual=residual, feasible=residual <= tolerance,
                         family=feasible_set, policy=policy, tolerance=tolerance)

    # for s = +1 and -1 the condition reads m2*(I - s*span) <= I - s*offset:
    # a bound at the root (s*I - offset) / (s*I - span), upper when
    # I > s*span, lower when I < s*span, and all or nothing when they are equal
    m2_lo, m2_hi = 0.0, 1.0
    for s in (1.0, -1.0):
        den, num = s * interf - span, s * interf - offset
        if abs(den) > _EPS:
            root = num / den
            if -_EPS <= root <= 0.0 or abs(root - 1.0) <= _EPS:
                root = float(round(root))  # float noise at an end of [0, 1]
            if s * den > 0.0:
                m2_hi = min(m2_hi, root)
            else:
                m2_lo = max(m2_lo, root)
        elif s * num < -_EPS:
            m2_lo = math.inf  # the bound fails at every m2

    if m2_lo > m2_hi:
        # no exact solution: the closest attainable point is the nearer end of the range
        lo_attain, hi_attain = min(logical, avg - interf), max(logical, avg + interf)
        end = hi_attain if target > hi_attain else lo_attain
        m2, theta = (1.0, math.pi / 2) if end == logical else (0.0, 0.0 if target > avg else math.pi)
        note = f"no exact solution; attainable range [{lo_attain:.6g}, {hi_attain:.6g}]"
        return result(m2, theta, FeasibleSet(kind="empty", note=note))

    if interf <= _EPS:
        # interference term dead: value = m2*logical + (1-m2)*avg, theta free
        if abs(span) <= _EPS:
            note = "interference weight 0 and logical = average: any (m2, theta) works"
            family = FeasibleSet(kind="curve", m2_min=0.0, m2_max=1.0, note=note)
        else:
            m2 = min(max(offset / span, 0.0), 1.0)
            note = "interference weight 0: m2 fixed, theta unconstrained"
            family = FeasibleSet(kind="point", m2_min=m2, m2_max=m2, note=note)
        return result(family.m2_min, math.pi / 2, family)

    # |cos theta| grows with m2 on [0, 1) unless it crosses zero at offset/span
    # (span != 0 here: |span| >= I*(1-I) > 0)
    zero = offset / span
    if policy == "min-interference" and m2_lo - _EPS <= zero <= m2_hi + _EPS:
        m2, theta = min(max(zero, m2_lo), m2_hi), math.pi / 2
    elif m2_lo < 1.0:
        cos_theta = (offset - span * m2_lo) / ((1.0 - m2_lo) * interf)
        m2, theta = m2_lo, math.acos(min(max(cos_theta, -1.0), 1.0))
    else:
        m2, theta = 1.0, math.pi / 2
    if abs(offset - span) <= _EPS:
        note = "cos(theta) constant across m2; m2=1 reproduces the target exactly"
    else:
        note = "theta(m2) = acos((target - avg - m2*(logical - avg)) / ((1-m2)*I))"
    kind = "point" if m2_lo == m2_hi else "curve"  # the ends are already snapped
    return result(m2, theta, FeasibleSet(kind=kind, m2_min=m2_lo, m2_max=m2_hi, note=note))


MARGINAL_SLACK = 0.05  # how far the alpha marginals may stray from mu(A), mu(B)


def _solve_pair(target: float, avg: float, alpha: float, interf: float):
    """Least-interference (m2, beta, phi) reproducing target for one pair.

    The model value is m2*alpha + (1-m2)*(avg + beta*cos(phi)); a
    zero-interference solution exists iff target lies between alpha and
    avg, i.e. iff alpha sits on the target's side (alpha >= target when
    target > avg, alpha <= target when target < avg).  Otherwise the
    interference used is |target - avg| whatever alpha is: all or nothing.
    """
    offset = target - avg
    if abs(offset) <= _EPS:
        return 0.0, 0.0, math.pi / 2
    if math.copysign(1.0, offset) * (alpha - target) >= -_EPS:
        return min(offset / (alpha - avg), 1.0), 0.0, math.pi / 2
    # interference required; put it all in sector 1 (m2 = 0)
    if interf >= abs(offset) and interf > 0.0:
        return 0.0, interf, math.acos(min(max(offset / interf, -1.0), 1.0))
    beta = min(max(offset, -1.0), 1.0)
    return 0.0, abs(beta), 0.0 if beta >= 0.0 else math.pi


def _clip(polygon, g, tol):
    """Sutherland-Hodgman: the part of ``polygon``, a list of (vertex, line of
    the edge leaving it), where g0 + g1*sa + g2*sb <= tol.

    A new vertex is where the edge's line crosses g, by Cramer's rule: exact
    under a swap or a negation of either line, so its bits do not depend on
    the order in which the two lines are met.
    """
    g0, g1, g2 = g
    inside = [g0 + g1 * sa + g2 * sb <= tol for (sa, sb), _ in polygon]
    if all(inside):
        return polygon
    if not any(inside):
        return []
    clipped = []
    for (vertex, edge), here, there in zip(polygon, inside, inside[1:] + inside[:1]):
        if here:
            clipped.append((vertex, edge))
        if here != there:
            c0, c1, c2 = edge
            det = c1 * g2 - c2 * g1
            if det != 0.0:
                point = ((c2 * g0 - c0 * g2) / det, (c0 * g1 - c1 * g0) / det)
                clipped.append((point, g if here else edge))
    return clipped


def _least_slack_point(bounds, box):
    """Least-slack (sa, sb, a1) meeting every a1 bound, or None.

    ``bounds`` holds (lower, (c0, c1, c2)) affine bounds c0 + c1*sa + c2*sb
    on a1; ``box`` is (sa_lo, sa_hi, sb_lo, sb_hi).  Eliminating a1 leaves
    lower - upper <= 0 for every pair of bounds: the box is clipped by each,
    stopping once it is empty.  |sa| + |sb| is linear on each sign quadrant,
    so its least lies on a vertex of the polygon clipped by a quadrant.
    Every test is relaxed by one tolerance, _EPS / 10.  Ties go to the
    smallest sa, then sb; a1 sits at its lower bound.
    """
    tol = _EPS / 10  # tighter than _solve_pair's, so a chosen pair stays free
    lowers = [form for lower, form in bounds if lower]
    uppers = [form for lower, form in bounds if not lower]
    sa_lo, sa_hi, sb_lo, sb_hi = box
    sides = [(sb_lo, 0.0, -1.0), (-sa_hi, 1.0, 0.0), (-sb_hi, 0.0, 1.0), (sa_lo, -1.0, 0.0)]
    corners = [(sa_lo, sb_lo), (sa_hi, sb_lo), (sa_hi, sb_hi), (sa_lo, sb_hi)]
    polygon = list(zip(corners, sides))  # each corner with the side that leaves it
    constraints = list(sides)
    for low in lowers:
        for up in uppers:
            g = (low[0] - up[0], low[1] - up[1], low[2] - up[2])
            constraints.append(g)
            polygon = _clip(polygon, g, tol)  # a constant g keeps all or nothing
            if not polygon:
                return None
    keys = [
        (round(abs(sa) + abs(sb), 12), sa, sb)  # rounded so that float noise cannot decide a tie
        for half in (_clip(polygon, (0.0, -1.0, 0.0), tol), _clip(polygon, (0.0, 1.0, 0.0), tol))
        for quadrant in (_clip(half, (0.0, 0.0, -1.0), tol), _clip(half, (0.0, 0.0, 1.0), tol))
        for (sa, sb), _ in quadrant
        if all(g0 + g1 * sa + g2 * sb <= tol for g0, g1, g2 in constraints)
    ]
    if not keys:
        return None
    _, sa, sb = best = min(keys)
    return best + (max(c0 + c1 * sa + c2 * sb for c0, c1, c2 in lowers),)


def fit_general_quadruple(
    record: MembershipRecord, tolerance: float = FIT_TOLERANCE
) -> FitResult:
    """Fit the general quadruple model to all four conjunction weights.

    A classical sector-2 shortcut (alpha = the four conjunction weights,
    m2 = 1) is tried first, so classical records come back with m2 = 1 and
    zero residual.  Otherwise the alphas range over the slice
    ``(a1, ma - a1, mb - a1, 1 - ma - mb + a1)`` with marginal targets
    ``ma = mu_a + sa``, ``mb = mu_b + sb`` inside the slack box
    ``|sa|, |sb| <= MARGINAL_SLACK``, and each pair is solved in closed form
    by ``_solve_pair``.  Every pair reproduces its target exactly; its
    interference cost is 0 when its alpha lies on the target's side and
    |target - avg| otherwise.

    The fit is therefore a choice among at most 2**4 subsets of pairs made
    interference-free.  Each subset is feasible iff a linear program in
    (sa, sb, a1) is, and the subsets are searched heaviest removed weight
    first, stopping at the first weight level with a feasible subset.  Each
    LP is solved exactly by ``_least_slack_point``: one clip of the slack
    box, whose vertices on each sign quadrant are the only candidates, under
    one tolerance.  The result is the proven least-interference
    representative, not a search estimate.  Ties are broken, in order, by
    least marginal slack |sa| + |sb|, then the smallest sa, then the
    smallest sb, then a1 at its lower bound (the smallest alpha_AB).
    """
    mu_a, mu_b = record.require("muA", "muB")
    marginals = record_marginals(record)
    targets = dict(zip(BLOCKS, joint_targets(record)))
    avgs = {k: (m[0] + m[1]) / 2.0 for k, m in marginals.items()}
    interfs = {k: interference_magnitude(*marginals[k]) for k in BLOCKS}
    delta = MARGINAL_SLACK

    def result(alphas, pairs, family: FeasibleSet) -> FitResult:
        pair_params = {
            key: PairParams(
                m2=m2, n2=1.0 - m2, alpha=min(max(alpha, 0.0), 1.0), beta=beta, phi_rad=phi
            )
            for key, alpha, (m2, beta, phi) in zip(BLOCKS, alphas, pairs)
        }
        params = GeneralFockParams(
            ab=pair_params["AB"],
            abp=pair_params["ABp"],
            apb=pair_params["ApB"],
            apbp=pair_params["ApBp"],
        )
        residual = max(
            abs(p.value - targets[k]) for k, p in eval_general_record(record, params).items()
        )
        return FitResult(
            params=params,
            residual=residual,
            feasible=residual <= tolerance,
            family=family,
            policy="min-interference",
            tolerance=tolerance,
        )

    # classical shortcut: the conjunction weights themselves as sector-2 atoms
    atoms = tuple(targets[k] for k in BLOCKS)
    if (
        abs(_sum(atoms) - 1.0) <= 1e-9
        and abs(atoms[0] + atoms[1] - mu_a) <= delta + _EPS
        and abs(atoms[0] + atoms[2] - mu_b) <= delta + _EPS
    ):
        return result(
            atoms,
            [(1.0, 0.0, math.pi / 2)] * 4,
            FeasibleSet(
                kind="point",
                note="pure sector-2 representation from the conjunction weights",
            ),
        )

    # alpha_XY = sign * a1 + f0 + f1*sa + f2*sb on the slice
    forms = {
        "AB": (1.0, (0.0, 0.0, 0.0)),
        "ABp": (-1.0, (mu_a, 1.0, 0.0)),
        "ApB": (-1.0, (mu_b, 0.0, 1.0)),
        "ApBp": (1.0, (1.0 - mu_a - mu_b, -1.0, -1.0)),
    }

    def a1_bound(key: str, level: float, side: float):
        # alpha_key >= level (side +1) or <= level (side -1), as a bound on a1
        sign, (f0, f1, f2) = forms[key]
        return side * sign > 0.0, (sign * (level - f0), -sign * f1, -sign * f2)

    base = [a1_bound(key, 0.0, 1.0) for key in BLOCKS]  # every alpha >= 0
    box = (max(-delta, -mu_a), min(delta, 1.0 - mu_a), max(-delta, -mu_b), min(delta, 1.0 - mu_b))
    weights = {k: abs(targets[k] - avgs[k]) for k in BLOCKS}
    movable = [k for k in BLOCKS if weights[k] > _EPS]
    subsets = sorted(
        (subset for r in range(len(movable) + 1) for subset in combinations(movable, r)),
        key=lambda subset: -_sum(weights[k] for k in subset),
    )
    level, points = None, []  # the heaviest feasible weight level and its points
    for subset in subsets:
        weight = _sum(weights[k] for k in subset)
        if level is not None and weight < level - _EPS:
            break
        point = _least_slack_point(
            base
            + [a1_bound(k, targets[k], math.copysign(1.0, targets[k] - avgs[k])) for k in subset],
            box,
        )
        if point is not None:
            level = weight if level is None else level
            points.append(point)

    _, sa, sb, a1 = min(points)  # the empty subset is always feasible at sa = sb = 0
    ma, mb = mu_a + sa, mu_b + sb
    alphas = (a1, ma - a1, mb - a1, 1.0 - ma - mb + a1)
    pairs = [
        _solve_pair(targets[key], avgs[key], alpha, interfs[key])
        for key, alpha in zip(BLOCKS, alphas)
    ]
    return result(
        alphas,
        pairs,
        FeasibleSet(
            kind="curve",
            note="alpha simplex slice within the marginal slack; "
            "canonical = least-interference representative",
        ),
    )


def joint_targets(record: MembershipRecord) -> tuple[float, float, float, float]:
    """The four conjunction weights of the negation quadruple, in pair order."""
    return record.require("muAandB", "muAandBp", "muApandB", "muApandBp")

