"""Verification suites: each runs one lemma/theorem property battery per
dimension and emits an ExperimentReport with replayable provenance.

A suite is a per-dimension check that draws from the generator it is handed
and returns (pass, witnesses, max violation, budget field).  One loop in
run_suite runs every suite: it derives each dimension's RngStream, calls the
check and builds the report."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidParameter, NotImplementable
from .geometry import (
    _TUBE_MARGIN,
    BALL_SLACK,
    _roundoff_slack,
    bures_ball_diameter,
    intersection_uniqueness_search,
    midpoint_witness,
    nonzero_center_witnesses,
    pinch_configuration,
)
from .linalg import _blocks
from .maps import (
    MapDomain,
    MapKind,
    check_isometry,
    isometry_roundtrip,
    named_nonisometry,
    reconstruct_implementer,
)
from .metrics import (
    ORTHOGONALITY_TOL,
    MetricKind,
    _orthogonality_threshold,
    distances,
    norm_identity_gaps,
    orthogonality,
)
from .states import (
    DensityOperator,
    RngStream,
    _orthogonal_pairs,
    _random_stack,
    _sampled_stack,
    _traces,
    random_state,
)

#: the tolerance overrides the suites read from their `tolerances` argument.
TOLERANCE_NAMES = ("separation", "slack", "orthogonality", "isometry")

#: smallest isometry deviation of a theorem suite's depolarizing control; the
#: isometry tolerance must stay below it, or one deviation could count both as
#: an isometry and as a non-isometry.
CONTROL_DEVIATION = 1e-5


def check_tolerances(tolerances: dict) -> None:
    """Raise InvalidParameter unless the isometry tolerance, if given, is
    below CONTROL_DEVIATION."""
    if not tolerances.get("isometry", 0.0) < CONTROL_DEVIATION:
        raise InvalidParameter(f"isometry must be below the control bound {CONTROL_DEVIATION:g}")


@dataclass(frozen=True)
class ExperimentReport:
    """Structured outcome of one suite at one dimension."""

    lemma: str
    dim: int
    seed: int
    passed: bool
    witnesses: list
    max_violation: float
    budget: int

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "dim": self.dim,
            "seed": self.seed,
            "pass": self.passed,
            "witnesses": self.witnesses,
            "max_violation": self.max_violation,
            "budget": self.budget,
        }


def _lemma1(dim, gen, samples, budget, tolerances):
    """Bures characterization of 0, each side once: around 0 the three balls
    have witnessed diameter within sqrt(2) * radius (radius at n = 1; above
    it bures_ball_diameter raises) and reach it; every nonzero center A
    fails at radius sqrt(tr A), where the pair (0, 4A) lies in its ball at
    distance 2 * sqrt(tr A) (nonzero_center_witnesses).  The centers are drawn in
    blocks (``_blocks``): all ranks, then all traces, then one Wishart
    stack, and each block's witnesses are measured in one call.  Every
    center's excess over the witness, max(d(A, 0) - sqrt(tr A), d(A, 4A) -
    sqrt(tr A), |d(0, 4A) - 2 sqrt(tr A)|) - BALL_SLACK, is read into the
    violation, so a failing witness reports by how much.  The first two
    centers whose witness held are reported."""
    radii = (0.5, 1.0, 2.0)
    witnesses = []
    violation = 0.0
    passed = True
    for eps in radii:
        lower_bound = bures_ball_diameter(dim, eps, gen, samples)
        if dim >= 2:
            passed &= lower_bound >= np.sqrt(2.0) * eps - BALL_SLACK
        else:
            passed &= abs(lower_bound - eps) <= BALL_SLACK
        witnesses.append({"kind": "ball-at-zero", "radius": eps, "lower_bound": lower_bound})
    shown = []
    for count in _blocks(max(4, samples // 4), dim, 1):
        centers = _random_stack(dim, gen, count, (0.3, 3.0))
        radius, to_zero, to_high, pair, held = nonzero_center_witnesses(centers)
        excess = np.max([to_zero - radius, to_high - radius, np.abs(pair - 2.0 * radius)], axis=0)
        violation = max(violation, float((excess - BALL_SLACK).max()))
        passed &= bool(held.all())
        shown += [
            {
                "kind": "nonzero-center",
                "trace": float(_traces(centers)[i]),
                "radius": float(radius[i]),
                "pair_distance": float(pair[i]),
            }
            for i in np.flatnonzero(held)[: 2 - len(shown)]
        ]
    return passed, witnesses + shown, float(max(violation, 0.0)), samples


def _lemma3(dim, gen, samples, budget, tolerances):
    """Trace-norm characterization of 0: strict containment at center 0 by
    midpoint witnesses, and uniqueness of pinch-ball intersections by a
    two-sided tube probe.

    Each dimension runs max(2, samples // 10) pinch configurations and, at
    dim >= 2, as many antipodal pairs X, Y around 0; the default CLI
    settings therefore cover about a hundred configurations across the
    default dimension grid.  Each pair's midpoint Z = (X + Y)/2 is a point of
    both radius-eps balls at distance tr Z >= eps/2 from 0, which is the
    strict containment (midpoint_witness raises unless it holds to
    BALL_SLACK).  Its in-ball residual max(| ||X - Z||_1 - eps |,
    | ||Y - Z||_1 - eps |) must stay within the slack s the pinch probes
    hold their points to (--tol slack, or geometry._roundoff_slack); the
    `strict-containment` witness is the first pair with the largest
    residual.

    Each pinch A +- eps P is probed along min(budget, dim - 1) coupling
    directions (geometry.intersection_uniqueness_search).  Within the slack
    s the two balls meet in a tube around A no wider than T(s) = 2s +
    sqrt(6 eps s), by the pinching inequality; a configuration passes when
    every inner point of the tube is accepted, every outer point at 2T(s)
    is rejected, and the largest separation of an accepted point is at most
    T(s) * (1 + geometry._TUBE_MARGIN), or r * eps under --tol
    separation=r.  The report's max_violation is the largest separation /
    eps; the `pinch-uniqueness` witness is the first configuration's
    probe."""
    separation_factor = tolerances.get("separation")
    slack = tolerances.get("slack")
    witnesses = []
    worst_ratio = 0.0
    passed = True
    configs = max(2, samples // 10)
    if dim >= 2:
        containment = None
        for _ in range(configs):
            eps = float(gen.uniform(0.5, 1.5))
            pair = _orthogonal_pairs(dim, gen, [eps], [eps])
            x, y = DensityOperator._wrapped(np.concatenate(pair))
            # raises unless Z lies within BALL_SLACK of both spheres, with
            # trace at least eps/2; its residual is then held to the slack
            z, norms = midpoint_witness(x, y)
            residual = float(np.abs(norms - eps).max())
            passed &= residual <= (_roundoff_slack(x, y, eps) if slack is None else slack)
            if containment is None or residual > containment["ball_violation"]:
                containment = {
                    "kind": "strict-containment",
                    "radius": eps,
                    "separation": z.trace,
                    "ball_violation": residual,
                }
        witnesses.append(containment)
    for k in range(configs):
        center = random_state(dim, int(gen.integers(1, dim + 1)), gen)
        pinch = pinch_configuration(center, gen)
        probe = intersection_uniqueness_search(
            pinch.upper, pinch.lower, center, pinch.epsilon, budget=budget, slack=slack
        )
        if separation_factor is None:
            limit = probe.tube_bound * (1.0 + _TUBE_MARGIN)
        else:
            limit = separation_factor * pinch.epsilon
        # for X = A + eps*P the separation ||A - z||_1 is also the
        # extreme-point rigidity ||X - z - eps*P||_1
        passed &= probe.held and probe.separation_from_center <= limit
        worst_ratio = max(worst_ratio, probe.separation_from_center / pinch.epsilon)
        if k == 0:
            witnesses.append(
                {
                    "kind": "pinch-uniqueness",
                    "epsilon": pinch.epsilon,
                    "separation": probe.separation_from_center,
                    "ball_violation": max(0.0, probe.inner_excess),
                    "points": probe.inner_points + probe.outer_points,
                    "outer_rejected": probe.outer_rejected,
                    "tube_bound": probe.tube_bound,
                    "tube_reached": probe.tube_reached,
                }
            )
    return passed, witnesses, worst_ratio, budget


def _style_pairs(style, dim, gen, count):
    """``count`` pairs of one _ortho_eq style, as two entry stacks: orthogonal
    supports (0), (a, (a + b)/2) (1), (x, 0) (2), and x against a full-rank
    y (3).  Traces are uniform in [0.3, 2]; every operator but a style-0 one
    draws a uniform rank (full for the y of style 3), and the pairs' ranks,
    then their traces, then one Wishart stack are drawn in that order."""
    if style == 0:
        return _orthogonal_pairs(dim, gen, *gen.uniform(0.3, 2.0, size=(2, count)))
    if style == 1:
        a, b = np.split(_random_stack(dim, gen, 2 * count, (0.3, 2.0)), 2)
        return a, (a + b) / 2.0
    if style == 2:
        xs = _random_stack(dim, gen, count, (0.3, 2.0))
        return xs, np.zeros_like(xs)
    ranks = np.concatenate([gen.integers(1, dim + 1, size=count), np.full(count, dim)])
    return np.split(_sampled_stack(dim, gen, ranks, gen.uniform(0.3, 2.0, size=2 * count)), 2)


def _ortho_eq(dim, gen, samples, budget, tolerances):
    """Orthogonality equivalence: XY = 0 iff ||X-Y||_1 = ||X+Y||_1, over a mix
    of orthogonal-support, overlapping, independent, and zero pairs; for
    states, orthogonality iff trace distance 2.

    Sample k has style k % 4 (_style_pairs; at n = 1, style 0 is drawn as
    style 3).  Each style's pairs are drawn in blocks (``_blocks``), style
    by style, and each block is classified with one orthogonality call and
    one norm_identity_gaps call.  From n = 2 on, the state checks draw their
    blocks as the orthogonal pairs, then the ranks of a and b, then one
    stack of both, and measure each block with one distances call and one
    orthogonality call."""
    tol = tolerances.get("orthogonality", ORTHOGONALITY_TOL)
    misclassified = 0
    state_gap = 0.0
    passed = True
    totals = [len(range(style, samples, 4)) for style in range(4)]
    if dim < 2:
        totals = [0, totals[1], totals[2], totals[3] + totals[0]]
    for style, total in enumerate(totals):
        for count in _blocks(total, dim, 2):
            xs, ys = _style_pairs(style, dim, gen, count)
            product_side = orthogonality(xs, ys, tol)
            threshold = _orthogonality_threshold(_traces(xs), _traces(ys), tol)
            gap_side = norm_identity_gaps(xs, ys) <= threshold
            misclassified += int(np.count_nonzero(product_side != gap_side))
    if dim >= 2:
        for count in _blocks(max(4, samples // 8), dim, 4):
            xs, ys = _orthogonal_pairs(dim, gen, np.ones(count), np.ones(count))
            a, b = np.split(_random_stack(dim, gen, 2 * count), 2)
            left = np.concatenate([xs, a])
            right = np.concatenate([ys, (a + b) / 2.0])
            found = distances(MetricKind.TRACE_NORM, left, right)
            orthogonal = orthogonality(left, right, tol)
            state_gap = max(state_gap, float(np.abs(found[:count] - 2.0).max()))
            passed &= bool(orthogonal[:count].all() and not orthogonal[count:].any())
            passed &= bool((found[count:] < 2.0 - BALL_SLACK).all())
        passed &= state_gap <= BALL_SLACK
    passed &= misclassified == 0
    return passed, [{"kind": "state-distance-gap", "value": state_gap}], float(misclassified), samples


def _theorem(metric, domain, dim, gen, samples, budget, tolerances):
    """Roundtrip verification for one metric/domain: hidden Haar conjugations
    must be isometries of the suite's metric within the isometry tolerance,
    pass every other check and be reconstructed; a depolarizing control must
    deviate and be rejected.  The roundtrip measures only the suite's
    metric; the sibling suite of the other metric measures that one."""
    witnesses = []
    violation = 0.0
    passed = True
    kinds = [MapKind.UNITARY_CONJ, MapKind.ANTIUNITARY_CONJ]
    for kind in kinds:
        trip = isometry_roundtrip(
            kind,
            dim,
            gen,
            pairs=max(10, samples),
            domain=domain,
            preservation_samples=max(20, samples // 4),
            metrics=(metric,),
            isometry_tol=tolerances.get("isometry", 1e-8),
        )
        deviation = trip.deviations[metric]
        violation = max(violation, deviation)
        passed &= trip.passed
        witnesses.append(
            {
                "kind": f"roundtrip-{kind.value}",
                "overlap": trip.overlap,
                "residual": trip.residual,
                "deviation": deviation,
            }
        )
    if dim >= 2:
        control = named_nonisometry("depolarizing", dim, p=0.5, domain=domain)
        control_dev = check_isometry(control, metric, gen, max(10, samples))
        passed &= control_dev >= CONTROL_DEVIATION
        try:
            reconstruct_implementer(control, gen)
            passed = False
            rejected = False
        except NotImplementable:
            rejected = True
        witnesses.append(
            {"kind": "control-depolarizing", "deviation": control_dev, "rejected": rejected}
        )
    return passed, witnesses, violation, samples


#: the per-dimension check of each suite; the order is SUITE_IDS, whose
#: indices key the suites' RngStream blocks, so it must not change.
_CHECKS = {
    "lemma1": _lemma1,
    "lemma3": _lemma3,
    "ortho-eq": _ortho_eq,
    "thm-bures-D": partial(_theorem, MetricKind.BURES, MapDomain.FULL_DENSITY),
    "thm-bures-S": partial(_theorem, MetricKind.BURES, MapDomain.STATES_ONLY),
    "thm-trace-D": partial(_theorem, MetricKind.TRACE_NORM, MapDomain.FULL_DENSITY),
    "thm-trace-S": partial(_theorem, MetricKind.TRACE_NORM, MapDomain.STATES_ONLY),
}

SUITE_IDS = tuple(_CHECKS)


def run_suite(
    suite: str,
    dims,
    seed: int,
    samples: int,
    budget: int,
    tolerances: dict | None = None,
) -> list[ExperimentReport]:
    """One report per dimension, in increasing order.  Each dimension draws
    from RngStream(seed, 1000 * (k + 1) + dim), k the suite's index in
    SUITE_IDS: disjoint blocks keyed before adding the dimension, so
    concurrent or reordered runs see identical draws."""
    if suite not in _CHECKS:
        raise ValueError(f"unknown suite id {suite!r}")
    base = 1000 * (SUITE_IDS.index(suite) + 1)
    tolerances = tolerances or {}
    check_tolerances(tolerances)
    reports = []
    for dim in sorted(dims):
        gen = RngStream(seed, base + dim).generator()
        passed, witnesses, violation, budget_field = _CHECKS[suite](
            dim, gen, samples, budget, tolerances
        )
        reports.append(
            ExperimentReport(suite, dim, seed, bool(passed), witnesses, violation, budget_field)
        )
    return reports
