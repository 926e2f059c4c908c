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

from .errors import NotImplementable, NotIsometryEvidence, NumericalBreakdown
from .geometry import (
    BALL_SLACK,
    BallSpec,
    bures_ball_diameter,
    intersection_uniqueness_search,
    midpoint_witness,
    nonzero_center_witness,
    pinch_configuration,
    zero_characterization_bures,
)
from .linalg import trace_norm_entries
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
    are_orthogonal,
    bures_distance,
    norm_identity_gap,
    trace_distance,
)
from .states import (
    DensityOperator,
    QuantumState,
    RngStream,
    random_density,
    random_state,
    random_unitary,
    zero_density,
)

#: the tolerance overrides the suites read from their `tolerances` argument.
TOLERANCE_NAMES = ("separation", "slack", "orthogonality", "isometry")


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


def _orthogonal_density_pair(n, gen, trace_x, trace_y):
    """Exactly supported on complementary subspaces of a random frame."""
    v = random_unitary(n, gen)
    k = int(gen.integers(1, n))
    left, right = v[:, :k], v[:, k:]
    x = random_density(k, int(gen.integers(1, k + 1)), trace_x, gen)
    y = random_density(n - k, int(gen.integers(1, n - k + 1)), trace_y, gen)
    return (
        DensityOperator(left @ x.entries @ left.conj().T),
        DensityOperator(right @ y.entries @ right.conj().T),
    )


def _lemma1(dim, gen, samples, budget, tolerances):
    """Bures characterization of 0: in-ball bound, sharpness witnesses at 0,
    and the (0, 4A) witness defeating every nonzero center."""
    radii = (0.5, 1.0, 2.0)
    witnesses = []
    violation = 0.0
    passed = True
    for eps in radii:
        spec = BallSpec(MetricKind.BURES, zero_density(dim), eps)
        estimate = bures_ball_diameter(spec, gen, samples)
        bound = (np.sqrt(2.0) if dim >= 2 else 1.0) * eps
        violation = max(violation, estimate.lower_bound - (bound + BALL_SLACK))
        if dim >= 2:
            sharp = estimate.lower_bound >= np.sqrt(2.0) * eps - BALL_SLACK
        else:
            sharp = abs(estimate.lower_bound - eps) <= BALL_SLACK
        passed &= sharp and estimate.lower_bound <= bound + BALL_SLACK
        witnesses.append(
            {"kind": "ball-at-zero", "radius": eps, "lower_bound": estimate.lower_bound}
        )
    passed &= zero_characterization_bures(
        zero_density(dim), list(radii), gen, max(10, samples // 8)
    )
    for k in range(max(4, samples // 4)):
        center = random_density(
            dim, int(gen.integers(1, dim + 1)), float(gen.uniform(0.3, 3.0)), gen
        )
        try:
            eps_w, (low, high) = nonzero_center_witness(center)
        except NumericalBreakdown:
            passed = False
            continue
        pair_distance = bures_distance(low, high)
        certified = 2.0 * np.sqrt(center.trace) - BALL_SLACK
        violation = max(violation, certified - pair_distance)
        passed &= pair_distance >= certified
        if k < 2:
            witnesses.append(
                {
                    "kind": "nonzero-center",
                    "trace": center.trace,
                    "radius": eps_w,
                    "pair_distance": pair_distance,
                }
            )
            passed &= not zero_characterization_bures(
                center, list(radii), gen, max(10, samples // 8)
            )
    return passed, witnesses, float(max(violation, 0.0)), samples


def _lemma3(dim, gen, samples, budget, tolerances):
    """Trace-norm characterization of 0: midpoint witnesses, strict
    containment at center 0, and uniqueness of pinch-ball intersections.

    Each dimension runs samples/10 pinch configurations (minimum 2) plus the
    same number of midpoint checks; the default CLI settings therefore cover
    about a hundred configurations across the default dimension grid."""
    separation_factor = tolerances.get("separation", 1e-5)
    slack = tolerances.get("slack")
    witnesses = []
    worst_ratio = 0.0
    passed = True
    configs = max(2, samples // 10)
    if dim >= 2:
        for k in range(configs):
            eps = float(gen.uniform(0.5, 1.5))
            x, y = _orthogonal_density_pair(dim, gen, eps, eps)
            mid = midpoint_witness(x, y)
            in_balls = (
                trace_distance(x, mid) <= eps + BALL_SLACK
                and trace_distance(y, mid) <= eps + BALL_SLACK
            )
            passed &= in_balls and mid.trace >= eps / 2.0
            if k < 3:
                control = intersection_uniqueness_search(
                    x, y, zero_density(dim), eps, gen, min(2000, max(budget, 500)), slack
                )
                passed &= control.separation_from_center >= eps / 2.0
                if k == 0:
                    witnesses.append(
                        {
                            "kind": "strict-containment",
                            "radius": eps,
                            "separation": control.separation_from_center,
                        }
                    )
    for k in range(configs):
        center = random_state(dim, int(gen.integers(1, dim + 1)), gen)
        pinch = pinch_configuration(center, gen)
        result = intersection_uniqueness_search(
            pinch.upper, pinch.lower, center, pinch.epsilon, gen, budget, slack
        )
        ratio = result.separation_from_center / pinch.epsilon
        worst_ratio = max(worst_ratio, ratio)
        passed &= ratio <= separation_factor
        # extreme-point rigidity: X - Z must collapse onto eps * projection
        shift = (
            pinch.upper.entries
            - result.best_candidate.entries
            - pinch.epsilon * pinch.projection.entries
        )
        rigidity = float(trace_norm_entries(shift))
        passed &= rigidity <= separation_factor * pinch.epsilon
        if k == 0:
            witnesses.append(
                {
                    "kind": "pinch-uniqueness",
                    "epsilon": pinch.epsilon,
                    "separation": result.separation_from_center,
                    "ball_violation": result.max_ball_violation,
                }
            )
    return passed, witnesses, worst_ratio, budget


def _ortho_eq(dim, gen, samples, budget, tolerances):
    """Orthogonality equivalence: XY = 0 iff ||X-Y||_1 = ||X+Y||_1, over a mix
    of orthogonal-support, overlapping, independent, and zero pairs; for
    states, orthogonality iff trace distance 2."""
    tol = tolerances.get("orthogonality", ORTHOGONALITY_TOL)
    misclassified = 0
    state_gap = 0.0
    passed = True
    for k in range(samples):
        style = k % 4
        if style == 0 and dim >= 2:
            x, y = _orthogonal_density_pair(
                dim, gen, float(gen.uniform(0.3, 2.0)), float(gen.uniform(0.3, 2.0))
            )
        elif style == 1:
            a = random_density(dim, int(gen.integers(1, dim + 1)), float(gen.uniform(0.3, 2.0)), gen)
            b = random_density(dim, int(gen.integers(1, dim + 1)), float(gen.uniform(0.3, 2.0)), gen)
            x, y = a, DensityOperator((a.entries + b.entries) / 2.0)
        elif style == 2:
            x = random_density(dim, int(gen.integers(1, dim + 1)), float(gen.uniform(0.3, 2.0)), gen)
            y = zero_density(dim)
        else:
            x = random_density(dim, int(gen.integers(1, dim + 1)), float(gen.uniform(0.3, 2.0)), gen)
            y = random_density(dim, dim, float(gen.uniform(0.3, 2.0)), gen)
        product_side = are_orthogonal(x, y, tol)
        gap_side = norm_identity_gap(x, y) <= tol * (1.0 + x.trace * y.trace)
        if product_side != gap_side:
            misclassified += 1
    if dim >= 2:
        for _ in range(max(4, samples // 8)):
            x, y = _orthogonal_density_pair(dim, gen, 1.0, 1.0)
            xs, ys = QuantumState(x.entries), QuantumState(y.entries)
            state_gap = max(state_gap, abs(trace_distance(xs, ys) - 2.0))
            passed &= are_orthogonal(xs, ys, tol)
            a = random_state(dim, int(gen.integers(1, dim + 1)), gen)
            b = random_state(dim, int(gen.integers(1, dim + 1)), gen)
            mixed = QuantumState((a.entries + b.entries) / 2.0)
            passed &= not are_orthogonal(a, mixed, tol)
            passed &= trace_distance(a, mixed) < 2.0 - BALL_SLACK
        passed &= state_gap <= BALL_SLACK
    passed &= misclassified == 0
    return passed, [{"kind": "state-distance-gap", "value": state_gap}], float(misclassified), samples


def _theorem(metric, domain, dim, gen, samples, budget, tolerances):
    """Roundtrip verification for one metric/domain: hidden Haar conjugations
    must pass every check and be reconstructed; a depolarizing control must
    deviate and be rejected."""
    isometry_tol = tolerances.get("isometry", 1e-8)
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
            validation_samples=100,
            domain=domain,
            preservation_samples=max(20, samples // 4),
        )
        deviation = (
            trip.bures_deviation if metric is MetricKind.BURES else trip.trace_deviation
        )
        violation = max(violation, deviation)
        passed &= trip.passed and deviation <= isometry_tol
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
        control_dev = check_isometry(control, metric, gen, max(10, samples)).max_deviation
        passed &= control_dev >= 1e-5
        try:
            reconstruct_implementer(control, dim, gen)
            passed = False
            rejected = False
        except (NotIsometryEvidence, NotImplementable):
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
