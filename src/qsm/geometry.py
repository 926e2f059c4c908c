"""Metric characterizations of the zero operator and related geometry.

Covers both characterizations of 0 (Bures ball diameters; trace-norm ball
intersections), the pinch construction and its uniqueness search, rank via
double orthocomplements in a finite pool, and the eigenvalue-interval test
for the shifted state body.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    InvalidConfiguration,
    InvalidPool,
    NotTraceZero,
    NumericalBreakdown,
    ZeroCenter,
)
from .linalg import HermitianOperator, psd_clamp_entries, trace_norm_entries
from .metrics import (
    ORTHOGONALITY_TOL,
    MetricKind,
    are_orthogonal,
    bures_distance,
    trace_distance,
)
from .states import (
    DensityOperator,
    RngStream,
    generator_of,
    random_density,
    zero_density,
)

#: additive tolerance on ball membership and witness distances.
BALL_SLACK = 1e-9

#: traces at or below this are treated as the zero operator.
ZERO_TRACE = 1e-12

#: rejections per annealing step of the uniqueness search, and the most
#: proposals it evaluates in one batch.
_BLOCK = 100

#: most matrix entries (proposals x n^2) in one batch of the uniqueness
#: search, which bounds its buffers and temporaries; n <= 8 keeps blocks of
#: _BLOCK proposals.
_BLOCK_ENTRIES = 6400


@dataclass(frozen=True)
class BallSpec:
    """Closed metric ball in the density cone."""

    metric: MetricKind
    center: DensityOperator
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class DiameterEstimate:
    """Best witnessed lower bound for a ball diameter."""

    lower_bound: float
    witness_pair: tuple[DensityOperator, DensityOperator]


@dataclass(frozen=True)
class IntersectionSearchResult:
    """Outcome of the ball-intersection uniqueness search."""

    best_candidate: DensityOperator
    separation_from_center: float
    max_ball_violation: float
    #: proposals evaluated (the search budget)
    proposals: int
    #: proposals that fell outside a ball by more than the slack
    rejections: int
    #: perturbation scale after the last annealing step
    final_scale: float


@dataclass(frozen=True)
class PinchConfiguration:
    """Center +- epsilon * (rank-one eigenprojection), both inside the cone."""

    epsilon: float
    projection: DensityOperator
    upper: DensityOperator
    lower: DensityOperator


class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def sample_in_bures_ball_at_zero(
    dim: int, radius: float, rng: RngStream | np.random.Generator
) -> DensityOperator:
    """Draw from the Bures ball around 0: membership is the trace condition
    tr X <= radius^2, so a random density rescaled into [0, radius^2] lies in
    the ball exactly, without rejection."""
    gen = generator_of(rng)
    target = float(gen.uniform(0.0, 1.0)) * radius * radius
    if target <= ZERO_TRACE:
        return zero_density(dim)
    rank = int(gen.integers(1, dim + 1))
    return random_density(dim, rank, target, gen)


def sample_in_bures_ball(
    center: DensityOperator,
    radius: float,
    rng: RngStream | np.random.Generator,
    max_tries: int = 200,
) -> DensityOperator:
    """Draw from a Bures ball with arbitrary center.

    Mixes two proposal families: scalar multiples of the center (exact
    membership by the trace formula) and PSD-clamped Gaussian perturbations
    accepted by rejection.  Falls back to the center after max_tries.
    """
    gen = generator_of(rng)
    tr = center.trace
    if tr <= ZERO_TRACE:
        return sample_in_bures_ball_at_zero(center.dim, radius, gen)
    root = float(np.sqrt(tr))
    for _ in range(max_tries):
        if gen.uniform() < 0.5:
            # c * center with |sqrt(c) - 1| * sqrt(tr) <= radius, membership exact
            u = float(gen.uniform(-1.0, 1.0))
            factor = max(0.0, 1.0 + u * radius / root) ** 2
            return DensityOperator(center.entries * factor)
        sigma = float(gen.uniform(0.05, 1.0)) * radius * (1.0 + root) / 2.0
        g = (gen.standard_normal((center.dim,) * 2) + 1j * gen.standard_normal((center.dim,) * 2)) / 2.0
        candidate = DensityOperator(psd_clamp_entries(center.entries + sigma * (g + g.conj().T)))
        if bures_distance(candidate, center) <= radius:
            return candidate
    return DensityOperator(center.entries)


def bures_ball_diameter(
    spec: BallSpec, rng: RngStream | np.random.Generator, samples: int
) -> DiameterEstimate:
    """Witnessed lower bound on the diameter of a Bures ball.

    Around 0 the analytic sharpness witnesses are always included
    (radius^2 * orthogonal rank-one projections for dim >= 2, the scalar pair
    (radius^2, 0) for dim 1) and every sampled pair is asserted against the
    sqrt(2) * radius upper bound.  Around a nonzero center the pair
    (0, 4 * center) is included whenever it lies in the ball.
    """
    if spec.metric is not MetricKind.BURES:
        raise ValueError("bures_ball_diameter needs a Bures ball")
    gen = generator_of(rng)
    center, eps = spec.center, spec.radius
    n = center.dim
    at_zero = center.trace <= ZERO_TRACE

    pairs: list[tuple[DensityOperator, DensityOperator]] = []
    if at_zero:
        first = np.zeros((n, n), dtype=np.complex128)
        first[0, 0] = eps * eps
        if n >= 2:
            second = np.zeros((n, n), dtype=np.complex128)
            second[1, 1] = eps * eps
            pairs.append((DensityOperator(first), DensityOperator(second)))
        else:
            pairs.append((DensityOperator(first), zero_density(1)))
    elif eps >= np.sqrt(center.trace) * (1.0 - 1e-12):
        pairs.append((zero_density(n), DensityOperator(4.0 * center.entries)))

    for _ in range(samples):
        if at_zero:
            pair = (
                sample_in_bures_ball_at_zero(n, eps, gen),
                sample_in_bures_ball_at_zero(n, eps, gen),
            )
        else:
            pair = (
                sample_in_bures_ball(center, eps, gen),
                sample_in_bures_ball(center, eps, gen),
            )
        pairs.append(pair)

    bound = (np.sqrt(2.0) * eps if n >= 2 else eps) + BALL_SLACK
    best = -1.0
    best_pair = pairs[0]
    for x, y in pairs:
        d = bures_distance(x, y)
        if at_zero:
            assert d <= bound, f"pair distance {d} violates the diameter bound {bound}"
        if d > best:
            best, best_pair = d, (x, y)
    for member in best_pair:
        assert bures_distance(member, center) <= eps + BALL_SLACK
    return DiameterEstimate(best, best_pair)


def nonzero_center_witness(
    center: DensityOperator,
) -> tuple[float, tuple[DensityOperator, DensityOperator]]:
    """The pair (0, 4*center) witnessing diameter >= 2*sqrt(tr) at radius
    sqrt(tr), which exceeds sqrt(2)*radius and so flags a nonzero center."""
    tr = center.trace
    if tr <= ZERO_TRACE:
        raise ZeroCenter("witness construction needs tr(center) > 1e-12")
    eps = float(np.sqrt(tr))
    low = zero_density(center.dim)
    high = DensityOperator(4.0 * center.entries)
    if bures_distance(center, low) > eps + BALL_SLACK:
        raise NumericalBreakdown("0 fell outside the witness ball")
    if bures_distance(center, high) > eps + BALL_SLACK:
        raise NumericalBreakdown("4*center fell outside the witness ball")
    if abs(bures_distance(low, high) - 2.0 * eps) > BALL_SLACK:
        raise NumericalBreakdown("witness pair distance is not 2*radius")
    return eps, (low, high)


def zero_characterization_bures(
    center: DensityOperator,
    radii: list[float],
    rng: RngStream | np.random.Generator,
    samples: int,
) -> bool:
    """True iff every tested ball around the center has witnessed diameter
    <= sqrt(2) * radius (the metric test for being the zero operator).

    For a nonzero center the radius sqrt(tr) is added whenever it lies within
    the tested range, so the (0, 4*center) witness guarantees detection.
    """
    if not radii or any(r <= 0.0 for r in radii):
        raise ValueError("radii must be a nonempty list of positive reals")
    gen = generator_of(rng)
    tested = sorted(float(r) for r in radii)
    tr = center.trace
    if tr > ZERO_TRACE:
        root = float(np.sqrt(tr))
        if tested[0] <= root <= tested[-1] and root not in tested:
            tested.append(root)
            tested.sort()
    for eps in tested:
        estimate = bures_ball_diameter(BallSpec(MetricKind.BURES, center, eps), gen, samples)
        if estimate.lower_bound > np.sqrt(2.0) * eps + BALL_SLACK:
            return False
    return True


def midpoint_witness(x: DensityOperator, y: DensityOperator) -> DensityOperator:
    """Midpoint (X+Y)/2 of an antipodal pair: for ||X||_1 = ||Y||_1 = eps and
    ||X-Y||_1 = 2*eps it lies in both radius-eps balls and is nonzero."""
    nx, ny = x.trace, y.trace
    eps = 0.5 * (nx + ny)
    if abs(nx - ny) > BALL_SLACK or abs(trace_distance(x, y) - 2.0 * eps) > BALL_SLACK:
        raise InvalidConfiguration(
            "midpoint witness needs ||X||_1 = ||Y||_1 = eps and ||X-Y||_1 = 2*eps"
        )
    z = DensityOperator((x.entries + y.entries) / 2.0)
    assert abs(trace_distance(x, z) - eps) <= BALL_SLACK
    assert abs(trace_distance(y, z) - eps) <= BALL_SLACK
    assert z.trace >= eps / 2.0
    return z


def pinch_configuration(
    center: DensityOperator, rng: RngStream | np.random.Generator
) -> PinchConfiguration:
    """Pick an eigenvalue lam > 0 of the center, set eps = lam/2, and shift by
    +-eps times the eigenprojection; both shifts stay in the density cone.

    The eigenvalue is chosen uniformly among those carrying at least half the
    mean spectral weight, which keeps eps (and every tolerance scaled by it)
    well above roundoff; the largest eigenvalue always qualifies.
    """
    lam = center.eigenvalues
    tr = center.trace
    floor = max(1e-10 * (1.0 + tr), tr / (2.0 * center.dim))
    eligible = np.flatnonzero(lam > floor)
    if eligible.size == 0:
        raise ZeroCenter("pinch configuration needs a strictly positive eigenvalue")
    gen = generator_of(rng)
    k = int(eligible[int(gen.integers(eligible.size))])
    eps = float(lam[k]) / 2.0
    vec = center.eigenvectors[:, k]
    projection = DensityOperator(np.outer(vec, vec.conj()))
    upper = DensityOperator(center.entries + eps * projection.entries)
    lower = DensityOperator(center.entries - eps * projection.entries)
    assert abs(trace_distance(upper, center) - eps) <= BALL_SLACK
    assert abs(trace_distance(lower, center) - eps) <= BALL_SLACK
    assert abs(trace_distance(upper, lower) - 2.0 * eps) <= BALL_SLACK
    return PinchConfiguration(eps, projection, upper, lower)


def intersection_uniqueness_search(
    upper: DensityOperator,
    lower: DensityOperator,
    center: DensityOperator,
    epsilon: float,
    rng: RngStream | np.random.Generator,
    budget: int,
    slack: float | None = None,
) -> IntersectionSearchResult:
    """Randomized search for intersection points of the two radius-epsilon
    trace-norm balls far from the center.

    Proposals perturb the center by random Hermitian directions clamped back
    to the PSD cone, with the scale annealed geometrically (x0.9 per 100
    rejections from 0.1*epsilon), mixed with convex moves toward the midpoint
    of the two ball centers (balls are convex, so those are feasible whenever
    the midpoint is — this is what lets the search certify *strict*
    containment when the center is 0).  The best feasible candidate by
    separation is kept; the first one wins a tie.

    slack defaults to a roundoff-level allowance.  Any looser slack s fattens
    the one-point intersection into a tube of width sqrt(2*epsilon*s) along
    the couplings to the pinched eigenvector (||eps*P +- delta||_1 grows only
    quadratically in those directions), which the search will find and report
    as a spurious uniqueness violation.

    Proposals are evaluated in blocks: the PSD clamp and the three trace
    norms of a block run as one batched decomposition each.  A block holds
    at most 100 - rejections % 100 proposals, so the 100th rejection that
    shrinks the scale can only be the block's last proposal, and every
    proposal sees the scale a one-at-a-time loop would give it.  Blocks are
    also capped at _BLOCK_ENTRIES // n^2 proposals to bound memory at large
    n; any smaller block keeps that property.
    The random numbers are drawn proposal by proposal in that loop's order
    (a uniform, then a uniform or two standard-normal matrices) and do not
    depend on the scale, so the generator ends in the same state.  Batched
    decompositions and trace norms equal the single-matrix ones bit for bit,
    so the result does not depend on the blocking.
    """
    if budget < 1:
        raise InvalidConfiguration("uniqueness search needs a budget of at least 1 proposal")
    gen = generator_of(rng)
    n = center.dim
    x_e, y_e, a_e = upper.entries, lower.entries, center.entries
    if slack is None:
        slack = max(
            1e-12 * epsilon,
            64.0 * n * np.finfo(np.float64).eps * (1.0 + upper.trace + lower.trace),
        )
    mid = 0.5 * (x_e + y_e)

    def ball_excess(z):
        return np.maximum(trace_norm_entries(x_e - z), trace_norm_entries(y_e - z)) - epsilon

    best = a_e
    best_sep = 0.0
    best_excess = float(ball_excess(a_e))
    scale = 0.1 * epsilon
    rejections = 0
    left = int(budget)
    cap = max(1, min(_BLOCK, _BLOCK_ENTRIES // (n * n)))
    size = min(left, cap)
    convex = np.empty(size, dtype=bool)
    t = np.empty(size)
    g_re = np.empty((size, n, n))
    g_im = np.empty((size, n, n))
    while left:
        k = min(left, cap, _BLOCK - rejections % _BLOCK)
        left -= k
        for j in range(k):
            convex[j] = gen.uniform() < 0.2
            if convex[j]:
                t[j] = gen.uniform()
            else:
                gen.standard_normal(out=g_re[j])
                gen.standard_normal(out=g_im[j])
        moves = convex[:k]
        steps = ~moves
        block = np.empty((k, n, n), dtype=np.complex128)
        tm = t[:k][moves][:, None, None]
        block[moves] = (1.0 - tm) * a_e + tm * mid
        g = g_re[:k][steps] + 1j * g_im[:k][steps]
        block[steps] = psd_clamp_entries(a_e + scale * (g + g.conj().swapaxes(-1, -2)) / 2.0)
        excess = ball_excess(block)
        rejected = excess > slack
        rejected_here = int(np.count_nonzero(rejected))
        rejections += rejected_here
        if rejected_here and rejections % _BLOCK == 0:
            scale *= 0.9
        feasible = np.flatnonzero(~rejected)
        if feasible.size:
            sep = trace_norm_entries(block[feasible] - a_e)
            i = int(np.argmax(sep))
            if sep[i] > best_sep:
                j = feasible[i]
                best, best_sep, best_excess = block[j], float(sep[i]), float(excess[j])
    return IntersectionSearchResult(
        best_candidate=DensityOperator(best),
        separation_from_center=best_sep,
        max_ball_violation=max(0.0, best_excess),
        proposals=int(budget),
        rejections=rejections,
        final_scale=scale,
    )


def orthocomplement_pool(
    center: DensityOperator,
    rng: RngStream | np.random.Generator,
    randoms_per_dim: int = 10,
) -> list[DensityOperator]:
    """Standard pool for the double-orthocomplement rank: every eigenprojection
    of the center followed by randoms_per_dim * dim random densities."""
    gen = generator_of(rng)
    n = center.dim
    pool = []
    for k in range(n):
        vec = center.eigenvectors[:, k]
        pool.append(DensityOperator(np.outer(vec, vec.conj())))
    for _ in range(randoms_per_dim * n):
        rank = int(gen.integers(1, n + 1))
        pool.append(random_density(n, rank, float(gen.uniform(0.5, 1.5)), gen))
    return pool


def double_orthocomplement_rank(
    center: DensityOperator,
    pool: list[DensityOperator],
    tol: float = ORTHOGONALITY_TOL,
) -> int:
    """Size of a maximal pairwise-orthogonal nonzero family inside the double
    orthocomplement of the center, computed relative to the given pool.

    Equals the spectral rank whenever the pool contains the center's
    eigenprojections plus enough full-support randoms.  Candidates are taken
    low rank first so rank-one eigenprojections are preferred over elements
    that would block the rest of the family.
    """
    if not pool:
        raise InvalidPool("orthocomplement pool must be nonempty")
    perp = [p for p in pool if are_orthogonal(center, p, tol)]
    perp_perp = [p for p in pool if all(are_orthogonal(p, q, tol) for q in perp)]
    order = sorted(range(len(perp_perp)), key=lambda i: (perp_perp[i].rank(), i))
    family: list[DensityOperator] = []
    for i in order:
        candidate = perp_perp[i]
        if candidate.trace <= ZERO_TRACE:
            continue
        if all(are_orthogonal(candidate, member, tol) for member in family):
            family.append(candidate)
    return len(family)


def shifted_states_membership(op: HermitianOperator, n: int | None = None) -> Membership:
    """Classify a trace-zero Hermitian operator against the shifted state body
    (states minus I/n): inside iff the spectrum lies in [-1/n, 1 - 1/n], with
    a 1e-9 boundary band."""
    if abs(float(np.trace(op.entries).real)) > 1e-10:
        raise NotTraceZero("membership test needs |tr T| <= 1e-10")
    if n is None:
        n = op.dim
    lam = np.linalg.eigvalsh(op.entries)
    lo, hi = -1.0 / n, 1.0 - 1.0 / n
    band = 1e-9
    if lam[0] < lo - band or lam[-1] > hi + band:
        return Membership.OUTSIDE
    if lam[0] > lo + band and lam[-1] < hi - band:
        return Membership.INTERIOR
    return Membership.BOUNDARY
