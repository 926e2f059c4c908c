"""Metric characterizations of the zero operator and related geometry.

Covers both characterizations of 0 (Bures ball diameters around 0 and the
(0, 4A) witness for nonzero centers; trace-norm ball intersections), the
pinch construction and the two-sided tube probe of its ball intersection
(points inside the tube the slack opens must be accepted, points beyond its
proven width rejected), and rank via double orthocomplements in a finite
pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidConfiguration,
    InvalidPool,
    NotPositiveSemidefinite,
    NumericalBreakdown,
    ZeroCenter,
)
from .linalg import _blocks, _symmetrized, trace_norm_entries
from .metrics import (
    ORTHOGONALITY_TOL,
    MetricKind,
    are_orthogonal,
    distances,
    trace_distance,
)
from .states import DensityOperator, RngStream, _random_stack, _sampled_stack, _traces, generator_of

#: additive tolerance on ball membership and witness distances.
BALL_SLACK = 1e-9

#: random densities per dimension in an orthocomplement_pool.
_POOL_RANDOMS_PER_DIM = 10

#: traces at or below this are treated as the zero operator.
ZERO_TRACE = 1e-12

#: relative margin of lemma3's pass bound T(s) * (1 + _TUBE_MARGIN) on the
#: separation of a probe point from the center (intersection_uniqueness_search).
_TUBE_MARGIN = 0.5

#: the inner points of the tube probe, as fractions c of the reach of a pure
#: coupling, 1/2 sqrt(2 eps s + s^2).
_INNER_FRACTIONS = (0.25, 0.5)


@dataclass(frozen=True)
class IntersectionSearchResult:
    """Outcome of the two-sided tube probe of a pinch configuration."""

    #: largest separation ||z - A||_1 of a probe point, inner or outer, that
    #: the ball tests accept; 0 when they accept none
    separation_from_center: float
    #: largest ball excess max(||x - z||_1, ||y - z||_1) - epsilon of an
    #: inner point (-inf when there is none)
    inner_excess: float
    #: smallest ball excess of an outer point
    outer_excess: float
    inner_points: int
    #: inner points that passed the construction check and lie within the
    #: slack of both balls
    inner_feasible: int
    outer_points: int
    #: outer points outside a ball by more than the slack
    outer_rejected: int
    #: T(s) = 2s + sqrt(6 eps s), the widest the slack-s intersection can be
    tube_bound: float
    #: separation_from_center / sqrt(2 eps s)
    tube_reached: float

    @property
    def held(self) -> bool:
        """Both sides: every inner point feasible, every outer point rejected."""
        return (
            self.inner_feasible == self.inner_points and self.outer_rejected == self.outer_points
        )


@dataclass(frozen=True)
class PinchConfiguration:
    """Center +- epsilon * (rank-one eigenprojection), both inside the cone."""

    epsilon: float
    projection: DensityOperator
    upper: DensityOperator
    lower: DensityOperator


def _in_ball_at_zero(n: int, radius: float, gen: np.random.Generator, count: int) -> np.ndarray:
    """Entry stack of ``count`` draws from the Bures ball around 0, where
    membership is the trace condition tr X <= radius^2: all target traces,
    uniform in [0, radius^2], then all ranks, then one Wishart stack of the
    operators whose target is above ZERO_TRACE.  A target at or below
    ZERO_TRACE draws the zero operator.  Every draw lies in the ball exactly,
    without rejection."""
    targets = gen.uniform(0.0, 1.0, size=count) * radius * radius
    ranks = gen.integers(1, n + 1, size=count)
    live = targets > ZERO_TRACE
    arr = np.zeros((count, n, n), dtype=np.complex128)
    arr[live] = _sampled_stack(n, gen, ranks[live], targets[live])
    return arr


def bures_ball_diameter(
    dim: int,
    radius: float,
    rng: RngStream | np.random.Generator,
    samples: int,
) -> float:
    """Witnessed lower bound on the diameter of the Bures ball of the given
    radius around 0 in dimension ``dim``: Lemma 1's side for the zero
    operator, whose balls have diameter at most sqrt(2) * radius (radius
    at dim 1).

    The analytic sharpness witnesses are always included (radius^2 *
    orthogonal rank-one projections for dim >= 2, the scalar pair
    (radius^2, 0) for dim 1) and every sampled pair is held to the bound.
    A pair over the bound, or a best pair outside the ball, raises
    NumericalBreakdown.

    The analytic pair is measured first, as a block of one.  The samples
    follow in blocks (``_blocks``, two operators a pair): a block of k pairs
    draws its 2k operators with _in_ball_at_zero and pairs the first k with
    the last k.  Each block's distances are one batched call, and the best
    pair is the first to reach the maximum.
    """
    if not radius > 0.0:
        raise ValueError("ball radius must be positive")
    gen = generator_of(rng)

    def pair_blocks():
        analytic = np.zeros((2, dim, dim), dtype=np.complex128)
        analytic[0, 0, 0] = radius * radius
        if dim >= 2:
            analytic[1, 1, 1] = radius * radius
        yield np.split(DensityOperator._validated(analytic), 2)
        for count in _blocks(samples, dim, 2):
            yield np.split(_in_ball_at_zero(dim, radius, gen, 2 * count), 2)

    bound = (np.sqrt(2.0) * radius if dim >= 2 else radius) + BALL_SLACK
    best = -1.0
    for xs, ys in pair_blocks():
        d = distances(MetricKind.BURES, xs, ys)
        if (d > bound).any():
            raise NumericalBreakdown(
                f"pair distance {float(d[d > bound][0])} violates the diameter bound {bound}"
            )
        i = int(np.argmax(d))
        if d[i] > best:
            best, best_pair = float(d[i]), np.array([xs[i], ys[i]])
    # both members against one zero row
    zero = np.zeros_like(best_pair[:1])
    in_ball = distances(MetricKind.BURES, best_pair, zero, ([0, 1], [2, 2]))
    if (in_ball > radius + BALL_SLACK).any():
        raise NumericalBreakdown("a witness fell outside its Bures ball")
    return best


def nonzero_center_witnesses(
    centers: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lemma 1's side for nonzero centers: the pair (0, 4A) lies in the Bures
    ball of radius sqrt(tr A) around A at distance 2 * sqrt(tr A), above the
    sqrt(2) * radius that every ball around 0 obeys.

    ``centers`` is the entry stack of the centers A.  Returns the radii
    sqrt(tr A), the distances d(A, 0), d(A, 4A) and
    d(0, 4A), and the mask of the witnesses that held: d(A, 0) and d(A, 4A)
    within the radius and d(0, 4A) within BALL_SLACK of twice the radius.
    The 3k distances of the k centers, in that order, are one batched call
    that pairs the rows of the centers, one zero row and the 4A, so it
    decomposes 2k + 1 spectra.  A center with trace at or below ZERO_TRACE
    raises ZeroCenter.
    """
    traces = _traces(centers)
    if (traces <= ZERO_TRACE).any():
        raise ZeroCenter(f"witness construction needs tr(center) > {ZERO_TRACE}")
    radii = np.sqrt(traces)
    k = len(centers)
    ends = np.concatenate([np.zeros_like(centers[:1]), 4.0 * centers])
    a, zero, high = np.arange(k), np.full(k, k), np.arange(k + 1, 2 * k + 1)
    to_zero, to_high, pair = np.split(
        distances(
            MetricKind.BURES,
            centers,
            ends,
            (np.concatenate([a, a, zero]), np.concatenate([zero, high, high])),
        ),
        3,
    )
    held = (
        (to_zero <= radii + BALL_SLACK)
        & (to_high <= radii + BALL_SLACK)
        & (np.abs(pair - 2.0 * radii) <= BALL_SLACK)
    )
    return radii, to_zero, to_high, pair, held


def midpoint_witness(
    x: DensityOperator, y: DensityOperator
) -> tuple[DensityOperator, np.ndarray]:
    """Midpoint Z = (X+Y)/2 of an antipodal pair: for ||X||_1 = ||Y||_1 = eps
    and ||X-Y||_1 = 2*eps it lies in both radius-eps balls and is nonzero.
    Returns Z and its distances ||X - Z||_1 and ||Y - Z||_1, measured as one
    ``distances`` call and checked to lie within BALL_SLACK of eps."""
    nx, ny = x.trace, y.trace
    eps = 0.5 * (nx + ny)
    if abs(nx - ny) > BALL_SLACK or abs(trace_distance(x, y) - 2.0 * eps) > BALL_SLACK:
        raise InvalidConfiguration(
            "midpoint witness needs ||X||_1 = ||Y||_1 = eps and ||X-Y||_1 = 2*eps"
        )
    z = DensityOperator((x.entries + y.entries) / 2.0)
    norms = distances(
        MetricKind.TRACE_NORM, np.array([x.entries, y.entries]), np.array([z.entries, z.entries])
    )
    if (np.abs(norms - eps) > BALL_SLACK).any():
        raise NumericalBreakdown("the midpoint is not at distance eps from both ends")
    if z.trace < eps / 2.0:
        raise NumericalBreakdown("the midpoint has trace below eps/2")
    return z, norms


def pinch_configuration(
    center: DensityOperator, rng: RngStream | np.random.Generator
) -> PinchConfiguration:
    """Pick an eigenvalue lam > 0 of the center, set eps = lam/2, and shift by
    +-eps times the eigenprojection; both shifts stay in the density cone.

    The eigenvalue is chosen uniformly among those carrying at least half the
    mean spectral weight, which keeps eps (and every tolerance scaled by it)
    well above roundoff; the largest eigenvalue always qualifies.
    """
    (lam,), (vec,) = center.spectrum()
    tr = center.trace
    floor = max(1e-10 * (1.0 + tr), tr / (2.0 * center.dim))
    eligible = np.flatnonzero(lam > floor)
    if eligible.size == 0:
        raise ZeroCenter("pinch configuration needs a strictly positive eigenvalue")
    gen = generator_of(rng)
    k = int(eligible[int(gen.integers(eligible.size))])
    eps = float(lam[k]) / 2.0
    projection = DensityOperator(np.outer(vec[:, k], vec[:, k].conj()))
    upper = DensityOperator(center.entries + eps * projection.entries)
    lower = DensityOperator(center.entries - eps * projection.entries)
    if (
        abs(trace_distance(upper, center) - eps) > BALL_SLACK
        or abs(trace_distance(lower, center) - eps) > BALL_SLACK
        or abs(trace_distance(upper, lower) - 2.0 * eps) > BALL_SLACK
    ):
        raise NumericalBreakdown("the pinched pair is not at distances eps, eps, 2*eps")
    return PinchConfiguration(eps, projection, upper, lower)


def _roundoff_slack(x: DensityOperator, y: DensityOperator, epsilon: float) -> float:
    """Default slack on membership in the radius-epsilon trace-norm balls
    around x and y: max(1e-12 * epsilon, 64 * n * eps_mach * (1 + tr x +
    tr y)), the roundoff of n x n trace norms of entries of that size."""
    return max(
        1e-12 * epsilon, 64.0 * x.dim * np.finfo(np.float64).eps * (1.0 + x.trace + y.trace)
    )


def intersection_uniqueness_search(
    upper: DensityOperator,
    lower: DensityOperator,
    center: DensityOperator,
    epsilon: float,
    budget: int,
    slack: float | None = None,
) -> IntersectionSearchResult:
    """Two-sided tube probe of Lemma 3 at a pinch: the radius-epsilon
    trace-norm balls around X = A + eps P and Y = A - eps P, P = vv* for an
    eigenvector v of the center A, meet only at A.  Within a slack s > 0 they
    meet in a tube around A, and the probe checks that tube from both sides:
    points inside it must be accepted and points beyond its proven width
    rejected, so a trace norm or ball test that errs either way fails it.

    The tube.  Let Z = A + D lie within s of both balls, and split D by P and
    Q = 1 - P: delta = v*Dv, the complement block D_Q = QDQ and the coupling
    b = QDv, so D = delta P + D_Q + (bv* + vb*).  Pinching (||M||_1 >=
    ||PMP||_1 + ||QMQ||_1) gives |eps -+ delta| + ||D_Q||_1 <= eps + s, so
    |delta| <= s and ||D_Q||_1 <= s.  Compressed onto span(v, b) the
    trace norm is at least the gap of the two eigenvalues, so (eps - 2s)^2
    + 4|b|^2 <= (eps + s)^2 and |b| <= sqrt(1.5 eps s).  Hence ||Z - A||_1
    <= |delta| + ||D_Q||_1 + 2|b| <= T(s) = 2s + sqrt(6 eps s) (Bhatia,
    Matrix Analysis, for the pinching inequality).  A pure coupling t(vu* +
    uv*) reaches sqrt(2 eps s + s^2): on span(v, u) the differences are
    [[+-eps, -t], [-t, 0]], of trace norm sqrt(eps^2 + 4t^2).

    The points.  The couplings run to min(budget, n - 1) eigenvectors u of A
    other than v, in decreasing order of their eigenvalue mu (v is the
    eigenvector on which x - y weighs most; lambda is its eigenvalue).
    Inner points: Z = A + t(vu* + uv*) + a(uu* - vv*) at t = c/2 sqrt(2 eps s
    + s^2), c in _INNER_FRACTIONS, with a = 0 when t^2 <= lambda mu and
    otherwise the smaller root of (lambda - a)(mu + a) = t^2, about (t^2 -
    lambda mu)/lambda: Z keeps A's trace, and its 2 x 2 block on span(v, u)
    stays PSD, singular when a > 0.  Each must pass the construction check
    (DensityOperator._validated, which the whole inner stack passes or
    fails; so does a slack so loose that the root is not real) and lie
    within s of both balls; its excess is at most about 1.5 c^2 s.  Outer points,
    at separation 2T(s): the coupling t = T(s) to each u, the complement
    block 2T(s) uu* for each u, and the shifts +-2T(s) P.  Each must fall
    outside a ball by more than s: their excesses are about 2T^2/eps >=
    12s, 2T and 2T.  At n = 1 there is no coupling, and only the two
    shifts are probed.

    All points are measured with one batched trace-norm call, which stacks
    X - Z, Y - Z and Z - A.  The result reports the largest separation of a
    point the ball tests accept, inner or outer; lemma3 holds it to
    T(s) * (1 + _TUBE_MARGIN).  The ball tests hold a point to s up to the
    roundoff of the computed trace norms, which the default slack
    (_roundoff_slack) bounds, so an accepted point lies within 2s of both
    balls exactly, and T(2s) <= 1.5 T(s) while s <= eps/25.  The probe
    draws nothing: it is a function of the configuration, budget and slack.
    """
    if budget < 1:
        raise InvalidConfiguration("uniqueness probe needs a budget of at least 1 direction")
    if slack is None:
        slack = _roundoff_slack(upper, lower, epsilon)
    a_e = center.entries
    (lam,), (vec,) = center.spectrum()
    pinched = np.einsum("ij,ik,kj->j", vec.conj(), upper.entries - lower.entries, vec).real
    k = int(np.argmax(pinched))
    v, lam_v = vec[:, k], lam[k]
    others = [j for j in np.argsort(-lam, kind="stable") if j != k][:budget]
    u, mu = vec[:, others].T, lam[others]
    vv = np.outer(v, v.conj())
    uu = u[:, :, None] * u.conj()[:, None, :]
    vu = v[None, :, None] * u.conj()[:, None, :]
    coupling = vu + vu.conj().swapaxes(-1, -2)

    bound = 2.0 * slack + np.sqrt(6.0 * epsilon * slack)
    reach = 0.5 * np.sqrt(2.0 * epsilon * slack + slack * slack)
    inner = []
    for c in _INNER_FRACTIONS:
        t = c * reach
        over = np.maximum(t * t - lam_v * mu, 0.0)
        a = 2.0 * over / ((lam_v - mu) + np.sqrt((lam_v + mu) ** 2 - 4.0 * t * t))
        inner.append(t * coupling + a[:, None, None] * (uu - vv))
    outer = [bound * coupling, 2.0 * bound * uu, 2.0 * bound * np.array([vv, -vv])]
    z = _symmetrized(a_e + np.concatenate(inner + outer))
    m = 2 * len(u)
    try:
        DensityOperator._validated(z[:m])
        constructed = True
    except (ValueError, NotPositiveSemidefinite):
        constructed = False
    to_x, to_y, sep = trace_norm_entries(np.stack([upper.entries - z, lower.entries - z, z - a_e]))
    excess = np.maximum(to_x, to_y) - epsilon
    feasible = excess[:m] <= slack
    rejected = excess[m:] > slack
    accepted = np.concatenate([feasible & constructed, ~rejected])
    separation = float(sep[accepted].max()) if accepted.any() else 0.0
    return IntersectionSearchResult(
        separation_from_center=separation,
        inner_excess=float(excess[:m].max()) if m else -np.inf,
        outer_excess=float(excess[m:].min()),
        inner_points=m,
        inner_feasible=int(np.count_nonzero(feasible)) if constructed else 0,
        outer_points=len(z) - m,
        outer_rejected=int(np.count_nonzero(rejected)),
        tube_bound=float(bound),
        tube_reached=separation / float(np.sqrt(2.0 * epsilon * slack)),
    )


def orthocomplement_pool(
    center: DensityOperator,
    rng: RngStream | np.random.Generator,
) -> list[DensityOperator]:
    """Standard pool for the double-orthocomplement rank: every eigenprojection
    of the center followed by _POOL_RANDOMS_PER_DIM * dim random densities, drawn
    as all ranks, then all traces (in [0.5, 1.5]), then one Wishart stack."""
    gen = generator_of(rng)
    n = center.dim
    (vec,) = center.spectrum()[1]
    pool = [DensityOperator(np.outer(vec[:, k], vec[:, k].conj())) for k in range(n)]
    drawn = _random_stack(n, gen, _POOL_RANDOMS_PER_DIM * n, (0.5, 1.5))
    return pool + DensityOperator._wrapped(drawn)


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
    family: list[DensityOperator] = []
    for candidate in sorted(perp_perp, key=DensityOperator.rank):
        if candidate.trace <= ZERO_TRACE:
            continue
        if all(are_orthogonal(candidate, member, tol) for member in family):
            family.append(candidate)
    return len(family)
