"""Metric characterizations of the zero operator and related geometry.

Covers both characterizations of 0 (Bures ball diameters around 0 and the
(0, 4A) witness for nonzero centers; trace-norm ball intersections), the
pinch construction and its uniqueness search, and rank via double
orthocomplements in a finite pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidConfiguration,
    InvalidPool,
    NumericalBreakdown,
    ZeroCenter,
)
from .linalg import _BLOCK_ENTRIES, _blocks, psd_clamp_entries, trace_norm_entries
from .metrics import (
    ORTHOGONALITY_TOL,
    MetricKind,
    are_orthogonal,
    distances,
    trace_distance,
)
from .states import DensityOperator, RngStream, _sampled_stack, _traces, generator_of

#: additive tolerance on ball membership and witness distances.
BALL_SLACK = 1e-9

#: random densities per dimension in an orthocomplement_pool.
_POOL_RANDOMS_PER_DIM = 10

#: traces at or below this are treated as the zero operator.
ZERO_TRACE = 1e-12

#: rejections per annealing step of the uniqueness search, and the most
#: proposals it evaluates in one batch.
_BLOCK = 100

#: margin of the uniqueness search's lower bounds (the pinching bound and
#: the clamped-trace bound), relative to 1 + tr x + tr y.  It dominates the
#: roundoff of a computed trace or pinched diagonal plus the backward error
#: of eigh and eigvalsh, O(n^2 * u * (|W| + |z|)), up to n = 64, so a
#: proposal a bound rejects is one its computed trace norms reject too.
_TRACE_MARGIN = 1e-10


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
    arr[live] = _sampled_stack(DensityOperator, n, gen, ranks[live], targets[live])
    return arr


def bures_ball_diameter(
    dim: int,
    radius: float,
    rng: RngStream | np.random.Generator,
    samples: int,
) -> DiameterEstimate:
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
    return DiameterEstimate(best, tuple(DensityOperator._wrapped(best_pair)))


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
    ends = np.concatenate([np.zeros_like(centers[:1]), DensityOperator._validated(4.0 * centers)])
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


def _pinching_basis(
    x_e: np.ndarray, y_e: np.ndarray, a_e: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frame of the uniqueness search's pinching bound: with V the
    eigenvectors of x - y, the ``(2n^2, n)`` weights that map a raw normal
    draw (its n x n real parts, then its imaginary parts, flattened) to
    diag V*((g + g*)/2)V for g = real + 1j * imag, and the diagonals
    alpha = diag V*(x - A)V and beta = diag V*(y - A)V.

    Column j of the weights holds Re and -Im of conj(V[a, j]) * V[b, j] at
    row (a, b): v*gv = sum_ab conj(V[a, j]) g_ab V[b, j], whose real part is
    v*((g + g*)/2)v."""
    n = len(a_e)
    v = np.linalg.eigh(x_e - y_e)[1]
    alpha, beta = ((v.conj().T @ (e - a_e) @ v).diagonal().real for e in (x_e, y_e))
    m = v.conj()[:, None, :] * v[None, :, :]
    return np.concatenate([m.real, -m.imag]).reshape(2 * n * n, n), alpha, beta


def _pinching_bound(d: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Lower bound L on max(||x - z||_1, ||y - z||_1) for every z >= w, from
    the pinched diagonals d = diag V*(w - A)V (one row per proposal), alpha
    and beta of ``_pinching_basis``:

        L = max(sum (d - alpha)^+, sum (d - beta)^+,
                1/2 sum |alpha - beta| + sum (d - max(alpha, beta))^+).

    Pinching gives ||x - z||_1 >= sum |alpha - d - c| with c = diag V*(z -
    w)V >= 0, and the same for y with beta.  Minimised over c >= 0, the
    first sum is at least sum (d - alpha)^+ and the second sum (d - beta)^+;
    their mean is at least 1/2 sum |alpha - beta| + sum (d - max(alpha,
    beta))^+, since |a - t| + |b - t| >= |a - b| + 2 (t - max(a, b))^+."""
    to_x = np.maximum(d - alpha, 0.0).sum(axis=-1)
    to_y = np.maximum(d - beta, 0.0).sum(axis=-1)
    apart = 0.5 * np.abs(alpha - beta).sum()
    return np.maximum(
        np.maximum(to_x, to_y), apart + np.maximum(d - np.maximum(alpha, beta), 0.0).sum(axis=-1)
    )


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

    Every proposal perturbs the center by a random Hermitian direction and
    is clamped back to the PSD cone, with the scale annealed geometrically
    (x0.9 per 100 rejections from 0.1*epsilon, applied between blocks).  The
    best feasible candidate by separation is kept; the first one wins a tie,
    and the center is the starting best.

    slack defaults to a roundoff-level allowance (_roundoff_slack).  Any
    looser slack s fattens the one-point intersection into a tube of width
    sqrt(2*epsilon*s) along the couplings to the pinched eigenvector
    (||eps*P +- delta||_1 grows only quadratically in those directions),
    which the search will find and report as a spurious uniqueness
    violation.

    Proposals are drawn and evaluated in blocks.  A block of k proposals
    draws one ``(k, 2, n, n)`` stack of standard normals, the real and
    imaginary parts of its perturbations.  Each proposal stops at the first
    test that rejects it, and each test runs as one batched call on the
    proposals still open:

    0. the pinching bound, before any decomposition: with V the
       eigenvectors of x - y (one eigh per search), the diagonals d = diag
       V*(w - A)V of the block's perturbations w are one real product of
       the raw draws, ``(k, 2n^2)`` by a ``(2n^2, n)`` weight matrix built
       once (``_pinching_basis``), and a perturbation whose L
       (``_pinching_bound``) exceeds epsilon by more than slack + margin is
       rejected.  Only the perturbations (0) keeps are assembled as
       matrices;
    2. a perturbation whose clamp z has max(|tr x - tr z|, |tr y - tr z|)
       - epsilon above slack + margin is rejected (|tr D| <= ||D||_1 for
       Hermitian D).  tr z is read as the positive mass sum max(lam_i, 0)
       of w's eigvalsh spectrum, so only the perturbations it keeps pay the
       clamp's eigh;
    3. the trace norm to x rejects the clamped proposals outside ball x;
    4. the trace norm to y, taken only inside ball x, rejects the rest;
    5. the separation from the center is taken for the feasible ones.

    The derivation of (0).  With alpha = diag V*(x - A)V, beta = diag
    V*(y - A)V and c = diag V*(z - w)V, which is >= 0 because the clamp z
    dominates w, pinching (||M||_1 >= sum_i |(V*MV)_ii| for any unitary V)
    gives ||x - z||_1 >= sum |alpha - d - c| and ||y - z||_1 >= sum |beta -
    d - c|.  The smallest value either sum takes over c >= 0 is sum (d -
    alpha)^+ and sum (d - beta)^+, and the smallest value their mean takes
    is 1/2 sum |alpha - beta| + sum (d - max(alpha, beta))^+, because |a -
    t| + |b - t| = |a - b| + 2 (t - max(a, b))^+ for t >= min(a, b).  The
    largest of the three is L <= max(||x - z||_1, ||y - z||_1).  As V
    diagonalises x - y, 1/2 sum |alpha - beta| = ||x - y||_1 / 2, which is
    epsilon for a pinch, so a pinch's proposal survives (0) only if every
    d_i <= max(alpha_i, beta_i) to within the slack: about 2^-n of them.
    sum (d - alpha)^+ >= sum (d - alpha) = tr w - tr x, and the same for y,
    so (0) rejects every perturbation with tr w - min(tr x, tr y) - epsilon
    above slack + margin, the old trace bound (1), which is gone.

    The margin, _TRACE_MARGIN * (1 + tr x + tr y), covers the roundoff of
    the computed traces and diagonals and the backward error of eigh and
    eigvalsh (Weyl's bound), so a proposal a bound rejects is one its
    computed trace norms would reject too.  In (0), V is unitary to O(n u)
    and the product and sums cost O(n^2 u) relative to the entries, far
    below the margin, as is the trace norms' own O(n^2 u) error.  In (2) it
    also covers the gap between the two eigensolvers: eigvalsh and eigh
    each return the exact spectrum of some w + E with ||E||_2 = O(n u
    ||w||_2), so by Weyl's inequality each eigenvalue moves by that much
    from one solver to the other and the clamped mass by at most n times
    that, O(n^2 u ||w||_2), as does the trace of the clamp rebuilt from
    eigh's eigenvectors.  A rejected proposal's excess is never read, and a
    kept perturbation is assembled from its draws exactly as the full
    evaluation would, so the result is the one the full evaluation of every
    proposal would give.

    Every block holds min(left, _BLOCK, max(1, _BLOCK_ENTRIES // n^2))
    proposals (the entry cap bounds memory at large n), all at the scale
    the block starts with.  The scale is annealed after the block: x0.9
    once if the block's rejections reached the next multiple of 100, which
    a block of at most 100 proposals crosses at most once.  The final scale
    is therefore 0.1*epsilon*0.9^(rejections // 100).  The block sizes fix
    the draw order, so the result is a function of _BLOCK, _BLOCK_ENTRIES
    and the generator; batched decompositions and trace norms equal the
    single-matrix ones bit for bit.
    """
    if budget < 1:
        raise InvalidConfiguration("uniqueness search needs a budget of at least 1 proposal")
    gen = generator_of(rng)
    n = center.dim
    x_e, y_e, a_e = upper.entries, lower.entries, center.entries
    tr_x, tr_y = upper.trace, lower.trace
    if slack is None:
        slack = _roundoff_slack(upper, lower, epsilon)
    reach = epsilon + slack + _TRACE_MARGIN * (1.0 + tr_x + tr_y)
    weight, alpha, beta = _pinching_basis(x_e, y_e, a_e)

    best = a_e
    best_sep = 0.0
    best_excess = float(
        np.maximum(trace_norm_entries(x_e - a_e), trace_norm_entries(y_e - a_e)) - epsilon
    )
    scale = 0.1 * epsilon
    rejections = 0
    left = int(budget)
    cap = max(1, min(_BLOCK, _BLOCK_ENTRIES // (n * n)))
    while left:
        k = min(left, cap)
        left -= k
        g = gen.standard_normal((k, 2, n, n))
        # a test rejects where its comparison reads true, so a NaN never
        # rejects, as with excess > slack in the full evaluation;
        # (0) the pinching bound on the raw draws, before any matrix is built
        d = scale * (g.reshape(k, -1) @ weight)
        g = g[~(_pinching_bound(d, alpha, beta) > reach)]
        g = g[:, 0] + 1j * g[:, 1]
        w = a_e + scale * (g + g.conj().swapaxes(-1, -2)) / 2.0
        # (2) |tr x - tr z| <= ||x - z||_1, and the same for y, where the
        # clamped trace tr z is the positive mass of w's spectrum
        if len(w):
            tr_z = np.maximum(np.linalg.eigvalsh(w), 0.0).sum(axis=-1)
            w = w[~(np.maximum(abs(tr_x - tr_z), abs(tr_y - tr_z)) > reach)]
        # (3) ball x, then (4) ball y only for the proposals inside ball x
        z = psd_clamp_entries(w) if len(w) else w
        if len(z):
            norm_x = trace_norm_entries(x_e - z)
            inside = ~(norm_x - epsilon > slack)
            z, norm_x = z[inside], norm_x[inside]
        if len(z):
            excess = np.maximum(norm_x, trace_norm_entries(y_e - z)) - epsilon
            inside = ~(excess > slack)
            z, excess = z[inside], excess[inside]
        # a block of at most _BLOCK proposals crosses at most one step
        steps = rejections // _BLOCK
        rejections += k - len(z)
        if rejections // _BLOCK > steps:
            scale *= 0.9
        # (5) separation of the feasible proposals, the ones still open
        if len(z):
            sep = trace_norm_entries(z - a_e)
            i = int(np.argmax(sep))
            if sep[i] > best_sep:
                best, best_sep, best_excess = z[i], float(sep[i]), float(excess[i])
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
) -> list[DensityOperator]:
    """Standard pool for the double-orthocomplement rank: every eigenprojection
    of the center followed by _POOL_RANDOMS_PER_DIM * dim random densities, drawn
    as all ranks, then all traces (in [0.5, 1.5]), then one Wishart stack."""
    gen = generator_of(rng)
    n = center.dim
    (vec,) = center.spectrum()[1]
    pool = [DensityOperator(np.outer(vec[:, k], vec[:, k].conj())) for k in range(n)]
    count = _POOL_RANDOMS_PER_DIM * n
    ranks = gen.integers(1, n + 1, size=count)
    drawn = _sampled_stack(DensityOperator, n, gen, ranks, gen.uniform(0.5, 1.5, size=count))
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
