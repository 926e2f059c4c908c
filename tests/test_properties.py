"""Property-based checks of the metric identities and inequalities the
theorem rests on, over random states and densities of every rank up to n = 8:
the metric axioms, Fuchs-van de Graaf in this code's normalisation, the
fidelity bound, invariance under unitary and antiunitary conjugation, the
batched distances against the per-pair ones; the rank that the Wishart
sampler reads off the Gram spectrum, and the purity certificate of a probe image, against eigh; and,
at n = 2, the trace distance, fidelity and Bures distance against the
closed forms on Bloch vectors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsm.geometry import _roundoff_slack, midpoint_witness
from qsm.errors import NumericalBreakdown
from qsm.maps import (
    _PURITY_TOL,
    MapDomain,
    _pure_columns,
    antiunitary_conjugation,
    apply_map,
    unitary_conjugation,
)
from qsm.metrics import (
    MetricKind,
    are_orthogonal,
    bures_distance,
    distance,
    distances,
    fidelity,
    orthogonality,
    trace_distance,
)
from qsm.states import (
    DensityOperator,
    QuantumState,
    RngStream,
    _ginibre,
    _orthogonal_pairs,
    _sampled_stack,
    _wishart,
    random_density,
    random_state,
    random_unitary,
)

#: tier-1 stays fast: few examples, no per-example deadline, and the same
#: examples on every run
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

#: slack for inequalities between quantities computed to double precision
SLACK = 1e-9

dims = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _states(n, seed, count):
    """Random states of random rank, so rank-deficient ones come up often."""
    gen = RngStream(seed).generator()
    return [random_state(n, int(gen.integers(1, n + 1)), gen) for _ in range(count)]


def _densities(n, seed, count):
    gen = RngStream(seed).generator()
    return [
        random_density(n, int(gen.integers(1, n + 1)), float(gen.uniform(0.05, 5.0)), gen)
        for _ in range(count)
    ]


@PROPERTY
@given(n=dims, seed=seeds)
def test_metric_axioms(n, seed):
    a, b, c = _densities(n, seed, 3)
    for kind in MetricKind:
        ab, bc, ac = distance(kind, a, b), distance(kind, b, c), distance(kind, a, c)
        assert abs(ab - distance(kind, b, a)) <= SLACK
        assert 0.0 <= distance(kind, a, a) <= 1e-7
        assert ab > 0.0
        assert ac <= ab + bc + SLACK


@PROPERTY
@given(n=dims, seed=seeds)
def test_fuchs_van_de_graaf(n, seed):
    """1 - F <= (1/2) ||rho - sigma||_1 <= sqrt(1 - F^2) for states, with F
    the (unsquared) fidelity."""
    rho, sigma = _states(n, seed, 2)
    f = fidelity(rho, sigma)
    half_norm = 0.5 * trace_distance(rho, sigma)
    assert 1.0 - f <= half_norm + SLACK
    assert half_norm <= np.sqrt(max(0.0, 1.0 - f * f)) + SLACK


@PROPERTY
@given(n=dims, seed=seeds)
def test_fidelity_bounded_by_traces(n, seed):
    a, b = _densities(n, seed, 2)
    assert 0.0 <= fidelity(a, b) <= np.sqrt(a.trace * b.trace) * (1.0 + SLACK)


@PROPERTY
@given(n=dims, seed=seeds, anti=st.booleans(), states=st.booleans())
def test_distances_invariant_under_conjugation(n, seed, anti, states):
    a, b = (_states if states else _densities)(n, seed, 2)
    u = random_unitary(n, RngStream(seed, 1))
    domain = MapDomain.STATES_ONLY if states else MapDomain.FULL_DENSITY
    m = (antiunitary_conjugation if anti else unitary_conjugation)(u, domain)
    fa, fb = apply_map(m, a), apply_map(m, b)
    scale = 1.0 + a.trace + b.trace
    for kind in MetricKind:
        assert abs(distance(kind, fa, fb) - distance(kind, a, b)) <= 1e-8 * scale


@PROPERTY
@given(n=dims, seed=seeds, count=st.integers(min_value=1, max_value=6))
def test_batched_distances_equal_per_pair(n, seed, count):
    ops = _densities(n, seed, 2 * count)
    xs, ys = ops[:count], ops[count:]
    x_stack, y_stack = np.array([op.entries for op in xs]), np.array([op.entries for op in ys])
    for kind in MetricKind:
        batched = distances(kind, x_stack, y_stack)
        assert [float(d) for d in batched] == [distance(kind, x, y) for x, y in zip(xs, ys)]
    orthogonal = orthogonality(x_stack, y_stack)
    assert list(orthogonal) == [are_orthogonal(x, y) for x, y in zip(xs, ys)]


#: dimensions of the Wishart and probe-image properties, up to the default cap
large_dims = st.sampled_from([1, 2, 3, 4, 5, 8, 16, 32, 48, 64])


def _eigh_rank(entries, trace):
    """The eigenvalues of eigh above the sampler's floor 1e-10*trace."""
    return int(np.count_nonzero(np.linalg.eigh(entries)[0] > 1e-10 * trace))


@PROPERTY
@given(n=large_dims, seed=seeds, rank_share=st.floats(0.0, 1.0),
       log_trace=st.floats(-3.0, 1.0), collapse=st.booleans())
def test_wishart_rank_from_the_gram_spectrum(n, seed, rank_share, log_trace, collapse):
    """The sampler counts each rank on the Gram spectrum of its factors; the
    count is eigh's on the built operator.  The first of three samples has
    the rank rank_share picks (every rank of n comes up) and the given
    trace.  With ``collapse`` its last kept column is twice its first plus
    10^-5.5 times a Gaussian column, which leaves one eigenvalue near
    1e-13..1e-12 of the trace: below the floor, far above roundoff, so its
    count is one short.  The sampler refuses the stack, naming the first eigh
    count above the rank asked for, if there is one; otherwise it builds the
    stack and counts as short exactly the operators whose eigh count is below
    their rank (which _sampled_stack redraws)."""
    gen = RngStream(seed).generator()
    ranks = gen.integers(1, n + 1, size=3)
    ranks[0] = 1 + int(rank_share * (n - 1))
    traces = 10.0 ** gen.uniform(-3.0, 1.0, size=3)
    traces[0] = 10.0**log_trace
    g = _ginibre(gen, 3, n, int(ranks.max()))
    if collapse and ranks[0] >= 2:
        g[0, :, ranks[0] - 1] = 2.0 * g[0, :, 0] + 10.0**-5.5 * _ginibre(gen, 1, n, 1)[0, :, 0]
    kept = g * (np.arange(g.shape[2]) < ranks[:, None])[:, None, :]
    a = kept @ kept.conj().swapaxes(1, 2)
    ops = DensityOperator.from_stack(a * (traces / a.trace(axis1=1, axis2=2).real)[:, None, None])
    found = [_eigh_rank(op.entries, t) for op, t in zip(ops, traces)]
    assert found[0] == ranks[0] - (collapse and ranks[0] >= 2)
    above = [i for i in range(3) if found[i] > ranks[i]]
    if not above:
        built, short = _wishart(g, ranks, traces)
        assert all(np.array_equal(x, y.entries) for x, y in zip(built, ops))
        assert short.tolist() == [found[i] < ranks[i] for i in range(3)]
    else:
        i = above[0]
        message = f"numerical rank {found[i]}, wanted {ranks[i]}"
        with pytest.raises(NumericalBreakdown, match=message):
            _wishart(g, ranks, traces)


@PROPERTY
@given(n=st.integers(min_value=1, max_value=64), seed=seeds, rank_share=st.floats(0.0, 1.0),
       log_trace=st.floats(-3.0, 1.0), states=st.booleans())
def test_sampler_stacks_carry_their_operators(n, seed, rank_share, log_trace, states):
    """A sampler's entry stack is its operators: each row's trace, read as
    arr.trace(axis1=1, axis2=2).real, and each row's entries are bit for bit
    the trace and the entries of the operator from_stack builds from it.
    The first of three Wishart samples has the rank rank_share picks and, on
    the density cone, the given trace; states are drawn with no target
    trace, as random_state draws them.  From n = 2 on, an orthogonal pair is
    drawn too.  The samplers run no construction check, so from_stack here
    holds every sampled stack to the PSD floor."""
    gen = RngStream(seed).generator()
    cls = QuantumState if states else DensityOperator
    ranks = gen.integers(1, n + 1, size=3)
    ranks[0] = 1 + int(rank_share * (n - 1))
    traces = None if states else 10.0 ** np.array([log_trace, *gen.uniform(-3.0, 1.0, size=2)])
    stacks = [_sampled_stack(n, gen, ranks, traces)]
    if n >= 2:
        pair_traces = np.ones(2) if states else 10.0 ** gen.uniform(-3.0, 1.0, size=2)
        stacks += _orthogonal_pairs(n, gen, pair_traces[:1], pair_traces[1:])
    for arr in stacks:
        ops = cls.from_stack(arr)
        assert not arr.flags.writeable
        assert arr.trace(axis1=1, axis2=2).real.tolist() == [op.trace for op in ops]
        assert all(np.array_equal(row, op.entries) for row, op in zip(arr, ops))


@PROPERTY
@given(n=large_dims.filter(lambda n: n >= 2), seed=seeds, log_trace=st.floats(-3.0, 1.0),
       states=st.booleans())
def test_orthogonal_pair_ranks_from_the_gram_spectrum(n, seed, log_trace, states):
    """The rotated factors V G of an orthogonal pair: every pair the sampler
    accepts has eigh's count at the ranks it drew."""
    count = 3
    gen, twin = RngStream(seed).generator(), RngStream(seed).generator()
    trace = 1.0 if states else 10.0**log_trace
    cls = QuantumState if states else DensityOperator
    xs, ys = map(cls.from_stack, _orthogonal_pairs(n, gen, *np.full((2, count), trace)))
    splits = twin.integers(1, n, size=count)
    ranks_x, ranks_y = twin.integers(1, splits + 1), twin.integers(1, n - splits + 1)
    for x, y, rx, ry in zip(xs, ys, ranks_x, ranks_y):
        assert (_eigh_rank(x.entries, trace), _eigh_rank(y.entries, trace)) == (rx, ry)


@PROPERTY
@given(n=st.integers(min_value=2, max_value=64), seed=seeds, log_eps=st.floats(-3.0, 1.0))
def test_midpoint_witness_within_the_roundoff_slack(n, seed, log_eps):
    """The midpoint of an orthogonal pair of trace eps (every split of n and
    every rank on each side) has trace eps at roundoff and lies on both
    radius-eps spheres within 1/16 of the default search slack, the bound
    lemma3 holds it to (measured worst about 1/230)."""
    eps = 10.0**log_eps
    pair = _orthogonal_pairs(n, RngStream(seed).generator(), [eps], [eps])
    (x,), (y,) = map(DensityOperator.from_stack, pair)
    z, _ = midpoint_witness(x, y)
    assert abs(z.trace - eps) <= 4.0 * n * np.finfo(np.float64).eps * eps
    ends, mids = np.array([x.entries, y.entries]), np.array([z.entries, z.entries])
    residual = np.abs(distances(MetricKind.TRACE_NORM, ends, mids) - eps).max()
    assert residual <= _roundoff_slack(x, y, eps) / 16.0


def _probe_image(n, seed, delta, rank):
    """(1 - delta) psi psi* + delta sigma for a Haar frame V with psi = V e_1
    and sigma a random state of the given rank on psi's complement: the
    second eigenvalue is delta times sigma's largest.  rank 0 gives a random
    state of rank 2..n, far from pure."""
    gen = RngStream(seed).generator()
    if rank == 0:
        return DensityOperator(random_state(n, int(gen.integers(2, n + 1)), gen).entries)
    v = random_unitary(n, gen)
    psi, rest = v[:, :1], v[:, 1:]
    sigma = random_state(n - 1, min(rank, n - 1), gen).entries
    return DensityOperator(
        (1.0 - delta) * psi @ psi.conj().T + delta * rest @ sigma @ rest.conj().T
    )


@PROPERTY
@given(n=large_dims.filter(lambda n: n >= 2), seed=seeds, exponent=st.floats(-12.0, -2.0),
       rank=st.integers(0, 4))
@example(n=2, seed=0, exponent=math.log10(1.2e-8), rank=1)
@example(n=4, seed=2, exponent=math.log10(1.1e-8), rank=1)
def test_certified_probe_images_pass_eigh(n, seed, exponent, rank):
    """Whenever a probe image is certified pure, eigh's second eigenvalue is
    within _PURITY_TOL and its top eigenvector is the certificate's column
    up to phase.  Images within 1e-10 of pure are certified; images of rank
    2 or more by a wide margin never are.  The examples have a second
    eigenvalue just above _PURITY_TOL and a residual below 2*_PURITY_TOL."""
    delta = 10.0**exponent
    image = _probe_image(n, seed, delta, rank)
    vecs, certified = _pure_columns(image.entries[None])
    lam, vec = np.linalg.eigh(image.entries)
    if certified[0]:
        assert lam[-2] <= _PURITY_TOL
        assert abs(np.vdot(vec[:, -1], vecs[0])) >= 1.0 - 1e-12
    if rank and delta <= 1e-10:
        assert certified[0]
    if rank == 0:
        assert not certified[0]


#: Bloch vectors: the center, the pure states on the sphere, or any radius
radii = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
#: the same, with the mixed radii kept 1e-6 inside the sphere: F is not
#: Lipschitz at the boundary (it moves by O(sqrt(delta)) when an entry moves
#: by delta), so between 1 - 1e-6 and 1 the entries' own rounding moves F by
#: more than the closed form's 1e-12 at the exact radius
fidelity_radii = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0 - 1e-6))
directions = st.tuples(*(st.floats(-1.0, 1.0),) * 3).filter(lambda r: np.linalg.norm(r) > 1e-3)

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch(direction, radius):
    """The Bloch vector of the given radius along the direction, and its
    state (1 + r.sigma)/2, built from the Pauli matrices alone."""
    r = radius * np.array(direction) / np.linalg.norm(direction)
    return r, QuantumState((np.eye(2) + np.tensordot(r, _PAULI, 1)) / 2.0)


def _squared_fidelity_closed_form(r, s, radius_r, radius_s):
    """F^2 = tr rho sigma + 2 sqrt(det rho det sigma) (Hübner) of the states
    of Bloch vectors r and s, with tr rho sigma = (1 + r.s)/2 and det rho =
    (1 - |r|^2)/4 at the exact radius."""
    det_rho, det_sigma = ((1.0 - radius**2) / 4.0 for radius in (radius_r, radius_s))
    return (1.0 + r @ s) / 2.0 + 2.0 * math.sqrt(det_rho * det_sigma)


@PROPERTY
@given(dir_r=directions, dir_s=directions, radius_r=radii, radius_s=radii)
def test_trace_distance_is_the_bloch_distance(dir_r, dir_s, radius_r, radius_s):
    """At n = 2 the trace distance is the Euclidean distance |r - s| of the
    Bloch vectors."""
    (r, rho), (s, sigma) = _bloch(dir_r, radius_r), _bloch(dir_s, radius_s)
    assert abs(trace_distance(rho, sigma) - np.linalg.norm(r - s)) <= 1e-14


@PROPERTY
@given(dir_r=directions, dir_s=directions, radius_r=fidelity_radii, radius_s=fidelity_radii)
# a near-antipodal pure pair: F misses the closed form's square root by 3.9e-11,
# F^2 misses the closed form by 2.5e-17
@example(dir_r=(0.1875, 1.192092896e-07, 0.0), dir_s=(-1.0, 0.0, 0.0), radius_r=1.0, radius_s=1.0)
def test_fidelity_closed_form_on_the_bloch_ball(dir_r, dir_s, radius_r, radius_s):
    """At n = 2 the fidelity is its closed form, compared as F^2; a pure
    state (radius 1) has det 0, so pure and rank-deficient pairs are
    covered.  Compared as F, the closed form of a near-antipodal pure pair
    is the square root of a cancelling difference, which turns its roundoff
    into errors far above 1e-12."""
    (r, rho), (s, sigma) = _bloch(dir_r, radius_r), _bloch(dir_s, radius_s)
    closed = _squared_fidelity_closed_form(r, s, radius_r, radius_s)
    assert abs(fidelity(rho, sigma) ** 2 - closed) <= 1e-12


@PROPERTY
@given(dir_r=directions, dir_s=directions, radius_r=fidelity_radii, radius_s=fidelity_radii)
# a near-antipodal pure pair, where the two sides differ by 8e-11 compared as d^2
@example(dir_r=(0.1875, 1.192092896e-07, 0.0), dir_s=(-1.0, 0.0, 0.0), radius_r=1.0, radius_s=1.0)
def test_bures_closed_form_on_the_bloch_ball(dir_r, dir_s, radius_r, radius_s):
    """At n = 2, d = sqrt(tr rho + tr sigma - 2F) with F in closed form,
    compared as F^2 = ((tr rho + tr sigma - d^2)/2)^2, where both sides
    are well conditioned.  Compared as d, the closed form's square roots
    turn roundoff into errors of order eps/F near orthogonal pure pairs (F
    of a near-antipodal pure pair is the square root of a cancelling
    difference) and eps/d near coincident pairs, up to 2e-8."""
    (r, rho), (s, sigma) = _bloch(dir_r, radius_r), _bloch(dir_s, radius_s)
    f_of_d = (2.0 - bures_distance(rho, sigma) ** 2) / 2.0
    closed = _squared_fidelity_closed_form(r, s, radius_r, radius_s)
    assert abs(f_of_d**2 - closed) <= 1e-12

