"""Property-based checks of the metric identities and inequalities the
theorem rests on, over random states and densities of every rank up to n = 8:
the metric axioms, Fuchs-van de Graaf in this code's normalisation, the
fidelity bound, invariance under unitary and antiunitary conjugation, the
batched distances against the per-pair ones, and the trace bounds that let the
uniqueness search reject a proposal before its trace norms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsm.geometry import _TRACE_MARGIN
from qsm.linalg import psd_clamp_entries, trace_norm_entries
from qsm.maps import MapDomain, antiunitary_conjugation, apply_map, unitary_conjugation
from qsm.metrics import (
    MetricKind,
    are_orthogonal,
    distance,
    distances,
    fidelity,
    orthogonality,
    product_trace_norm,
    trace_distance,
)
from qsm.states import RngStream, random_density, random_state, random_unitary

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
    for kind in MetricKind:
        batched = distances(kind, xs, ys)
        assert [float(d) for d in batched] == [distance(kind, x, y) for x, y in zip(xs, ys)]
    norms, orthogonal = orthogonality(xs, ys)
    assert [float(v) for v in norms] == [product_trace_norm(x, y) for x, y in zip(xs, ys)]
    assert list(orthogonal) == [are_orthogonal(x, y) for x, y in zip(xs, ys)]


#: matrix sizes of the trace-bound property: every small n and the default cap
bound_dims = st.sampled_from([*range(1, 9), 64])
#: decimal exponents of the entries' magnitudes, between 1e-6 and 1e3
spans = st.tuples(st.integers(-6, 3), st.integers(-6, 3)).map(sorted)


def _hermitian(gen, n, span, shift):
    """Hermitian matrix with entries of magnitude 10^[span], shifted by
    shift times its spectral norm, so the clamp meets PSD, indefinite and
    negative semidefinite inputs."""
    mags = 10.0 ** gen.uniform(span[0], span[1], (n, n))
    a = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) * mags
    a = (a + a.conj().T) / 2.0
    return a + shift * np.linalg.norm(a, 2) * np.eye(n)


@PROPERTY
@given(n=bound_dims, seed=seeds, span_w=spans, span_big_w=spans,
       shift_w=st.sampled_from([-1.0, 0.0, 1.0]), shift_big_w=st.sampled_from([-1.0, 0.0, 1.0]),
       near=st.booleans())
def test_trace_bounds_hold_for_computed_trace_norms(
    n, seed, span_w, span_big_w, shift_w, shift_big_w, near
):
    """|tr D| <= ||D||_1 and tr clamp(w) >= tr w, in floating point: the
    computed ||W - z||_1, z = clamp(w), is at least tr w - tr W and
    |tr W - tr z| less the search's margin.  W = z + a definite offset makes
    both bounds tight.  The search scales the margin by 1 + tr x + tr y,
    which bounds the norms of its W = x, y and of its perturbations w."""
    gen = RngStream(seed).generator()
    w = _hermitian(gen, n, span_w, shift_w)
    z = psd_clamp_entries(w)
    big_w = _hermitian(gen, n, span_big_w, shift_big_w) + (z if near else 0.0)
    norm = float(trace_norm_entries(big_w - z))
    margin = _TRACE_MARGIN * (1.0 + np.linalg.norm(big_w, 2) + np.linalg.norm(w, 2))
    tr_w, tr_big_w, tr_z = (float(np.trace(a).real) for a in (w, big_w, z))
    assert norm >= tr_w - tr_big_w - margin
    assert norm >= abs(tr_big_w - tr_z) - margin
