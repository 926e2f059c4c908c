"""The blocked Bures-diameter, nonzero-center witness and orthogonality
loops against pair-by-pair references: each reference draws every block
exactly as the library does, then measures its pairs one at a time with
bures_distance, are_orthogonal, norm_identity_gaps on one pair and
trace_distance, keeping the first maximum with a ``d > best`` loop.  Same
lower bounds, same witnesses, same reports, the same measured value for every pair and the
same generator state, bit for bit."""

from collections import defaultdict

import numpy as np
import pytest

import qsm.geometry
import qsm.linalg
import qsm.suites
from qsm.errors import NumericalBreakdown, ZeroCenter
from qsm.geometry import (
    BALL_SLACK,
    ZERO_TRACE,
    _in_ball_at_zero,
    bures_ball_diameter,
    nonzero_center_witnesses,
)
from qsm.linalg import _blocks
from qsm.metrics import (
    ORTHOGONALITY_TOL,
    are_orthogonal,
    bures_distance,
    norm_identity_gaps,
    trace_distance,
)
from qsm.serialize import canonical_dumps
from qsm.states import (
    DensityOperator,
    QuantumState,
    RngStream,
    _orthogonal_pairs,
    _sampled_stack,
    generator_of,
    zero_density,
)
from qsm.suites import _ortho_eq, _style_pairs, run_suite


def serial_bures_ball_diameter(dim, radius, rng, samples, log=None):
    """The reference; ``log["distances"]`` gets every distance it measures,
    in order."""
    log = defaultdict(list) if log is None else log
    gen = generator_of(rng)
    first = np.zeros((dim, dim), dtype=np.complex128)
    first[0, 0] = radius * radius
    second = np.zeros((dim, dim), dtype=np.complex128)
    if dim >= 2:
        second[1, 1] = radius * radius
    pairs = [(DensityOperator(first), DensityOperator(second))]
    for count in _blocks(samples, dim, 2):
        ops = DensityOperator.from_stack(_in_ball_at_zero(dim, radius, gen, 2 * count))
        pairs += zip(ops[:count], ops[count:])
    bound = (np.sqrt(2.0) * radius if dim >= 2 else radius) + BALL_SLACK
    best, best_pair = -1.0, None
    for x, y in pairs:
        d = bures_distance(x, y)
        log["distances"].append(d)
        if d > bound:
            raise NumericalBreakdown(f"pair distance {d} violates the diameter bound {bound}")
        if d > best:
            best, best_pair = d, (x, y)
    for member in best_pair:
        log["distances"].append(bures_distance(member, zero_density(dim)))
        if log["distances"][-1] > radius + BALL_SLACK:
            raise NumericalBreakdown("a witness fell outside its Bures ball")
    return best


def serial_nonzero_center_witnesses(centers, log=None):
    """The reference; ``log["distances"]`` gets every distance it measures:
    all d(A, 0), then all d(A, 4A), then all d(0, 4A)."""
    log = defaultdict(list) if log is None else log
    centers = DensityOperator.from_stack(centers)
    if any(a.trace <= ZERO_TRACE for a in centers):
        raise ZeroCenter("witness construction needs tr(center) > 1e-12")
    zero = zero_density(centers[0].dim)
    highs = [DensityOperator(4.0 * a.entries) for a in centers]
    to_zero = [bures_distance(a, zero) for a in centers]
    to_high = [bures_distance(a, high) for a, high in zip(centers, highs)]
    pair = [bures_distance(zero, high) for high in highs]
    log["distances"] += to_zero + to_high + pair
    radii = [float(np.sqrt(a.trace)) for a in centers]
    held = [
        z <= r + BALL_SLACK and h <= r + BALL_SLACK and abs(p - 2.0 * r) <= BALL_SLACK
        for r, z, h, p in zip(radii, to_zero, to_high, pair)
    ]
    return np.array(radii), np.array(to_zero), np.array(to_high), np.array(pair), np.array(held)


def serial_ortho_eq(dim, gen, samples, budget, tolerances, log):
    """The reference; ``log`` gets each pair's measured values under the
    name of the batched function that measures them in _ortho_eq."""
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
            for x, y in zip(DensityOperator.from_stack(xs), DensityOperator.from_stack(ys)):
                log["orthogonality"].append(are_orthogonal(x, y, tol))
                gap = norm_identity_gaps(x.entries[None], y.entries[None])[0]
                log["norm_identity_gaps"].append(float(gap))
                gap_side = log["norm_identity_gaps"][-1] <= tol * (1.0 + x.trace * y.trace)
                misclassified += log["orthogonality"][-1] != gap_side
    if dim >= 2:
        for count in _blocks(max(4, samples // 8), dim, 4):
            pairs = _orthogonal_pairs(dim, gen, np.ones(count), np.ones(count))
            xs, ys = map(QuantumState.from_stack, pairs)
            ranks = gen.integers(1, dim + 1, size=2 * count)
            ab = QuantumState.from_stack(_sampled_stack(dim, gen, ranks, None))
            mixed = [QuantumState((a.entries + b.entries) / 2.0)
                     for a, b in zip(ab[:count], ab[count:])]
            pairs = [*zip(xs, ys), *zip(ab[:count], mixed)]
            log["distances"] += [trace_distance(x, y) for x, y in pairs]
            log["orthogonality"] += [are_orthogonal(x, y, tol) for x, y in pairs]
            for i in range(count):
                state_gap = max(state_gap, abs(log["distances"][i - 2 * count] - 2.0))
                passed &= log["orthogonality"][i - 2 * count]
                passed &= not log["orthogonality"][i - count]
                passed &= log["distances"][i - count] < 2.0 - BALL_SLACK
        passed &= state_gap <= BALL_SLACK
    passed &= misclassified == 0
    return passed, [{"kind": "state-distance-gap", "value": state_gap}], float(misclassified), samples


#: a smaller entry cap, so that every dimension runs several blocks and the
#: large ones blocks of one pair
SMALL_CAP = 100


@pytest.fixture(params=[qsm.linalg._BLOCK_ENTRIES, SMALL_CAP], ids=["cap", "small-cap"])
def block_cap(request, monkeypatch):
    monkeypatch.setattr(qsm.linalg, "_BLOCK_ENTRIES", request.param)


def _recording(monkeypatch, module, names):
    """Patch each named function of ``module`` to log what it returns,
    flattened, into the returned dict."""
    log = defaultdict(list)
    for name in names:
        def recorded(*args, _name=name, _original=getattr(module, name)):
            out = _original(*args)
            log[_name] += np.ravel(out).tolist()
            return out

        monkeypatch.setattr(module, name, recorded)
    return log


@pytest.mark.usefixtures("block_cap")
@pytest.mark.parametrize("samples", [1, 30])
@pytest.mark.parametrize("radius", [0.4, float(np.sqrt(1.3))])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16])
def test_diameter_matches_serial(monkeypatch, dim, radius, samples):
    gen, serial_gen = RngStream(61, dim).generator(), RngStream(61, dim).generator()
    want_log = defaultdict(list)
    want = serial_bures_ball_diameter(dim, radius, serial_gen, samples, want_log)
    got_log = _recording(monkeypatch, qsm.geometry, ["distances"])
    got = bures_ball_diameter(dim, radius, gen, samples)
    assert got_log == want_log
    assert got == want
    assert gen.bit_generator.state == serial_gen.bit_generator.state


def _center_ranks(kind, dim, count, gen):
    if kind == "one":
        return np.ones(count, dtype=int)
    if kind == "full":
        return np.full(count, dim)
    return gen.integers(1, dim + 1, size=count)


@pytest.mark.parametrize("ranks", ["drawn", "one", "full"])
@pytest.mark.parametrize("count", [1, 7])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16])
def test_witnesses_match_serial(monkeypatch, dim, count, ranks):
    gen = RngStream(63, dim).generator()
    ranks = _center_ranks(ranks, dim, count, gen)
    centers = _sampled_stack(dim, gen, ranks, gen.uniform(0.3, 3.0, size=count))
    want_log = defaultdict(list)
    want = serial_nonzero_center_witnesses(centers, want_log)
    got_log = _recording(monkeypatch, qsm.geometry, ["distances"])
    got = nonzero_center_witnesses(centers)
    assert got_log == want_log
    for got_part, want_part in zip(got, want):
        assert np.array_equal(got_part, want_part)
    assert got[-1].all()


@pytest.mark.usefixtures("block_cap")
@pytest.mark.parametrize("tol", [ORTHOGONALITY_TOL, 1e-2, 0.3])
@pytest.mark.parametrize("samples", [1, 7, 200])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 12])
def test_ortho_eq_matches_serial(monkeypatch, dim, samples, tol):
    """Large tolerances misclassify some pairs, so the count is held too."""
    gen, serial_gen = RngStream(62, dim).generator(), RngStream(62, dim).generator()
    want_log = defaultdict(list)
    want = serial_ortho_eq(dim, serial_gen, samples, 0, {"orthogonality": tol}, want_log)
    got_log = _recording(
        monkeypatch, qsm.suites, ["orthogonality", "norm_identity_gaps", "distances"]
    )
    got = _ortho_eq(dim, gen, samples, 0, {"orthogonality": tol})
    assert got_log == want_log
    assert (bool(got[0]), *got[1:]) == (bool(want[0]), *want[1:])
    assert gen.bit_generator.state == serial_gen.bit_generator.state


def test_large_tolerance_misclassifies():
    """The tolerance grid above reaches misclassified pairs."""
    gen = RngStream(62, 4).generator()
    assert _ortho_eq(4, gen, 200, 0, {"orthogonality": 0.3})[2] > 0


@pytest.mark.usefixtures("block_cap")
@pytest.mark.parametrize("dims", [[1, 2, 3, 4, 6], [12], [32]])
def test_lemma1_matches_serial(monkeypatch, dims):
    """The lemma1 report with every ball diameter and every nonzero-center
    witness taken pair by pair."""
    blocked = canonical_dumps([r.to_json() for r in run_suite("lemma1", dims, 3, 40, 1)])
    for module in (qsm.geometry, qsm.suites):
        monkeypatch.setattr(module, "bures_ball_diameter", serial_bures_ball_diameter)
    monkeypatch.setattr(qsm.suites, "nonzero_center_witnesses", serial_nonzero_center_witnesses)
    serial = canonical_dumps([r.to_json() for r in run_suite("lemma1", dims, 3, 40, 1)])
    assert blocked == serial
