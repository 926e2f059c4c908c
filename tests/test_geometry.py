"""Geometry tests: ball diameters, nonzero-center witnesses, pinch and
its two-sided tube probe, orthocomplement rank."""

import numpy as np
import pytest

import qsm.geometry
from qsm.errors import (
    InvalidConfiguration,
    InvalidPool,
    NumericalBreakdown,
    ZeroCenter,
)
from qsm.geometry import (
    ZERO_TRACE,
    _in_ball_at_zero,
    _roundoff_slack,
    bures_ball_diameter,
    double_orthocomplement_rank,
    intersection_uniqueness_search,
    midpoint_witness,
    nonzero_center_witnesses,
    orthocomplement_pool,
    pinch_configuration,
)
from qsm.metrics import bures_distance, trace_distance
from qsm.states import (
    DensityOperator,
    QuantumState,
    RngStream,
    _projection,
    random_density,
    random_state,
    zero_density,
)
from qsm.suites import run_suite

SQRT2 = np.sqrt(2.0)


def _basis(n, k):
    """Projection onto the k-th computational basis vector."""
    return QuantumState(_projection(np.eye(n)[k]))


def _stack(*ops):
    """The entry stack of the given operators."""
    return np.array([op.entries for op in ops])


class TestBuresBallDiameter:
    def test_sharpness_at_zero_dim2(self):
        assert bures_ball_diameter(2, 1.0, RngStream(1), 50) == pytest.approx(SQRT2, abs=1e-9)

    def test_dim_one_diameter_is_radius(self):
        assert bures_ball_diameter(1, 1.0, RngStream(2), 50) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dim,eps", [(2, 0.5), (3, 1.0), (6, 2.0)])
    def test_inball_pairs_obey_bound(self, dim, eps):
        gen = RngStream(3).generator()
        draws = DensityOperator.from_stack(_in_ball_at_zero(dim, eps, gen, 200))
        for x, y in zip(draws[:100], draws[100:]):
            # proof chain: d^2 = tr X + tr Y - 2F <= tr X + tr Y <= 2 eps^2
            assert x.trace + y.trace <= 2.0 * eps**2 + 1e-9
            assert bures_distance(x, y) <= SQRT2 * eps + 1e-9

    def test_witnesses_lie_in_ball(self, monkeypatch):
        # the last distances call is the in-ball check of the best pair
        original, seen = qsm.geometry.distances, []

        def spy(kind, x, y, pairs=None):
            seen.append(x)
            return original(kind, x, y, pairs)

        monkeypatch.setattr(qsm.geometry, "distances", spy)
        lower_bound = bures_ball_diameter(3, 0.8, RngStream(4), 30)
        x, y = DensityOperator.from_stack(seen[-1])
        assert bures_distance(x, y) == lower_bound
        for member in (x, y):
            assert bures_distance(member, zero_density(3)) <= 0.8 + 1e-9

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_radius(self, radius):
        with pytest.raises(ValueError):
            bures_ball_diameter(2, radius, RngStream(0), 5)

    def test_no_samples_measure_the_analytic_pair(self):
        gen = RngStream(0).generator()
        state = gen.bit_generator.state
        assert bures_ball_diameter(2, 0.5, gen, 0) == pytest.approx(
            SQRT2 * 0.5, abs=1e-9
        )
        assert gen.bit_generator.state == state


class TestInBallAtZero:
    """The stacked draw from the Bures ball around 0."""

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_draws_targets_then_ranks_then_one_stack(self, dim):
        gen, twin = RngStream(5, dim).generator(), RngStream(5, dim).generator()
        draws = DensityOperator.from_stack(_in_ball_at_zero(dim, 1.3, gen, 40))
        targets = twin.uniform(0.0, 1.0, size=40) * 1.3 * 1.3
        ranks = twin.integers(1, dim + 1, size=40)
        assert [op.trace for op in draws] == pytest.approx(targets, rel=1e-12)
        assert [op.rank() for op in draws] == ranks.tolist()
        twin.standard_normal((40, 2, dim, int(ranks.max())))
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_targets_at_the_zero_floor_draw_the_zero_operator(self):
        # targets are uniform in [0, 2e-12]: about half fall at or below ZERO_TRACE
        draws = DensityOperator.from_stack(
            _in_ball_at_zero(3, np.sqrt(2e-12), RngStream(6).generator(), 40)
        )
        zero = [op for op in draws if op.trace <= ZERO_TRACE]
        assert 0 < len(zero) < len(draws)
        assert all(not op.entries.any() for op in zero)
        assert all(op.entries.any() for op in draws if op.trace > ZERO_TRACE)

    def test_all_targets_at_the_floor(self):
        draws = DensityOperator.from_stack(_in_ball_at_zero(2, 1e-7, RngStream(7).generator(), 5))
        assert len(draws) == 5 and all(not op.entries.any() for op in draws)


class TestNonzeroCenterWitnesses:
    def test_half_projection(self):
        center = DensityOperator(0.5 * _basis(2, 0).entries)
        (eps,), _, _, (pair,), (held,) = nonzero_center_witnesses(_stack(center))
        assert eps == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert pair == pytest.approx(1.4142135623730951, abs=1e-9)
        assert held

    def test_state_center(self):
        center = random_state(3, 3, RngStream(5))
        (eps,), _, _, (pair,), (held,) = nonzero_center_witnesses(_stack(center))
        assert eps == pytest.approx(1.0, abs=1e-10)
        assert pair == pytest.approx(2.0, abs=1e-9)
        assert held

    def test_inner_distance(self):
        center = random_density(3, 2, 1.7, RngStream(6))
        (eps,), *_ = nonzero_center_witnesses(_stack(center))
        high = DensityOperator(4.0 * center.entries)
        assert bures_distance(center, high) == pytest.approx(eps, abs=1e-9)
        assert bures_distance(center, zero_density(3)) == pytest.approx(eps, abs=1e-9)

    def test_projection_pair_is_twice_the_radius(self):
        (eps,), _, _, (pair,), (held,) = nonzero_center_witnesses(_stack(_basis(2, 0)))
        assert (eps, held) == (1.0, True)
        assert pair == pytest.approx(2.0, abs=1e-9)

    def test_zero_center_rejected(self):
        with pytest.raises(ZeroCenter):
            nonzero_center_witnesses(_stack(zero_density(2)))
        # one zero center in a block rejects the block
        with pytest.raises(ZeroCenter):
            nonzero_center_witnesses(_stack(_basis(2, 0), zero_density(2)))


class TestZeroCharacterization:
    """Lemma 1: every Bures ball around 0 has diameter at most sqrt(2) times
    its radius; a nonzero center fails at radius sqrt(tr)."""

    def test_zero_passes(self):
        gen = RngStream(7).generator()
        for eps in (0.5, 1.0, 2.0):
            assert bures_ball_diameter(3, eps, gen, 40) <= SQRT2 * eps + 1e-9

    def test_zero_dim_one_passes(self):
        gen = RngStream(8).generator()
        for eps in (0.5, 1.0, 2.0):
            assert bures_ball_diameter(1, eps, gen, 40) <= eps + 1e-9

    def test_any_state_fails(self):
        rho = random_state(3, 2, RngStream(9))
        (eps,), _, _, (pair,), (held,) = nonzero_center_witnesses(_stack(rho))
        assert held and pair > SQRT2 * eps + 1e-9


class TestMidpointWitness:
    def test_orthogonal_projections(self):
        p, q = _basis(2, 0), _basis(2, 1)
        z, _ = midpoint_witness(p, q)
        assert np.allclose(z.entries, (p.entries + q.entries) / 2.0)
        assert trace_distance(p, z) == pytest.approx(1.0, abs=1e-9)
        assert z.trace == pytest.approx(1.0, abs=1e-12)

    def test_scaled_pair(self):
        p = DensityOperator(2.0 * _basis(2, 0).entries)
        q = DensityOperator(2.0 * _basis(2, 1).entries)
        z, _ = midpoint_witness(p, q)
        assert trace_distance(p, z) == pytest.approx(2.0, abs=1e-9)

    def test_rejects_bad_configuration(self):
        p = _basis(2, 0)
        with pytest.raises(InvalidConfiguration):
            midpoint_witness(p, p)
        with pytest.raises(InvalidConfiguration):
            midpoint_witness(p, DensityOperator(0.5 * _basis(2, 1).entries))


class TestPinchConfiguration:
    def test_diagonal_example_both_branches(self):
        center = DensityOperator(np.diag([0.6, 0.4]))
        seen = set()
        for seed in range(8):
            pinch = pinch_configuration(center, RngStream(seed))
            if np.allclose(pinch.projection.entries, np.diag([1.0, 0.0]), atol=1e-12):
                seen.add("top")
                assert pinch.epsilon == pytest.approx(0.3)
                assert np.allclose(pinch.upper.entries, np.diag([0.9, 0.4]), atol=1e-12)
                assert np.allclose(pinch.lower.entries, np.diag([0.3, 0.4]), atol=1e-12)
            else:
                seen.add("bottom")
                assert np.allclose(pinch.projection.entries, np.diag([0.0, 1.0]), atol=1e-12)
                assert pinch.epsilon == pytest.approx(0.2)
                assert np.allclose(pinch.upper.entries, np.diag([0.6, 0.6]), atol=1e-12)
                assert np.allclose(pinch.lower.entries, np.diag([0.6, 0.2]), atol=1e-12)
        assert seen == {"top", "bottom"}

    def test_distances(self):
        center = random_state(4, 3, RngStream(20))
        pinch = pinch_configuration(center, RngStream(21))
        assert trace_distance(pinch.upper, center) == pytest.approx(pinch.epsilon, abs=1e-9)
        assert trace_distance(pinch.lower, center) == pytest.approx(pinch.epsilon, abs=1e-9)
        assert trace_distance(pinch.upper, pinch.lower) == pytest.approx(2 * pinch.epsilon, abs=1e-9)

    def test_lower_shift_stays_psd(self):
        center = random_state(3, 2, RngStream(22))
        pinch = pinch_configuration(center, RngStream(23))
        assert pinch.lower.spectrum()[0][0, 0] >= 0.0

    def test_zero_center_rejected(self):
        with pytest.raises(ZeroCenter):
            pinch_configuration(zero_density(2), RngStream(0))


class TestPostConditions:
    """A broken bound raises NumericalBreakdown, also under python -O."""

    @staticmethod
    def _break(monkeypatch, name, honest_calls, too_far=lambda d: d + 1.0):
        # the first honest_calls calls are true, every later one reads too far
        # (by default 1 too far)
        original, calls = getattr(qsm.geometry, name), []

        def broken(*args):
            calls.append(None)
            d = original(*args)
            return too_far(d) if len(calls) > honest_calls else d

        monkeypatch.setattr(qsm.geometry, name, broken)

    def test_pinch_configuration(self, monkeypatch):
        self._break(monkeypatch, "trace_distance", 0)
        with pytest.raises(NumericalBreakdown):
            pinch_configuration(random_state(3, 2, RngStream(24)), RngStream(25))

    def test_midpoint_witness(self, monkeypatch):
        # trace_distance reads the precondition on the pair, distances the
        # midpoint's distances to both ends
        self._break(monkeypatch, "distances", 0)
        with pytest.raises(NumericalBreakdown):
            midpoint_witness(_basis(2, 0), _basis(2, 1))

    # the analytic pair (call 1), the one block of samples (call 2) and the
    # in-ball check of the widest pair (call 3) each raise when read too far
    @pytest.mark.parametrize("honest_calls", [0, 1, 2])
    def test_bures_ball_diameter(self, monkeypatch, honest_calls):
        self._break(monkeypatch, "distances", honest_calls)
        with pytest.raises(NumericalBreakdown):
            bures_ball_diameter(2, 0.5, RngStream(26), 3)

    def test_nonzero_center_witnesses(self, monkeypatch):
        self._break(monkeypatch, "distances", 0)
        *_, held = nonzero_center_witnesses(_stack(random_state(3, 2, RngStream(27))))
        assert not held.any()

    # one distance of one center read 1 too far, d(A, 0), d(A, 4A) or
    # d(0, 4A), breaks that center's witness and no other
    @pytest.mark.parametrize("center", [0, 1, 2])
    @pytest.mark.parametrize("part", [0, 1, 2])
    def test_witness_mask_reads_each_distance(self, monkeypatch, part, center):
        centers = [random_state(3, 2, RngStream(27, i)) for i in range(3)]
        original = qsm.geometry.distances

        def broken(*args):
            out = original(*args)
            out[part * len(centers) + center] += 1.0
            return out

        monkeypatch.setattr(qsm.geometry, "distances", broken)
        *_, held = nonzero_center_witnesses(_stack(*centers))
        assert held.tolist() == [i != center for i in range(3)]

    # each of lemma1's three diameters at samples = 3 makes three distances
    # calls (the analytic pair, one sample block, the in-ball check), so the
    # tenth call is the first block of nonzero-center witnesses; a failing
    # report says by how much (every distance is 1 too far, less BALL_SLACK)
    @pytest.mark.parametrize("honest_calls,passed", [(9, False), (10, True)])
    def test_lemma1_reads_the_witness_mask(self, monkeypatch, honest_calls, passed):
        self._break(monkeypatch, "distances", honest_calls)
        report = run_suite("lemma1", [2], seed=28, samples=3, budget=0)[0]
        assert report.passed is passed
        if passed:
            assert report.max_violation == 0.0
        else:
            assert report.max_violation >= 0.5

    def test_lemma1_holds_the_witness_to_ball_slack(self, monkeypatch):
        # every nonzero-center distance 1e-6 relative too far: far below any
        # loose slack, far above BALL_SLACK
        self._break(monkeypatch, "distances", 9, too_far=lambda d: d * (1.0 + 1e-6))
        report = run_suite("lemma1", [2], seed=28, samples=3, budget=0)[0]
        assert report.passed is False
        assert 0.0 < report.max_violation < 1e-5


def _pinch(dim, seed):
    """A random state of random rank and its pinch, as lemma3 draws them."""
    gen = RngStream(seed, dim).generator()
    center = random_state(dim, int(gen.integers(1, dim + 1)), gen)
    return center, pinch_configuration(center, gen)


def _probe(center, pinch, budget=10000, slack=None):
    return intersection_uniqueness_search(
        pinch.upper, pinch.lower, center, pinch.epsilon, budget, slack
    )


class TestUniquenessSearch:
    def test_pinch_intersection_is_a_point(self):
        center = DensityOperator(np.diag([0.6, 0.4]))
        pinch = pinch_configuration(center, RngStream(1))
        result = _probe(center, pinch, 2000)
        assert result.held
        assert result.separation_from_center <= 1e-5 * pinch.epsilon
        assert 0.0 < result.inner_excess <= _roundoff_slack(pinch.upper, pinch.lower, pinch.epsilon)

    def test_extreme_point_rigidity_at_best_point(self):
        """The rigidity ||X - z - eps*P||_1 of the farthest accepted point z
        is ||A - z||_1 for X = A + eps*P: the separation the probe reports."""
        center, pinch = _pinch(4, 7)
        result = _probe(center, pinch, 3000)
        assert result.held
        assert result.separation_from_center <= 1e-5 * pinch.epsilon

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_probe_reaches_a_quarter_of_the_tube(self, dim, seed):
        """The inner points reach separation sqrt(2 eps s)/2 and stay within
        the slack of both balls, below the proven width T(s)."""
        center, pinch = _pinch(dim, seed)
        result = _probe(center, pinch)
        assert result.inner_feasible == result.inner_points == 2 * (dim - 1)
        assert result.tube_reached >= 0.25
        assert result.separation_from_center <= result.tube_bound

    @pytest.mark.parametrize("dim", [*range(1, 9), 16, 32, 64])
    def test_every_outer_point_is_rejected(self, dim):
        """Outer points at 2T(s) fall outside a ball by far more than the
        slack: about 12s along the couplings, 2T(s) along P and the
        complement block.  At n = 1 only the two shifts along P exist."""
        center, pinch = _pinch(dim, 3)
        slack = _roundoff_slack(pinch.upper, pinch.lower, pinch.epsilon)
        result = _probe(center, pinch)
        assert result.outer_points == 2 * (dim - 1) + 2
        assert result.outer_rejected == result.outer_points
        assert result.outer_excess >= 10.0 * slack
        assert result.inner_excess <= slack

    def test_budget_caps_the_coupling_directions(self):
        center, pinch = _pinch(6, 4)
        result = _probe(center, pinch, budget=2)
        assert (result.inner_points, result.outer_points) == (4, 6)
        assert result.held

    def test_off_pinch_overlap_is_found(self):
        """X = A + eps P and Y = A - eps P / 2 are closer than 2 eps, so their
        radius-eps balls share a lens around A far wider than the tube: the
        shift along P at 2T(s) is accepted and the probe fails."""
        center, pinch = _pinch(4, 5)
        eps = pinch.epsilon
        closer = DensityOperator(center.entries - 0.5 * eps * pinch.projection.entries)
        result = intersection_uniqueness_search(pinch.upper, closer, center, eps, 10000)
        assert not result.held
        assert result.separation_from_center > 1.5 * result.tube_bound

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("dim", range(2, 7))
    def test_loose_slack_tube_is_found(self, dim, seed):
        """A slack of 1e-3 * eps widens the one-point intersection into a
        tube of width ~sqrt(2e-3) * eps; the probe must report it as a
        uniqueness violation, as lemma3 would with --tol slack= and --tol
        separation=1e-5."""
        gen = RngStream(seed, dim).generator()
        center = random_state(dim, int(gen.integers(1, dim + 1)), gen)
        pinch = pinch_configuration(center, gen)
        result = intersection_uniqueness_search(
            pinch.upper, pinch.lower, center, pinch.epsilon, 10000,
            slack=1e-3 * pinch.epsilon,
        )
        assert result.separation_from_center / pinch.epsilon > 1e-5

    @pytest.mark.parametrize("budget", [0, -5])
    def test_empty_budget_rejected(self, budget):
        # a probe with no coupling direction would certify uniqueness vacuously
        center = random_state(2, 2, RngStream(10))
        pinch = pinch_configuration(center, RngStream(11))
        with pytest.raises(InvalidConfiguration):
            intersection_uniqueness_search(
                pinch.upper, pinch.lower, center, pinch.epsilon, budget
            )


class TestDoubleOrthocomplementRank:
    def test_examples(self):
        rng = RngStream(40)
        projection = _basis(3, 0)
        assert double_orthocomplement_rank(projection, orthocomplement_pool(projection, rng)) == 1
        mixed = DensityOperator(np.diag([0.5, 0.5, 0.0]))
        assert double_orthocomplement_rank(mixed, orthocomplement_pool(mixed, rng)) == 2
        zero = zero_density(3)
        assert double_orthocomplement_rank(zero, orthocomplement_pool(zero, rng)) == 0

    def test_empty_pool_rejected(self):
        with pytest.raises(InvalidPool):
            double_orthocomplement_rank(zero_density(2), [])

    @pytest.mark.parametrize("dim", [2, 4])
    def test_agrees_with_spectral_rank(self, dim):
        gen = RngStream(41, dim).generator()
        for k in range(10):
            rank = k % (dim + 1)
            if rank == 0:
                center = zero_density(dim)
            else:
                center = random_density(dim, rank, float(gen.uniform(0.5, 2.0)), gen)
            pool = orthocomplement_pool(center, gen)
            assert double_orthocomplement_rank(center, pool) == center.rank()
