"""Geometry tests: ball diameters, zero characterizations, pinch and
uniqueness search, orthocomplement rank, shifted-body membership."""

import numpy as np
import pytest

from qsm.errors import (
    InvalidConfiguration,
    InvalidPool,
    NotTraceZero,
    ZeroCenter,
)
from qsm.geometry import (
    BallSpec,
    Membership,
    bures_ball_diameter,
    double_orthocomplement_rank,
    intersection_uniqueness_search,
    midpoint_witness,
    nonzero_center_witness,
    orthocomplement_pool,
    pinch_configuration,
    sample_in_bures_ball,
    sample_in_bures_ball_at_zero,
    shifted_states_membership,
    zero_characterization_bures,
)
from qsm.linalg import HermitianOperator
from qsm.metrics import MetricKind, bures_distance, trace_distance
from qsm.states import (
    DensityOperator,
    RngStream,
    basis_projection,
    random_density,
    random_state,
    zero_density,
)

SQRT2 = np.sqrt(2.0)


class TestBuresBallDiameter:
    def test_sharpness_at_zero_dim2(self):
        spec = BallSpec(MetricKind.BURES, zero_density(2), 1.0)
        estimate = bures_ball_diameter(spec, RngStream(1), 50)
        assert estimate.lower_bound == pytest.approx(SQRT2, abs=1e-9)

    def test_dim_one_diameter_is_radius(self):
        spec = BallSpec(MetricKind.BURES, zero_density(1), 1.0)
        estimate = bures_ball_diameter(spec, RngStream(2), 50)
        assert estimate.lower_bound == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dim,eps", [(2, 0.5), (3, 1.0), (6, 2.0)])
    def test_inball_pairs_obey_bound(self, dim, eps):
        gen = RngStream(3).generator()
        for _ in range(100):
            x = sample_in_bures_ball_at_zero(dim, eps, gen)
            y = sample_in_bures_ball_at_zero(dim, eps, gen)
            # proof chain: d^2 = tr X + tr Y - 2F <= tr X + tr Y <= 2 eps^2
            assert x.trace + y.trace <= 2.0 * eps**2 + 1e-9
            assert bures_distance(x, y) <= SQRT2 * eps + 1e-9

    def test_witnesses_lie_in_ball(self):
        spec = BallSpec(MetricKind.BURES, zero_density(3), 0.8)
        estimate = bures_ball_diameter(spec, RngStream(4), 30)
        for member in estimate.witness_pair:
            assert bures_distance(member, spec.center) <= spec.radius + 1e-9

    def test_rejects_wrong_metric(self):
        with pytest.raises(ValueError):
            bures_ball_diameter(
                BallSpec(MetricKind.TRACE_NORM, zero_density(2), 1.0), RngStream(0), 5
            )

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            BallSpec(MetricKind.BURES, zero_density(2), 0.0)


class TestNonzeroCenterWitness:
    def test_half_projection(self):
        center = DensityOperator(0.5 * basis_projection(2, 0).entries)
        eps, (low, high) = nonzero_center_witness(center)
        assert eps == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert bures_distance(low, high) == pytest.approx(1.4142135623730951, abs=1e-9)

    def test_state_center(self):
        center = random_state(3, 3, RngStream(5))
        eps, (low, high) = nonzero_center_witness(center)
        assert eps == pytest.approx(1.0, abs=1e-10)
        assert bures_distance(low, high) == pytest.approx(2.0, abs=1e-9)

    def test_inner_distance(self):
        center = random_density(3, 2, 1.7, RngStream(6))
        eps, (_, high) = nonzero_center_witness(center)
        assert bures_distance(center, high) == pytest.approx(eps, abs=1e-9)

    def test_zero_center_rejected(self):
        with pytest.raises(ZeroCenter):
            nonzero_center_witness(zero_density(2))


class TestZeroCharacterization:
    def test_zero_passes(self):
        assert zero_characterization_bures(zero_density(3), [0.5, 1.0, 2.0], RngStream(7), 40)

    def test_zero_dim_one_passes(self):
        assert zero_characterization_bures(zero_density(1), [1.0], RngStream(8), 40)

    def test_any_state_fails(self):
        rho = random_state(3, 2, RngStream(9))
        assert not zero_characterization_bures(rho, [0.5, 1.0, 2.0], RngStream(10), 40)

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            zero_characterization_bures(zero_density(2), [], RngStream(0), 5)


class TestMidpointWitness:
    def test_orthogonal_projections(self):
        p, q = basis_projection(2, 0), basis_projection(2, 1)
        z = midpoint_witness(p, q)
        assert np.allclose(z.entries, (p.entries + q.entries) / 2.0)
        assert trace_distance(p, z) == pytest.approx(1.0, abs=1e-9)
        assert z.trace == pytest.approx(1.0, abs=1e-12)

    def test_scaled_pair(self):
        p = DensityOperator(2.0 * basis_projection(2, 0).entries)
        q = DensityOperator(2.0 * basis_projection(2, 1).entries)
        z = midpoint_witness(p, q)
        assert trace_distance(p, z) == pytest.approx(2.0, abs=1e-9)

    def test_rejects_bad_configuration(self):
        p = basis_projection(2, 0)
        with pytest.raises(InvalidConfiguration):
            midpoint_witness(p, p)
        with pytest.raises(InvalidConfiguration):
            midpoint_witness(p, DensityOperator(0.5 * basis_projection(2, 1).entries))


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
        assert pinch.lower.eigenvalues[0] >= 0.0

    def test_zero_center_rejected(self):
        with pytest.raises(ZeroCenter):
            pinch_configuration(zero_density(2), RngStream(0))


class TestUniquenessSearch:
    def test_pinch_intersection_is_a_point(self):
        center = DensityOperator(np.diag([0.6, 0.4]))
        pinch = pinch_configuration(center, RngStream(1))
        result = intersection_uniqueness_search(
            pinch.upper, pinch.lower, center, pinch.epsilon, RngStream(2), 2000
        )
        assert result.separation_from_center <= 1e-5 * pinch.epsilon
        assert result.max_ball_violation <= 1e-7

    def test_center_is_always_feasible(self):
        center = random_state(3, 3, RngStream(3))
        pinch = pinch_configuration(center, RngStream(4))
        result = intersection_uniqueness_search(
            pinch.upper, pinch.lower, center, pinch.epsilon, RngStream(5), 10
        )
        assert result.separation_from_center >= 0.0

    def test_strict_containment_at_zero(self):
        p, q = basis_projection(2, 0), basis_projection(2, 1)
        result = intersection_uniqueness_search(
            p, q, zero_density(2), 1.0, RngStream(6), 2000
        )
        assert result.separation_from_center >= 0.5

    def test_extreme_point_rigidity_at_best_point(self):
        center = random_state(4, 4, RngStream(7))
        pinch = pinch_configuration(center, RngStream(8))
        result = intersection_uniqueness_search(
            pinch.upper, pinch.lower, center, pinch.epsilon, RngStream(9), 3000
        )
        shift = (
            pinch.upper.entries
            - result.best_candidate.entries
            - pinch.epsilon * pinch.projection.entries
        )
        rigidity = float(np.sum(np.abs(np.linalg.eigvalsh(shift))))
        assert rigidity <= 1e-5 * pinch.epsilon

    @pytest.mark.parametrize("budget", [0, -5])
    def test_empty_budget_rejected(self, budget):
        # a search that makes no proposal would certify uniqueness vacuously
        center = random_state(2, 2, RngStream(10))
        pinch = pinch_configuration(center, RngStream(11))
        with pytest.raises(InvalidConfiguration):
            intersection_uniqueness_search(
                pinch.upper, pinch.lower, center, pinch.epsilon, RngStream(12), budget
            )


class TestBallSamplers:
    def test_bures_ball_membership_nonzero_center(self):
        center = random_density(3, 2, 1.4, RngStream(32))
        gen = RngStream(33).generator()
        for _ in range(25):
            draw = sample_in_bures_ball(center, 0.6, gen)
            assert bures_distance(draw, center) <= 0.6 + 1e-9


class TestDoubleOrthocomplementRank:
    def test_examples(self):
        rng = RngStream(40)
        projection = basis_projection(3, 0)
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


class TestShiftedStatesMembership:
    def test_interior(self):
        rho = random_state(3, 3, RngStream(50))
        op = HermitianOperator(rho.entries - np.eye(3) / 3.0)
        assert shifted_states_membership(op, 3) is Membership.INTERIOR

    def test_boundary(self):
        op = HermitianOperator(basis_projection(3, 0).entries - np.eye(3) / 3.0)
        assert shifted_states_membership(op, 3) is Membership.BOUNDARY

    def test_outside(self):
        # trace-zero operator with top eigenvalue 2 - 2/n > 1 - 1/n
        op = HermitianOperator(2.0 * basis_projection(3, 0).entries - 2.0 * np.eye(3) / 3.0)
        assert shifted_states_membership(op, 3) is Membership.OUTSIDE

    def test_rejects_nonzero_trace(self):
        with pytest.raises(NotTraceZero):
            shifted_states_membership(HermitianOperator(np.eye(2)), 2)
