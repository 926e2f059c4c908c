"""State types and seeded sampling tests."""

import numpy as np
import pytest

from qsm.errors import (
    InvalidParameter,
    InvalidRank,
    InvalidVector,
    NotPositiveSemidefinite,
)
from qsm.states import (
    DensityOperator,
    QuantumState,
    PureState,
    RngStream,
    basis_projection,
    random_density,
    random_state,
    random_unitary,
    zero_density,
)


class TestDensityOperator:
    def test_clamps_tiny_negative_eigenvalues(self):
        op = DensityOperator(np.diag([1.0, -1e-12]))
        assert op.eigenvalues[0] == 0.0
        assert op.trace >= 0.0

    def test_rejects_clearly_negative(self):
        with pytest.raises(NotPositiveSemidefinite):
            DensityOperator(np.diag([1.0, -1e-3]))

    def test_trace_and_rank(self):
        op = DensityOperator(np.diag([0.5, 0.5, 0.0]))
        assert op.trace == pytest.approx(1.0)
        assert op.rank() == 2

    def test_quantum_state_trace_window(self):
        QuantumState(np.diag([0.25, 0.75]))
        with pytest.raises(ValueError):
            QuantumState(np.diag([0.25, 0.8]))


class TestPureState:
    def test_basis_vector(self):
        proj = PureState([1.0, 0.0]).as_projection()
        assert np.allclose(proj.entries, np.diag([1.0, 0.0]))

    def test_real_superposition(self):
        proj = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0)).as_projection()
        assert np.allclose(proj.entries, np.full((2, 2), 0.5))

    def test_imaginary_superposition(self):
        # outer product by hand: v v* = [[1, -i], [i, 1]] / 2
        proj = PureState(np.array([1.0, 1j]) / np.sqrt(2.0)).as_projection()
        expected = np.array([[1.0, -1j], [1j, 1.0]]) / 2.0
        assert np.allclose(proj.entries, expected)

    def test_normalizes(self):
        ps = PureState([3.0, 4.0])
        assert np.linalg.norm(ps.vector) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidVector):
            PureState([0.0, 0.0])

    def test_projection_invariants(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            vec = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            proj = PureState(vec).as_projection()
            assert proj.trace == pytest.approx(1.0, abs=1e-12)
            idem = proj.entries @ proj.entries - proj.entries
            assert np.max(np.abs(idem)) <= 1e-10
            assert proj.eigenvalues[-2] <= 1e-10


class TestRngStream:
    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidParameter):
            RngStream(-1)

    def test_same_stream_same_draws(self):
        a = RngStream(42, 3).generator().standard_normal(8)
        b = RngStream(42, 3).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_shifted_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(8)
        b = RngStream(42, 0).shifted(1).generator().standard_normal(8)
        assert not np.array_equal(a, b)


class TestRandomUnitary:
    def test_dim_one_is_phase(self):
        u = random_unitary(1, RngStream(0))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_unitarity_defect(self, n):
        u = random_unitary(n, RngStream(n))
        defect = np.sum(np.abs(np.linalg.eigvalsh(u @ u.conj().T - np.eye(n))))
        assert defect <= 1e-10 * n

    def test_determinism(self):
        u1 = random_unitary(2, RngStream(42))
        u2 = random_unitary(2, RngStream(42))
        assert np.array_equal(u1, u2)


class TestRandomDensity:
    def test_full_rank_state(self):
        op = random_density(3, 3, 1.0, RngStream(1))
        assert op.rank() == 3
        assert op.trace == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_is_projection(self):
        op = random_density(2, 1, 1.0, RngStream(2))
        idem = op.entries @ op.entries - op.entries
        assert np.max(np.abs(idem)) <= 1e-10

    def test_prescribed_rank_and_trace(self):
        op = random_density(4, 2, 5.0, RngStream(3))
        assert int(np.count_nonzero(op.eigenvalues > 1e-10 * 5.0)) == 2
        assert op.trace == pytest.approx(5.0, abs=1e-12)

    def test_rank_validation(self):
        with pytest.raises(InvalidRank):
            random_density(3, 0, 1.0, RngStream(0))
        with pytest.raises(InvalidRank):
            random_density(3, 4, 1.0, RngStream(0))
        with pytest.raises(InvalidParameter):
            random_density(3, 2, -1.0, RngStream(0))

    def test_determinism_bitwise(self):
        a = random_density(4, 2, 1.5, RngStream(9, 4))
        b = random_density(4, 2, 1.5, RngStream(9, 4))
        assert np.array_equal(a.entries, b.entries)

    def test_invariants_bulk(self):
        # density invariants over many draws across dims 1..8
        draws_per_dim = 1250
        for n in range(1, 9):
            gen = RngStream(123, n).generator()
            for _ in range(draws_per_dim):
                rank = int(gen.integers(1, n + 1))
                target = float(gen.uniform(0.1, 3.0))
                op = random_density(n, rank, target, gen)
                assert op.eigenvalues[0] >= 0.0
                assert op.trace == pytest.approx(target, abs=1e-12 * max(1.0, target))

    def test_rank_one_scaled_is_projection(self):
        op = random_density(3, 1, 2.5, RngStream(11))
        normalized = op.entries / op.trace
        assert np.max(np.abs(normalized @ normalized - normalized)) <= 1e-10

    def test_random_state(self):
        state = random_state(5, 2, RngStream(13))
        assert isinstance(state, QuantumState)
        assert state.rank() == 2


class TestRankOf:
    def test_examples(self):
        assert zero_density(3).rank() == 0
        assert basis_projection(3, 1).rank() == 1
        assert DensityOperator(np.diag([0.5, 0.5, 0.0])).rank() == 2
