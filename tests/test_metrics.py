"""Metric tests: fidelity, Bures, trace-norm distance, orthogonality."""

import numpy as np
import pytest

from qsm.errors import DimensionMismatch
from qsm.metrics import (
    MetricKind,
    are_orthogonal,
    bures_distance,
    distance,
    fidelity,
    norm_identity_gap,
    product_trace_norm,
    trace_distance,
)
from qsm.states import (
    DensityOperator,
    RngStream,
    basis_projection,
    random_density,
    random_state,
    random_unitary,
    zero_density,
)

# commuting-diagonal oracle: sum_i sqrt(p_i q_i) evaluated by hand
FIDELITY_HALF_THIRDS = 0.9855985596534888


def sample_density(n, gen, trace_hi=2.0):
    rank = int(gen.integers(1, n + 1))
    return random_density(n, rank, float(gen.uniform(0.2, trace_hi)), gen)


class TestFidelity:
    def test_self_fidelity_of_state(self):
        rho = random_state(4, 3, RngStream(0))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_projections(self):
        assert fidelity(basis_projection(2, 0), basis_projection(2, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonals(self):
        a = DensityOperator(np.diag([0.5, 0.5]))
        b = DensityOperator(np.diag([1.0 / 3.0, 2.0 / 3.0]))
        assert fidelity(a, b) == pytest.approx(FIDELITY_HALF_THIRDS, abs=1e-12)

    def test_symmetry(self):
        gen = RngStream(21).generator()
        for _ in range(25):
            a, b = sample_density(5, gen), sample_density(5, gen)
            gap = abs(fidelity(a, b) - fidelity(b, a))
            assert gap <= 1e-9 * (1.0 + a.trace + b.trace)

    def test_state_range(self):
        gen = RngStream(22).generator()
        for _ in range(25):
            a = random_state(4, int(gen.integers(1, 5)), gen)
            b = random_state(4, int(gen.integers(1, 5)), gen)
            value = fidelity(a, b)
            assert -1e-12 <= value <= 1.0 + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(zero_density(2), zero_density(3))


class TestBures:
    def test_distance_to_zero_is_root_trace(self):
        gen = RngStream(30).generator()
        a = random_density(3, 2, 4.0, gen)
        assert bures_distance(a, zero_density(3)) == pytest.approx(2.0, abs=1e-10)

    def test_orthogonal_scaled_projections(self):
        eps = 0.7
        x = DensityOperator(eps**2 * basis_projection(2, 0).entries)
        y = DensityOperator(eps**2 * basis_projection(2, 1).entries)
        assert bures_distance(x, y) == pytest.approx(0.9899494936611665, abs=1e-12)

    def test_quadruple_witness(self):
        a = random_density(3, 3, 1.0, RngStream(31))
        far = DensityOperator(4.0 * a.entries)
        assert bures_distance(zero_density(3), far) == pytest.approx(2.0, abs=1e-9)
        # F(A, 4A) = 2 tr A makes d_b(A, 4A)^2 = tr A
        assert fidelity(a, far) == pytest.approx(2.0 * a.trace, abs=1e-9)
        assert bures_distance(a, far) == pytest.approx(np.sqrt(a.trace), abs=1e-9)

    def test_self_distance(self):
        gen = RngStream(32).generator()
        for n in (1, 4, 8):
            a = sample_density(n, gen)
            assert bures_distance(a, a) <= 1e-7

    def test_definition_identity(self):
        gen = RngStream(33).generator()
        for n in range(1, 9):
            for _ in range(10):
                a, b = sample_density(n, gen), sample_density(n, gen)
                lhs = bures_distance(a, b) ** 2 + 2.0 * fidelity(a, b)
                rhs = a.trace + b.trace
                assert abs(lhs - rhs) <= 1e-9 * (1.0 + rhs)

    def test_radicand_breakdown_detected(self, monkeypatch):
        from qsm import metrics as metrics_module
        from qsm.errors import NumericalBreakdown

        a = random_state(2, 2, RngStream(34))
        monkeypatch.setattr(metrics_module, "fidelity", lambda x, y: 10.0)
        with pytest.raises(NumericalBreakdown):
            metrics_module.bures_distance(a, a)


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        assert trace_distance(basis_projection(2, 0), basis_projection(2, 1)) == pytest.approx(2.0, abs=1e-12)

    def test_self_distance(self):
        a = random_density(4, 2, 1.3, RngStream(40))
        assert trace_distance(a, a) == 0.0

    def test_commuting_diagonals(self):
        a = DensityOperator(np.diag([0.5, 0.5]))
        b = DensityOperator(np.diag([1.0 / 3.0, 2.0 / 3.0]))
        # difference diag(1/6, -1/6): |1/6| + |-1/6| = 1/3
        assert trace_distance(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_singular_value_oracle(self):
        gen = RngStream(41).generator()
        for n in (2, 5, 8):
            for _ in range(20):
                a, b = sample_density(n, gen), sample_density(n, gen)
                oracle = float(np.sum(np.linalg.svd(a.entries - b.entries, compute_uv=False)))
                assert abs(trace_distance(a, b) - oracle) <= 1e-10


class TestOrthogonality:
    def test_orthogonal_projections(self):
        p, q = basis_projection(2, 0), basis_projection(2, 1)
        assert are_orthogonal(p, q)
        assert trace_distance(p, q) == pytest.approx(2.0, abs=1e-12)
        total = DensityOperator(p.entries + q.entries)
        assert np.sum(np.abs(np.linalg.eigvalsh(total.entries))) == pytest.approx(2.0)
        assert norm_identity_gap(p, q) <= 1e-12

    def test_identical_projections(self):
        p = basis_projection(2, 0)
        assert not are_orthogonal(p, p)
        assert norm_identity_gap(p, p) == pytest.approx(2.0, abs=1e-12)

    def test_overlapping_pair_has_strict_gap(self):
        gen = RngStream(50).generator()
        for _ in range(20):
            a = sample_density(3, gen)
            b = DensityOperator((a.entries + sample_density(3, gen).entries) / 2.0)
            assert not are_orthogonal(a, b)
            assert norm_identity_gap(a, b) > 1e-8 * (1.0 + a.trace * b.trace)

    def test_equivalence_on_mixed_pairs(self):
        gen = RngStream(52).generator()
        for k in range(200):
            n = 2 + k % 5
            if k % 2 == 0:
                u = random_unitary(n, gen)
                split = int(gen.integers(1, n))
                x_small = random_density(split, int(gen.integers(1, split + 1)), 1.0, gen)
                y_small = random_density(n - split, int(gen.integers(1, n - split + 1)), 1.0, gen)
                x = DensityOperator(u[:, :split] @ x_small.entries @ u[:, :split].conj().T)
                y = DensityOperator(u[:, split:] @ y_small.entries @ u[:, split:].conj().T)
            else:
                x = sample_density(n, gen)
                y = DensityOperator((x.entries + sample_density(n, gen).entries) / 2.0)
            threshold = 1e-8 * (1.0 + x.trace * y.trace)
            product_side = product_trace_norm(x, y) <= threshold
            gap_side = norm_identity_gap(x, y) <= threshold
            assert product_side == gap_side == (k % 2 == 0)


class TestMetricAxioms:
    @pytest.mark.parametrize("kind", [MetricKind.BURES, MetricKind.TRACE_NORM])
    def test_axioms_on_sampled_triples(self, kind):
        gen = RngStream(60 if kind is MetricKind.BURES else 61).generator()
        triples_per_dim = 125
        for n in range(1, 9):
            for _ in range(triples_per_dim):
                a, b, c = (sample_density(n, gen) for _ in range(3))
                dab, dba = distance(kind, a, b), distance(kind, b, a)
                assert dab >= 0.0
                assert abs(dab - dba) <= 1e-9
                assert distance(kind, a, c) <= dab + distance(kind, b, c) + 1e-9

    @pytest.mark.parametrize("kind", [MetricKind.BURES, MetricKind.TRACE_NORM])
    def test_identity_of_indiscernibles(self, kind):
        gen = RngStream(62).generator()
        for _ in range(20):
            a = sample_density(4, gen)
            twin = DensityOperator(a.entries.copy())
            assert distance(kind, a, twin) <= 1e-7
            other = sample_density(4, gen)
            if trace_distance(a, other) > 1e-6:
                assert distance(kind, a, other) > 1e-7

    @pytest.mark.parametrize("kind", [MetricKind.BURES, MetricKind.TRACE_NORM])
    def test_unitary_invariance(self, kind):
        gen = RngStream(63).generator()
        for n in (2, 5, 8):
            u = random_unitary(n, gen)
            for _ in range(15):
                a, b = sample_density(n, gen), sample_density(n, gen)
                ua = DensityOperator(u @ a.entries @ u.conj().T)
                ub = DensityOperator(u @ b.entries @ u.conj().T)
                assert abs(distance(kind, ua, ub) - distance(kind, a, b)) <= 1e-9


def test_states_orthogonal_iff_distance_two():
    gen = RngStream(64).generator()
    for n in (2, 4, 6):
        u = random_unitary(n, gen)
        split = int(gen.integers(1, n))
        x_small = random_density(split, 1, 1.0, gen)
        y_small = random_density(n - split, 1, 1.0, gen)
        x = DensityOperator(u[:, :split] @ x_small.entries @ u[:, :split].conj().T)
        y = DensityOperator(u[:, split:] @ y_small.entries @ u[:, split:].conj().T)
        assert are_orthogonal(x, y)
        assert abs(trace_distance(x, y) - 2.0) <= 1e-9
        a = random_state(n, int(gen.integers(1, n + 1)), gen)
        b = DensityOperator((a.entries + random_state(n, n, gen).entries) / 2.0)
        assert not are_orthogonal(a, b)
        assert trace_distance(a, b) < 2.0 - 1e-9
