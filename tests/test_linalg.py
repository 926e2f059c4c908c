"""Operator-model kernel tests: construction, the spectrum a DensityOperator
caches, its square root, traces, trace norms and the PSD clamp.

The absolute value and the positive/negative parts are checked through the
clamp: T+ = clamp(T), T- = clamp(-T) and |T| = T+ + T-."""

import numpy as np
import pytest

from qsm.errors import NotPositiveSemidefinite
from qsm.linalg import HermitianOperator, psd_clamp_entries, trace_norm_entries
from qsm.metrics import _sqrt_entries
from qsm.states import DensityOperator, zero_density

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_hermitian(n, gen, scale=1.0):
    g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2.0


def random_psd(n, gen):
    g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return DensityOperator(g @ g.conj().T)


def parts(arr):
    return psd_clamp_entries(arr), psd_clamp_entries(-arr)


def abs_entries(arr):
    plus, minus = parts(arr)
    return plus + minus


def reconstruct(op):
    v = op.eigenvectors
    return (v * op.eigenvalues) @ v.conj().T


class TestConstruction:
    def test_symmetrizes_input(self):
        op = HermitianOperator([[1.0, 2.0], [0.0, 3.0]])
        assert np.allclose(op.entries, [[1.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(op.entries, op.entries.conj().T)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            HermitianOperator([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            HermitianOperator([[np.inf, 0.0], [0.0, 1.0]])


class TestEig:
    def test_diagonal_matrix(self):
        op = DensityOperator(np.diag([3.0, 1.0]))
        assert np.allclose(op.eigenvalues, [1.0, 3.0])
        assert np.allclose(np.abs(op.eigenvectors), np.eye(2)[:, ::-1])

    def test_flip_matrix(self):
        # characteristic polynomial lambda^2 - 1 by hand: eigenvalues -1, 1,
        # so the flip is no density operator
        with pytest.raises(NotPositiveSemidefinite) as info:
            DensityOperator(FLIP)
        assert info.value.eigenvalue == pytest.approx(-1.0)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_identity(self, n):
        assert np.allclose(DensityOperator(np.eye(n)).eigenvalues, np.ones(n))

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_spectrum_invariants_random(self, n):
        gen = np.random.default_rng(100 + n)
        for _ in range(20):
            op = random_psd(n, gen)
            assert np.all(np.diff(op.eigenvalues) >= 0.0)
            v = op.eigenvectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12 * n
            recon_err = float(trace_norm_entries(reconstruct(op) - op.entries))
            assert recon_err <= 1e-10 * n * op.trace

    def test_zero_matrix_absolute_tolerance(self):
        n = 4
        recon_err = float(trace_norm_entries(reconstruct(zero_density(n))))
        assert recon_err <= 1e-12 * n


class TestMatrixSqrt:
    def test_diagonal(self):
        root = _sqrt_entries(DensityOperator(np.diag([4.0, 9.0])))
        assert np.allclose(root, np.diag([2.0, 3.0]))

    def test_zero(self):
        assert np.allclose(_sqrt_entries(zero_density(3)), 0.0)

    def test_projection_fixed_point(self):
        p = DensityOperator(np.array([[1.0, 1.0], [1.0, 1.0]]) / 2.0)
        assert np.allclose(_sqrt_entries(p), p.entries, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_square_recovers_input(self, n):
        gen = np.random.default_rng(7 + n)
        for _ in range(10):
            op = random_psd(n, gen)
            root = _sqrt_entries(op)
            err = float(trace_norm_entries(root @ root - op.entries))
            assert err <= 1e-9 * (1.0 + op.trace)
            assert np.linalg.eigvalsh(root)[0] >= -1e-12

    def test_rejects_not_psd(self):
        with pytest.raises(NotPositiveSemidefinite) as info:
            _sqrt_entries(DensityOperator(np.diag([1.0, -0.5])))
        assert info.value.eigenvalue == pytest.approx(-0.5)

    def test_clamps_within_tolerance(self):
        root = _sqrt_entries(DensityOperator(np.diag([1.0, -1e-12])))
        assert np.allclose(root, np.diag([1.0, 0.0]), atol=1e-6)


class TestAbsAndParts:
    def test_abs_diagonal(self):
        assert np.allclose(abs_entries(np.diag([1.0, -2.0])), np.diag([1.0, 2.0]))
        assert trace_norm_entries(np.diag([1.0, -2.0])) == pytest.approx(3.0)

    def test_abs_of_psd_is_identity_map(self):
        op = random_psd(4, np.random.default_rng(3))
        err = float(trace_norm_entries(abs_entries(op.entries) - op.entries))
        assert err <= 1e-12 * op.trace
        assert float(trace_norm_entries(op.entries)) == pytest.approx(op.trace, rel=1e-12)

    def test_abs_flip(self):
        # eigenvalues +-1 (2x2 eigendecomposition by hand), so |T| = I
        assert np.allclose(abs_entries(FLIP), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 6])
    def test_abs_matches_sqrt_of_square(self, n):
        gen = np.random.default_rng(n)
        for _ in range(10):
            op = random_hermitian(n, gen)
            via_sqrt = _sqrt_entries(DensityOperator(op @ op))
            norm = float(trace_norm_entries(op))
            err = float(trace_norm_entries(abs_entries(op) - via_sqrt))
            assert err <= 1e-9 * (1.0 + norm**2)

    def test_abs_commutes_with_input(self):
        op = random_hermitian(5, np.random.default_rng(11))
        mag = abs_entries(op)
        comm = mag @ op - op @ mag
        assert float(trace_norm_entries(1j * comm)) <= 1e-10 * float(trace_norm_entries(op))

    def test_parts_diagonal(self):
        plus, minus = parts(np.diag([1.0, -2.0]))
        assert np.allclose(plus, np.diag([1.0, 0.0]))
        assert np.allclose(minus, np.diag([0.0, 2.0]))

    def test_parts_of_psd(self):
        op = random_psd(3, np.random.default_rng(4))
        plus, minus = parts(op.entries)
        assert plus is op.entries
        assert float(trace_norm_entries(minus)) <= 1e-10 * op.trace

    def test_parts_flip(self):
        # eigenprojections by hand: (I +- FLIP)/2, each rank one
        plus, minus = parts(FLIP)
        assert np.allclose(plus, (np.eye(2) + FLIP) / 2.0, atol=1e-12)
        assert np.allclose(minus, (np.eye(2) - FLIP) / 2.0, atol=1e-12)
        for part in (plus, minus):
            assert np.allclose(np.linalg.eigvalsh(part), [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_parts_identities_random(self, n):
        gen = np.random.default_rng(40 + n)
        for _ in range(10):
            op = random_hermitian(n, gen)
            norm = float(trace_norm_entries(op))
            plus, minus = parts(op)
            assert float(trace_norm_entries(plus - minus - op)) <= 1e-13 * (1.0 + norm)
            assert np.linalg.eigvalsh(plus)[0] >= -1e-10 * norm
            assert np.linalg.eigvalsh(minus)[0] >= -1e-10 * norm
            product_norm = float(np.sum(np.linalg.svd(plus @ minus, compute_uv=False)))
            assert product_norm <= 1e-10 * norm**2
            split = np.trace(plus).real + np.trace(minus).real
            assert split == pytest.approx(norm, rel=1e-12)


class TestTrace:
    def test_examples(self):
        assert DensityOperator(np.diag([0.3, 0.7])).trace == pytest.approx(1.0)
        assert zero_density(2).trace == 0.0
        projection = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert DensityOperator(0.25 * projection).trace == pytest.approx(0.25)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_matches_eigenvalue_sum(self, n):
        op = random_psd(n, np.random.default_rng(60 + n))
        lam_sum = float(np.sum(op.eigenvalues))
        assert abs(op.trace - lam_sum) <= 1e-10 * n * (1.0 + op.trace)

    def test_additivity(self):
        gen = np.random.default_rng(77)
        for _ in range(20):
            a = random_psd(5, gen)
            b = random_psd(5, gen)
            err = abs(DensityOperator(a.entries + b.entries).trace - a.trace - b.trace)
            assert err <= 1e-12 * (a.trace + b.trace + 1.0)


def test_psd_clamp_zeroes_negatives_only():
    clamped = psd_clamp_entries(np.diag([2.0, -0.5]).astype(np.complex128))
    assert np.allclose(clamped, np.diag([2.0, 0.0]), atol=1e-12)
    stack = np.array([np.diag([2.0, -0.5]), np.diag([1.0, 3.0]), -FLIP], dtype=np.complex128)
    out = psd_clamp_entries(stack)
    assert np.allclose(out[0], np.diag([2.0, 0.0]), atol=1e-12)
    assert np.array_equal(out[1], stack[1])
    assert np.allclose(out[2], (np.eye(2) - FLIP) / 2.0, atol=1e-12)
    assert np.array_equal(stack[0], np.diag([2.0, -0.5]))
    for single, batched in zip(stack, out):
        assert np.array_equal(psd_clamp_entries(single), batched)


def test_trace_norm_entries_stack_matches_each_matrix():
    assert trace_norm_entries(FLIP) == 2.0
    gen = np.random.default_rng(90)
    for n in (1, 3, 8):
        stack = np.array([random_hermitian(n, gen) for _ in range(7)])
        norms = trace_norm_entries(stack)
        assert norms.shape == (7,)
        for arr, norm in zip(stack, norms):
            assert trace_norm_entries(arr) == norm
