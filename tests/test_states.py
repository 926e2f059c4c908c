"""State types and seeded sampling tests."""

import numpy as np
import pytest

from qsm.errors import (
    InvalidParameter,
    InvalidRank,
    NotPositiveSemidefinite,
)
from qsm.metrics import MetricKind, are_orthogonal, bures_distance, distances, product_trace_norm
from qsm.states import (
    PSD_TOL,
    DensityOperator,
    QuantumState,
    RngStream,
    _ginibre,
    _orthogonal_pairs,
    _projection,
    _ranks,
    _sampled_stack,
    _spectra,
    basis_projection,
    random_density,
    random_state,
    random_unitary,
    zero_density,
)


class TestDensityOperator:
    def test_clamps_tiny_negative_eigenvalues(self):
        op = DensityOperator(np.diag([1.0, -1e-12]))
        assert op.spectrum()[0][0, 0] == 0.0
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


def _wishart(n, rank, gen):
    g = gen.standard_normal((n, rank)) + 1j * gen.standard_normal((n, rank))
    a = g @ g.conj().T
    return a / np.trace(a).real


class TestFromStack:
    """Stacked construction against one constructor call per matrix."""

    @staticmethod
    def _assert_same(stacked, single):
        assert type(stacked) is type(single)
        assert np.array_equal(stacked.entries, single.entries)
        for got, want in zip(stacked.spectrum(), single.spectrum()):
            assert np.array_equal(got, want)
        assert stacked.trace == single.trace == float(np.trace(single.entries).real)

    @pytest.mark.parametrize("cls", [DensityOperator, QuantumState])
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
    def test_matches_per_matrix_construction(self, cls, n):
        gen = np.random.default_rng(n)
        mats = [_wishart(n, rank, gen) for rank in range(1, n + 1) for _ in range(3)]
        mats.append(np.diag([1.0] + [-1e-12] * (n - 1)) if n > 1 else np.eye(1))
        ops = cls.from_stack(np.stack(mats))
        assert len(ops) == len(mats)
        for op, mat in zip(ops, mats):
            self._assert_same(op, cls(mat))
        if n > 1:
            clamped = [np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0] < 0.0 for m in mats]
            assert any(clamped)
            assert ops[-1].spectrum()[0][0, 0] == 0.0

    def test_single_matrix_stack(self):
        mat = _wishart(3, 2, np.random.default_rng(1))
        (op,) = QuantumState.from_stack(mat[None])
        self._assert_same(op, QuantumState(mat))

    @staticmethod
    def _message(cls, mat):
        with pytest.raises((ValueError, NotPositiveSemidefinite)) as info:
            cls(mat)
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("cls", [DensityOperator, QuantumState])
    def test_first_bad_matrix_raises_as_the_constructor(self, cls):
        good = np.diag([0.5, 0.5])
        below = np.diag([1.0 + 1e-3, -1e-3])
        nonfinite = np.array([[np.nan, 0.0], [0.0, 1.0]])
        off_trace = np.diag([0.5, 0.6])
        stacks = [[good, below, nonfinite], [good, nonfinite, below]]
        if cls is QuantumState:
            stacks += [[good, off_trace, below], [off_trace, nonfinite]]
        for stack in stacks:
            first_bad = next(m for m in stack[1:] if m is not good) if stack[0] is good else stack[0]
            kind, message = self._message(cls, first_bad)
            with pytest.raises(kind) as info:
                cls.from_stack(np.stack(stack))
            assert str(info.value) == message
        with pytest.raises(NotPositiveSemidefinite) as info:
            cls.from_stack(np.stack([good, below]))
        assert info.value.eigenvalue == pytest.approx(-1e-3)

    def test_rejects_a_matrix_where_a_stack_is_due(self):
        with pytest.raises(ValueError, match="square matrix"):
            DensityOperator.from_stack(np.eye(2))
        with pytest.raises(ValueError, match="square matrix"):
            DensityOperator(np.zeros((1, 2, 2)))


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the matrices handed to np.linalg.eigh while a test runs."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def _with_lowest(n, c, gen):
    """An exactly Hermitian n x n matrix of trace about 1 whose lowest
    eigenvalue is -c*PSD_TOL*(1+trace) (up to roundoff), the others
    positive."""
    top = gen.uniform(0.5, 1.5, n - 1)
    top /= top.sum()
    lowest = -c * PSD_TOL * (1.0 + top.sum()) / (1.0 + c * PSD_TOL)
    v = random_unitary(n, gen)
    a = (v * np.concatenate([[lowest], top])) @ v.conj().T
    return (a + a.conj().T) / 2.0


class TestConstruction:
    """Construction checks the PSD floor without eigh and keeps the
    symmetrized entries."""

    def test_entries_are_the_symmetrized_input(self):
        gen = np.random.default_rng(4)
        for mat in (_wishart(5, 3, gen) + 1e-13j * gen.standard_normal((5, 5)),
                    _with_lowest(5, 0.5, gen)):
            sym = (mat + mat.conj().T) / 2.0
            assert np.array_equal(DensityOperator(mat).entries, sym)
            (op,) = DensityOperator.from_stack(mat[None])
            assert np.array_equal(op.entries, sym)

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_psd_floor(self, n):
        gen = np.random.default_rng(n)
        op = DensityOperator(_with_lowest(n, 0.5, gen))
        assert op.spectrum()[0][0, 0] == 0.0
        below = _with_lowest(n, 2.0, gen)
        lowest = float(np.linalg.eigvalsh(below)[0])
        tol = PSD_TOL * (1.0 + float(np.trace(below).real))
        with pytest.raises(NotPositiveSemidefinite) as info:
            DensityOperator(below)
        assert str(info.value) == f"density operator has eigenvalue {lowest:.3e} < -{tol:.3e}"
        assert info.value.eigenvalue == lowest

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_bures_self_distance_at_the_floor(self, n):
        # the entries keep a lowest eigenvalue of -0.9*PSD_TOL*(1+trace);
        # the Bures radicand reads the traces of the clamped spectrum that
        # the fidelity reads, so it does not count that eigenvalue twice
        op = DensityOperator(_with_lowest(n, 0.9, np.random.default_rng(n)))
        assert bures_distance(op, op) == 0.0
        stack = np.array([op.entries, op.entries])
        assert distances(MetricKind.BURES, stack, stack).tolist() == [0.0, 0.0]


class TestSpectra:
    """_spectra and spectrum() against a per-matrix eigh and clamp."""

    @staticmethod
    def _stack(cls, n, gen):
        mats = [_wishart(n, rank, gen) for rank in range(1, n + 1) for _ in range(2)]
        if n > 1:
            low = _with_lowest(n, 0.5, gen)
            mats.append(low / np.trace(low).real)
        if cls is DensityOperator:
            mats = [m * t for m, t in zip(mats, gen.uniform(0.2, 2.0, len(mats)))]
        return cls.from_stack(np.stack(mats))

    @pytest.mark.parametrize("cls", [DensityOperator, QuantumState])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_matches_per_matrix_eigh(self, eigh_calls, cls, n):
        ops = self._stack(cls, n, np.random.default_rng(n))
        expected = []
        for op in ops:
            lam, vec = np.linalg.eigh(op.entries)
            expected.append((np.maximum(lam, 0.0), vec))
        eigh_calls.clear()
        lam, vec = _spectra(np.array([op.entries for op in ops]))
        assert eigh_calls == [(len(ops), n, n)]
        assert lam.shape == (len(ops), n) and vec.shape == (len(ops), n, n)
        for i, (op, (lam_i, vec_i)) in enumerate(zip(ops, expected)):
            assert np.array_equal(lam[i], lam_i)
            assert np.array_equal(vec[i], vec_i)
            one_lam, one_vec = op.spectrum()
            assert np.array_equal(one_lam, lam_i[None])
            assert np.array_equal(one_vec, vec_i[None])
        assert len(eigh_calls) == 1 + len(ops)
        if n > 1:
            assert lam[-1, 0] == 0.0

    def test_every_read_decomposes(self, eigh_calls):
        op = DensityOperator(_wishart(4, 2, np.random.default_rng(21)))
        assert eigh_calls == []
        op.spectrum()
        op.spectrum()
        op.rank()
        assert eigh_calls == [(1, 4, 4)] * 3

    def test_empty_list_decomposes_nothing(self, eigh_calls):
        lam, vec = _spectra(np.empty((0, 0, 0), dtype=np.complex128))
        assert eigh_calls == []
        assert lam.shape == (0, 0) and vec.shape == (0, 0, 0)

    @pytest.mark.parametrize("cls", [DensityOperator, QuantumState])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_rank_agrees_with_ranks(self, cls, n):
        ops = self._stack(cls, n, np.random.default_rng(30 + n))
        lam, _ = _spectra(np.array([op.entries for op in ops]))
        ranks = _ranks(lam, [op.trace for op in ops])
        assert [op.rank() for op in ops] == ranks.tolist()
        assert len(set(ranks.tolist())) == n


class TestPureState:
    def test_basis_vector(self):
        proj = QuantumState(_projection([1.0, 0.0]))
        assert np.allclose(proj.entries, np.diag([1.0, 0.0]))

    def test_real_superposition(self):
        proj = QuantumState(_projection(np.array([1.0, 1.0]) / np.sqrt(2.0)))
        assert np.allclose(proj.entries, np.full((2, 2), 0.5))

    def test_imaginary_superposition(self):
        # outer product by hand: v v* = [[1, -i], [i, 1]] / 2
        proj = QuantumState(_projection(np.array([1.0, 1j]) / np.sqrt(2.0)))
        expected = np.array([[1.0, -1j], [1j, 1.0]]) / 2.0
        assert np.allclose(proj.entries, expected)

    def test_normalizes(self):
        proj = QuantumState(_projection([3.0, 4.0]))
        assert proj.trace == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(proj.entries, [[0.36, 0.48], [0.48, 0.64]], atol=1e-12)

    def test_projection_invariants(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            vec = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            proj = QuantumState(_projection(vec))
            assert proj.trace == pytest.approx(1.0, abs=1e-12)
            idem = proj.entries @ proj.entries - proj.entries
            assert np.max(np.abs(idem)) <= 1e-10
            assert proj.spectrum()[0][0, -2] <= 1e-10


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
        b = RngStream(42, 1).generator().standard_normal(8)
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
        assert int(np.count_nonzero(op.spectrum()[0] > 1e-10 * 5.0)) == 2
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
                assert op.spectrum()[0][0, 0] >= 0.0
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


class _CollapsingGenerator(np.random.Generator):
    """A generator whose ``collapse``-th standard_normal draw (from 0) has
    every column of its first matrix equal to that matrix's first column, so
    the factor drawn there has rank one; every other draw is honest."""

    def __init__(self, seed, collapse):
        super().__init__(np.random.PCG64(seed))
        self.draws = 0
        self.collapse = collapse

    def standard_normal(self, size=None, *args, **kwargs):
        out = super().standard_normal(size, *args, **kwargs)
        if self.draws == self.collapse:
            out[0] = out[0, :, :, :1]
        self.draws += 1
        return out


class TestShortFactorsAreRedrawn:
    """A factor whose rank falls short is redrawn from the sampler's own
    generator, after the whole stack, and only that factor."""

    @pytest.mark.parametrize("n", [2, 5, 48])
    def test_sampled_stack(self, n):
        ranks, traces = np.array([n, 2, n]), np.array([0.7, 1.3, 2.0])
        gen, twin = _CollapsingGenerator(40 + n, 0), np.random.default_rng(40 + n)
        arr = _sampled_stack(DensityOperator, n, gen, ranks, traces)
        honest = _sampled_stack(DensityOperator, n, twin, ranks, traces)
        ops = DensityOperator.from_stack(arr)
        assert [op.rank() for op in ops] == ranks.tolist()
        assert [op.trace for op in ops] == pytest.approx(traces, rel=1e-12)
        assert not np.array_equal(arr[0], honest[0])
        assert np.array_equal(arr[1:], honest[1:])
        twin.standard_normal((1, 2, n, n))
        assert gen.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("cls", [DensityOperator, QuantumState])
    @pytest.mark.parametrize("n", [3, 6])
    def test_orthogonal_pairs(self, n, cls):
        # the first seed whose first x has rank 2 or more, so that collapsing
        # its factor to rank one leaves it short
        seed = next(s for s in range(100) if self._ranks(n, s)[0][0] >= 2)
        gen, twin = _CollapsingGenerator(seed, 1), np.random.default_rng(seed)
        xs, ys = map(cls.from_stack, _orthogonal_pairs(cls, n, gen, np.ones(2), np.ones(2)))
        ranks_x, ranks_y = self._ranks(n, seed)
        assert [x.rank() for x in xs] == ranks_x.tolist()
        assert [y.rank() for y in ys] == ranks_y.tolist()
        assert all(are_orthogonal(x, y) for x, y in zip(xs, ys))
        _orthogonal_pairs(cls, n, twin, np.ones(2), np.ones(2))
        twin.standard_normal((1, 2, n, int(max(ranks_x.max(), ranks_y.max()))))
        assert gen.bit_generator.state == twin.bit_generator.state

    @staticmethod
    def _ranks(n, seed):
        gen = np.random.default_rng(seed)
        splits = gen.integers(1, n, size=2)
        return gen.integers(1, splits + 1), gen.integers(1, n - splits + 1)


class TestStackedSamplers:
    """The stacked samplers against one-matrix draws and against the
    single-matrix constructions they replaced."""

    @staticmethod
    def _ginibre_one(gen, rows, cols):
        """The single-matrix complex Gaussian draw, real part first."""
        real, imag = gen.standard_normal((rows, cols)), gen.standard_normal((rows, cols))
        return (real + 1j * imag) / np.sqrt(2.0)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 1), (5, 3), (8, 8)])
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_ginibre_stack_is_one_matrix_after_another(self, count, shape):
        stacked_gen, single_gen = np.random.default_rng(count), np.random.default_rng(count)
        stack = _ginibre(stacked_gen, count, *shape)
        assert stack.shape == (count, *shape)
        for matrix in stack:
            assert np.array_equal(matrix, self._ginibre_one(single_gen, *shape))
        assert stacked_gen.bit_generator.state == single_gen.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 64])
    def test_random_unitary_is_the_single_matrix_construction(self, n):
        gen = RngStream(21, n).generator()
        q, r = np.linalg.qr(self._ginibre_one(gen, n, n))
        d = np.diagonal(r)
        assert np.array_equal(random_unitary(n, RngStream(21, n)), q * (d / np.abs(d)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 64])
    def test_random_density_is_the_single_matrix_construction(self, n):
        for rank in sorted({1, (n + 1) // 2, n}):
            stream = RngStream(22, 100 * n + rank)
            gen = stream.generator()
            g = self._ginibre_one(gen, n, rank)
            a = g @ g.conj().T
            want = DensityOperator(a * (1.7 / float(np.trace(a).real)))
            got = random_density(n, rank, 1.7, stream)
            assert np.array_equal(got.entries, want.entries)
            assert np.array_equal(got.spectrum()[0], want.spectrum()[0])
            want = QuantumState(a * (1.0 / float(np.trace(a).real)))
            assert np.array_equal(random_state(n, rank, stream).entries, want.entries)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_sampled_stack_keeps_ranks_and_traces(self, n):
        gen = np.random.default_rng(n)
        ranks = gen.integers(1, n + 1, size=12)
        traces = gen.uniform(0.2, 2.0, size=12)
        ops = DensityOperator.from_stack(_sampled_stack(DensityOperator, n, gen, ranks, traces))
        assert [op.rank() for op in ops] == ranks.tolist()
        for op, trace in zip(ops, traces):
            assert op.trace == pytest.approx(trace, abs=1e-12 * max(1.0, trace))

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 64])
    def test_target_traces_decompose_nothing(self, eigh_calls, n):
        """Ranks are checked on the Gram spectrum, so sampling with target
        traces hands no matrix to eigh."""
        gen = RngStream(24, n).generator()
        ops = [random_density(n, n, 1.3, gen)]
        ops += DensityOperator.from_stack(_sampled_stack(
            DensityOperator, n, gen, gen.integers(1, n + 1, size=4), gen.uniform(0.2, 2.0, size=4)
        ))
        if n >= 2:
            for pairs in _orthogonal_pairs(QuantumState, n, gen, np.ones(3), np.ones(3)):
                ops += QuantumState.from_stack(pairs)
        assert eigh_calls == []

    @pytest.mark.parametrize("cls", [DensityOperator, QuantumState])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 64])
    def test_orthogonal_pairs(self, n, cls):
        count = 3 if n == 64 else 10
        gen, twin = RngStream(23, n).generator(), RngStream(23, n).generator()
        if cls is QuantumState:
            traces = np.ones((2, count))
        else:
            traces = gen.uniform(0.2, 2.0, size=(2, count))
            twin.uniform(0.2, 2.0, size=(2, count))
        xs, ys = map(cls.from_stack, _orthogonal_pairs(cls, n, gen, *traces))
        splits = twin.integers(1, n, size=count)
        ranks_x, ranks_y = twin.integers(1, splits + 1), twin.integers(1, n - splits + 1)
        for x, y, tx, ty, rx, ry in zip(xs, ys, *traces, ranks_x, ranks_y):
            assert type(x) is type(y) is cls
            assert are_orthogonal(x, y)
            assert product_trace_norm(x, y) <= 1e-13 * (1.0 + tx * ty)
            assert abs(x.trace - tx) <= 1e-12 * max(1.0, tx)
            assert abs(y.trace - ty) <= 1e-12 * max(1.0, ty)
            assert (x.rank(), y.rank()) == (rx, ry)
