"""Density operators, quantum states, and reproducible sampling.

An operator is a value, its symmetrized entries and its trace; a spectrum is
decomposed where it is read (``spectrum()``, or ``_spectra`` for a stack),
and no operator keeps one.  Inside qsm a batch of operators is an entry
stack, the read-only ``(k, n, n)`` array of their symmetrized entries that
``DensityOperator._validated`` returns after the construction checks; its
row traces (``_traces``) are the operators' traces.  The samplers return
entry stacks, and operators are built only where a public function takes or
returns one: ``from_stack`` checks a stack and builds them, ``_wrapped``
builds them from an entry stack.

Random draws go through RngStream, a value type (seed, stream_index): the
same stream always yields the same operators, and concurrent experiments use
disjoint stream indices rather than a shared mutable generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameter,
    InvalidRank,
    NotPositiveSemidefinite,
    NumericalBreakdown,
)
from .linalg import (
    NONFINITE_MESSAGE,
    _as_complex_squares,
    _finite_prefix,
    _max_trace_norm,
    _symmetrized,
)

#: relative floor for "numerically PSD": an operator is accepted when every
#: eigenvalue is above -PSD_TOL*(1+trace); its entries are kept as given and
#: only the spectrum read back clamps the eigenvalues to zero.
PSD_TOL = 1e-9

#: relative floor of rank(): eigenvalues above RANK_TOL*(1+trace) count.
RANK_TOL = 1e-10

#: a QuantumState, and an input to a map on states, has |tr - 1| at most
#: UNIT_TRACE_TOL.
UNIT_TRACE_TOL = 1e-10

#: an n x n matrix is unitary when the trace norm of U U* - 1 is at most
#: UNITARITY_TOL * n.
UNITARITY_TOL = 1e-10

#: largest admitted Hilbert-space dimension unless overridden by the caller.
DEFAULT_DIM_CAP = 64


class DensityOperator:
    """Positive semidefinite Hermitian operator (finite, not trace-normalized).

    An operator is a value: its symmetrized entries and its trace, nothing
    else.  Construction symmetrizes via (A + A*)/2, so at most one triangle
    of the input is authoritative, keeps the symmetrized matrix as read-only
    ``entries`` and the trace.  The PSD floor is checked without a
    decomposition, by a Cholesky factorization of A + 1e-9*(1+trace)*I; an
    operator with an eigenvalue below -1e-9*(1+trace) raises
    NotPositiveSemidefinite.  The spectrum, eigenvalues clamped to
    max(lambda, 0), is not stored: each ``spectrum()`` call decomposes it.
    The checks that only need a spectral fact do without it: a sampled
    density's rank is counted on its Gram spectrum (``_wishart``) and a probe
    image's purity is certified from one column (qsm.maps).  Row i of the
    entry stack that ``_validated`` returns, and ``_traces(stack)[i]``, are
    the entries and the trace of the operator built from matrix i.
    """

    __slots__ = ("entries", "_trace")

    #: whether construction also holds the trace to 1 (QuantumState)
    _UNIT_TRACE = False

    def __init__(self, entries):
        arr = self._validated(_as_complex_squares(entries)[None])
        self.entries = arr[0]
        self._trace = float(_traces(arr)[0])

    @classmethod
    def from_stack(cls, entries) -> list:
        """One operator per matrix of a ``(k, n, n)`` stack, each bit for bit
        what the constructor makes of that matrix; the first matrix in order
        that the constructor would reject raises its exception."""
        return cls._wrapped(cls._validated(entries))

    @classmethod
    def _wrapped(cls, arr: np.ndarray) -> list:
        """The operators of an entry stack, one per row, built without
        checking the stack again."""
        ops = []
        for row, trace in zip(arr, _traces(arr).tolist()):
            op = cls.__new__(cls)
            op.entries = row
            op._trace = trace
            ops.append(op)
        return ops

    @classmethod
    def _validated(cls, entries) -> np.ndarray:
        """The entry stack of a ``(k, n, n)`` stack: its matrices
        symmetrized, read-only, with every construction check applied in the
        order a loop over the matrices would meet them."""
        arr = _as_complex_squares(entries, 3)
        count = len(arr)
        finite = _finite_prefix(arr)
        arr = _symmetrized(arr[:finite])
        tr = _traces(arr)
        tol = PSD_TOL * (1.0 + tr)
        first_below = finite
        # A + tol*I factors exactly when every eigenvalue of A is above -tol
        # (up to Cholesky's O(n*eps*|A|) backward error); only a stack that
        # fails pays for eigvalsh, which finds the first matrix below -tol.
        try:
            np.linalg.cholesky(arr + tol[:, None, None] * np.eye(arr.shape[-1]))
        except np.linalg.LinAlgError:
            lowest = np.linalg.eigvalsh(arr)[:, 0]
            below = np.flatnonzero(lowest < -tol)
            if below.size:
                first_below = int(below[0])
        traces = tr.tolist()
        if cls._UNIT_TRACE:
            off = next((t for t in traces[:first_below] if abs(t - 1.0) > UNIT_TRACE_TOL), None)
            if off is not None:
                raise ValueError(f"quantum state must have trace 1, got {off!r}")
        if first_below < finite:
            eigenvalue = float(lowest[first_below])
            raise NotPositiveSemidefinite(
                f"density operator has eigenvalue {eigenvalue:.3e} < -{tol[first_below]:.3e}",
                eigenvalue=eigenvalue,
            )
        if finite < count:
            raise ValueError(NONFINITE_MESSAGE)
        arr.setflags(write=False)
        return arr

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``_spectra`` of this operator alone: eigenvalues ``(1, n)`` and
        eigenvectors ``(1, n, n)``."""
        return _spectra(self.entries[None])

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> float:
        return self._trace

    def rank(self) -> int:
        """Number of eigenvalues above RANK_TOL*(1+trace)."""
        return int(_ranks(self.spectrum()[0], self._trace)[0])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class QuantumState(DensityOperator):
    """Density operator with trace 1 (within 1e-10)."""

    __slots__ = ()

    _UNIT_TRACE = True


def _traces(arr: np.ndarray) -> np.ndarray:
    """The row traces of a ``(k, n, n)`` stack; of an entry stack, the traces
    of its operators."""
    return arr.trace(axis1=1, axis2=2).real


def _ranks(lam: np.ndarray, traces):
    """rank() from eigenvalues ``(..., n)`` and traces ``(...)``: the count
    of eigenvalues above RANK_TOL*(1+trace)."""
    return np.count_nonzero(lam > RANK_TOL * (1.0 + np.asarray(traces))[..., None], axis=-1)


def _spectra(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``(k, n)``, clamped to max(lambda, 0), and eigenvectors
    ``(k, n, n)`` of a ``(k, n, n)`` stack, from one ``eigh``.  A stacked
    ``eigh`` runs the same LAPACK routine on each matrix, so every row is bit
    for bit the spectrum of that matrix alone.  An empty stack decomposes
    nothing."""
    if not len(arr):
        return np.empty(arr.shape[:2]), np.empty(arr.shape, dtype=np.complex128)
    lam, vec = np.linalg.eigh(arr)
    return np.maximum(lam, 0.0), vec


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream identified by (seed, stream_index).

    generator() returns a fresh PCG64 generator each call, so a function
    taking an RngStream is a pure function of it.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidParameter("seed must be a nonnegative integer")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_index,))
        )


def generator_of(rng: RngStream | np.random.Generator) -> np.random.Generator:
    """Accept either an RngStream value or a live Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def _ginibre(gen: np.random.Generator, count: int, rows: int, cols: int) -> np.ndarray:
    """``count`` complex Gaussian rows x cols matrices, entries of variance 1,
    drawn one matrix after another (real part, then imaginary part), so a
    stack of one is the single-matrix draw."""
    g = gen.standard_normal((count, 2, rows, cols))
    return (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)


def _unitarity_defect(u: np.ndarray, floor: float) -> float:
    """max(floor, largest trace norm of U U* - 1) over one matrix or a stack
    of them: a U whose defect exceeds ``floor`` yields its exact defect, and
    only the U that the Frobenius bound of _max_trace_norm leaves open are
    decomposed."""
    u = u.reshape(-1, *u.shape[-2:])
    return _max_trace_norm(u @ u.conj().swapaxes(1, 2) - np.eye(u.shape[-1]), floor)


def _haar_unitaries(n: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed n x n unitaries as a ``(count, n, n)`` stack.

    Construction: complex Gaussian matrices, QR orthonormalization, then phase
    correction so each triangular factor has positive real diagonal
    (Mezzadri, Notices AMS 54 (2007) 592).
    """
    q, r = np.linalg.qr(_ginibre(gen, count, n, n))
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, None, :]
    defect = _unitarity_defect(q, UNITARITY_TOL * n)
    if defect > UNITARITY_TOL * n:
        raise NumericalBreakdown(f"unitarity defect {defect:.3e} exceeds 1e-10*n")
    return q


def random_unitary(n: int, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary: the one-matrix case of _haar_unitaries."""
    if n < 1:
        raise InvalidParameter("dimension must be >= 1")
    return _haar_unitaries(n, 1, generator_of(rng))[0]


def _wishart(cls: type[DensityOperator], g: np.ndarray, ranks, traces):
    """G G* of each matrix G of a ``(k, n, m)`` Gaussian stack, keeping the
    first ranks[i] columns of the i-th (the others are zeroed in place),
    rescaled to traces[i] (to 1 if traces is None), as one entry stack of
    ``cls``, and the mask of the operators whose rank falls short of
    ranks[i].  With traces None the stack is built unchecked, as random_state
    builds it, and none falls short; with target traces, an operator whose
    rank exceeds ranks[i] or whose trace is off target raises
    NumericalBreakdown, the first failing one in order.

    The rank is counted without decomposing an operator: G G* and the m x m
    Gram matrix G* G have the same nonzero eigenvalues, so the eigenvalues
    above 1e-10*trace of one batched ``eigvalsh`` of the Gram stack, scaled
    as the operators are, count rank(G G*).  Both spectra are computed to
    O(n*eps*trace), four decades below the threshold at n = 64, so the two
    counts can differ only on an eigenvalue within that error of it.  The
    operators' own spectra are left for the callers that read them."""
    ranks = np.asarray(ranks)
    g.swapaxes(1, 2)[np.arange(g.shape[2]) >= ranks[:, None]] = 0.0
    a = g @ g.conj().swapaxes(1, 2)
    target = 1.0 if traces is None else np.asarray(traces, dtype=float)
    scale = target / _traces(a)
    arr = cls._validated(a * scale[:, None, None])
    if traces is None:
        return arr, np.zeros(len(ranks), dtype=bool)
    gram = np.linalg.eigvalsh(g.conj().swapaxes(1, 2) @ g) * scale[:, None]
    realized = np.count_nonzero(gram > 1e-10 * target[:, None], axis=1)
    off_rank = realized > ranks
    off_trace = np.abs(_traces(arr) - target) > 1e-12 * np.maximum(1.0, target)
    failing = np.flatnonzero(off_rank | off_trace)
    if failing.size:
        i = failing[0]
        if off_rank[i]:
            raise NumericalBreakdown(
                f"sampled density has numerical rank {realized[i]}, wanted {ranks[i]}"
            )
        raise NumericalBreakdown("sampled density trace off target")
    return arr, realized < ranks


def _sampled_stack(cls: type[DensityOperator], n: int, gen: np.random.Generator, ranks, traces):
    """The entry stack of one Wishart operator of ``cls`` per entry of
    ``ranks``: the normalized Wishart construction of random_density, drawn
    as one Gaussian stack of max(ranks) columns per matrix of which the i-th
    keeps its first ranks[i] (the same measure; a one-matrix stack draws
    exactly n x rank).  A factor whose rank falls short of ranks[i] (a square
    one does about once in 1e5 draws at n = 48) is redrawn from ``gen``
    after the whole stack, until none does."""
    ranks = np.asarray(ranks)
    g = _ginibre(gen, len(ranks), n, int(ranks.max(initial=1)))
    while True:
        arr, short = _wishart(cls, g, ranks, traces)
        if not short.any():
            return arr
        g[short] = _ginibre(gen, int(np.count_nonzero(short)), n, g.shape[2])


def _orthogonal_pairs(cls: type[DensityOperator], n: int, gen: np.random.Generator, traces_x,
                      traces_y) -> tuple[np.ndarray, np.ndarray]:
    """Entry stacks xs, ys of Wishart operators of ``cls`` (n >= 2) with the
    given traces, pair i supported on complementary subspaces of a Haar
    frame V.

    Pair i draws a uniform split k in [1, n), a uniform rank of x in [1, k]
    and one of y in [1, n - k]; all splits, then all ranks, then the frames,
    then one Gaussian stack.  x = V G G* V* keeps the rows of G below k and
    y the rows from k up, so x y vanishes up to the roundoff of V* V = 1.  A
    factor whose rank falls short is redrawn as in _sampled_stack."""
    count = len(traces_x)
    splits = gen.integers(1, n, size=count)
    ranks = np.concatenate([gen.integers(1, splits + 1), gen.integers(1, n - splits + 1)])
    frames = _haar_unitaries(n, count, gen)
    frames = np.concatenate([frames, frames])
    below = np.arange(n) < splits[:, None]
    outside = np.concatenate([~below, below])
    traces = np.concatenate([traces_x, traces_y])
    g = _ginibre(gen, 2 * count, n, int(ranks.max()))
    while True:
        g[outside] = 0.0
        arr, short = _wishart(cls, frames @ g, ranks, traces)
        if not short.any():
            return arr[:count], arr[count:]
        g[short] = _ginibre(gen, int(np.count_nonzero(short)), n, g.shape[2])


def random_density(
    n: int,
    rank: int,
    trace_target: float,
    rng: RngStream | np.random.Generator,
) -> DensityOperator:
    """Random PSD operator with prescribed rank and trace.

    Normalized Wishart construction: G G* for an n x rank complex Gaussian G,
    rescaled to the target trace (Hilbert-Schmidt-induced measure at full
    rank; Zyczkowski & Sommers, J. Phys. A 34 (2001) 7111).
    """
    if not 1 <= rank <= n:
        raise InvalidRank(f"rank {rank} outside [1, {n}]")
    if not trace_target > 0.0:
        raise InvalidParameter("trace_target must be positive")
    arr = _sampled_stack(DensityOperator, n, generator_of(rng), [rank], [trace_target])
    return DensityOperator._wrapped(arr)[0]


def random_state(n: int, rank: int, rng: RngStream | np.random.Generator) -> QuantumState:
    """Random trace-1 density operator of prescribed rank."""
    if not 1 <= rank <= n:
        raise InvalidRank(f"rank {rank} outside [1, {n}]")
    arr = _sampled_stack(QuantumState, n, generator_of(rng), [rank], None)
    return QuantumState._wrapped(arr)[0]


def zero_density(n: int) -> DensityOperator:
    return DensityOperator(np.zeros((n, n), dtype=np.complex128))


def _projection(vec) -> np.ndarray:
    """Entries of the rank-one projection |v><v| onto the nonzero vector v,
    normalized; the QuantumState constructor checks them."""
    vec = np.asarray(vec, dtype=np.complex128)
    vec = vec / float(np.linalg.norm(vec))
    return np.outer(vec, vec.conj())


def basis_projection(n: int, k: int) -> QuantumState:
    """Projection onto the k-th computational basis vector."""
    vec = np.zeros(n, dtype=np.complex128)
    vec[k] = 1.0
    return QuantumState(_projection(vec))
