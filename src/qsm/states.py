"""Density operators, quantum states, pure states, and reproducible sampling.

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
    InvalidVector,
    NotPositiveSemidefinite,
    NumericalBreakdown,
)
from .linalg import (
    NONFINITE_MESSAGE,
    HermitianOperator,
    _as_complex_squares,
    _finite_prefix,
    _spectral_rebuild,
    _symmetrized,
    trace_norm_entries,
)

#: relative floor for "numerically PSD": eigenvalues above -PSD_TOL*(1+trace)
#: are clamped to zero, anything lower is rejected.
PSD_TOL = 1e-9

#: largest admitted Hilbert-space dimension unless overridden by the caller.
DEFAULT_DIM_CAP = 64


class DensityOperator(HermitianOperator):
    """Positive semidefinite Hermitian operator (finite, not trace-normalized).

    Construction eigendecomposes once: eigenvalues within -1e-9*(1+trace) of
    zero are clamped to exactly zero, more negative ones raise
    NotPositiveSemidefinite.  The spectrum and the trace are cached for
    downstream use.  ``from_stack`` builds a whole ``(k, n, n)`` stack with
    the same checks and one batched decomposition.
    """

    __slots__ = ("_eigenvalues", "_eigenvectors", "_trace")

    #: whether construction also holds the trace to 1 (QuantumState)
    _UNIT_TRACE = False

    def __init__(self, entries):
        ent, lam, vec, tr = self._validated(entries, stacked=False)
        self._fill(ent[0], lam[0], vec[0], tr[0])

    @classmethod
    def from_stack(cls, entries) -> list:
        """One operator per matrix of a ``(k, n, n)`` stack, each bit for bit
        what the constructor makes of that matrix; the first matrix in order
        that the constructor would reject raises its exception."""
        ent, lam, vec, tr = cls._validated(entries, stacked=True)
        ops = []
        for i, trace in enumerate(tr):
            op = cls.__new__(cls)
            op._fill(ent[i], lam[i], vec[i], trace)
            ops.append(op)
        return ops

    @classmethod
    def _validated(cls, entries, stacked: bool):
        """Entries, eigenvalues, eigenvectors and traces of a stack, with
        every construction check applied in the order a loop over the
        matrices would meet them."""
        arr = _as_complex_squares(entries, 3 if stacked else 2)
        if not stacked:
            arr = arr[None]
        count = len(arr)
        finite = _finite_prefix(arr)
        arr = _symmetrized(arr[:finite])
        lam, vec = np.linalg.eigh(arr)
        tr = arr.trace(axis1=1, axis2=2).real
        tol = PSD_TOL * (1.0 + tr)
        lowest = lam[:, 0]
        first_below = finite
        if lowest.min(initial=0.0) < 0.0:
            below = np.flatnonzero(lowest < -tol)
            if below.size:
                first_below = int(below[0])
            low = np.flatnonzero(lowest[:first_below] < 0.0)
            if low.size:
                lam[low] = np.maximum(lam[low], 0.0)
                arr[low] = _symmetrized(_spectral_rebuild(lam[low], vec[low]))
                tr[low] = arr[low].trace(axis1=1, axis2=2).real
        traces = tr.tolist()
        if cls._UNIT_TRACE:
            off = next((t for t in traces[:first_below] if abs(t - 1.0) > 1e-10), None)
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
        for a in (arr, lam, vec):
            a.setflags(write=False)
        return arr, lam, vec, traces

    def _fill(self, entries, eigenvalues, eigenvectors, trace: float) -> None:
        self.entries = entries
        self._eigenvalues = eigenvalues
        self._eigenvectors = eigenvectors
        self._trace = trace

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenvectors

    @property
    def trace(self) -> float:
        return self._trace

    def rank(self, tol: float = 1e-10) -> int:
        """Number of eigenvalues above tol*(1+trace)."""
        return int(np.count_nonzero(self._eigenvalues > tol * (1.0 + self._trace)))


class QuantumState(DensityOperator):
    """Density operator with trace 1 (within 1e-10)."""

    __slots__ = ()

    _UNIT_TRACE = True


class PureState:
    """Unit vector representing a rank-one state."""

    __slots__ = ("vector",)

    def __init__(self, vector):
        vec = np.array(vector, dtype=np.complex128).reshape(-1)
        if vec.size < 1 or not np.all(np.isfinite(vec)):
            raise InvalidVector("pure state vector must be nonempty and finite")
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise InvalidVector("pure state vector must be nonzero")
        vec = vec / norm
        vec.setflags(write=False)
        self.vector = vec

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def as_projection(self) -> QuantumState:
        """Rank-one projection |v><v| as a trace-1 state."""
        return QuantumState(np.outer(self.vector, self.vector.conj()))

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


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

    def shifted(self, offset: int) -> "RngStream":
        """Stream with the same seed and a disjoint index."""
        return RngStream(self.seed, self.stream_index + offset)


def generator_of(rng: RngStream | np.random.Generator) -> np.random.Generator:
    """Accept either an RngStream value or a live Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def _ginibre(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2.0)


def _unitarity_defect(u: np.ndarray) -> float:
    """Trace norm of U U* - 1."""
    return float(trace_norm_entries(u @ u.conj().T - np.eye(u.shape[0])))


def random_unitary(n: int, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary.

    Construction: complex Gaussian matrix, QR orthonormalization, then phase
    correction so the triangular factor has positive real diagonal.
    """
    if n < 1:
        raise InvalidParameter("dimension must be >= 1")
    gen = generator_of(rng)
    z = _ginibre(gen, n, n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    defect = _unitarity_defect(q)
    if defect > 1e-10 * n:
        raise NumericalBreakdown(f"unitarity defect {defect:.3e} exceeds 1e-10*n")
    return q


def _wishart_entries(n: int, rank: int, trace_target: float, gen: np.random.Generator) -> np.ndarray:
    g = _ginibre(gen, n, rank)
    a = g @ g.conj().T
    return a * (trace_target / float(np.trace(a).real))


def random_density(
    n: int,
    rank: int,
    trace_target: float,
    rng: RngStream | np.random.Generator,
) -> DensityOperator:
    """Random PSD operator with prescribed rank and trace.

    Normalized Wishart construction: G G* for an n x rank complex Gaussian G,
    rescaled to the target trace (Hilbert-Schmidt-induced measure at full
    rank).
    """
    if not 1 <= rank <= n:
        raise InvalidRank(f"rank {rank} outside [1, {n}]")
    if not trace_target > 0.0:
        raise InvalidParameter("trace_target must be positive")
    gen = generator_of(rng)
    draw = (_wishart_entries(n, rank, trace_target, gen), rank, trace_target)
    return _sampled_stack(DensityOperator, [draw])[0]


def _sampled_stack(cls: type[DensityOperator], draws: list) -> list[DensityOperator]:
    """Build Wishart draws ``(entries, rank, trace)`` as one stack of ``cls``
    and hold each draw with a trace to the rank and trace it was sampled
    with (NumericalBreakdown otherwise); a draw with trace None is built
    unchecked, as random_state builds it."""
    ops = cls.from_stack(np.array([entries for entries, _, _ in draws]))
    for op, (_, rank, trace) in zip(ops, draws):
        if trace is None:
            continue
        realized = int(np.count_nonzero(op.eigenvalues > 1e-10 * trace))
        if realized != rank:
            raise NumericalBreakdown(
                f"sampled density has numerical rank {realized}, wanted {rank}"
            )
        if abs(op.trace - trace) > 1e-12 * max(1.0, trace):
            raise NumericalBreakdown("sampled density trace off target")
    return ops


def random_state(n: int, rank: int, rng: RngStream | np.random.Generator) -> QuantumState:
    """Random trace-1 density operator of prescribed rank."""
    if not 1 <= rank <= n:
        raise InvalidRank(f"rank {rank} outside [1, {n}]")
    gen = generator_of(rng)
    return QuantumState(_wishart_entries(n, rank, 1.0, gen))


def zero_density(n: int) -> DensityOperator:
    return DensityOperator(np.zeros((n, n), dtype=np.complex128))


def basis_projection(n: int, k: int) -> QuantumState:
    """Projection onto the k-th computational basis vector."""
    vec = np.zeros(n, dtype=np.complex128)
    vec[k] = 1.0
    return PureState(vec).as_projection()
