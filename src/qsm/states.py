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
from .linalg import HermitianOperator, trace_norm_entries

#: relative floor for "numerically PSD": eigenvalues above -PSD_TOL*(1+trace)
#: are clamped to zero, anything lower is rejected.
PSD_TOL = 1e-9

#: largest admitted Hilbert-space dimension unless overridden by the caller.
DEFAULT_DIM_CAP = 64


class DensityOperator(HermitianOperator):
    """Positive semidefinite Hermitian operator (finite, not trace-normalized).

    Construction eigendecomposes once: eigenvalues within -1e-9*(1+trace) of
    zero are clamped to exactly zero, more negative ones raise
    NotPositiveSemidefinite.  The spectrum is cached for downstream use.
    """

    __slots__ = ("_eigenvalues", "_eigenvectors")

    def __init__(self, entries):
        super().__init__(entries)
        lam, vec = np.linalg.eigh(self.entries)
        tr = float(np.trace(self.entries).real)
        tol = PSD_TOL * (1.0 + tr)
        if lam[0] < -tol:
            raise NotPositiveSemidefinite(
                f"density operator has eigenvalue {lam[0]:.3e} < -{tol:.3e}",
                eigenvalue=float(lam[0]),
            )
        if lam[0] < 0.0:
            lam = np.maximum(lam, 0.0)
            ent = (vec * lam) @ vec.conj().T
            ent = (ent + ent.conj().T) / 2.0
            ent.setflags(write=False)
            self.entries = ent
        lam.setflags(write=False)
        vec.setflags(write=False)
        self._eigenvalues = lam
        self._eigenvectors = vec

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenvectors

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def rank(self, tol: float = 1e-10) -> int:
        """Number of eigenvalues above tol*(1+trace)."""
        return int(np.count_nonzero(self._eigenvalues > tol * (1.0 + self.trace)))


class QuantumState(DensityOperator):
    """Density operator with trace 1 (within 1e-10)."""

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        tr = self.trace
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"quantum state must have trace 1, got {tr!r}")


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
    defect = float(trace_norm_entries(q @ q.conj().T - np.eye(n)))
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
    out = DensityOperator(_wishart_entries(n, rank, trace_target, gen))
    realized = int(np.count_nonzero(out.eigenvalues > 1e-10 * trace_target))
    if realized != rank:
        raise NumericalBreakdown(
            f"sampled density has numerical rank {realized}, wanted {rank}"
        )
    if abs(out.trace - trace_target) > 1e-12 * max(1.0, trace_target):
        raise NumericalBreakdown("sampled density trace off target")
    return out


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
