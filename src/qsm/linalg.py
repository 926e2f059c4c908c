"""Dense complex Hermitian linear algebra: eigendecomposition, matrix square
root, absolute value, positive/negative parts, traces and trace norms.

Everything here is a pure function of immutable values; matrices are small
(dimension capped elsewhere), so dense storage and full eigendecompositions
are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import EigenDecompositionError, NotPositiveSemidefinite


def _as_complex_square(entries) -> np.ndarray:
    arr = np.array(entries, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return arr


class HermitianOperator:
    """Immutable dense n-by-n complex Hermitian matrix.

    Construction symmetrizes via (A + A*)/2, so at most one triangle of the
    input is authoritative.  Entries must be finite.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = _as_complex_square(entries)
        arr = (arr + arr.conj().T) / 2.0
        arr.setflags(write=False)
        self.entries = arr

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self.entries + other.entries)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self.entries - other.entries)

    def __neg__(self) -> "HermitianOperator":
        return HermitianOperator(-self.entries)

    def __mul__(self, scalar) -> "HermitianOperator":
        if not isinstance(scalar, Real):
            raise TypeError("only real scalars keep an operator Hermitian")
        return HermitianOperator(self.entries * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (real, ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return V diag(lambda) V* as a raw array."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def eigenprojection(self, k: int) -> np.ndarray:
        """Rank-one projection onto the k-th eigenvector."""
        v = self.eigenvectors[:, k]
        return np.outer(v, v.conj())

    def orthonormality_defect(self) -> float:
        v = self.eigenvectors
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))


def hermitian_eig(op: HermitianOperator) -> Spectrum:
    """Full eigendecomposition of a Hermitian operator.

    Raises EigenDecompositionError if the underlying solver fails to
    converge; the error carries a residual diagnostic.
    """
    try:
        lam, vec = np.linalg.eigh(op.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(
            f"eigendecomposition failed for dim {op.dim}: {exc}"
        ) from exc
    return Spectrum(lam, vec)


def trace(op: HermitianOperator) -> float:
    """Sum of the (real) diagonal entries."""
    return float(np.trace(op.entries).real)


def trace_norm(op: HermitianOperator) -> float:
    """Trace norm of a Hermitian operator: sum of absolute eigenvalues."""
    return float(trace_norm_entries(op.entries))


def trace_norm_entries(arr: np.ndarray):
    """Trace norms of a Hermitian matrix or a ``(..., n, n)`` stack of them.

    A stack costs one batched ``eigvalsh``; each matrix's norm is summed
    exactly as for that matrix alone, so results agree bit for bit.
    """
    return np.sum(np.abs(np.linalg.eigvalsh(arr)), axis=-1)


def psd_clamp(op: HermitianOperator) -> HermitianOperator:
    """Project onto the PSD cone by clamping negative eigenvalues to zero.

    The trace is not renormalized; it grows by exactly the clamped mass.
    """
    return HermitianOperator(psd_clamp_entries(op.entries))


def psd_clamp_entries(arr: np.ndarray) -> np.ndarray:
    """Clamp negative eigenvalues to zero in a Hermitian matrix, or in each
    matrix of a ``(k, n, n)`` stack with one batched ``eigh``.

    Matrices that are already PSD come back unchanged; a stack is copied
    before the others are replaced.
    """
    lam, vec = np.linalg.eigh(arr)
    if arr.ndim == 2:
        if lam[0] >= 0.0:
            return arr
        return (vec * np.maximum(lam, 0.0)) @ vec.conj().T
    low = np.flatnonzero(lam[:, 0] < 0.0)
    if not low.size:
        return arr
    v = vec[low]
    out = arr.copy()
    out[low] = (v * np.maximum(lam[low], 0.0)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return out


def matrix_sqrt(op: HermitianOperator, tol: float | None = None) -> HermitianOperator:
    """PSD square root via eigendecomposition.

    Eigenvalues in [-tol, 0) are clamped to 0; anything below -tol raises
    NotPositiveSemidefinite.  Default tol is 1e-9 * (1 + ||A||_1).
    """
    spec = hermitian_eig(op)
    lam = spec.eigenvalues
    if tol is None:
        tol = 1e-9 * (1.0 + float(np.sum(np.abs(lam))))
    if lam[0] < -tol:
        raise NotPositiveSemidefinite(
            f"matrix_sqrt: eigenvalue {lam[0]:.3e} below -{tol:.3e}",
            eigenvalue=float(lam[0]),
        )
    root = np.sqrt(np.maximum(lam, 0.0))
    v = spec.eigenvectors
    return HermitianOperator((v * root) @ v.conj().T)


def abs_op(op: HermitianOperator) -> HermitianOperator:
    """Absolute value |T| = V diag(|lambda|) V*."""
    spec = hermitian_eig(op)
    v = spec.eigenvectors
    return HermitianOperator((v * np.abs(spec.eigenvalues)) @ v.conj().T)


def pos_neg_parts(op: HermitianOperator) -> tuple[HermitianOperator, HermitianOperator]:
    """Positive and negative parts ((|T|+T)/2, (|T|-T)/2).

    Both are PSD up to roundoff, their difference reproduces T to machine
    precision, and their product has trace norm O(eps * ||T||_1^2).
    """
    magnitude = abs_op(op).entries
    plus = HermitianOperator((magnitude + op.entries) / 2.0)
    minus = HermitianOperator((magnitude - op.entries) / 2.0)
    return plus, minus
