"""Dense complex Hermitian linear algebra: the operator type, trace norms and
the PSD clamp.

Everything here is a pure function of immutable values; matrices are small
(dimension capped elsewhere), so dense storage and full eigendecompositions
are used throughout.
"""

from __future__ import annotations

import numpy as np

NONFINITE_MESSAGE = "matrix entries must be finite (no NaN/Inf)"


def _as_complex_squares(entries, ndim: int = 2) -> np.ndarray:
    """A square matrix (ndim 2) or a ``(k, n, n)`` stack of them (ndim 3) as
    a complex array, not necessarily a copy; only the shape is checked."""
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.ndim != ndim or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _finite_prefix(arr: np.ndarray) -> int:
    """How many leading matrices of a ``(k, n, n)`` stack are all finite."""
    if np.isfinite(arr).all():
        return len(arr)
    return int(np.argmin(np.isfinite(arr).all(axis=(1, 2))))


def _symmetrized(arr: np.ndarray) -> np.ndarray:
    """(A + A*)/2 of a matrix, or of each matrix of a stack."""
    return (arr + arr.conj().swapaxes(-1, -2)) / 2.0


class HermitianOperator:
    """Immutable dense n-by-n complex Hermitian matrix.

    Construction symmetrizes via (A + A*)/2, so at most one triangle of the
    input is authoritative.  Entries must be finite.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = _as_complex_squares(entries)
        if not _finite_prefix(arr[None]):
            raise ValueError(NONFINITE_MESSAGE)
        arr = _symmetrized(arr)
        arr.setflags(write=False)
        self.entries = arr

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


def trace_norm_entries(arr: np.ndarray):
    """Trace norms of a Hermitian matrix or a ``(..., n, n)`` stack of them.

    A stack costs one batched ``eigvalsh``; each matrix's norm is summed
    exactly as for that matrix alone, so results agree bit for bit.
    """
    return np.sum(np.abs(np.linalg.eigvalsh(arr)), axis=-1)


def _spectral_rebuild(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """V diag(lam) V* of one matrix, or of each matrix of a stack, from
    eigenvalues ``(..., n)`` and eigenvectors ``(..., n, n)``; callers pass
    the eigenvalues already mapped (clamped, square-rooted)."""
    return (vec * lam[..., None, :]) @ vec.conj().swapaxes(-1, -2)


def psd_clamp_entries(arr: np.ndarray) -> np.ndarray:
    """Clamp negative eigenvalues to zero in a Hermitian matrix, or in each
    matrix of a ``(k, n, n)`` stack with one batched ``eigh``.

    The trace is not renormalized; it grows by exactly the clamped mass.
    Matrices that are already PSD come back unchanged; the input is copied
    before the others are replaced.
    """
    stack = arr.reshape(-1, *arr.shape[-2:])
    lam, vec = np.linalg.eigh(stack)
    low = np.flatnonzero(lam[:, 0] < 0.0)
    if not low.size:
        return arr
    out = stack.copy()
    out[low] = _spectral_rebuild(np.maximum(lam[low], 0.0), vec[low])
    return out.reshape(arr.shape)
