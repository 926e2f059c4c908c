"""Dense complex Hermitian linear algebra: the operator type, trace norms and
the PSD clamp.

Everything here is a pure function of immutable values; matrices are small
(dimension capped elsewhere), so dense storage and full eigendecompositions
are used throughout.
"""

from __future__ import annotations

import numpy as np


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

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


def trace_norm_entries(arr: np.ndarray):
    """Trace norms of a Hermitian matrix or a ``(..., n, n)`` stack of them.

    A stack costs one batched ``eigvalsh``; each matrix's norm is summed
    exactly as for that matrix alone, so results agree bit for bit.
    """
    return np.sum(np.abs(np.linalg.eigvalsh(arr)), axis=-1)


def psd_clamp_entries(arr: np.ndarray) -> np.ndarray:
    """Clamp negative eigenvalues to zero in a Hermitian matrix, or in each
    matrix of a ``(k, n, n)`` stack with one batched ``eigh``.

    The trace is not renormalized; it grows by exactly the clamped mass.
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
