"""Dense complex Hermitian linear algebra: shape and finiteness checks,
symmetrization, trace norms and their certified maximum, spectral rebuilds,
and the block sizes of the sample loops.

Everything here is a pure function of immutable values; matrices are small
(dimension capped elsewhere), so dense storage and full eigendecompositions
are used throughout.
"""

from __future__ import annotations

import numpy as np

NONFINITE_MESSAGE = "matrix entries must be finite (no NaN/Inf)"

#: cap on the matrix entries of one stacked operand in the sample loops
#: (``_blocks``): a block holds as many samples as fit, at least one (one
#: at n = 64).  Against 800, it cut the kernel calls of the roundtrip-small
#: benchmark 5x and its wall time by a third, for 2.4% more peak memory.
#: Block sizes fix the draw order: a new cap moves report bytes, not
#: verdicts.
_BLOCK_ENTRIES = 6400


def _blocks(total: int, n: int, per_sample: int):
    """Sample counts of the consecutive blocks that cover ``total`` samples
    when each sample stacks ``per_sample`` n x n operators."""
    size = max(1, _BLOCK_ENTRIES // (per_sample * n * n))
    for start in range(0, total, size):
        yield min(size, total - start)


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


def trace_norm_entries(arr: np.ndarray):
    """Trace norms of a Hermitian matrix or a ``(..., n, n)`` stack of them.

    A stack costs one batched ``eigvalsh``; each matrix's norm is summed
    exactly as for that matrix alone, so results agree bit for bit.
    """
    return np.sum(np.abs(np.linalg.eigvalsh(arr)), axis=-1)


def _max_trace_norm(stack: np.ndarray, floor: float) -> float:
    """max(floor, largest trace norm of a ``(k, n, n)`` stack), bit for bit
    that of ``trace_norm_entries``, decomposing only the matrices that can
    exceed ``floor``.

    ``eigvalsh`` reads the Hermitian H made of a matrix's lower triangle and
    the real part of its diagonal, which for a computed U U* - 1 is not the
    matrix itself.  Cauchy-Schwarz on the spectrum gives ||H||_1 <= sqrt(n)
    ||H||_F.  The computed eigenvalues are those of H + E with ||E||_2 =
    O(n * eps * ||H||_2), so the computed sum of their moduli, and the
    rounded Frobenius norm, are within O(n^2 * eps * ||H||_F) of exact;
    the margin 16 n^2 eps covers both.  A matrix is skipped only when
    sqrt(n) ||H||_F (1 + margin) is at most ``floor`` (a NaN bound is
    kept), so a skipped matrix cannot exceed it: an exactly zero difference
    at floor 0 is not decomposed either.
    """
    n = stack.shape[-1]
    diag = stack.diagonal(axis1=1, axis2=2).real
    lower = np.tril(stack, -1).reshape(len(stack), -1)
    fro = np.sqrt(np.sum(diag * diag, axis=1) + 2.0 * np.sum((lower * lower.conj()).real, axis=1))
    bound = np.sqrt(n) * fro * (1.0 + 16.0 * n * n * np.finfo(np.float64).eps)
    open_ = ~(bound <= floor)
    if not open_.any():
        return floor
    return max(floor, float(trace_norm_entries(stack[open_]).max()))


def _spectral_rebuild(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """V diag(lam) V* of one matrix, or of each matrix of a stack, from
    eigenvalues ``(..., n)`` and eigenvectors ``(..., n, n)``; callers pass
    the eigenvalues already mapped (square-rooted, for a square root)."""
    return (vec * lam[..., None, :]) @ vec.conj().swapaxes(-1, -2)
