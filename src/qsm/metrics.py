"""Fidelity, Bures distance, trace-norm distance, and orthogonality.

The fidelity tr((A^{1/2} B A^{1/2})^{1/2}) is evaluated as the trace norm of
A^{1/2} B^{1/2} (the same quantity): singular values of the product carry a
linear O(eps) error on null modes, whereas eigendecomposing the sandwich and
square-rooting amplifies null-mode noise to O(sqrt(eps)), which is too coarse
for the 1e-8 isometry-deviation checks downstream.

``distances``, ``orthogonality`` and ``norm_identity_gaps`` evaluate the
pairs of rows of two equally long entry stacks (qsm.states) with batched
decompositions; ``orthogonality`` returns the mask of the orthogonal pairs.
The per-pair functions take two operators and are their k = 1 case (two
one-matrix stacks), so each metric has one code path and each batched value
is bit for bit the per-pair one.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown
from .linalg import _spectral_rebuild, trace_norm_entries
from .states import DensityOperator, _spectra, _traces

#: default relative tolerance for orthogonality of PSD operators.
ORTHOGONALITY_TOL = 1e-8

#: relative noise floor for the Bures radicand; values this close to zero are
#: indistinguishable from exact coincidence at working precision.
_RADICAND_FLOOR = 1e-14


class MetricKind(Enum):
    BURES = "bures"
    TRACE_NORM = "trace-norm"


def _sqrt_entries(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix, or of each matrix of a stack, from its
    eigenvalues ``(..., n)`` and eigenvectors ``(..., n, n)``."""
    # null modes of a rank-deficient operator carry O(n*eps) eigenvalue noise
    # (more after a conjugation's matmuls); square-rooting would amplify it
    # to O(sqrt(eps)), so they are zeroed at the numerical-rank floor first.
    floor = 64.0 * lam.shape[-1] * np.finfo(np.float64).eps * np.maximum(lam[..., -1:], 0.0)
    root = np.sqrt(np.where(lam > floor, lam, 0.0))
    return _spectral_rebuild(root, vec)


def _product_trace_norm_entries(a: np.ndarray, b: np.ndarray):
    """Trace norm of AB, or of each product of two stacks: the sum of its
    singular values."""
    return np.sum(np.linalg.svd(a @ b, compute_uv=False), axis=-1)


def _fidelities(
    x: np.ndarray, y: np.ndarray, pairs=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """fidelity of each pair of rows of two entry stacks, paired as
    ``distances`` pairs them, and the clamped eigenvalues of both sides of
    each pair, from one ``eigh`` of both stacks."""
    lam, vec = _spectra(np.concatenate([x, y]))
    root = _sqrt_entries(lam, vec)
    k = len(x)
    i, j = (slice(None, k), slice(k, None)) if pairs is None else pairs
    return _product_trace_norm_entries(root[i], root[j]), lam[i], lam[j]


def _bures_entries(lam_a, lam_b, fid, n: int):
    """Bures distances from the clamped spectra ``(..., n)`` of both sides and
    their fidelities; the first radicand below the clamp window raises."""
    # the traces come from the same clamped spectra the fidelity reads: an
    # accepted operator may keep an eigenvalue down to -PSD_TOL*(1+trace) in
    # its entries, and tr A + tr A - 2 F(A, A) would then read that twice.
    tr_a, tr_b = lam_a.sum(axis=-1), lam_b.sum(axis=-1)
    radicand = tr_a + tr_b - 2.0 * fid
    low = np.flatnonzero(radicand < -1e-9 * (tr_a + tr_b + 1.0))
    if low.size:
        raise NumericalBreakdown(
            f"Bures radicand {np.ravel(radicand)[low[0]]:.3e} below the -1e-9 clamp window"
        )
    return np.sqrt(np.where(radicand < _RADICAND_FLOOR * n * (1.0 + tr_a + tr_b), 0.0, radicand))


def _orthogonality_threshold(tr_x, tr_y, tol: float):
    return tol * (1.0 + tr_x * tr_y)


def _same_dim(x: np.ndarray, y: np.ndarray) -> None:
    """Raise DimensionMismatch unless two stacks hold matrices of one
    dimension."""
    if x.shape[-1] != y.shape[-1]:
        raise DimensionMismatch(f"operator dims {sorted({x.shape[-1], y.shape[-1]})} differ")


def _pair(a: DensityOperator, b: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """The entries of two operators of one dimension as two one-matrix
    stacks."""
    x, y = a.entries[None], b.entries[None]
    _same_dim(x, y)
    return x, y


def fidelity(a: DensityOperator, b: DensityOperator) -> float:
    """Uhlmann fidelity of two PSD operators (not squared, not normalized)."""
    return float(_fidelities(*_pair(a, b))[0][0])


def bures_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Bures metric (tr A + tr B - 2 F(A,B))^{1/2} on the density cone."""
    return distance(MetricKind.BURES, a, b)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Trace-norm distance: sum of absolute eigenvalues of A - B."""
    return float(distances(MetricKind.TRACE_NORM, *_pair(a, b))[0])


def are_orthogonal(
    x: DensityOperator, y: DensityOperator, tol: float = ORTHOGONALITY_TOL
) -> bool:
    """XY = 0, tested as ||XY||_1 <= tol * (1 + ||X||_1 ||Y||_1).

    For PSD operators the trace norm equals the trace, so the scale factor
    uses traces directly.
    """
    return bool(orthogonality(*_pair(x, y), tol)[0])


def _bures_and_fidelities(
    x: np.ndarray, y: np.ndarray, pairs=None
) -> tuple[np.ndarray, np.ndarray]:
    """Bures distance and fidelity of each pair of rows of two entry stacks,
    paired as ``distances`` pairs them, both from one decomposition of the
    spectra."""
    fid, lam_x, lam_y = _fidelities(x, y, pairs)
    return _bures_entries(lam_x, lam_y, fid, x.shape[-1]), fid


def orthogonality(x: np.ndarray, y: np.ndarray, tol: float = ORTHOGONALITY_TOL) -> np.ndarray:
    """The mask of the pairs of rows of two entry stacks for which
    are_orthogonal holds, batched."""
    _same_dim(x, y)
    norms = _product_trace_norm_entries(x, y)
    return norms <= _orthogonality_threshold(_traces(x), _traces(y), tol)


def distances(kind: MetricKind, x: np.ndarray, y: np.ndarray, pairs=None) -> np.ndarray:
    """distance(kind, ...) of each pair of rows of two entry stacks, batched;
    distance is its k = 1 case.  Row m of x is paired with row m of y, or,
    with ``pairs`` = (i, j), two index arrays into the rows of x followed by
    those of y, row i[m] with row j[m]: the Bures distance then decomposes
    each row once, however many pairs read it."""
    _same_dim(x, y)
    if kind is MetricKind.BURES:
        return _bures_and_fidelities(x, y, pairs)[0]
    if kind is MetricKind.TRACE_NORM:
        if pairs is not None:
            rows = np.concatenate([x, y])
            x, y = rows[pairs[0]], rows[pairs[1]]
        return trace_norm_entries(x - y)
    raise ValueError(f"unknown metric kind {kind!r}")


def norm_identity_gaps(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """| ||X-Y||_1 - ||X+Y||_1 | of each pair of rows of two entry stacks,
    the metric side of the orthogonality test (XY = 0 iff the two norms
    agree), batched: the trace norms of all differences and all sums are one
    stack."""
    _same_dim(x, y)
    diff, total = np.split(trace_norm_entries(np.concatenate([x - y, x + y])), 2)
    return np.abs(diff - total)


def distance(kind: MetricKind, a: DensityOperator, b: DensityOperator) -> float:
    return float(distances(kind, *_pair(a, b))[0])
