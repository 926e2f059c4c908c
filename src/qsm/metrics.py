"""Fidelity, Bures distance, trace-norm distance, and orthogonality.

The fidelity tr((A^{1/2} B A^{1/2})^{1/2}) is evaluated as the trace norm of
A^{1/2} B^{1/2} (the same quantity): singular values of the product carry a
linear O(eps) error on null modes, whereas eigendecomposing the sandwich and
square-rooting amplifies null-mode noise to O(sqrt(eps)), which is too coarse
for the 1e-8 isometry-deviation checks downstream.

``distances`` and ``orthogonality`` evaluate whole lists of pairs with
batched decompositions.  The per-pair functions are their k = 1 case (a list
of one pair), so each metric has one code path and each batched value is bit
for bit the per-pair one.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown
from .linalg import HermitianOperator, _spectral_rebuild, trace_norm_entries
from .states import DensityOperator

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


def _fidelities(xs, ys) -> np.ndarray:
    """fidelity of each pair (xs[i], ys[i]), batched."""
    lam_x, lam_y = _stacks(xs, ys, "eigenvalues")
    vec_x, vec_y = _stacks(xs, ys, "eigenvectors")
    return _product_trace_norm_entries(_sqrt_entries(lam_x, vec_x), _sqrt_entries(lam_y, vec_y))


def _bures_entries(tr_a, tr_b, fid, n: int):
    """Bures distances from traces and fidelities (scalars or arrays); the
    first radicand below the clamp window raises."""
    radicand = tr_a + tr_b - 2.0 * fid
    low = np.flatnonzero(radicand < -1e-9 * (tr_a + tr_b + 1.0))
    if low.size:
        raise NumericalBreakdown(
            f"Bures radicand {np.ravel(radicand)[low[0]]:.3e} below the -1e-9 clamp window"
        )
    return np.sqrt(np.where(radicand < _RADICAND_FLOOR * n * (1.0 + tr_a + tr_b), 0.0, radicand))


def _orthogonality_threshold(tr_x, tr_y, tol: float):
    return tol * (1.0 + tr_x * tr_y)


def fidelity(a: DensityOperator, b: DensityOperator) -> float:
    """Uhlmann fidelity of two PSD operators (not squared, not normalized)."""
    return float(_fidelities([a], [b])[0])


def bures_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Bures metric (tr A + tr B - 2 F(A,B))^{1/2} on the density cone."""
    return float(_bures_entries(a.trace, b.trace, fidelity(a, b), a.dim))


def trace_distance(a: HermitianOperator, b: HermitianOperator) -> float:
    """Trace-norm distance: sum of absolute eigenvalues of A - B."""
    return float(distances(MetricKind.TRACE_NORM, [a], [b])[0])


def product_trace_norm(a: HermitianOperator, b: HermitianOperator) -> float:
    """Trace norm of the (generally non-Hermitian) product AB."""
    return float(_product_trace_norm_entries(*_stacks([a], [b], "entries"))[0])


def are_orthogonal(
    x: DensityOperator, y: DensityOperator, tol: float = ORTHOGONALITY_TOL
) -> bool:
    """XY = 0, tested as ||XY||_1 <= tol * (1 + ||X||_1 ||Y||_1).

    For PSD operators the trace norm equals the trace, so the scale factor
    uses traces directly.
    """
    return bool(orthogonality([x], [y], tol)[1][0])


def _stacks(xs, ys, attr: str) -> tuple[np.ndarray, np.ndarray]:
    """One attribute of two equally long operator lists of one dimension,
    stacked."""
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} operators paired with {len(ys)}")
    dims = {op.dim for op in xs} | {op.dim for op in ys}
    if len(dims) > 1:
        raise DimensionMismatch(f"operator dims {sorted(dims)} differ")
    return (np.array([getattr(op, attr) for op in xs]),
            np.array([getattr(op, attr) for op in ys]))


def _traces(ops) -> np.ndarray:
    return np.array([op.trace for op in ops])


def orthogonality(xs, ys, tol: float = ORTHOGONALITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """product_trace_norm of each pair (xs[i], ys[i]) and whether
    are_orthogonal holds for it, batched."""
    norms = _product_trace_norm_entries(*_stacks(xs, ys, "entries"))
    return norms, norms <= _orthogonality_threshold(_traces(xs), _traces(ys), tol)


def distances(kind: MetricKind, xs, ys) -> np.ndarray:
    """distance(kind, xs[i], ys[i]) for each pair, batched; distance is its
    k = 1 case."""
    if kind is MetricKind.BURES:
        return _bures_entries(_traces(xs), _traces(ys), _fidelities(xs, ys), xs[0].dim)
    if kind is MetricKind.TRACE_NORM:
        x, y = _stacks(xs, ys, "entries")
        return trace_norm_entries(x - y)
    raise ValueError(f"unknown metric kind {kind!r}")


def norm_identity_gap(x: DensityOperator, y: DensityOperator) -> float:
    """| ||X-Y||_1 - ||X+Y||_1 |, the metric side of the orthogonality test.

    Exposed separately from are_orthogonal so both sides of the equivalence
    (XY = 0 iff the two norms agree) can be checked against each other.
    """
    x_e, y_e = _stacks([x], [y], "entries")
    diff, total = trace_norm_entries(np.concatenate([x_e - y_e, x_e + y_e]))
    return abs(float(diff) - float(total))


def distance(kind: MetricKind, a: DensityOperator, b: DensityOperator) -> float:
    return float(distances(kind, [a], [b])[0])
