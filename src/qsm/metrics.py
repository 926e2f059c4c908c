"""Fidelity, Bures distance, trace-norm distance, and orthogonality.

The fidelity tr((A^{1/2} B A^{1/2})^{1/2}) is evaluated as the trace norm of
A^{1/2} B^{1/2} (the same quantity): singular values of the product carry a
linear O(eps) error on null modes, whereas eigendecomposing the sandwich and
square-rooting amplifies null-mode noise to O(sqrt(eps)), which is too coarse
for the 1e-8 isometry-deviation checks downstream.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown
from .linalg import HermitianOperator, trace_norm_entries
from .states import DensityOperator

#: default relative tolerance for orthogonality of PSD operators.
ORTHOGONALITY_TOL = 1e-8

#: relative noise floor for the Bures radicand; values this close to zero are
#: indistinguishable from exact coincidence at working precision.
_RADICAND_FLOOR = 1e-14


class MetricKind(Enum):
    BURES = "bures"
    TRACE_NORM = "trace-norm"


def _check_dims(a: HermitianOperator, b: HermitianOperator) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"operator dims {a.dim} and {b.dim} differ")


def _sqrt_entries(op: DensityOperator) -> np.ndarray:
    lam = op.eigenvalues
    # null modes of a rank-deficient operator carry O(n*eps) eigenvalue noise
    # (more after a conjugation's matmuls); square-rooting would amplify it
    # to O(sqrt(eps)), so they are zeroed at the numerical-rank floor first.
    floor = 64.0 * op.dim * np.finfo(np.float64).eps * max(float(lam[-1]), 0.0)
    lam = np.sqrt(np.where(lam > floor, lam, 0.0))
    v = op.eigenvectors
    return (v * lam) @ v.conj().T


def fidelity(a: DensityOperator, b: DensityOperator) -> float:
    """Uhlmann fidelity of two PSD operators (not squared, not normalized)."""
    _check_dims(a, b)
    product = _sqrt_entries(a) @ _sqrt_entries(b)
    return float(np.sum(np.linalg.svd(product, compute_uv=False)))


def bures_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Bures metric (tr A + tr B - 2 F(A,B))^{1/2} on the density cone."""
    _check_dims(a, b)
    tr_a, tr_b = a.trace, b.trace
    radicand = tr_a + tr_b - 2.0 * fidelity(a, b)
    if radicand < -1e-9 * (tr_a + tr_b + 1.0):
        raise NumericalBreakdown(
            f"Bures radicand {radicand:.3e} below the -1e-9 clamp window"
        )
    if radicand < _RADICAND_FLOOR * a.dim * (1.0 + tr_a + tr_b):
        radicand = 0.0
    return float(np.sqrt(radicand))


def trace_distance(a: HermitianOperator, b: HermitianOperator) -> float:
    """Trace-norm distance: sum of absolute eigenvalues of A - B."""
    _check_dims(a, b)
    return float(trace_norm_entries(a.entries - b.entries))


def product_trace_norm(a: HermitianOperator, b: HermitianOperator) -> float:
    """Trace norm of the (generally non-Hermitian) product AB."""
    _check_dims(a, b)
    return float(np.sum(np.linalg.svd(a.entries @ b.entries, compute_uv=False)))


def are_orthogonal(
    x: DensityOperator, y: DensityOperator, tol: float = ORTHOGONALITY_TOL
) -> bool:
    """XY = 0, tested as ||XY||_1 <= tol * (1 + ||X||_1 ||Y||_1).

    For PSD operators the trace norm equals the trace, so the scale factor
    uses traces directly.
    """
    threshold = tol * (1.0 + x.trace * y.trace)
    return product_trace_norm(x, y) <= threshold


def norm_identity_gap(x: DensityOperator, y: DensityOperator) -> float:
    """| ||X-Y||_1 - ||X+Y||_1 |, the metric side of the orthogonality test.

    Exposed separately from are_orthogonal so both sides of the equivalence
    (XY = 0 iff the two norms agree) can be checked against each other.
    """
    _check_dims(x, y)
    diff = float(trace_norm_entries(x.entries - y.entries))
    total = float(trace_norm_entries(x.entries + y.entries))
    return abs(diff - total)


def additivity_gap(x: DensityOperator, y: DensityOperator) -> float:
    """d1(X,0) + d1(Y,0) - d1(X,Y); zero exactly when X and Y are orthogonal."""
    _check_dims(x, y)
    return x.trace + y.trace - trace_distance(x, y)


def distance(kind: MetricKind, a: DensityOperator, b: DensityOperator) -> float:
    if kind is MetricKind.BURES:
        return bures_distance(a, b)
    if kind is MetricKind.TRACE_NORM:
        return trace_distance(a, b)
    raise ValueError(f"unknown metric kind {kind!r}")
