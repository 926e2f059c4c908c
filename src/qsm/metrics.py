"""Fidelity, Bures distance, trace-norm distance, and orthogonality.

The fidelity tr((A^{1/2} B A^{1/2})^{1/2}) is evaluated as the trace norm of
A^{1/2} B^{1/2} (the same quantity): singular values of the product carry a
linear O(eps) error on null modes, whereas eigendecomposing the sandwich and
square-rooting amplifies null-mode noise to O(sqrt(eps)), which is too coarse
for the 1e-8 isometry-deviation checks downstream.

``distances``, ``orthogonality`` and ``norm_identity_gaps`` evaluate whole
lists of pairs with batched decompositions.  The per-pair functions are
their k = 1 case (a list of one pair), so each metric has one code path and
each batched value is bit for bit the per-pair one.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import NumericalBreakdown
from .linalg import _spectral_rebuild, trace_norm_entries
from . import states
from .states import DensityOperator, _stacked

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


def _fidelities(lam_x, vec_x, lam_y, vec_y) -> np.ndarray:
    """fidelity of each pair of two stacked spectra (``_spectra``), batched."""
    return _product_trace_norm_entries(_sqrt_entries(lam_x, vec_x), _sqrt_entries(lam_y, vec_y))


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


def fidelity(a: DensityOperator, b: DensityOperator) -> float:
    """Uhlmann fidelity of two PSD operators (not squared, not normalized)."""
    return float(_fidelities(*_spectra([a], [b]))[0])


def bures_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Bures metric (tr A + tr B - 2 F(A,B))^{1/2} on the density cone."""
    return distance(MetricKind.BURES, a, b)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Trace-norm distance: sum of absolute eigenvalues of A - B."""
    return float(distances(MetricKind.TRACE_NORM, [a], [b])[0])


def product_trace_norm(a: DensityOperator, b: DensityOperator) -> float:
    """Trace norm of the (generally non-Hermitian) product AB."""
    return float(_product_trace_norm_entries(*_stacks([a], [b]))[0])


def are_orthogonal(
    x: DensityOperator, y: DensityOperator, tol: float = ORTHOGONALITY_TOL
) -> bool:
    """XY = 0, tested as ||XY||_1 <= tol * (1 + ||X||_1 ||Y||_1).

    For PSD operators the trace norm equals the trace, so the scale factor
    uses traces directly.
    """
    return bool(orthogonality([x], [y], tol)[1][0])


def _halves(xs, ys, both: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``both``, one per operator of [*xs, *ys], as the views of
    xs and of ys; the two lists must be equally long."""
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} operators paired with {len(ys)}")
    return both[:len(xs)], both[len(xs):]


def _stacks(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """The entries of two equally long operator lists of one dimension, as
    two views of one stack (``_stacked`` checks the dimension)."""
    return _halves(xs, ys, _stacked([*xs, *ys]))


def _spectra(xs, ys) -> tuple[np.ndarray, ...]:
    """``lam_x, vec_x, lam_y, vec_y``: the spectra of two lists, decomposed
    as one stack (``states._spectra``: an operator on both sides is
    decomposed once)."""
    lam, vec = states._spectra([*xs, *ys])
    (lam_x, lam_y), (vec_x, vec_y) = _halves(xs, ys, lam), _halves(xs, ys, vec)
    return lam_x, vec_x, lam_y, vec_y


def _bures_and_fidelities(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Bures distance and fidelity of each pair (xs[i], ys[i]), both from one
    decomposition of the spectra."""
    lam_x, vec_x, lam_y, vec_y = _spectra(xs, ys)
    fid = _fidelities(lam_x, vec_x, lam_y, vec_y)
    return _bures_entries(lam_x, lam_y, fid, lam_x.shape[-1]), fid


def orthogonality(xs, ys, tol: float = ORTHOGONALITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """product_trace_norm of each pair (xs[i], ys[i]) and whether
    are_orthogonal holds for it, batched."""
    norms = _product_trace_norm_entries(*_stacks(xs, ys))
    return norms, norms <= _orthogonality_threshold(_stacked(xs, "trace"), _stacked(ys, "trace"), tol)


def distances(kind: MetricKind, xs, ys) -> np.ndarray:
    """distance(kind, xs[i], ys[i]) for each pair, batched; distance is its
    k = 1 case."""
    if kind is MetricKind.BURES:
        return _bures_and_fidelities(xs, ys)[0]
    if kind is MetricKind.TRACE_NORM:
        x, y = _stacks(xs, ys)
        return trace_norm_entries(x - y)
    raise ValueError(f"unknown metric kind {kind!r}")


def norm_identity_gap(x: DensityOperator, y: DensityOperator) -> float:
    """| ||X-Y||_1 - ||X+Y||_1 |, the metric side of the orthogonality test.

    Exposed separately from are_orthogonal so both sides of the equivalence
    (XY = 0 iff the two norms agree) can be checked against each other.
    """
    return float(norm_identity_gaps([x], [y])[0])


def norm_identity_gaps(xs, ys) -> np.ndarray:
    """norm_identity_gap of each pair (xs[i], ys[i]), batched: the trace
    norms of all differences and all sums are one stack."""
    x, y = _stacks(xs, ys)
    diff, total = np.split(trace_norm_entries(np.concatenate([x - y, x + y])), 2)
    return np.abs(diff - total)


def distance(kind: MetricKind, a: DensityOperator, b: DensityOperator) -> float:
    return float(distances(kind, [a], [b])[0])
