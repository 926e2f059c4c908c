"""Shared JSON file formats for matrices and density operators.

Matrix literal format (repo-wide):
    { "dim": n, "entries": [[[re, im], ...], ...] }
with full n x n entries.  The Hermitian loader validates symmetry to 1e-12
absolute, then symmetrizes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .linalg import HermitianOperator
from .states import DensityOperator

HERMITIAN_SYMMETRY_TOL = 1e-12


def complex_matrix_to_lists(arr: np.ndarray) -> list:
    out = []
    for row in np.asarray(arr, dtype=np.complex128):
        out.append([[float(z.real), float(z.imag)] for z in row])
    return out


def complex_matrix_from_lists(rows, dim: int) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.shape != (dim, dim, 2):
        raise ValueError(f"entries must be {dim}x{dim} [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_to_json(op: HermitianOperator | np.ndarray) -> dict:
    arr = op.entries if isinstance(op, HermitianOperator) else np.asarray(op)
    return {"dim": int(arr.shape[0]), "entries": complex_matrix_to_lists(arr)}


def _decode_dim(value) -> int:
    """A JSON "dim": an integer >= 1 (a bool or a float is rejected)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"dim must be an integer >= 1, got {value!r}")
    return value


def _decode_matrix_obj(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON must be an object with 'dim' and 'entries'")
    return complex_matrix_from_lists(obj["entries"], _decode_dim(obj["dim"]))


def hermitian_from_json(obj: dict) -> HermitianOperator:
    arr = _decode_matrix_obj(obj)
    defect = float(np.max(np.abs(arr - arr.conj().T)))
    if defect > HERMITIAN_SYMMETRY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A*| = {defect:.3e} > {HERMITIAN_SYMMETRY_TOL:.0e}"
        )
    return HermitianOperator(arr)


def density_from_json(obj: dict) -> DensityOperator:
    return DensityOperator(hermitian_from_json(obj).entries)


def unitary_from_json(obj: dict) -> np.ndarray:
    """Decode a (generally non-Hermitian) complex matrix; no symmetry check."""
    return _decode_matrix_obj(obj)


def load_density(path: str | Path) -> DensityOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return density_from_json(json.load(fh))


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_json(path: str | Path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")
