"""Shared JSON file formats for matrices and density operators.

Matrix literal format (repo-wide):
    { "dim": n, "entries": [[[re, im], ...], ...] }
with full n x n entries.  matrix_from_json decodes any complex matrix; the
density loader also validates Hermitian symmetry to 1e-12 absolute, then
builds a DensityOperator, which symmetrizes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .states import DensityOperator

HERMITIAN_SYMMETRY_TOL = 1e-12


def matrix_to_json(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.complex128)
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in arr]
    return {"dim": int(arr.shape[0]), "entries": entries}


def _decode_dim(value) -> int:
    """A JSON "dim": an integer >= 1 (a bool or a float is rejected)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"dim must be an integer >= 1, got {value!r}")
    return value


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode a (generally non-Hermitian) complex matrix; no symmetry check."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON must be an object with 'dim' and 'entries'")
    dim = _decode_dim(obj["dim"])
    arr = np.asarray(obj["entries"], dtype=np.float64)
    if arr.shape != (dim, dim, 2):
        raise ValueError(f"entries must be {dim}x{dim} [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def density_from_json(obj: dict) -> DensityOperator:
    arr = matrix_from_json(obj)
    defect = float(np.max(np.abs(arr - arr.conj().T)))
    if defect > HERMITIAN_SYMMETRY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A*| = {defect:.3e} > {HERMITIAN_SYMMETRY_TOL:.0e}"
        )
    return DensityOperator(arr)


def load_density(path: str | Path) -> DensityOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return density_from_json(json.load(fh))


def canonical_dumps(obj) -> str:
    """Deterministic strict JSON text: sorted keys, fixed layout, trailing
    newline.  A NaN or an infinity raises ValueError; RFC 8259 has no
    spelling for them."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
