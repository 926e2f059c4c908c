"""Shared JSON file format tests."""

import json

import numpy as np
import pytest

from qsm.errors import NotPositiveSemidefinite
from qsm.serialize import (
    canonical_dumps,
    density_from_json,
    hermitian_from_json,
    load_density,
    matrix_to_json,
    save_json,
    unitary_from_json,
)
from qsm.states import RngStream, random_density, random_unitary


def test_matrix_roundtrip_bitwise():
    op = random_density(3, 2, 1.3, RngStream(1))
    obj = matrix_to_json(op)
    assert obj["dim"] == 3
    back = density_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(back.entries, op.entries)


def test_hermitian_loader_validates_symmetry():
    obj = {"dim": 2, "entries": [[[1.0, 0.0], [0.5, 0.0]], [[0.2, 0.0], [1.0, 0.0]]]}
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_from_json(obj)


def test_hermitian_loader_symmetrizes_within_tolerance():
    obj = {
        "dim": 2,
        "entries": [[[1.0, 0.0], [0.5, 1e-13]], [[0.5, 1e-13], [1.0, 0.0]]],
    }
    op = hermitian_from_json(obj)
    assert np.array_equal(op.entries, op.entries.conj().T)


def test_density_loader_rejects_negative():
    obj = matrix_to_json(np.diag([1.0, -0.5]).astype(complex))
    with pytest.raises(NotPositiveSemidefinite):
        density_from_json(obj)


def test_shape_validation():
    with pytest.raises(ValueError):
        hermitian_from_json({"dim": 2, "entries": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError):
        hermitian_from_json({"dim": 0, "entries": []})
    with pytest.raises(ValueError):
        hermitian_from_json({"entries": []})


def test_unitary_roundtrip_skips_symmetry_check():
    u = random_unitary(3, RngStream(2))
    back = unitary_from_json(matrix_to_json(u))
    assert np.array_equal(back, u)


def test_file_io_and_canonical_text(tmp_path):
    op = random_density(2, 2, 1.0, RngStream(3))
    path = tmp_path / "density.json"
    save_json(path, matrix_to_json(op))
    assert np.array_equal(load_density(path).entries, op.entries)
    text = path.read_text()
    assert text == canonical_dumps(matrix_to_json(op))
    assert text.endswith("\n")
