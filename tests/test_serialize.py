"""Shared JSON file format tests."""

import json

import numpy as np
import pytest

from qsm.errors import NotPositiveSemidefinite
from qsm.serialize import (
    canonical_dumps,
    density_from_json,
    load_density,
    matrix_from_json,
    matrix_to_json,
)
from qsm.states import RngStream, random_density, random_unitary


def test_matrix_roundtrip_bitwise():
    op = random_density(3, 2, 1.3, RngStream(1))
    obj = matrix_to_json(op.entries)
    assert obj["dim"] == 3
    back = density_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(back.entries, op.entries)


def test_hermitian_loader_validates_symmetry():
    obj = {"dim": 2, "entries": [[[1.0, 0.0], [0.5, 0.0]], [[0.2, 0.0], [1.0, 0.0]]]}
    with pytest.raises(ValueError, match="not Hermitian"):
        density_from_json(obj)


def test_hermitian_loader_symmetrizes_within_tolerance():
    obj = {
        "dim": 2,
        "entries": [[[1.0, 0.0], [0.5, 1e-13]], [[0.5, 1e-13], [1.0, 0.0]]],
    }
    op = density_from_json(obj)
    assert np.array_equal(op.entries, op.entries.conj().T)


def test_density_loader_rejects_negative():
    obj = matrix_to_json(np.diag([1.0, -0.5]).astype(complex))
    with pytest.raises(NotPositiveSemidefinite):
        density_from_json(obj)


def test_shape_validation():
    for load in (density_from_json, matrix_from_json):
        with pytest.raises(ValueError):
            load({"dim": 2, "entries": [[[1.0, 0.0]]]})
        with pytest.raises(ValueError):
            load({"dim": 0, "entries": []})
        with pytest.raises(ValueError):
            load({"entries": []})


def test_unitary_roundtrip_skips_symmetry_check():
    u = random_unitary(3, RngStream(2))
    back = matrix_from_json(matrix_to_json(u))
    assert np.array_equal(back, u)


def test_file_io_and_canonical_text(tmp_path):
    op = random_density(2, 2, 1.0, RngStream(3))
    text = canonical_dumps(matrix_to_json(op.entries))
    assert text.endswith("}\n")
    path = tmp_path / "density.json"
    path.write_text(text, encoding="utf-8")
    assert np.array_equal(load_density(path).entries, op.entries)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_canonical_text_is_strict_json(value):
    # RFC 8259 has no NaN or Infinity; a report carrying one is refused
    with pytest.raises(ValueError):
        canonical_dumps({"residual": value})
