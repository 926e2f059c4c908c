"""The numerical floors at the dimension cap (n = 48 and 64): the
constructor's PSD clamp, the Bures radicand floor, and the scale of the
orthogonality test.  Fixed seeds keep each case to a few decompositions."""

import numpy as np
import pytest

from qsm.errors import NotPositiveSemidefinite
from qsm.maps import apply_map, unitary_conjugation
from qsm.metrics import ORTHOGONALITY_TOL, are_orthogonal, bures_distance, norm_identity_gaps
from qsm.states import DensityOperator, RngStream, _orthogonal_pairs, random_density, random_unitary

CAP_DIMS = [48, 64]


def _with_spectrum(lam, gen):
    v = random_unitary(len(lam), gen)
    return (v * lam) @ v.conj().T


@pytest.mark.parametrize("n", CAP_DIMS)
def test_psd_clamp_at_cap(n):
    gen = RngStream(500, n).generator()
    r = n // 3
    lam = np.concatenate([gen.uniform(0.5, 1.5, r), -1e-14 * gen.uniform(0.0, 1.0, n - r)])
    entries = _with_spectrum(lam, gen)
    assert np.linalg.eigvalsh(entries)[0] < 0.0
    op = DensityOperator(entries)
    assert op.spectrum()[0][0, 0] == 0.0
    assert op.rank() == r
    lam[r] = -1e-6
    with pytest.raises(NotPositiveSemidefinite):
        DensityOperator(_with_spectrum(lam, gen))


@pytest.mark.parametrize("n", CAP_DIMS)
def test_bures_radicand_floor_at_cap(n):
    gen = RngStream(501, n).generator()
    a = random_density(n, n // 4, 1.3, gen)
    conjugate = apply_map(unitary_conjugation(random_unitary(n, gen)), a)
    assert bures_distance(a, a) == 0.0
    assert bures_distance(conjugate, conjugate) == 0.0


@pytest.mark.parametrize("n", CAP_DIMS)
def test_orthogonality_scale_at_cap(n):
    gen = RngStream(502, n).generator()
    pair = _orthogonal_pairs(n, gen, [1.7], [0.6])
    (x,), (y,) = map(DensityOperator.from_stack, pair)
    assert are_orthogonal(x, y)
    assert norm_identity_gaps(*pair)[0] <= ORTHOGONALITY_TOL * (1.0 + x.trace * y.trace)
    b = random_density(n, n, 1.0, gen)
    overlapping = DensityOperator((x.entries + b.entries) / 2.0)
    assert not are_orthogonal(x, overlapping)
    gap = norm_identity_gaps(x.entries[None], overlapping.entries[None])[0]
    assert gap > ORTHOGONALITY_TOL * (1.0 + x.trace * overlapping.trace)
