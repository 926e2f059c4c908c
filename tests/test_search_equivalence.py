"""The blocked uniqueness search against the one-proposal-at-a-time loop it
replaced: same best candidate, separation, ball violation, counters and
generator state, bit for bit."""

import numpy as np
import pytest

from qsm.geometry import _BLOCK_ENTRIES, intersection_uniqueness_search, pinch_configuration
from qsm.states import DensityOperator, RngStream, random_state, random_unitary, zero_density


def _serial_psd_clamp_entries(arr):
    lam, vec = np.linalg.eigh(arr)
    if lam[0] >= 0.0:
        return arr
    return (vec * np.maximum(lam, 0.0)) @ vec.conj().T


def serial_search(upper, lower, center, epsilon, gen, budget, slack=None):
    """Reference oracle: the serial search loop and the single-matrix clamp
    it called, kept verbatim apart from returning the loop's counters."""
    n = center.dim
    x_e, y_e, a_e = upper.entries, lower.entries, center.entries
    if slack is None:
        slack = max(
            1e-12 * epsilon,
            64.0 * n * np.finfo(np.float64).eps * (1.0 + upper.trace + lower.trace),
        )
    mid = 0.5 * (x_e + y_e)

    def dist(p, q):
        return float(np.sum(np.abs(np.linalg.eigvalsh(p - q))))

    def ball_excess(z):
        return max(dist(x_e, z), dist(y_e, z)) - epsilon

    best = a_e
    best_sep = 0.0
    best_excess = ball_excess(a_e)
    scale = 0.1 * epsilon
    rejections = 0
    for _ in range(int(budget)):
        if gen.uniform() < 0.2:
            t = float(gen.uniform())
            candidate = (1.0 - t) * a_e + t * mid
        else:
            g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            candidate = _serial_psd_clamp_entries(a_e + scale * (g + g.conj().T) / 2.0)
        excess = ball_excess(candidate)
        if excess > slack:
            rejections += 1
            if rejections % 100 == 0:
                scale *= 0.9
            continue
        sep = dist(candidate, a_e)
        if sep > best_sep:
            best, best_sep, best_excess = candidate, sep, excess
    return DensityOperator(best), best_sep, max(0.0, best_excess), rejections, scale


def _pinch(dim, seed):
    gen = RngStream(seed).generator()
    center = random_state(dim, int(gen.integers(1, dim + 1)), gen)
    pinch = pinch_configuration(center, gen)
    return pinch.upper, pinch.lower, center, pinch.epsilon


def _zero_center_control(dim, seed):
    """Two orthogonal rank-one densities of trace eps around the zero center
    (for dim 1, eps against 0)."""
    gen = RngStream(seed).generator()
    eps = float(gen.uniform(0.5, 1.5))
    v = random_unitary(dim, gen)
    x = DensityOperator(eps * np.outer(v[:, 0], v[:, 0].conj()))
    y = DensityOperator(eps * np.outer(v[:, 1], v[:, 1].conj())) if dim >= 2 else zero_density(1)
    return x, y, zero_density(dim), eps


def _assert_matches_serial(dim, config, budget):
    upper, lower, center, eps = config(dim, 100 + dim)
    serial_gen = RngStream(7, dim).generator()
    blocked_gen = RngStream(7, dim).generator()
    best, sep, violation, rejections, scale = serial_search(
        upper, lower, center, eps, serial_gen, budget
    )
    result = intersection_uniqueness_search(upper, lower, center, eps, blocked_gen, budget)
    assert result.separation_from_center == sep
    assert result.max_ball_violation == violation
    assert np.array_equal(result.best_candidate.entries, best.entries)
    assert result.proposals == budget
    assert result.rejections == rejections
    assert result.final_scale == scale
    assert blocked_gen.bit_generator.state == serial_gen.bit_generator.state
    assert blocked_gen.uniform() == serial_gen.uniform()


@pytest.mark.parametrize("budget", [1, 99, 100, 101, 2000])
@pytest.mark.parametrize("config", [_pinch, _zero_center_control])
@pytest.mark.parametrize("dim", range(1, 9))
def test_blocked_search_matches_serial_loop(dim, config, budget):
    _assert_matches_serial(dim, config, budget)


@pytest.mark.parametrize("config", [_pinch, _zero_center_control])
@pytest.mark.parametrize("dim", [12, 16])
def test_entry_capped_blocks_match_serial_loop(dim, config):
    """Above n = 8 the entry cap makes blocks shorter than 100 proposals."""
    assert _BLOCK_ENTRIES // dim**2 < 100
    _assert_matches_serial(dim, config, 300)
