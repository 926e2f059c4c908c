"""The blocked uniqueness search against a one-proposal-at-a-time evaluation
of the same draws: same separation, ball violation, counters and generator
state, bit for bit.  The reference clamps every perturbation and takes both
trace norms of each, so it also holds the search's trace bounds and early
rejection to the full evaluation.  Pinch configurations
and zero-center controls (two orthogonal rank-one densities around 0) are
the two configurations."""

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
    """Reference oracle: each block is drawn as the library draws it (block
    sizes, one normal stack), then its perturbations are clamped and
    evaluated one at a time with the single-matrix clamp, all at the block's
    scale.  After the block the scale shrinks by 0.9 once if the block's
    rejections reached the next multiple of 100."""
    n = center.dim
    x_e, y_e, a_e = upper.entries, lower.entries, center.entries
    if slack is None:
        slack = max(
            1e-12 * epsilon,
            64.0 * n * np.finfo(np.float64).eps * (1.0 + upper.trace + lower.trace),
        )

    def dist(p, q):
        return float(np.sum(np.abs(np.linalg.eigvalsh(p - q))))

    def ball_excess(z):
        return max(dist(x_e, z), dist(y_e, z)) - epsilon

    best_sep = 0.0
    best_excess = ball_excess(a_e)
    scale = 0.1 * epsilon
    rejections = 0
    left = int(budget)
    cap = max(1, min(100, _BLOCK_ENTRIES // (n * n)))
    while left:
        k = min(left, cap)
        left -= k
        rejected_before = rejections
        for g_re, g_im in gen.standard_normal((k, 2, n, n)):
            g = g_re + 1j * g_im
            candidate = _serial_psd_clamp_entries(a_e + scale * (g + g.conj().T) / 2.0)
            excess = ball_excess(candidate)
            if excess > slack:
                rejections += 1
                continue
            sep = dist(candidate, a_e)
            if sep > best_sep:
                best_sep, best_excess = sep, excess
        if rejections // 100 > rejected_before // 100:
            scale *= 0.9
    return best_sep, max(0.0, best_excess), rejections, scale


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


def _scaled(config, factor):
    """A configuration with every operator and the radius times factor: the
    pinch center then has trace factor."""

    def scaled(dim, seed):
        upper, lower, center, eps = config(dim, seed)
        return (*(DensityOperator(factor * op.entries) for op in (upper, lower, center)),
                factor * eps)

    return scaled


def _assert_matches_serial(dim, config, budget, slack_factor=None):
    upper, lower, center, eps = config(dim, 100 + dim)
    slack = None if slack_factor is None else slack_factor * eps
    serial_gen = RngStream(7, dim).generator()
    blocked_gen = RngStream(7, dim).generator()
    sep, violation, rejections, scale = serial_search(
        upper, lower, center, eps, serial_gen, budget, slack
    )
    result = intersection_uniqueness_search(
        upper, lower, center, eps, blocked_gen, budget, slack
    )
    assert result.separation_from_center == sep
    assert result.max_ball_violation == violation
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
@pytest.mark.parametrize("dim", [12, 16, 32])
def test_entry_capped_blocks_match_serial_loop(dim, config):
    """Above n = 8 the entry cap makes blocks shorter than 100 proposals."""
    assert _BLOCK_ENTRIES // dim**2 < 100
    _assert_matches_serial(dim, config, 300)


@pytest.mark.parametrize("slack_factor", [1e-9, 1e-3])
@pytest.mark.parametrize("config", [_pinch, _zero_center_control])
@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_user_slack_matches_serial_loop(dim, config, slack_factor):
    """A slack set by the user (``--tol slack=``, in units of epsilon here)
    moves the trace bounds of the search along with its ball tests."""
    _assert_matches_serial(dim, config, 2000, slack_factor)


@pytest.mark.parametrize("factor", [1e-3, 1e3])
@pytest.mark.parametrize("config", [_pinch, _zero_center_control])
@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_scaled_configurations_match_serial_loop(dim, config, factor):
    """The trace-bound margin is relative to 1 + tr x + tr y: small traces
    exercise its constant term, large ones its relative term."""
    _assert_matches_serial(dim, _scaled(config, factor), 2000)
