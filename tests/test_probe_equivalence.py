"""The batched tube probe against a one-point-at-a-time evaluation of the
same points: same counts, excesses, separation and tube reach, bit for bit.

The reference builds each probe point from the formulas of
``intersection_uniqueness_search``'s docstring, one coupling direction at a
time, runs the construction check on each inner point alone and takes the
three trace norms of each point with its own ``eigvalsh``.  It so holds the
probe's stacking (X - Z, Y - Z and Z - A in one call), its split of the stack
into inner and outer points and its masks to the plain loop.  Pinch
configurations around a center of random rank, of rank one (every coupling
needs the PSD correction) and of full rank are the three configurations."""

import numpy as np
import pytest

from qsm.errors import NotPositiveSemidefinite
from qsm.geometry import (
    _INNER_FRACTIONS,
    IntersectionSearchResult,
    _roundoff_slack,
    intersection_uniqueness_search,
    pinch_configuration,
)
from qsm.linalg import _symmetrized
from qsm.states import DensityOperator, RngStream, random_state


def serial_probe(upper, lower, center, epsilon, budget, slack=None):
    """Reference oracle: the probe's points, built and measured one by one."""
    if slack is None:
        slack = _roundoff_slack(upper, lower, epsilon)
    a_e, x_e, y_e = center.entries, upper.entries, lower.entries
    (lam,), (vec,) = center.spectrum()
    n = len(lam)
    pinched = [np.vdot(vec[:, j], (x_e - y_e) @ vec[:, j]).real for j in range(n)]
    k = int(np.argmax(pinched))
    v, lam_v = vec[:, k], lam[k]
    order = sorted(range(n), key=lambda j: -lam[j])
    others = [j for j in order if j != k][:budget]
    vv = np.outer(v, v.conj())

    bound = 2.0 * slack + np.sqrt(6.0 * epsilon * slack)
    reach = 0.5 * np.sqrt(2.0 * epsilon * slack + slack * slack)
    inner, outer = [], []
    for c in _INNER_FRACTIONS:
        t = c * reach
        for j in others:
            u, mu = vec[:, j], lam[j]
            uu = np.outer(u, u.conj())
            vu = np.outer(v, u.conj())
            over = max(t * t - lam_v * mu, 0.0)
            a = 2.0 * over / ((lam_v - mu) + np.sqrt((lam_v + mu) ** 2 - 4.0 * t * t))
            inner.append(t * (vu + vu.conj().T) + a * (uu - vv))
    for j in others:
        vu = np.outer(v, vec[:, j].conj())
        outer.append(bound * (vu + vu.conj().T))
    for j in others:
        outer.append(2.0 * bound * np.outer(vec[:, j], vec[:, j].conj()))
    outer += [2.0 * bound * vv, 2.0 * bound * -vv]

    def norm(m):
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))

    def measured(d):
        z = _symmetrized(a_e + d)
        return z, max(norm(x_e - z), norm(y_e - z)) - epsilon, norm(z - a_e)

    constructed = True
    separation = 0.0
    inner_excess, feasible = -np.inf, 0
    for d in inner:
        z, excess, sep = measured(d)
        try:
            DensityOperator._validated(z[None])
        except (ValueError, NotPositiveSemidefinite):
            constructed = False
        inner_excess = max(inner_excess, excess)
        if excess <= slack:
            feasible += 1
            separation = max(separation, sep)
    if not constructed:
        feasible, separation = 0, 0.0
    outer_excess, rejected = np.inf, 0
    for d in outer:
        _, excess, sep = measured(d)
        outer_excess = min(outer_excess, excess)
        if excess > slack:
            rejected += 1
        else:
            separation = max(separation, sep)
    return IntersectionSearchResult(
        separation_from_center=separation,
        inner_excess=float(inner_excess),
        outer_excess=float(outer_excess),
        inner_points=len(inner),
        inner_feasible=feasible,
        outer_points=len(outer),
        outer_rejected=rejected,
        tube_bound=float(bound),
        tube_reached=separation / float(np.sqrt(2.0 * epsilon * slack)),
    )


def _pinch_of_rank(rank):
    """A pinch configuration around a random state of the given rank (a
    random one when rank is None, as lemma3 draws it; n when rank is 'full')."""

    def config(dim, seed):
        gen = RngStream(seed).generator()
        if rank is None:
            r = int(gen.integers(1, dim + 1))
        else:
            r = dim if rank == "full" else rank
        center = random_state(dim, r, gen)
        pinch = pinch_configuration(center, gen)
        return pinch.upper, pinch.lower, center, pinch.epsilon

    config.__name__ = f"_pinch_rank_{rank}"
    return config


_random_rank = _pinch_of_rank(None)
_rank_one = _pinch_of_rank(1)
_full_rank = _pinch_of_rank("full")


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
    reference = serial_probe(upper, lower, center, eps, budget, slack)
    result = intersection_uniqueness_search(upper, lower, center, eps, budget, slack)
    assert result == reference
    assert result.inner_points == 2 * min(budget, dim - 1)
    assert result.outer_points == 2 * min(budget, dim - 1) + 2


@pytest.mark.parametrize("budget", [1, 2, 100])
@pytest.mark.parametrize("config", [_random_rank, _rank_one, _full_rank])
@pytest.mark.parametrize("dim", range(1, 9))
def test_batched_probe_matches_serial_loop(dim, config, budget):
    _assert_matches_serial(dim, config, budget)


@pytest.mark.parametrize("config", [_random_rank, _rank_one, _full_rank])
@pytest.mark.parametrize("dim", [12, 16, 32, 48, 64])
def test_large_dims_match_serial_loop(dim, config):
    """Every coupling direction at the sizes of ``--dims 32..64``."""
    _assert_matches_serial(dim, config, dim)


@pytest.mark.parametrize("slack_factor", [1e-12, 1e-6, 1e-3])
@pytest.mark.parametrize("config", [_random_rank, _rank_one])
@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_user_slack_matches_serial_loop(dim, config, slack_factor):
    """A slack set by the user (``--tol slack=``, in units of epsilon here)
    moves the tube width, the inner reach and the ball tests together."""
    _assert_matches_serial(dim, config, 100, slack_factor)


@pytest.mark.parametrize("factor", [1e-3, 1e3])
@pytest.mark.parametrize("config", [_random_rank, _rank_one])
@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_scaled_configurations_match_serial_loop(dim, config, factor):
    """The default slack is relative to 1 + tr x + tr y: small traces
    exercise its constant term, large ones its relative term."""
    _assert_matches_serial(dim, _scaled(config, factor), 100)
