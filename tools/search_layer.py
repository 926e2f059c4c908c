"""Time the two-sided tube probe of lemma3 per configuration and count its
points and kernels.

Usage:
    python3 tools/search_layer.py [SRC_DIR]

SRC_DIR is the directory that holds the ``qsm`` package to run (default: the
``src`` directory of this checkout), so two checkouts compare by running the
script on each.

For each n = 1..8, 16, 32, 48 and 64 the script builds one pinch
configuration from ``RngStream(1, n)`` (a random state of random rank and
its pinch, as ``lemma3`` draws them) and runs
``intersection_uniqueness_search`` on it at budget 10000, so every coupling
direction is probed, at the default slack s.  It prints one line per
dimension::

    n points inner_feasible outer_rejected inner_excess/s outer_excess/s
        tube_reached us_per_config eigvalsh <calls> <matrices>

``points`` counts the inner and outer points; ``inner_feasible`` the inner
points that passed the construction check and lie within s of both balls,
out of half of points less one, and ``outer_rejected`` the outer points
outside a ball by more than s.  ``inner_excess/s`` is the largest ball
excess of an inner point (``-`` at n = 1, which has none) and
``outer_excess/s`` the smallest of an outer point, both in units of s: the
probe holds when the first is at most 1 and the second above it.
``tube_reached`` is the separation of the farthest accepted point over
sqrt(2 eps s).  ``us_per_config`` is the minimum wall time of 5 runs, after
one warm-up run: every run is the same probe, so the fastest is the one
least slowed by other work on the host.  The kernel columns count the
``np.linalg.eigvalsh`` calls of one further run and the matrices they were
handed (a ``(k, n, n)`` stack counts k).  The timed runs are not counted,
so the counting wrapper adds nothing to their time.
Run it with ``OPENBLAS_NUM_THREADS=1``, as the benchmark does, to compare
two checkouts on one core.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np

BUDGET = 10000
DIMS = (*range(1, 9), 16, 32, 48, 64)
REPEATS = 5


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    if len(argv) > 1 or not (src / "qsm" / "__init__.py").is_file():
        print(f"no qsm package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    from qsm.geometry import _roundoff_slack, intersection_uniqueness_search, pinch_configuration
    from qsm.states import RngStream, random_state

    print("n points inner_feasible outer_rejected inner_excess/s outer_excess/s tube_reached"
          " us_per_config eigvalsh calls matrices")
    for n in DIMS:
        gen = RngStream(1, n).generator()
        center = random_state(n, int(gen.integers(1, n + 1)), gen)
        pinch = pinch_configuration(center, gen)
        slack = _roundoff_slack(pinch.upper, pinch.lower, pinch.epsilon)

        def probe():
            return intersection_uniqueness_search(
                pinch.upper, pinch.lower, center, pinch.epsilon, BUDGET
            )

        probe()
        walls = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = probe()
            walls.append(time.perf_counter() - start)
        counts = [0, 0]
        original = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            counts[0] += 1
            counts[1] += math.prod(np.shape(a)[:-2])
            return original(a, *args, **kwargs)

        np.linalg.eigvalsh = counting
        try:
            probe()
        finally:
            np.linalg.eigvalsh = original
        inner = f"{result.inner_excess / slack:.3f}" if result.inner_points else "-"
        print(n, result.inner_points + result.outer_points, result.inner_feasible,
              result.outer_rejected, inner, f"{result.outer_excess / slack:.3g}",
              f"{result.tube_reached:.3f}", f"{min(walls) * 1e6:.1f}",
              "eigvalsh", *counts)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
