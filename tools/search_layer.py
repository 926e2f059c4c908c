"""Time the uniqueness search per proposal and count its rounds and kernels.

Usage:
    python3 tools/search_layer.py [SRC_DIR]

SRC_DIR is the directory that holds the ``qsm`` package to run (default: the
``src`` directory of this checkout), so two checkouts compare by running the
script on each.

For each n = 2..6 the script builds one pinch configuration from
``RngStream(1, n)`` (a random state of random rank and its pinch, as
``lemma3`` draws them) and runs ``intersection_uniqueness_search`` on it at
budget 10000 with a fresh ``RngStream(2, n)`` generator, so every run of a
dimension is the same search.  It prints one line per dimension::

    n rounds feasible us_per_proposal eigvalsh <calls> <matrices> eigh <calls> <matrices>

``rounds`` is the number of blocks the search evaluated: it draws one normal
stack per block, so it is the count of ``standard_normal`` calls on its
generator.  ``feasible`` is the number of proposals that landed in both
balls, ``proposals - rejections`` of the search's result, so it shows how
much of the budget found a point beside what a proposal cost.
``us_per_proposal`` is the minimum wall time of 5 runs, after one warm-up
run, divided by the budget: every run is the same search, so the fastest is
the one least slowed by other work on the host (on a shared host the median
of one tree moved by more than half between back-to-back runs).  The
kernel columns count the ``np.linalg.eigvalsh`` and ``np.linalg.eigh`` calls
of one further run and the matrices they were handed (a ``(k, n, n)`` stack
counts k).  The timed runs are not counted, so the counting wrappers add
nothing to their time.
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
DIMS = range(2, 7)
REPEATS = 5
KERNELS = ("eigvalsh", "eigh")


class RoundCounter(np.random.Generator):
    """A generator that counts its standard_normal calls, one per block of
    the search."""

    rounds = 0

    def standard_normal(self, *args, **kwargs):
        self.rounds += 1
        return super().standard_normal(*args, **kwargs)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    if len(argv) > 1 or not (src / "qsm" / "__init__.py").is_file():
        print(f"no qsm package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    from qsm.geometry import intersection_uniqueness_search, pinch_configuration
    from qsm.states import RngStream, random_state

    print("n rounds feasible us_per_proposal eigvalsh calls matrices eigh calls matrices")
    for n in DIMS:
        gen = RngStream(1, n).generator()
        center = random_state(n, int(gen.integers(1, n + 1)), gen)
        pinch = pinch_configuration(center, gen)

        def search():
            counter = RoundCounter(RngStream(2, n).generator().bit_generator)
            result = intersection_uniqueness_search(
                pinch.upper, pinch.lower, center, pinch.epsilon, counter, BUDGET
            )
            return counter.rounds, result.proposals - result.rejections

        search()
        walls = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            rounds, feasible = search()
            walls.append(time.perf_counter() - start)
        counts = {kernel: [0, 0] for kernel in KERNELS}
        originals = {kernel: getattr(np.linalg, kernel) for kernel in KERNELS}

        def counted(kernel):
            def counting(a, *args, **kwargs):
                counts[kernel][0] += 1
                counts[kernel][1] += math.prod(np.shape(a)[:-2])
                return originals[kernel](a, *args, **kwargs)

            return counting

        for kernel in KERNELS:
            setattr(np.linalg, kernel, counted(kernel))
        try:
            search()
        finally:
            for kernel, fn in originals.items():
                setattr(np.linalg, kernel, fn)
        us = min(walls) / BUDGET * 1e6
        print(n, rounds, feasible, f"{us:.2f}",
              *(f"{kernel} {calls} {matrices}" for kernel, (calls, matrices) in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
