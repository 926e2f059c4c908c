"""Run qsm requests and count the numpy.linalg kernels they call.

Usage:
    python3 tools/kernel_counts.py [SRC_DIR] -- <qsm args> [-- <qsm args> ...]

for example ``python3 tools/kernel_counts.py -- verify thm-bures-D --dims 4
--samples 200 --seed 0 -- verify thm-trace-S --dims 5 --samples 200 --seed
0``.  SRC_DIR is the directory that holds the ``qsm`` package to run
(default: the ``src`` directory of this checkout), so two checkouts compare
with a ``diff`` of two outputs.

Each request runs in-process through ``qsm.cli.main``, as in
``report_set.py``, with its report captured, one after the other in one
process.  A request's first line is that script's line for it: ``sha256
verdict exit-code args``.  Then comes one line per kernel, ``kernel calls
matrices``, for ``eigh``, ``eigvalsh``, ``svd``, ``qr`` and ``cholesky``:
how often qsm called ``np.linalg.<kernel>`` in that request and how many
matrices those calls were handed (a ``(k, n, n)`` stack counts k, a single
matrix 1).  The last line, ``total kernel calls matrices ...``, sums each
kernel over all requests.  qsm looks its kernels up on ``np.linalg`` at call
time, so counting wrappers put there see every call.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

import numpy as np

from report_set import run

KERNELS = ("eigh", "eigvalsh", "svd", "qr", "cholesky")


def counted(kernel: str, counts: dict[str, list[int]]):
    """np.linalg.<kernel>, adding each call and its matrices to counts."""
    fn = getattr(np.linalg, kernel)

    def counting(a, *args, **kwargs):
        counts[kernel][0] += 1
        counts[kernel][1] += math.prod(np.shape(a)[:-2])
        return fn(a, *args, **kwargs)

    return counting


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cuts = [i for i, arg in enumerate(argv) if arg == "--"]
    head = argv[:cuts[0]]
    requests = [argv[a + 1:b] for a, b in zip(cuts, cuts[1:] + [len(argv)])]
    src = Path(head[0]) if head else Path(__file__).resolve().parent.parent / "src"
    if len(head) > 1 or not (src / "qsm" / "__init__.py").is_file():
        print(f"no qsm package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    os.environ.pop("QSM_DIM_CAP", None)
    from qsm.cli import main as cli

    counts = {kernel: [0, 0] for kernel in KERNELS}
    totals = {kernel: [0, 0] for kernel in KERNELS}
    originals = {kernel: getattr(np.linalg, kernel) for kernel in KERNELS}
    for kernel in KERNELS:
        setattr(np.linalg, kernel, counted(kernel, counts))
    try:
        for args in requests:
            line = run(cli.main, args)
            print(*line, " ".join(args))
            for kernel, pair in counts.items():
                print(kernel, *pair)
                totals[kernel] = [t + c for t, c in zip(totals[kernel], pair)]
                pair[:] = [0, 0]
    finally:
        for kernel, fn in originals.items():
            setattr(np.linalg, kernel, fn)
    print("total", *(f"{kernel} {calls} {matrices}" for kernel, (calls, matrices) in totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
