"""Test-session set-up: one BLAS thread, set before numpy is first imported,
so the suite's wall time does not depend on what else shares the cores.  An
environment that already sets a thread count keeps it."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
