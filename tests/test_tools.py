"""Smoke tests of the measurement tools under tools/: each runs as a
subprocess on this checkout's package and prints the lines its usage
describes."""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_KERNELS = ("eigh", "eigvalsh", "svd", "qr", "cholesky")


def _lines(tool, *args):
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / tool), *args],
        cwd=_ROOT, capture_output=True, text=True, check=False, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_code_lines_sum_to_the_total():
    *modules, total = (line.split() for line in _lines("code_lines.py", "src"))
    assert total[1] == "total"
    assert {name for _, name in modules} == {p.name for p in (_ROOT / "src" / "qsm").glob("*.py")}
    assert sum(int(count) for count, _ in modules) == int(total[0])


def test_kernel_counts_prints_each_kernel_and_the_total():
    head, *kernels, total = _lines(
        "kernel_counts.py", "--", "verify", "lemma1", "--dims", "2", "--samples", "4"
    )
    assert head.endswith("verify lemma1 --dims 2 --samples 4")
    assert [line.split()[0] for line in kernels] == list(_KERNELS)
    assert all(len(line.split()) == 3 for line in kernels)
    # one request: the total line repeats its kernel lines
    assert total.split() == ["total"] + [word for line in kernels for word in line.split()]


def test_search_layer_prints_one_line_per_dimension():
    header, *rows = _lines("search_layer.py")
    assert header.split()[:4] == ["n", "rounds", "feasible", "us_per_proposal"]
    assert [int(row.split()[0]) for row in rows] == [2, 3, 4, 5, 6]
    assert all(int(row.split()[1]) == 100 for row in rows)
