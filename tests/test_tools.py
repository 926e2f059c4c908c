"""Smoke tests of the measurement tools under tools/: each runs as a
subprocess on this checkout's package or benchmark records and prints the
lines its usage describes."""

import json
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


def test_bench_chain_multiplies_the_records_of_each_workload(tmp_path):
    """Two records of one workload chain to the product of their wall_s
    median ratios; an A/A record of it is skipped."""

    def record(label, workload, parent, change):
        wall = {"parent": {"median": parent}, "change": {"median": change}}
        path = tmp_path / f"BENCH_{label}.json"
        path.write_text(json.dumps({"label": label, "workload": workload,
                                    "metrics": {"wall_s": wall}}))

    record("pr9-w", "w", 2.0, 1.0)
    record("pr10-w", "w", 1.0, 0.8)
    record("pr10-aa-w", "w", 1.0, 3.0)
    record("pr10-v", "v", 1.0, 1.2)
    header, *rows = _lines("bench_chain.py", str(tmp_path))
    assert header.split() == ["workload", "records", "index", "first..last"]
    assert [row.split() for row in rows] == [
        ["v", "1", "1.200", "pr10-v..pr10-v"],
        ["w", "2", "0.400", "pr9-w..pr10-w"],
    ]


def test_bench_chain_reads_the_committed_records():
    header, *rows = _lines("bench_chain.py")
    assert {row.split()[0] for row in rows} == {"lemma3-search", "roundtrip-small", "large-n"}
    assert all(float(row.split()[2]) > 0.0 for row in rows)
