"""Smoke tests of the measurement tools under tools/: each runs as a
subprocess on this checkout's package or benchmark records and prints the
lines its usage describes.  The functions of tools/report_set.py, on which
every same-bytes claim rests, are also called directly."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    """Each probe holds: every inner point feasible and every outer point
    rejected, one eigvalsh call on three matrices a point."""
    header, *rows = _lines("search_layer.py")
    assert header.split()[:4] == ["n", "points", "inner_feasible", "outer_rejected"]
    rows = [row.split() for row in rows]
    assert [int(row[0]) for row in rows] == [*range(1, 9), 16, 32, 48, 64]
    for n, points, inner, outer, *_, calls, matrices in rows:
        assert int(points) == 4 * (int(n) - 1) + 2
        assert (int(inner), int(outer)) == (2 * (int(n) - 1), 2 * int(n))
        assert (int(calls), int(matrices)) == (1, 3 * int(points))


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


@pytest.fixture(scope="module")
def report_set():
    spec = importlib.util.spec_from_file_location("report_set", _ROOT / "tools" / "report_set.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_set_runs_85_distinct_reports(report_set, tmp_path):
    runs = report_set.report_args(report_set.write_inputs(tmp_path))
    assert len(runs) == 85
    assert len({tuple(args) for args in runs}) == 85


def test_verdict_digest_drops_floats_only(report_set):
    digest = report_set.verdict_digest
    report = {"pass": True, "budget": 10, "max_violation": 0.5, "witnesses": [{"value": 1e-9}]}
    base = digest(json.dumps(report))
    floats_moved = {**report, "max_violation": 0.25, "witnesses": [{"value": 2e-9}]}
    assert digest(json.dumps(floats_moved)) == base
    assert digest(json.dumps({**report, "pass": False})) != base
    assert digest(json.dumps({**report, "budget": 11})) != base


@pytest.mark.parametrize("raised, code", [(ValueError("bad"), "ValueError"),
                                          (SystemExit(1), "1"), (SystemExit(None), "0")])
def test_run_records_how_an_entry_exits(report_set, raised, code):
    """An entry that raises is recorded by its exception's name, a
    SystemExit by its code, and the report it printed first is hashed."""

    def entry(args, standalone_mode):
        print(json.dumps({"args": args}))
        raise raised

    sha, verdict, got = report_set.run(entry, ["verify"])
    assert got == code
    assert verdict == report_set.verdict_digest(json.dumps({"args": ["verify"]}) + "\n")
    assert len(sha) == 64
