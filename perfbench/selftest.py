"""Tests of the benchmark itself, at a tiny request size.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracer import PER_LAYER, Tracer, self_times

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def bench(capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.01",
                   "--trace", str(trace)], profile=workloads.TINY)
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(autouse=True)
def one_fresh_setup(monkeypatch):
    monkeypatch.setattr(run, "FRESH_SETUPS", 1)


def test_spec_names_the_printed_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload):
    lines, result = bench(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_frac = 0 1 ") for line in lines)
    environment = json.loads(lines[0])["environment"]
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "cpu"} <= set(environment)
    assert environment["blas_threads"] is None or environment["blas_threads"] <= environment["nproc"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(capsys, workload):
    lines, result = bench(capsys, workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert [(name, m["unit"]) for name, m in metrics.items()] == list(PER_LAYER)
    for name, unit in PER_LAYER:
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    searched = metrics["geometry.search.calls"]["value"]
    assert (searched > 0) == (workload == "lemma3-search")
    assert metrics["cli.requests"]["value"] == result["attempted"] // 2
    assert metrics["kernel.share"]["value"] > 0


def test_gate_flags_a_wrong_expected_verdict(capsys, monkeypatch):
    build = workloads.build_pass

    def wrong_first_verdict(*args, **kwargs):
        requests = build(*args, **kwargs)
        return [dataclasses.replace(requests[0], passed=False)] + requests[1:]

    monkeypatch.setattr(workloads, "build_pass", wrong_first_verdict)
    _, result = bench(capsys, "roundtrip-small", 0)
    assert not result["correct"]
    assert result["failed"] == 1


def test_gate_judges_exit_code_verdict_and_values():
    request = workloads.Request(("verify", "lemma1"), exit_code=0, passed=True)
    report = json.dumps({"schema": "qsm-report/1", "command": "verify", "pass": True})
    assert workloads.judge(request, 0, report) is None
    assert workloads.judge(request, 1, report) is not None
    assert workloads.judge(dataclasses.replace(request, passed=False), 0, report) is not None
    metric = workloads.Request(("metric", "a", "b"), passed=None, reference={"fidelity": 0.5})
    close = json.dumps({"schema": "qsm-report/1", "command": "metric", "fidelity": 0.5 + 1e-12})
    far = json.dumps({"schema": "qsm-report/1", "command": "metric", "fidelity": 0.51})
    assert workloads.judge(metric, 0, close) is None
    assert workloads.judge(metric, 0, far) is not None


def test_same_seed_same_requests():
    for workload in ("lemma3-search", "roundtrip-small"):
        assert workloads.build_pass(workload, 9, 2, []) == workloads.build_pass(workload, 9, 2, [])
        assert workloads.build_pass(workload, 9, 2, []) != workloads.build_pass(workload, 8, 2, [])


def test_spans_nest(tmp_path):
    session = run.Session("large-n", 5, tmp_path, workloads.TINY)
    requests = workloads.build_pass("large-n", 5, 0, session.metric_pairs, workloads.TINY)
    tracer = Tracer()
    entry = tracer.wrap("cli.request", session.cli.main)
    with tracer:
        start = run.time.perf_counter()
        for request in requests:
            tracer.current_request += 1
            run.execute(entry, request)
        wall = run.time.perf_counter() - start
    spans = tracer.spans()
    own = self_times(spans)
    duration = spans["end"] - spans["start"]
    top = spans["parent"] < 0
    assert len(own) > len(requests)
    assert np.count_nonzero(top) == len(requests)
    assert np.all(own >= -1e-9)
    assert own.sum() == pytest.approx(duration[top].sum(), abs=1e-6)
    assert duration[top].sum() <= wall
    nested = ~top
    parent = spans["parent"][nested]
    assert np.all(spans["start"][nested] >= spans["start"][parent])
    assert np.all(spans["end"][nested] <= spans["end"][parent])
    assert np.all(spans["request"][nested] == spans["request"][parent])


def test_uninstall_restores_every_original(tmp_path):
    import qsm.states
    import qsm.suites

    run.Session("lemma3-search", 5, tmp_path, workloads.TINY)
    originals = (qsm.suites.intersection_uniqueness_search, qsm.states.DensityOperator.__init__,
                 np.linalg.eigh)
    with Tracer():
        assert qsm.suites.intersection_uniqueness_search is not originals[0]
        assert np.linalg.eigh is not originals[2]
    assert (qsm.suites.intersection_uniqueness_search, qsm.states.DensityOperator.__init__,
            np.linalg.eigh) == originals
