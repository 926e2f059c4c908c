"""The pair statistics of tools/bench_record.py, on made-up runs, and the
environment of its benchmark runs."""

import importlib.util
import json
import os
import subprocess
import types
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _runs(parent, change):
    return [
        {"pair": pair, "side": side, "metrics": {"wall_s": value}}
        for pair, values in enumerate(zip(parent, change))
        for side, value in zip(bench_record.SIDES, values)
    ]


def test_quartiles_inclusive():
    assert bench_record.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_record.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_rule_needs_nine_tenths_and_a_gap_over_the_spread():
    parent = [10.0 + 0.1 * i for i in range(10)]
    summary = bench_record.summarize(_runs(parent, [p - 1.0 for p in parent]))["wall_s"]
    assert (summary["pairs_won"], summary["pairs_lost"]) == (10, 0)
    assert summary["gain_rule_met"]
    assert summary["change_vs_parent"] == pytest.approx(-1.0 / 10.45)
    # the same wins by less than the parent's interquartile range of 0.45
    close = bench_record.summarize(_runs(parent, [p - 0.01 for p in parent]))["wall_s"]
    assert close["pairs_won"] == 10 and not close["gain_rule_met"]
    # eight wins of ten is below nine tenths; a tie counts for neither side
    mixed = [p - 1.0 for p in parent[:8]] + [parent[8] + 1.0, parent[9]]
    summary = bench_record.summarize(_runs(parent, mixed))["wall_s"]
    assert (summary["pairs_won"], summary["pairs_lost"]) == (8, 1)
    assert not summary["gain_rule_met"]


def test_each_run_gets_a_fresh_bytecode_cache_outside_both_trees(monkeypatch, tmp_path):
    trees = [tmp_path / "parent", tmp_path / "change"]
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cache, cache.is_dir() and not any(cache.iterdir())))
        result = {"metrics": {"wall_s": {"value": 1.0}}, "correct": True, "attempted": 1,
                  "failed": 0}
        stdout = json.dumps({"environment": {}}) + "\n" + json.dumps(result) + "\n"
        return types.SimpleNamespace(returncode=0, stdout=stdout, stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    for tree in trees + trees:
        record = bench_record.run_once(tree, "large-n", 1)
        assert record["metrics"]["wall_s"] == 1.0
    caches = [cache for cache, _ in seen]
    assert all(empty for _, empty in seen)
    assert len(set(caches)) == len(caches) == 4
    for cache in caches:
        assert not cache.exists()
        for tree in trees:
            assert not cache.resolve().is_relative_to(tree.resolve())
    assert "PYTHONPYCACHEPREFIX" not in os.environ
