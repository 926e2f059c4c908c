"""Suite-level tests: every verify id runs, reports are well formed and
byte-deterministic."""

from collections import Counter

import pytest

import qsm.geometry
import qsm.maps
import qsm.suites
from qsm.geometry import ZERO_TRACE
from qsm.metrics import MetricKind
from qsm.serialize import canonical_dumps
from qsm.states import RngStream
from qsm.suites import SUITE_IDS, run_suite

SMALL = {
    "lemma1": dict(dims=[1, 2, 3], samples=40, budget=0),
    "lemma3": dict(dims=[2, 3], samples=20, budget=800),
    "ortho-eq": dict(dims=[1, 2, 4], samples=60, budget=0),
    "thm-bures-D": dict(dims=[1, 2, 4], samples=40, budget=0),
    "thm-bures-S": dict(dims=[2, 3], samples=40, budget=0),
    "thm-trace-D": dict(dims=[2, 4], samples=40, budget=0),
    "thm-trace-S": dict(dims=[1, 3], samples=40, budget=0),
}


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_suite_passes_at_small_scale(suite):
    cfg = SMALL[suite]
    reports = run_suite(suite, cfg["dims"], seed=1, samples=cfg["samples"], budget=cfg["budget"])
    assert [r.dim for r in reports] == sorted(cfg["dims"])
    for report in reports:
        assert report.passed, (suite, report)
        payload = report.to_json()
        assert set(payload) == {
            "lemma",
            "dim",
            "seed",
            "pass",
            "witnesses",
            "max_violation",
            "budget",
        }
        assert payload["lemma"] == suite
        assert payload["seed"] == 1


@pytest.mark.parametrize("suite", ["lemma1", "ortho-eq", "thm-trace-S"])
def test_suite_reports_are_byte_identical(suite):
    cfg = SMALL[suite]
    runs = [
        run_suite(suite, cfg["dims"], seed=9, samples=cfg["samples"], budget=cfg["budget"])
        for _ in range(2)
    ]
    first = canonical_dumps([r.to_json() for r in runs[0]])
    second = canonical_dumps([r.to_json() for r in runs[1]])
    assert first == second


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("lemma9", [2], seed=0, samples=5, budget=10)


def test_lemma1_report_carries_sharpness_witness():
    reports = run_suite("lemma1", [2], seed=3, samples=40, budget=0)
    kinds = {w["kind"] for w in reports[0].witnesses}
    assert "ball-at-zero" in kinds
    assert "nonzero-center" in kinds


def test_lemma3_runs_no_zero_center_search(monkeypatch):
    # strict containment at 0 rests on the midpoint witness alone; the only
    # searches are the pinch searches, one per configuration
    centers = []

    def counting(*args, _search=qsm.suites.intersection_uniqueness_search, **kwargs):
        centers.append(args[2])
        return _search(*args, **kwargs)

    monkeypatch.setattr(qsm.suites, "intersection_uniqueness_search", counting)
    reports = run_suite("lemma3", [2, 3, 4], 0, 20, 800)
    assert Counter(c.dim for c in centers) == {dim: max(2, 20 // 10) for dim in (2, 3, 4)}
    assert all(c.trace > ZERO_TRACE for c in centers)
    for report in reports:
        (witness,) = [w for w in report.witnesses if w["kind"] == "strict-containment"]
        assert set(witness) == {"kind", "radius", "separation", "ball_violation"}


def test_lemma3_holds_the_midpoint_to_the_roundoff_slack(monkeypatch):
    # the midpoint read 1e-11 beyond eps from X: within BALL_SLACK = 1e-9,
    # which midpoint_witness checks, but above the default slack, which at
    # n = 2 is max(1e-12 * eps, ~1e-13) <= 1.5e-12 for eps in [0.5, 1.5];
    # midpoint_witness measures both distances and the suite reads them
    def shifted(kind, xs, ys, _distances=qsm.geometry.distances):
        return _distances(kind, xs, ys) + [1e-11, 0.0]

    monkeypatch.setattr(qsm.geometry, "distances", shifted)

    def lemma3(tolerances):
        return qsm.suites._lemma3(2, RngStream(0, 2002).generator(), 20, 200, tolerances)

    passed, witnesses, _, _ = lemma3({})
    assert passed is False
    assert witnesses[0]["kind"] == "strict-containment"
    assert witnesses[0]["ball_violation"] == pytest.approx(1e-11, rel=1e-3)
    assert lemma3({"slack": 1e-6})[0] is True


THEOREMS = {
    "thm-bures-D": MetricKind.BURES,
    "thm-bures-S": MetricKind.BURES,
    "thm-trace-D": MetricKind.TRACE_NORM,
    "thm-trace-S": MetricKind.TRACE_NORM,
}


@pytest.mark.parametrize("suite", THEOREMS)
def test_theorem_suite_measures_only_its_metric(suite, monkeypatch):
    # two roundtrips and the control, each under the suite's metric alone
    measured = []
    for module in (qsm.maps, qsm.suites):
        def counting(m, metric, *args, _check=module.check_isometry):
            measured.append(metric)
            return _check(m, metric, *args)

        monkeypatch.setattr(module, "check_isometry", counting)
    report = run_suite(suite, [2], seed=4, samples=10, budget=0)[0]
    assert report.passed
    assert measured == [THEOREMS[suite]] * 3


@pytest.mark.parametrize("suite", THEOREMS)
def test_theorem_suite_fails_when_its_control_does_not_deviate(suite, monkeypatch):
    # the control is still rejected by the reconstruction; only its deviation,
    # read below 1e-5, fails the report
    monkeypatch.setattr(qsm.suites, "check_isometry", lambda *args: 1e-6)
    report = run_suite(suite, [2], seed=4, samples=10, budget=0)[0]
    assert report.passed is False
    control = report.witnesses[-1]
    assert control["kind"] == "control-depolarizing"
    assert control["deviation"] == 1e-6 and control["rejected"] is True
