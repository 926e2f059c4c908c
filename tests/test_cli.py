"""CLI tests: commands, exit codes, determinism, the dimension cap."""

import contextlib
import gc
import io
import json
import weakref

import click
import numpy as np
import pytest
from click.testing import CliRunner

import qsm.maps
import qsm.metrics
import qsm.states
from qsm.cli import main, parse_dims
from qsm.errors import InvalidParameter
from qsm.serialize import canonical_dumps, matrix_to_json
from qsm.states import RngStream
from qsm.suites import SUITE_IDS, run_suite


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def matrix_files(tmp_path):
    paths = {}
    entries = {
        "p": np.diag([1.0, 0.0]),
        "q": np.diag([0.0, 1.0]),
        "half": np.diag([0.5, 0.5]),
        "thirds": np.diag([1.0 / 3.0, 2.0 / 3.0]),
        "dim3": np.diag([1.0, 0.0, 0.0]),
    }
    for name, diag in entries.items():
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_dumps(matrix_to_json(diag.astype(complex))))
        paths[name] = str(path)
    return paths


def assert_usage_error(result):
    """Exit 2 with click's one-line error, not a traceback (exit 1 means a
    property failed)."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error: " in result.output


class TestMetricCommand:
    def test_orthogonal_pure_states(self, runner, matrix_files):
        result = runner.invoke(main, ["metric", matrix_files["p"], matrix_files["q"]])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["trace_distance"] == pytest.approx(2.0, abs=1e-12)
        assert payload["fidelity"] == pytest.approx(0.0, abs=1e-12)
        assert payload["orthogonal"] is True

    def test_same_file_twice(self, runner, matrix_files):
        result = runner.invoke(main, ["metric", matrix_files["half"], matrix_files["half"]])
        payload = json.loads(result.output)
        assert payload["trace_distance"] == 0.0
        assert payload["bures_distance"] == 0.0
        assert payload["fidelity"] == pytest.approx(payload["trace_a"], abs=1e-12)

    def test_same_file_twice_at_the_psd_floor(self, runner, tmp_path):
        # -1.7e-9 is inside the floor -1e-9*(1 + trace) and is kept in the
        # entries; the Bures radicand must not count it twice
        path = tmp_path / "floor.json"
        path.write_text(canonical_dumps(matrix_to_json(np.diag([1.0, -1.7e-9]).astype(complex))))
        result = runner.invoke(main, ["metric", str(path), str(path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["bures_distance"] == 0.0
        assert payload["trace_distance"] == 0.0

    def test_diagonal_example(self, runner, matrix_files):
        result = runner.invoke(main, ["metric", matrix_files["half"], matrix_files["thirds"]])
        payload = json.loads(result.output)
        assert payload["fidelity"] == pytest.approx(0.9855985596534888, abs=1e-12)
        assert payload["trace_distance"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_fidelity_evaluated_once(self, runner, matrix_files, monkeypatch):
        calls = []
        fidelities = qsm.metrics._fidelities

        def counting(lam_x, *spectra):
            calls.append(len(lam_x))
            return fidelities(lam_x, *spectra)

        monkeypatch.setattr(qsm.metrics, "_fidelities", counting)
        result = runner.invoke(main, ["metric", matrix_files["half"], matrix_files["thirds"]])
        assert result.exit_code == 0
        assert calls == [1]

    def test_dimension_mismatch_exits_2(self, runner, matrix_files):
        result = runner.invoke(main, ["metric", matrix_files["p"], matrix_files["dim3"]])
        assert result.exit_code == 2

    def test_unparseable_file_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        result = runner.invoke(main, ["metric", str(bad), str(bad)])
        assert result.exit_code == 2

    def test_non_density_file_exits_2(self, runner, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(canonical_dumps(matrix_to_json(np.diag([1.0, -0.5]).astype(complex))))
        result = runner.invoke(main, ["metric", str(path), str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "dim, entries",
        [(None, [[[1.0, 0.0]]]), (2.5, [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
         (True, [[[1.0, 0.0]]])],
        ids=["dim-null", "dim-float", "dim-bool"],
    )
    def test_bad_dim_exits_2(self, runner, tmp_path, dim, entries):
        path = tmp_path / "bad_dim.json"
        path.write_text(json.dumps({"dim": dim, "entries": entries}))
        assert_usage_error(runner.invoke(main, ["metric", str(path), str(path)]))


class TestVerifyCommand:
    def test_lemma1_passes(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["verify", "lemma1", "--dims", "1,2,4", "--seed", "1", "--samples", "40",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "qsm-report/1"
        assert payload["pass"] is True
        assert [r["dim"] for r in payload["reports"]] == [1, 2, 4]

    def test_near_singular_wishart_draw_is_redrawn(self, runner):
        # at this seed a full-rank 48 x 48 Gaussian factor of the trace check
        # falls under the rank floor; the sampler redraws it, and the suite
        # reports a pass instead of raising
        args = ["verify", "thm-trace-D", "--dims", "48", "--samples", "10", "--seed", "475575228"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["pass"] is True

    def test_unknown_suite_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "lemma9[]"])
        assert result.exit_code == 2

    def test_range_dims_and_tol_override(self, runner):
        result = runner.invoke(
            main,
            ["verify", "ortho-eq", "--dims", "2..3", "--samples", "24",
             "--tol", "orthogonality=1e-8"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["config"]["tolerances"] == {"orthogonality": 1e-8}
        assert [r["dim"] for r in payload["reports"]] == [2, 3]

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["verify", "thm-trace-D", "--dims", "2,3", "--seed", "5",
                "--samples", "30"]
        first = runner.invoke(main, args + ["--out", str(tmp_path / "a.json")])
        second = runner.invoke(main, args + ["--out", str(tmp_path / "b.json")])
        assert first.exit_code == second.exit_code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert first.output == second.output
        assert (tmp_path / "a.json").read_bytes() == first.stdout_bytes

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_empty_search_budget_exits_2(self, runner, budget):
        result = runner.invoke(
            main, ["verify", "lemma3", "--dims", "2", "--samples", "5", "--budget", budget]
        )
        assert_usage_error(result)

    @pytest.mark.parametrize(
        "option",
        [
            ["--dims", "a"],
            ["--seed", "-1"],
            ["--tol", "bogus=1"],
            ["--tol", "isometry=nan"],
            ["--tol", "separation=-1e-5"],
        ],
        ids=["dims-a", "seed-negative", "tol-unknown", "tol-nan", "tol-negative"],
    )
    def test_bad_option_exits_2(self, runner, option):
        result = runner.invoke(main, ["verify", "lemma1", "--dims", "2", "--samples", "5"] + option)
        assert_usage_error(result)

    # the roundtrip's isometry check reads a fixed deviation; --tol isometry
    # decides the verdict in either direction
    @pytest.mark.parametrize(
        "deviation,tol",
        [(1e-6, "5e-6"), (1e-9, "1e-10")],
        ids=["loosen", "tighten"],
    )
    def test_tol_isometry_sets_the_roundtrip_tolerance(self, runner, monkeypatch, deviation, tol):
        monkeypatch.setattr(qsm.maps, "check_isometry", lambda *args: deviation)
        args = ["verify", "thm-bures-D", "--dims", "2", "--samples", "10"]
        default = runner.invoke(main, args)
        overridden = runner.invoke(main, args + ["--tol", f"isometry={tol}"])
        assert default.exit_code == (1 if deviation > 1e-8 else 0)
        assert overridden.exit_code == 1 - default.exit_code
        assert json.loads(overridden.output)["config"]["tolerances"] == {"isometry": float(tol)}

    # the control must deviate by CONTROL_DEVIATION, so an isometry tolerance
    # there or above would count one deviation both ways
    @pytest.mark.parametrize("tol", ["1e-5", "1e-4"])
    def test_tol_isometry_at_or_above_the_control_bound_exits_2(self, runner, tol):
        args = ["verify", "thm-bures-D", "--dims", "2", "--samples", "10"]
        assert_usage_error(runner.invoke(main, args + ["--tol", f"isometry={tol}"]))

    def test_tol_isometry_below_the_control_bound_is_accepted(self, runner):
        args = ["verify", "thm-bures-D", "--dims", "2", "--samples", "10"]
        result = runner.invoke(main, args + ["--tol", "isometry=9e-6"])
        assert result.exit_code == 0
        assert json.loads(result.output)["config"]["tolerances"] == {"isometry": 9e-6}

    # the library holds the same bound, before any dimension runs
    @pytest.mark.parametrize("tol", [1e-5, 1e-4, float("nan")])
    def test_run_suite_rejects_isometry_tolerance_at_or_above_the_control_bound(self, tol):
        with pytest.raises(InvalidParameter, match="control bound 1e-05"):
            run_suite("thm-bures-D", [2], 0, 10, 10, {"isometry": tol})

    def test_dim_cap_enforced(self, runner, monkeypatch):
        monkeypatch.setenv("QSM_DIM_CAP", "3")
        result = runner.invoke(main, ["verify", "lemma1", "--dims", "1,4", "--samples", "5"])
        assert result.exit_code == 2

    def test_dim_cap_override_allows_run(self, runner, monkeypatch):
        monkeypatch.setenv("QSM_DIM_CAP", "2")
        result = runner.invoke(
            main, ["verify", "ortho-eq", "--dims", "2", "--samples", "12"]
        )
        assert result.exit_code == 0


class TestReconstructCommand:
    def test_identity_builtin(self, runner):
        result = runner.invoke(main, ["reconstruct", "--builtin", "identity", "--dim", "2"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["kind"] == "unitary"
        assert payload["residual"] <= 1e-10

    def test_transpose_builtin(self, runner):
        result = runner.invoke(main, ["reconstruct", "--builtin", "transpose", "--dim", "3"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["kind"] == "antiunitary"
        assert payload["probes"] == 6

    def test_depolarizing_exits_1_with_report(self, runner):
        result = runner.invoke(
            main, ["reconstruct", "--builtin", "depolarizing:0.5", "--dim", "2"]
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["pass"] is False
        assert payload["purity_defect"] > 1e-3

    @pytest.mark.parametrize(
        "args",
        [
            ["--builtin", "depolarizing:2"],
            ["--builtin", "depolarizing:abc"],
            ["--builtin", "identity", "--seed", "-1"],
            ["--builtin", "trace-rescale:inf"],
            ["--builtin", "identity:junk"],
            ["--builtin", "transpose:0.3"],
            ["--builtin", "haar:x"],
            ["--builtin", "pinching:7"],
        ],
        ids=["depolarizing-2", "depolarizing-abc", "seed-negative", "trace-rescale-inf",
             "identity-arg", "transpose-arg", "haar-arg", "pinching-arg"],
    )
    def test_bad_builtin_or_seed_exits_2(self, runner, args):
        assert_usage_error(runner.invoke(main, ["reconstruct", "--dim", "2"] + args))

    def test_map_file(self, runner, tmp_path):
        from qsm.serialize import matrix_to_json
        from qsm.states import random_unitary

        u = random_unitary(3, RngStream(77))
        path = tmp_path / "map.json"
        path.write_text(canonical_dumps({"kind": "unitary", "dim": 3, "U": matrix_to_json(u)}))
        result = runner.invoke(main, ["reconstruct", "--map-file", str(path)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["kind"] == "unitary"
        assert payload["dim"] == 3

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "named", "params": {"id": "depolarizing", "p": 0.5}},
            {"kind": "named", "dim": 2, "params": {"id": "depolarizing", "p": 0.5, "q": 1}},
            {"kind": "named", "dim": 2, "params": {"id": "depolarizing", "p": "x"}},
            [{"kind": "named", "dim": 2, "params": {"id": "depolarizing", "p": 0.5}}],
            {"kind": "named", "dim": 2.5, "params": {"id": "depolarizing", "p": 0.5}},
            {"kind": "named", "dim": True, "params": {"id": "depolarizing", "p": 0.5}},
            {"kind": "unitary", "dim": 2,
             "U": {"dim": 2, "entries": [[[float("nan"), 0.0], [0.0, 0.0]],
                                         [[0.0, 0.0], [1.0, 0.0]]]}},
            {"kind": "unitary", "dim": 5, "U": matrix_to_json(np.eye(3))},
            {"kind": "antiunitary", "dim": 2.5, "U": matrix_to_json(np.eye(2))},
            {"kind": "unitary", "U": matrix_to_json(np.eye(2))},
        ],
        ids=["named-no-dim", "unknown-param", "non-numeric-param", "top-level-array",
             "dim-float", "dim-bool", "nan-unitary", "dim-disagrees-with-U",
             "conjugation-dim-float", "conjugation-no-dim"],
    )
    def test_bad_map_file_exits_2(self, runner, tmp_path, obj):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(obj))
        assert_usage_error(runner.invoke(main, ["reconstruct", "--map-file", str(path)]))

    def test_explicit_dim_must_match_map_file(self, runner, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"kind": "unitary", "dim": 4, "U": matrix_to_json(np.eye(4))}))
        args = ["reconstruct", "--map-file", str(path)]
        # an explicit --dim 3 disagrees even though 3 is the default
        assert_usage_error(runner.invoke(main, args + ["--dim", "3"]))
        for extra in ([], ["--dim", "4"]):
            result = runner.invoke(main, args + extra)
            assert result.exit_code == 0
            assert json.loads(result.output)["dim"] == 4

    def test_requires_exactly_one_source(self, runner):
        assert runner.invoke(main, ["reconstruct"]).exit_code == 2
        result = runner.invoke(
            main, ["reconstruct", "--builtin", "identity", "--map-file", "x.json"]
        )
        assert result.exit_code == 2

    def test_builtin_haar_unitary_is_checked_once(self, runner, monkeypatch):
        # the Haar sample and the assembled reconstruction; the builtin map
        # reuses the sample's check
        shapes = []
        defect = qsm.states._unitarity_defect

        def counting(u, floor):
            shapes.append(np.shape(u))
            return defect(u, floor)

        monkeypatch.setattr(qsm.states, "_unitarity_defect", counting)
        monkeypatch.setattr(qsm.maps, "_unitarity_defect", counting)
        result = runner.invoke(main, ["reconstruct", "--builtin", "haar", "--dim", "4"])
        assert result.exit_code == 0
        assert shapes == [(1, 4, 4), (4, 4)]

    def test_determinism(self, runner, tmp_path):
        args = ["reconstruct", "--builtin", "haar", "--dim", "4", "--seed", "3"]
        a = runner.invoke(main, args + ["--out", str(tmp_path / "a.json")])
        b = runner.invoke(main, args + ["--out", str(tmp_path / "b.json")])
        assert a.exit_code == b.exit_code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def _strict_loads(text):
    """json.loads that rejects NaN and the infinities, as RFC 8259 does."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


_BUILTINS = ("identity", "transpose", "haar", "depolarizing:0.5", "pinching", "trace-rescale:2")


class TestStrictJson:
    """Every kind of report, passing or rejecting, parses as strict JSON."""

    @pytest.mark.parametrize(
        "args",
        [["verify", suite, "--dims", "1,2", "--samples", "10", "--budget", "200"]
         for suite in SUITE_IDS]
        + [["reconstruct", "--builtin", builtin, "--dim", "2"] for builtin in _BUILTINS],
        ids=[*SUITE_IDS, *_BUILTINS],
    )
    def test_report_is_strict_json(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code in (0, 1), result.output
        assert isinstance(_strict_loads(result.output), dict)

    def test_metric_and_map_file_reports(self, runner, matrix_files, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"kind": "unitary", "dim": 2, "U": matrix_to_json(np.eye(2))}))
        for args in (["metric", matrix_files["p"], matrix_files["half"]],
                     ["reconstruct", "--map-file", str(path)]):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            assert isinstance(_strict_loads(result.output), dict)


def test_in_process_runs_release_their_stdout():
    """A report written to a redirected stdout is not kept once the run is
    over: each earlier buffer, and the report in it, can be collected."""
    refs = []
    for seed in range(3):
        buf = io.StringIO()
        with pytest.raises(SystemExit), contextlib.redirect_stdout(buf):
            main(["verify", "ortho-eq", "--dims", "2", "--seed", str(seed)],
                 standalone_mode=False)
        assert _strict_loads(buf.getvalue())["suite"] == "ortho-eq"
        refs.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_parse_dims():
    assert parse_dims("1,2,4..6") == [1, 2, 4, 5, 6]
    assert parse_dims("3") == [3]
    with pytest.raises(Exception):
        parse_dims("0")
    with pytest.raises(click.UsageError):
        parse_dims("2..x")
    # rejected before the range is expanded, so this neither hangs nor allocates
    with pytest.raises(click.UsageError):
        parse_dims("2..1000000000000")
