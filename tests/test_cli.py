"""CLI tests: commands, exit codes, determinism, the dimension cap."""

import json

import click
import numpy as np
import pytest
from click.testing import CliRunner

from qsm.cli import main, parse_dims
from qsm.serialize import matrix_to_json, save_json
from qsm.states import RngStream


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
        save_json(path, matrix_to_json(diag.astype(complex)))
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

    def test_diagonal_example(self, runner, matrix_files):
        result = runner.invoke(main, ["metric", matrix_files["half"], matrix_files["thirds"]])
        payload = json.loads(result.output)
        assert payload["fidelity"] == pytest.approx(0.9855985596534888, abs=1e-12)
        assert payload["trace_distance"] == pytest.approx(1.0 / 3.0, abs=1e-12)

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
        save_json(path, matrix_to_json(np.diag([1.0, -0.5]).astype(complex)))
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
        ],
        ids=["depolarizing-2", "depolarizing-abc", "seed-negative", "trace-rescale-inf"],
    )
    def test_bad_builtin_or_seed_exits_2(self, runner, args):
        assert_usage_error(runner.invoke(main, ["reconstruct", "--dim", "2"] + args))

    def test_map_file(self, runner, tmp_path):
        from qsm.maps import statemap_to_json, unitary_conjugation
        from qsm.states import random_unitary

        u = random_unitary(3, RngStream(77))
        path = tmp_path / "map.json"
        save_json(path, statemap_to_json(unitary_conjugation(u)))
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
        ],
        ids=["named-no-dim", "unknown-param", "non-numeric-param", "top-level-array",
             "dim-float", "dim-bool", "nan-unitary"],
    )
    def test_bad_map_file_exits_2(self, runner, tmp_path, obj):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(obj))
        assert_usage_error(runner.invoke(main, ["reconstruct", "--map-file", str(path)]))

    def test_requires_exactly_one_source(self, runner):
        assert runner.invoke(main, ["reconstruct"]).exit_code == 2
        result = runner.invoke(
            main, ["reconstruct", "--builtin", "identity", "--map-file", "x.json"]
        )
        assert result.exit_code == 2

    def test_determinism(self, runner, tmp_path):
        args = ["reconstruct", "--builtin", "haar", "--dim", "4", "--seed", "3"]
        a = runner.invoke(main, args + ["--out", str(tmp_path / "a.json")])
        b = runner.invoke(main, args + ["--out", str(tmp_path / "b.json")])
        assert a.exit_code == b.exit_code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


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
