"""Command-line behavior through main(argv): outputs, files, exit codes."""

import json

import pytest

from sparsevote.cli import main
from sparsevote.simulator import CSV_COLUMNS


@pytest.fixture
def quad_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "algorithm": "S3GD_MV",
        "m": 3,
        "t": 8,
        "gamma": 0.5,
        "n": 8,
        "learning_rate": 0.01,
        "seed": 3,
        "model": {"kind": "quadratic", "noise_std": 0.5, "init": 1.0},
    }))
    return path


class TestRun:
    def test_prints_summary(self, quad_config, capsys):
        assert main(["run", "--config", str(quad_config)]) == 0
        out = capsys.readouterr().out
        assert "S3GD_MV" in out and "round 7" in out and "cumulative_bits" in out

    def test_writes_csv(self, quad_config, tmp_path, capsys):
        out_path = tmp_path / "metrics.csv"
        assert main(["run", "--config", str(quad_config), "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 9
        assert "wrote 8 rounds" in capsys.readouterr().out

    def test_writes_json(self, quad_config, tmp_path, capsys):
        out_path = tmp_path / "metrics.json"
        assert main(["run", "--config", str(quad_config), "--out", str(out_path),
                     "--format", "json"]) == 0
        records = json.loads(out_path.read_text())
        assert len(records) == 8
        assert set(records[0]) == set(CSV_COLUMNS)

    def test_seed_override_changes_run(self, quad_config, capsys):
        main(["run", "--config", str(quad_config), "--seed", "1"])
        first = capsys.readouterr().out
        main(["run", "--config", str(quad_config), "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_cost_mode_flag(self, quad_config, capsys):
        assert main(["run", "--config", str(quad_config), "--cost-mode", "wire"]) == 0
        assert "cumulative_bits" in capsys.readouterr().out

    def test_missing_config(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"algorithm": "S3GD_MV", "m": 1, "t": 1, "lr": 0.1}))
        assert main(["run", "--config", str(path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"m": "16"}, "m must be an integer"),
            ({"t": "5"}, "t must be an integer"),
            ({"m": True}, "m must be an integer"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"batch_size": 2.5}, "batch_size must be an integer"),
            ({"batch_size": True}, "batch_size must be an integer"),
            ({"parallel": True}, "unknown config keys"),
        ],
    )
    def test_mistyped_config_is_one_error_line(self, quad_config, override, message, capsys):
        quad_config.write_text(json.dumps({**json.loads(quad_config.read_text()), **override}))
        assert main(["run", "--config", str(quad_config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestSweep:
    def test_prints_rows(self, quad_config, capsys):
        assert main(["sweep", "--config", str(quad_config), "--axis", "gamma",
                     "--values", "0.25,1.0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[0].startswith("GAMMA=0.25 ")
        assert out[1].startswith("GAMMA=1 ")

    def test_writes_table(self, quad_config, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        assert main(["sweep", "--config", str(quad_config), "--axis", "gamma",
                     "--values", "0.5,1.0", "--seeds", "0,1",
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 5
        assert "wrote 4 rows" in capsys.readouterr().out

    def test_non_integral_m_rejected(self, quad_config, capsys):
        assert main(["sweep", "--config", str(quad_config), "--axis", "m",
                     "--values", "2.7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: axis M value 2.7:") and err.count("\n") == 1

    def test_integral_m_runs(self, quad_config, capsys):
        assert main(["sweep", "--config", str(quad_config), "--axis", "m",
                     "--values", "2"]) == 0
        assert capsys.readouterr().out.startswith("M=2 ")

    def test_bad_axis(self, quad_config, capsys):
        assert main(["sweep", "--config", str(quad_config), "--axis", "delta",
                     "--values", "0.1"]) == 1
        assert "axis" in capsys.readouterr().err


class TestTheoryEval:
    def run_eval(self, capsys, bound, params):
        code = main(["theory", "eval", "--bound", bound, "--params", json.dumps(params)])
        captured = capsys.readouterr()
        return code, captured

    def test_alpha(self, capsys):
        code, captured = self.run_eval(capsys, "alpha", {"m": 3, "gamma": 0.5})
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["bound"] == "alpha"
        assert payload["value"] == 0.875

    def test_vote_error_exact(self, capsys):
        code, captured = self.run_eval(capsys, "vote_error_exact", {"p": 0.1, "u": 3})
        assert code == 0
        assert json.loads(captured.out)["value"] == pytest.approx(0.028, abs=1e-12)

    def test_pair_valued_bound(self, capsys):
        code, captured = self.run_eval(capsys, "empty_coordinate_prob", {"m": 100, "gamma": 0.05})
        assert code == 0
        value = json.loads(captured.out)["value"]
        assert set(value) == {"exact", "approx"}
        assert value["exact"] == pytest.approx(0.95 ** 100)

    def test_convergence_bound_takes_grouped_inputs(self, capsys):
        params = {"m": 8, "gamma": 0.1, "epsilon": 1.0, "l1_smoothness": 16.0,
                  "sigma_l1": 1.0, "f0_minus_fstar": 1.0, "t": 100}
        code, captured = self.run_eval(capsys, "convergence_bound_topk", params)
        assert code == 0
        assert json.loads(captured.out)["value"] == pytest.approx(
            0.9453105223058732, rel=1e-12
        )

    def test_gamma_star(self, capsys):
        params = {"m": 8, "epsilon": 1.0, "f0_minus_fstar": 1.0,
                  "l1_smoothness": 16.0, "sigma_l1": 1.0}
        code, captured = self.run_eval(capsys, "gamma_star", params)
        assert code == 0
        assert json.loads(captured.out)["value"] == pytest.approx(0.5 ** (2 / 3))

    def test_unknown_bound(self, capsys):
        code = main(["theory", "eval", "--bound", "lyapunov", "--params", "{}"])
        assert code == 2
        assert "unknown bound" in capsys.readouterr().err

    def test_params_must_be_object(self, capsys):
        code = main(["theory", "eval", "--bound", "alpha", "--params", "[1, 2]"])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    def test_malformed_json(self, capsys):
        code = main(["theory", "eval", "--bound", "alpha", "--params", "{bad"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_argument_name(self, capsys):
        code = main(["theory", "eval", "--bound", "alpha",
                     "--params", json.dumps({"workers": 3, "gamma": 0.5})])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_domain_error_reported(self, capsys):
        code = main(["theory", "eval", "--bound", "alpha",
                     "--params", json.dumps({"m": 0, "gamma": 0.5})])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "sparsevote" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
