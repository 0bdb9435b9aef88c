"""Command-line behavior through main(argv): outputs, files, exit codes."""

import contextlib
import io
import json
import math
import re
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevote import simulator
from sparsevote.cli import main
from sparsevote.codec import ALGORITHMS
from sparsevote.simulator import CSV_COLUMNS

QUAD = {
    "algorithm": "S3GD_MV",
    "m": 3,
    "t": 8,
    "gamma": 0.5,
    "n": 8,
    "learning_rate": 0.01,
    "seed": 3,
    "model": {"kind": "quadratic", "noise_std": 0.5, "init": 1.0},
}


@pytest.fixture
def quad_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(QUAD))
    return path


def logistic(model=None, data=None):
    """Overrides that turn quad_config into a small logistic run."""
    base = {"n_samples": 60, "d": 3, "num_classes": 3}
    return {"n": None, "model": model or {"kind": "logistic"}, "data": {**base, **(data or {})}}


# Bad values of each top-level config field: the wrong type, a bool for a
# number, a non-finite float, a value out of range, an int past the float
# range.  Each is rejected when the config is built, before anything runs.
_TEXT = st.text(max_size=4)
_LISTS = st.lists(st.integers(0, 3), max_size=2)
_OTHER = st.none() | _LISTS
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
_PAST_FLOAT = st.integers(2 ** 1024, 10 ** 400) | st.integers(-10 ** 400, -2 ** 1024)
_NEGATIVE = st.floats(max_value=-5e-324, allow_infinity=False) | st.integers(max_value=-1)
_NON_INTEGRAL = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not v.is_integer())
_NOT_A_COUNT = _TEXT | _OTHER | st.booleans() | _NON_FINITE | _NON_INTEGRAL | st.integers(1, 64).map(float)
_NOT_THEORY = _TEXT.filter(lambda v: v != "theory")
_NOT_A_REAL = _NOT_THEORY | _OTHER | st.booleans() | _NON_FINITE | _PAST_FLOAT
_ABOVE_ONE = st.floats(min_value=1, exclude_min=True, allow_infinity=False)
BAD_VALUES = {
    "algorithm": _TEXT.filter(lambda v: v not in ALGORITHMS) | _OTHER | st.integers(),
    "m": _NOT_A_COUNT | st.integers(max_value=0) | st.integers(min_value=2 ** 63),
    "t": _NOT_A_COUNT | st.integers(max_value=0) | st.integers(min_value=2 ** 63),
    "seed": _NOT_A_COUNT | st.integers(max_value=-1),
    "n": _TEXT | _LISTS | st.booleans() | _NON_FINITE | _NON_INTEGRAL | st.integers(max_value=0),
    "gamma": _NOT_A_REAL | _NEGATIVE | _ABOVE_ONE,
    "eta": _NOT_A_REAL | _NEGATIVE,
    "mu": _NOT_A_REAL | _NEGATIVE | st.floats(min_value=1, allow_infinity=False),
    "learning_rate": _NOT_THEORY | _LISTS | st.booleans() | _NON_FINITE | _PAST_FLOAT | _NEGATIVE
    | st.just(0.0),
    "batch_size": _NOT_THEORY | _NOT_A_REAL | _NON_INTEGRAL | st.integers(max_value=0),
    "record_selection": _TEXT | _OTHER | st.integers(),
    "cost_mode": _TEXT.filter(lambda v: v not in ("ANALYTIC", "WIRE")) | _OTHER | st.integers(),
    "model": _TEXT | _OTHER | st.booleans() | st.integers(),
    "data": _TEXT | _OTHER | st.booleans() | st.integers(),
}


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

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([], "a config must be a JSON object, got list"),
            ("abc", "a config must be a JSON object, got str"),
            (3, "a config must be a JSON object, got int"),
            (None, "a config must be a JSON object, got NoneType"),
            ({"algorithm": "S3GD_MV", "m": 2}, "missing config keys: ['t']"),
            ({}, "missing config keys: ['algorithm', 'm', 't']"),
        ],
    )
    def test_config_that_is_not_a_full_object_is_one_error_line(self, tmp_path, raw, message,
                                                                  capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_divergence_is_one_error_line(self, quad_config, capsys):
        quad_config.write_text(json.dumps({
            "algorithm": "VANILLA_SGD", "m": 2, "t": 500, "n": 4, "learning_rate": 1e6,
            "model": {"kind": "quadratic", "noise_std": 0.0, "init": 1.0},
        }))
        for argv in (["run"], ["sweep", "--axis", "mu", "--values", "0"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy's overflow warnings would print too
                assert main([*argv, "--config", str(quad_config)]) == 1
            err = capsys.readouterr().err
            assert err == "error: non-finite parameters after round 51\n"

    def test_divergence_on_worker_threads_is_one_error_line(self, quad_config, capsys, monkeypatch):
        # Above the gate, on two threads on any host.  The memory product
        # eta * e overflows inside the worker step a few rounds before the
        # parameters do, on both threads.
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
        quad_config.write_text(json.dumps({
            "algorithm": "TOPK_SGD_MEM", "m": 2, "t": 500, "n": simulator._THREADED_MIN_DIM,
            "gamma": 0.5, "eta": 1e10, "learning_rate": 0.01,
            "model": {"kind": "quadratic", "noise_std": 0.0, "init": 1.0},
        }))
        for argv in (["run"], ["sweep", "--axis", "mu", "--values", "0"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a worker thread's overflow warning would print too
                assert main([*argv, "--config", str(quad_config)]) == 1
            err = capsys.readouterr().err
            assert err == "error: non-finite parameters after round 77\n"

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
            ({"gamma": "0.5"}, "gamma must be a finite number"),
            ({"eta": None}, "eta must be a finite number"),
            ({"eta": float("inf")}, "eta must be a finite number"),
            ({"mu": "0"}, "mu must be a finite number"),
            ({"learning_rate": [0.01]}, "learning_rate must be a positive number"),
            ({"learning_rate": True}, "learning_rate must be a positive number"),
            ({"n": "64"}, "n must be an integer"),
            ({"n": 64.0}, "n must be an integer"),
            ({"n": True}, "n must be an integer"),
            ({"record_selection": "no"}, "record_selection must be true or false"),
            ({"model": "quadratic"}, "model must be a JSON object"),
            ({"data": []}, "data must be a JSON object"),
            ({"algorithm": ["S3GD_MV"]}, "unknown algorithm"),
            ({"model": {"kind": "quadratic", "noise_std": "4"}}, "noise_std must be a number"),
            ({"model": {"kind": "quadratic", "init": True}}, "init must be a number"),
            ({"model": {"kind": "quadratic", "init": [1, "1"] * 4}}, "init must be a number"),
            ({"model": {"kind": "quadratic", "lipschitz": {"log_min": 0}}},
             "lipschitz needs numeric log_min and log_max"),
            ({"model": {"kind": "quadratic", "lipschitz": {"log_min": "0", "log_max": 1}}},
             "lipschitz needs numeric log_min and log_max"),
            (logistic(data={"n_samples": "60"}), "n_samples must be an integer"),
            (logistic(data={"d": 3.5}), "d must be an integer"),
            (logistic(model={"kind": "mlp", "hidden": [4, 0]}), "hidden[1] must be positive"),
            (logistic(data={"separation": "4"}), "separation must be a finite number"),
            (logistic(model={"kind": "mlp", "hidden": "32"}), "hidden must be a list of positive"),
            (logistic(model={"kind": "logistic", "init_scale": "0.5"}),
             "init_scale must be a finite number"),
            (logistic(model={"kind": "logistic", "init_scale": True}),
             "init_scale must be a finite number"),
            ({"data": {"n_samples": 5}}, "the quadratic model takes no data"),
            ({"n": None, "model": {"kind": "logistic"}, "data": {"source": "idx", "train_images": 0}},
             "idx data needs train_images as a file path"),
            ({"n": None, "model": {"kind": "logistic"}, "data": {"source": "idx"}},
             "idx data needs train_images as a file path"),
            ({"model": {"kind": "quadratic", "lipschitz": {"log_min": 400, "log_max": 400}}},
             "lipschitz {'log_min': 400, 'log_max': 400} has values too large for a float"),
            # Over 2**47 bytes: the allocation fails at once and touches no memory.
            ({"n": 10 ** 15}, "out of memory: "),
            # Past int64, and so past any numpy array size.
            ({"n": 10 ** 20}, "n must be at most 9223372036854775807"),
            (logistic(data={"n_samples": 10 ** 20}), "n_samples must be at most 9223372036854775807"),
            (logistic(data={"d": 10 ** 20}), "d must be at most 9223372036854775807"),
            (logistic(data={"num_classes": 10 ** 20}), "num_classes must be at most 9223372036854775807"),
            (logistic(model={"kind": "mlp", "hidden": [10 ** 20]}),
             "hidden[0] must be at most 9223372036854775807"),
            # Within int64 but past numpy's array size, 2**60 - 1 floats.
            ({"n": 2 ** 62}, "n must be at most 1152921504606846975"),
            (logistic(data={"d": 2 ** 62}), "n_samples * d must be at most 1152921504606846975"),
            (logistic(data={"n_samples": 2 ** 62}), "n_samples * d must be at most 1152921504606846975"),
            (logistic(model={"kind": "mlp", "hidden": [2 ** 62]}),
             "the parameter count of hidden [4611686018427387904] must be at most 1152921504606846975"),
            ({"n": 2 ** 20, "m": 2 ** 41}, "m * n must be at most 1152921504606846975"),
            ({**logistic(), "batch_size": 2 ** 62},
             "m * batch_size * the widest layer must be at most 1152921504606846975"),
            # An int past the float range is not a finite number.
            ({"gamma": 10 ** 400}, "gamma must be a finite number"),
            ({"learning_rate": 10 ** 400}, "learning_rate must be a positive number"),
            # A theory step 1/sqrt(t * L1) that is 0 because t * L1 overflows
            # is refused by its fields before round 0, not by update_model.
            ({"learning_rate": "theory", "model": {"kind": "quadratic", "lipschitz": 1e308}},
             "learning_rate 'theory' steps 1/sqrt(t * L1), which is 0 here: t 8 times L1 inf, "
             "the sum of the lipschitz coefficients, overflows a float"),
            ({"learning_rate": "theory", "n": 1, "model": {"kind": "quadratic", "lipschitz": 1e308}},
             "t 8 times L1 1e+308, the sum of the lipschitz coefficients, overflows a float"),
            ({"model": {"kind": "quadratic", "noise_std": 10 ** 400}}, "noise_std must be a number"),
            (logistic(data={"separation": 10 ** 400}), "separation must be a finite number"),
            # A test or training set with no sample is refused by name, not
            # at round 0 or by the partition.
            (logistic(data={"test_fraction": 0}), "test_fraction must leave a test and a training sample"),
            (logistic(data={"n_samples": 100, "test_fraction": 0.004}),
             "test_fraction must leave a test and a training sample, got 0.004 of 100 samples"),
            (logistic(data={"n_samples": 10, "test_fraction": 0.99}),
             "test_fraction must leave a test and a training sample, got 0.99 of 10 samples"),
            # A split that leaves a worker no sample is refused by its fields
            # when the task is built, not at round 0.
            ({**logistic(data={"n_samples": 20}), "m": 20},
             "m must be at most the training sample count, got 20: n_samples 20 leaves 16 for training"),
            ({**logistic(data={"n_samples": 16, "num_classes": 10, "mode": "NONIID"}), "m": 12},
             "m 12 leaves worker 8 an empty shard: NONIID gives the samples of each of the "
             "num_classes 10 classes to its workers, and 13 samples hold too few of class 8"),
            (logistic(data={"n_samples": 20, "num_classes": 30}),
             "n_samples must be at least num_classes, got n_samples 20, num_classes 30"),
        ],
    )
    def test_mistyped_config_is_one_error_line(self, quad_config, override, message, capsys):
        quad_config.write_text(json.dumps({**json.loads(quad_config.read_text()), **override}))
        assert main(["run", "--config", str(quad_config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_idx_test_set_with_no_sample_is_one_error_line(self, quad_config, tmp_path, capsys):
        def write_idx(stem, n):
            images, labels = tmp_path / f"{stem}-images", tmp_path / f"{stem}-labels"
            images.write_bytes(struct.pack(">IIII", 0x803, n, 2, 2) + bytes(range(4 * n)))
            labels.write_bytes(struct.pack(">II", 0x801, n) + bytes(i % 2 for i in range(n)))
            return str(images), str(labels)

        train, test = write_idx("train", 6), write_idx("test", 0)
        data = {"source": "idx", "train_images": train[0], "train_labels": train[1],
                "test_images": test[0], "test_labels": test[1]}
        quad_config.write_text(json.dumps({**QUAD, "n": None, "model": {"kind": "logistic"}, "data": data}))
        assert main(["run", "--config", str(quad_config)]) == 1
        assert capsys.readouterr().err == f"error: test_images {test[0]} holds no samples\n"

    def test_idx_header_past_its_file_is_one_error_line_naming_it(self, quad_config, tmp_path, capsys):
        images = tmp_path / "train_images.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 2**20, 2**10, 2**10) + bytes(10))
        data = {"source": "idx", "train_images": str(images), "train_labels": str(images),
                "test_images": str(images), "test_labels": str(images)}
        quad_config.write_text(json.dumps({**QUAD, "n": None, "model": {"kind": "logistic"}, "data": data}))
        assert main(["run", "--config", str(quad_config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {images}: images payload of {2**40} bytes, but 10 are left in the file\n")

    @given(field_and_value=st.sampled_from(sorted(BAD_VALUES)).flatmap(
        lambda name: st.tuples(st.just(name), BAD_VALUES[name])))
    @settings(max_examples=200, deadline=None)
    def test_bad_top_level_field_is_one_error_line_naming_it(self, field_and_value, tmp_path_factory):
        name, value = field_and_value
        path = tmp_path_factory.mktemp("bad") / "cfg.json"
        path.write_text(json.dumps({**QUAD, name: value}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["run", "--config", str(path)]) == 1
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        assert re.match(rf"error: (unknown )?{name} ", err.getvalue()), err.getvalue()


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

    def test_seed_is_refused(self, quad_config, capsys):
        # --seeds picks the seeds, and --seed is not read as its abbreviation.
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--config", str(quad_config), "--axis", "gamma",
                  "--values", "0.1", "--seed", "3"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_bad_axis(self, quad_config, capsys):
        assert main(["sweep", "--config", str(quad_config), "--axis", "delta",
                     "--values", "0.1"]) == 1
        assert "axis" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, text, message",
        [
            ("--values", "abc", "error: --values must be comma separated floats, got 'abc'"),
            ("--values", "0.1,x", "error: --values must be comma separated floats, got '0.1,x'"),
            ("--seeds", "x", "error: --seeds must be comma separated ints, got 'x'"),
            ("--seeds", "1.5", "error: --seeds must be comma separated ints, got '1.5'"),
        ],
    )
    def test_unreadable_list_is_one_error_line_naming_its_option(
            self, quad_config, option, text, message, capsys):
        argv = {"--values": "0.1", option: text}
        assert main(["sweep", "--config", str(quad_config), "--axis", "gamma",
                     *[word for pair in argv.items() for word in pair]]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"


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
        # The bounds come from theory.__all__; the full list pins them, so a
        # bound added to or dropped from there shows up here.
        bounds = [
            "alpha", "beta", "convergence_bound_randk", "convergence_bound_topk",
            "empty_coordinate_prob", "gamma_star", "m_participation_pmf", "rho_lower_bound",
            "sign_flip_bound", "sparsity_surrogate", "vote_error_bound", "vote_error_exact",
        ]
        assert capsys.readouterr().err == f"unknown bound 'lyapunov'; one of {bounds}\n"

    def test_params_must_be_object(self, capsys):
        code = main(["theory", "eval", "--bound", "alpha", "--params", "[1, 2]"])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    def test_malformed_json(self, capsys):
        code = main(["theory", "eval", "--bound", "alpha", "--params", "{bad"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_argument_name(self, capsys):
        bound_inputs = {"m": 8, "gamma": 0.1, "epsilon": 1.0, "l1_smoothness": 16.0,
                        "sigma_l1": 1.0, "f0_minus_fstar": 1.0, "t": 100}
        for bound, params, name in [("alpha", {"workers": 3, "gamma": 0.5}, "workers"),
                                    ("convergence_bound_randk", {**bound_inputs, "batch": 4}, "batch")]:
            code = main(["theory", "eval", "--bound", bound, "--params", json.dumps(params)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"'{name}'" in err

    @pytest.mark.parametrize(
        "bound, params",
        [
            ("alpha", {"m": 10 ** 400, "gamma": 0.5}),
            ("alpha", {"m": True, "gamma": 0.5}),
            ("beta", {"m": 3.5, "gamma": 0.5}),
            ("m_participation_pmf", {"m": 3, "gamma": 0.5, "u": 1.5}),
            ("vote_error_exact", {"p": 0.1, "u": 2.5}),
            ("convergence_bound_topk", {"m": 8, "gamma": 0.1, "epsilon": 1.0,
                                        "l1_smoothness": 16.0, "sigma_l1": 1.0,
                                        "f0_minus_fstar": 1.0, "t": 100.5}),
            # Over 2**47 bytes: the allocation fails at once and touches no memory.
            ("beta", {"m": 10 ** 15, "gamma": 0.5}),
        ],
    )
    def test_bad_count_is_one_error_line(self, capsys, bound, params):
        code, captured = self.run_eval(capsys, bound, params)
        assert code == 1
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "bound, params",
        [
            ("vote_error_exact", {"p": 0.1, "u": 10 ** 20}),
            ("m_participation_pmf", {"m": 10 ** 20, "gamma": 0.5, "u": 3}),
            ("sign_flip_bound", {"sigma_n": 1.0, "g_bar_abs": 1.0, "batch": True,
                                 "gamma": 0.5, "epsilon": 0.5}),
            ("sign_flip_bound", {"sigma_n": 1.0, "g_bar_abs": 1.0, "batch": 2.5,
                                 "gamma": 0.5, "epsilon": 0.5}),
            ("sign_flip_bound", {"sigma_n": "1", "g_bar_abs": 1.0, "batch": 2,
                                 "gamma": 0.5, "epsilon": 0.5}),
            ("sign_flip_bound", {"sigma_n": float("nan"), "g_bar_abs": 1.0, "batch": 2,
                                 "gamma": 0.5, "epsilon": 0.5}),
            ("sign_flip_bound", {"sigma_n": 1.0, "g_bar_abs": 1.0, "batch": 2,
                                 "gamma": 0.5, "epsilon": float("inf")}),
            ("sign_flip_bound", {"sigma_n": 1.0, "g_bar_abs": 1.0, "batch": 2,
                                 "gamma": 0.5, "epsilon": 0.5, "clamp": "no"}),
            ("alpha", {"m": 3, "gamma": "0.5"}),
            ("empty_coordinate_prob", {"m": 3, "gamma": float("nan")}),
            ("rho_lower_bound", {"gamma": 0.5, "epsilon": [1.0], "g_bar_abs": 1.0}),
            ("vote_error_bound", {"p": "0.1", "u": 3}),
            ("vote_error_exact", {"p": None, "u": 3}),
            ("gamma_star", {"m": 8, "epsilon": 1.0, "f0_minus_fstar": 1.0,
                            "l1_smoothness": float("inf"), "sigma_l1": 1.0}),
            ("sparsity_surrogate", {"gamma": 0.1, "m": 8, "epsilon": 1.0, "f0_minus_fstar": 1.0,
                                    "l1_smoothness": 16.0, "sigma_l1": 1.0, "t": "100"}),
            ("convergence_bound_topk", {"m": 8, "gamma": 0.1, "epsilon": 1.0,
                                        "l1_smoothness": 16.0, "sigma_l1": True,
                                        "f0_minus_fstar": 1.0, "t": 100}),
            # Finite inputs whose bound overflows: JSON has no Infinity.
            ("gamma_star", {"m": 8, "epsilon": 1.0, "f0_minus_fstar": 1e308,
                            "l1_smoothness": 1e308, "sigma_l1": 1e-308}),
            ("sparsity_surrogate", {"gamma": 5e-324, "m": 8, "epsilon": 1.0, "f0_minus_fstar": 1e300,
                                    "l1_smoothness": 16.0, "sigma_l1": 1.0}),
            ("sign_flip_bound", {"sigma_n": 1e308, "g_bar_abs": 1e-308, "batch": 1,
                                 "gamma": 0.5, "epsilon": 0.5, "clamp": False}),
            ("rho_lower_bound", {"gamma": 5e-324, "epsilon": 1.0, "g_bar_abs": 1e308}),
        ],
    )
    def test_bad_argument_is_one_error_line(self, capsys, bound, params):
        code, captured = self.run_eval(capsys, bound, params)
        assert code == 1
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_integral_float_batch_is_a_batch(self, capsys):
        params = {"sigma_n": 1.0, "g_bar_abs": 1.0, "gamma": 0.25, "epsilon": 1.0}
        values = []
        for batch in (4, 4.0):
            code, captured = self.run_eval(capsys, "sign_flip_bound", {**params, "batch": batch})
            assert code == 0
            values.append(json.loads(captured.out)["value"])
        assert values[0] == values[1] == pytest.approx(1 / 6, abs=1e-15)

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
