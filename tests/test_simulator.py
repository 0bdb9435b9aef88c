"""End-to-end engine properties: reductions, determinism, costs, serialization."""

import json
import math
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevote import compression, simulator
from sparsevote.aggregation import majority_vote
from sparsevote.codec import ALGORITHMS, CommLedger, analytic_round_cost, count_field_width
from sparsevote.compression import SparseSignVector, rand_k_sign
from sparsevote.rng import derive_rng, worker_rng
from sparsevote.simulator import (
    CSV_COLUMNS,
    ClassificationTask,
    ExperimentConfig,
    QuadraticTask,
    SelectionStats,
    emit_results,
    emit_sweep,
    load_results,
    resolve_k,
    run_experiment,
    selection_histogram,
    sweep,
    update_model,
)
from task_reference import PerCallTask


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def quad_cfg(**overrides):
    base = dict(
        algorithm="S3GD_MV",
        m=4,
        t=30,
        gamma=0.5,
        n=16,
        learning_rate=1e-2,
        batch_size=1,
        seed=7,
        model={"kind": "quadratic", "noise_std": 0.5, "init": 1.0},
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def trajectory(metrics):
    """Everything except timing, which is never reproducible."""
    return [
        (m.round, m.algorithm, m.train_loss, m.test_metric, m.gbar_l1,
         m.uplink_bits, m.downlink_bits, m.cumulative_bits)
        for m in metrics
    ]


def errors_only(metrics):
    return [(m.round, m.train_loss, m.test_metric, m.gbar_l1) for m in metrics]


class TestResolveK:
    def test_rounding(self):
        assert resolve_k(1.0, 10) == 10
        assert resolve_k(0.5, 10) == 5
        assert resolve_k(0.25, 10) == 3
        assert resolve_k(0.24, 10) == 2

    def test_floor_at_one(self):
        assert resolve_k(0.001, 10) == 1
        assert resolve_k(0.0, 10) == 0

    def test_never_exceeds_dim(self):
        assert resolve_k(0.9999, 3) == 3


class TestUpdateModel:
    def test_plain_step_exact(self):
        x = np.array([1.0, -2.0])
        d = np.array([0.5, 0.25])
        x2, state = update_model(x, d, 0.1)
        assert np.array_equal(x2, x - 0.1 * d)
        assert state is None

    def test_momentum_recursion(self):
        x = np.zeros(2)
        state = None
        v_hand = np.zeros(2)
        for step in range(4):
            d = np.array([1.0, float(step)])
            x, state = update_model(x, d, 0.1, state, mu=0.5)
            v_hand = 0.5 * v_hand + d
            assert np.allclose(state, v_hand)
        x_hand = np.zeros(2)
        v_hand = np.zeros(2)
        for step in range(4):
            v_hand = 0.5 * v_hand + np.array([1.0, float(step)])
            x_hand = x_hand - 0.1 * v_hand
        assert np.allclose(x, x_hand)

    def test_zero_mu_ignores_state(self):
        state = np.array([100.0])
        x2, out = update_model(np.array([0.0]), np.array([1.0]), 1.0, state, mu=0.0)
        assert x2[0] == -1.0
        assert out is state

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    @pytest.mark.parametrize("mu, has_velocity", [(0.0, True), (0.5, True), (0.5, False)])
    def test_bytes_of_the_formula_and_the_inputs_untouched(self, dtype, mu, has_velocity):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1000)
        direction = rng.integers(-1, 2, 1000).astype(dtype)
        if dtype is np.float64:
            direction *= rng.standard_normal(1000)
        velocity = rng.standard_normal(1000) if has_velocity else None
        before = [a.copy() for a in (x, direction, velocity) if a is not None]
        x2, v2 = update_model(x, direction, 0.3, velocity, mu)
        d = direction.astype(np.float64)
        if mu:
            v = mu * (velocity if has_velocity else np.zeros(1000)) + d
            assert v2.tobytes() == v.tobytes() and v2 is not velocity
        else:
            v = d
            assert v2 is velocity
        assert x2.tobytes() == (x - 0.3 * v).tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(before, (x, direction, velocity)))

    def test_errors(self):
        with pytest.raises(ValueError):
            update_model(np.zeros(2), np.zeros(3), 0.1)
        with pytest.raises(ValueError):
            update_model(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            update_model(np.zeros(2), np.zeros(2), 0.1, mu=1.0)


class TestReductions:
    def test_full_sparsity_no_memory_equals_dense_sign_vote(self):
        a = run_experiment(quad_cfg(algorithm="S3GD_MV", gamma=1.0, eta=0.0, t=60))
        b = run_experiment(quad_cfg(algorithm="SIGNSGD_MV", gamma=1.0, t=60))
        assert errors_only(a) == errors_only(b)
        # identical bit budgets too: K = N makes both 1 bit per coordinate
        assert [(m.uplink_bits, m.downlink_bits) for m in a] == [
            (m.uplink_bits, m.downlink_bits) for m in b
        ]

    def test_full_k_memory_sgd_equals_vanilla(self):
        a = run_experiment(quad_cfg(algorithm="TOPK_SGD_MEM", gamma=1.0, t=60,
                                    learning_rate=0.05))
        b = run_experiment(quad_cfg(algorithm="VANILLA_SGD", gamma=1.0, t=60,
                                    learning_rate=0.05))
        assert errors_only(a) == errors_only(b)
        assert [(m.uplink_bits, m.downlink_bits) for m in a] == [
            (m.uplink_bits, m.downlink_bits) for m in b
        ]


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = run_experiment(quad_cfg(record_selection=True))
        b = run_experiment(quad_cfg(record_selection=True))
        assert trajectory(a) == trajectory(b)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.selection_counts, mb.selection_counts)

    def test_seed_changes_run(self):
        a = run_experiment(quad_cfg(seed=7))
        b = run_experiment(quad_cfg(seed=8))
        assert errors_only(a) != errors_only(b)

    def test_randk_deterministic(self):
        a = run_experiment(quad_cfg(algorithm="S3GD_MV_RANDK"))
        b = run_experiment(quad_cfg(algorithm="S3GD_MV_RANDK"))
        assert trajectory(a) == trajectory(b)


class TestCostAccounting:
    @pytest.mark.parametrize(
        "alg", ["VANILLA_SGD", "TOPK_SGD_MEM", "SIGNSGD_MV", "S3GD_MV", "S3GD_MV_RANDK"]
    )
    def test_ledger_matches_closed_form_total(self, alg):
        cfg = quad_cfg(algorithm=alg, t=5)
        metrics = run_experiment(cfg)
        spent = sum(m.uplink_bits + m.downlink_bits for m in metrics)
        k = resolve_k(cfg.gamma, cfg.n)
        assert math.isclose(
            spent, cfg.t * sum(analytic_round_cost(alg, cfg.m, cfg.n, k)), rel_tol=1e-9
        )
        assert metrics[-1].cumulative_bits == pytest.approx(spent, rel=1e-12)

    @pytest.mark.parametrize("cost_mode", ["ANALYTIC", "WIRE"])
    def test_a_run_totals_its_bits_in_a_comm_ledger(self, monkeypatch, cost_mode):
        ledgers = []

        class Spy(CommLedger):
            def __init__(self, algorithm):
                super().__init__(algorithm)
                self.recorded = []
                ledgers.append(self)

            def record(self, round_index, uplink_bits, downlink_bits):
                super().record(round_index, uplink_bits, downlink_bits)
                self.recorded.append((round_index, uplink_bits, downlink_bits, self.cumulative_bits))

        monkeypatch.setattr(simulator, "CommLedger", Spy)
        metrics = run_experiment(quad_cfg(t=6, cost_mode=cost_mode))
        (ledger,) = ledgers
        assert ledger.recorded == [(m.round, m.uplink_bits, m.downlink_bits, m.cumulative_bits) for m in metrics]

    def test_wire_mode_same_trajectory(self):
        a = run_experiment(quad_cfg(cost_mode="ANALYTIC"))
        b = run_experiment(quad_cfg(cost_mode="WIRE"))
        assert errors_only(a) == errors_only(b)
        assert all(m.uplink_bits > 0 and m.downlink_bits > 0 for m in b)

    def test_wire_costs_are_exact_bit_counts(self):
        # every wire figure is a whole number of bits
        metrics = run_experiment(quad_cfg(cost_mode="WIRE", t=10))
        for m in metrics:
            assert m.uplink_bits == int(m.uplink_bits)
            assert m.downlink_bits == int(m.downlink_bits)

    @pytest.mark.parametrize("name", ["quadratic_s3gd", "logistic_noniid"])
    def test_wire_uplink_within_rice_overhead_of_analytic(self, name):
        # A Rice-coded message of at most K entries costs at most Wc + 3K bits
        # more than its K + K*log2(N/K) budget.
        cfg = ExperimentConfig.from_json(CONFIGS / f"{name}.json")
        analytic = run_experiment(cfg)
        wire = run_experiment(replace(cfg, cost_mode="WIRE"))
        task = QuadraticTask(cfg) if cfg.model["kind"] == "quadratic" else ClassificationTask(cfg)
        slack = cfg.m * (count_field_width(task.dim) + 3 * resolve_k(cfg.gamma, task.dim))
        assert len(wire) == len(analytic) == cfg.t
        for w, a in zip(wire, analytic):
            assert w.uplink_bits <= a.uplink_bits + slack, w.round

    @pytest.mark.parametrize("name", ["quadratic_s3gd", "logistic_noniid"])
    def test_wire_downlink_within_bitmap_bound(self, name, monkeypatch):
        # A vote with |V| nonzero signs is a message of |V| entries, at most
        # Wc + N + |V| bits, and the server sends it to each of the M workers.
        votes = []

        def recording_vote(msgs, dim):
            vote = majority_vote(msgs, dim)
            votes.append((dim, int(np.count_nonzero(vote.ternary))))
            return vote

        monkeypatch.setattr("sparsevote.simulator.majority_vote", recording_vote)
        cfg = replace(ExperimentConfig.from_json(CONFIGS / f"{name}.json"), cost_mode="WIRE")
        metrics = run_experiment(cfg)
        assert len(votes) == len(metrics) == cfg.t
        for m, (dim, decisive) in zip(metrics, votes):
            assert m.downlink_bits <= cfg.m * (count_field_width(dim) + dim + decisive), m.round

    @pytest.mark.parametrize("name", ["quadratic_s3gd", "logistic_noniid"])
    def test_a_wire_round_builds_no_message_object(self, name, monkeypatch):
        # The M uploads stay one SignBatch and the vote a dense array: the
        # round charges their encoded lengths without building a
        # SparseSignVector; each one is checked when built, so the check
        # counts them all.
        built = []
        check = SparseSignVector.__post_init__

        def counting(self):
            built.append(type(self))
            check(self)

        monkeypatch.setattr(SparseSignVector, "__post_init__", counting)
        cfg = replace(ExperimentConfig.from_json(CONFIGS / f"{name}.json"), cost_mode="WIRE", t=5)
        run_experiment(cfg)
        assert built.count(SparseSignVector) == 0

    @pytest.mark.parametrize("name", ["quadratic_s3gd", "logistic_noniid"])
    def test_a_wire_round_checks_its_batch_once(self, name, monkeypatch):
        # The uploads are checked when the worker phase's batch is built;
        # their wire lengths and the vote's are read from that batch and the
        # vote's dense signs, with no second batch or message to check.
        calls = []
        check = compression._checked

        def counting(*args):
            calls.append(args[0])
            return check(*args)

        monkeypatch.setattr(compression, "_checked", counting)
        cfg = replace(ExperimentConfig.from_json(CONFIGS / f"{name}.json"), cost_mode="WIRE", t=5)
        assert cfg.algorithm == "S3GD_MV"
        run_experiment(cfg)
        assert len(calls) == cfg.t

    def test_cumulative_is_running_sum(self):
        metrics = run_experiment(quad_cfg(t=10))
        running = 0.0
        for m in metrics:
            running += m.uplink_bits + m.downlink_bits
            assert m.cumulative_bits == pytest.approx(running, rel=1e-12)


class TestDynamics:
    def test_zero_gradient_fixed_point(self):
        cfg = quad_cfg(model={"kind": "quadratic", "noise_std": 0.0, "init": 0.0}, t=10,
                       record_selection=True)
        metrics = run_experiment(cfg)
        assert all(m.train_loss == 0.0 for m in metrics)
        assert all(m.gbar_l1 == 0.0 for m in metrics)
        # zero gradients produce empty sign messages: nothing ever selected
        total = selection_histogram(metrics).counts
        assert total.sum() == 0

    def test_noiseless_quadratic_converges(self):
        cfg = quad_cfg(
            algorithm="VANILLA_SGD",
            model={"kind": "quadratic", "noise_std": 0.0, "init": 1.0},
            learning_rate=0.1,
            t=200,
        )
        metrics = run_experiment(cfg)
        assert metrics[-1].train_loss < 1e-6 * metrics[0].train_loss

    def test_divergence_raises(self):
        cfg = quad_cfg(algorithm="VANILLA_SGD", learning_rate=1e6, t=500,
                       model={"kind": "quadratic", "noise_std": 0.0, "init": 1.0})
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            run_experiment(cfg)

    def test_theory_schedule_applied(self):
        # T=2, L = diag(2), x0 = 1: delta = 1/sqrt(T * L1) = 1/2,
        # round-1 iterate is x1 = 1 - (1/2) * 2 = 0, so loss drops to 0
        cfg = quad_cfg(
            algorithm="VANILLA_SGD",
            n=1,
            t=2,
            learning_rate="theory",
            batch_size="theory",
            model={"kind": "quadratic", "lipschitz": 2.0, "noise_std": 0.0, "init": 1.0},
        )
        metrics = run_experiment(cfg)
        assert metrics[0].train_loss == pytest.approx(1.0)
        assert metrics[1].train_loss == pytest.approx(0.0, abs=1e-24)

    def test_momentum_engine_matches_hand_recursion(self):
        # N=1 noiseless quadratic, VANILLA, mu=0.5: recurse by hand
        L, delta, mu = 2.0, 0.05, 0.5
        cfg = quad_cfg(
            algorithm="VANILLA_SGD", n=1, t=5, learning_rate=delta, mu=mu,
            model={"kind": "quadratic", "lipschitz": L, "noise_std": 0.0, "init": 1.0},
        )
        metrics = run_experiment(cfg)
        x, v = 1.0, 0.0
        for m in metrics:
            assert m.train_loss == pytest.approx(0.5 * L * x * x, rel=1e-12)
            v = mu * v + L * x
            x = x - delta * v

    def test_error_feedback_changes_run(self):
        with_mem = run_experiment(quad_cfg(eta=1.0, gamma=0.25, t=80))
        without = run_experiment(quad_cfg(eta=0.0, gamma=0.25, t=80))
        assert errors_only(with_mem) != errors_only(without)


class TestSelection:
    def test_full_gamma_counts_everything(self):
        cfg = quad_cfg(gamma=1.0, t=20, record_selection=True)
        stats = selection_histogram(run_experiment(cfg))
        assert stats.counts.sum() == cfg.m * cfg.t * cfg.n
        assert stats.max_min_ratio == 1.0
        assert stats.chi_square == 0.0

    def test_sparse_counts_budget(self):
        # noisy gradients have no zero entries, so every message carries K signs
        cfg = quad_cfg(gamma=0.25, t=20, record_selection=True)
        stats = selection_histogram(run_experiment(cfg))
        assert stats.counts.sum() == cfg.m * cfg.t * resolve_k(cfg.gamma, cfg.n)

    def test_vanilla_counts_dense(self):
        cfg = quad_cfg(algorithm="VANILLA_SGD", t=5, record_selection=True)
        stats = selection_histogram(run_experiment(cfg))
        assert np.all(stats.counts == cfg.m * cfg.t)

    def test_recording_is_off_by_default(self):
        assert ExperimentConfig(algorithm="S3GD_MV", m=2, t=1).record_selection is False
        assert all(m.selection_counts is None for m in run_experiment(quad_cfg(t=2)))

    def test_disabled_recording_raises(self):
        metrics = run_experiment(quad_cfg(record_selection=False, t=5))
        assert all(m.selection_counts is None for m in metrics)
        with pytest.raises(ValueError):
            selection_histogram(metrics)

    @pytest.mark.parametrize("algorithm", ["S3GD_MV", "VANILLA_SGD"])
    @pytest.mark.parametrize("m, dtype", [(4, np.uint8), (255, np.uint8), (256, np.uint16)])
    def test_counts_kept_in_the_narrowest_unsigned_dtype(self, algorithm, m, dtype):
        # gamma = 1 and noisy gradients: every worker sends every coordinate.
        metrics = run_experiment(quad_cfg(algorithm=algorithm, m=m, t=2, n=4, gamma=1.0,
                                          record_selection=True))
        for r in metrics:
            assert r.selection_counts.dtype == dtype
            assert r.selection_counts.tolist() == [m] * 4
        stats = selection_histogram(metrics)
        assert stats.counts.dtype == np.int64 and stats.counts.tolist() == [2 * m] * 4

    def test_stats_shape(self):
        stats = selection_histogram(run_experiment(quad_cfg(t=10, record_selection=True)))
        assert isinstance(stats, SelectionStats)
        assert stats.counts.shape == (16,)
        assert stats.max_min_ratio >= 1.0


class TestSweep:
    def test_single_value_matches_direct_run(self):
        template = quad_cfg(t=20)
        rows = sweep(template, "gamma", [0.5])
        direct = run_experiment(template)
        assert len(rows) == 1
        row = rows[0]
        assert row.axis == "GAMMA" and row.value == 0.5 and row.seed == template.seed
        assert row.final_train_loss == direct[-1].train_loss
        assert row.final_gbar_l1 == direct[-1].gbar_l1
        assert row.cumulative_bits == direct[-1].cumulative_bits
        assert row.mean_gbar_l1 == pytest.approx(
            np.mean([m.gbar_l1 for m in direct]), rel=1e-12
        )

    def test_grid_size(self):
        rows = sweep(quad_cfg(t=5), "gamma", [0.25, 0.5, 1.0], seeds=[0, 1])
        assert len(rows) == 6
        assert {(r.value, r.seed) for r in rows} == {
            (g, s) for g in (0.25, 0.5, 1.0) for s in (0, 1)
        }

    def test_m_axis_casts_int(self):
        rows = sweep(quad_cfg(t=5), "m", [2, 4])
        assert [r.value for r in rows] == [2, 4]

    def test_eta_and_mu_axes(self):
        assert len(sweep(quad_cfg(t=5), "eta", [0.0, 1.0])) == 2
        assert len(sweep(quad_cfg(t=5), "mu", [0.0, 0.5])) == 2

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            sweep(quad_cfg(t=5), "delta", [0.1])

    def test_bad_value_names_the_culprit(self):
        with pytest.raises(ValueError, match="GAMMA value 2.0"):
            sweep(quad_cfg(t=5), "gamma", [2.0])


class TestSerialization:
    def test_csv_roundtrip_exact(self, tmp_path):
        metrics = run_experiment(quad_cfg(t=10))
        path = tmp_path / "out.csv"
        emit_results(metrics, path, fmt="csv")
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        back = load_results(path)
        assert trajectory(back) == trajectory(metrics)
        assert [m.wall_ms for m in back] == [m.wall_ms for m in metrics]

    def test_json_roundtrip_exact(self, tmp_path):
        metrics = run_experiment(quad_cfg(t=10))
        path = tmp_path / "out.json"
        emit_results(metrics, path, fmt="json")
        back = load_results(path)
        assert trajectory(back) == trajectory(metrics)

    @pytest.mark.parametrize("fmt, edit, message", [
        ("csv", lambda text: "round,algorithm\n0,S3GD_MV\n", "row 1, column train_loss: missing"),
        ("csv", lambda text: text.replace("\n1,", "\nx,"), "row 2, column round: must be int, got 'x'"),
        ("csv", lambda text: text.rsplit(",", 1)[0], "row 2, column wall_ms: must be float, got None"),
        ("csv", lambda text: text.rstrip() + ",7\n", "row 2 must be a record of round, algorithm, train_loss"),
        ("json", lambda text: "[{}]", "row 1, column round: missing"),
        ("json", lambda text: '{"round": 0}', "results must be a JSON list of records, got dict"),
        ("json", lambda text: "[[0, 1]]", "row 1 must be a record of round, algorithm"),
        ("json", lambda text: text.replace('"round": 0', '"round": 0.5'), "row 1, column round: must be int, got 0.5"),
        ("json", lambda text: text.replace('"algorithm": "S3GD_MV"', '"algorithm": 3', 1),
         "row 1, column algorithm: must be str, got 3"),
        ("json", lambda text: text.replace('"round": 0', '"extra": 1, "round": 0'), "row 1 must be a record of round"),
        ("json", lambda text: "[{", "Expecting property name"),
    ])
    def test_a_malformed_file_is_one_error_naming_it(self, tmp_path, fmt, edit, message):
        path = tmp_path / f"results.{fmt}"
        emit_results(run_experiment(quad_cfg(t=2)), path, fmt=fmt)
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError) as err:
            load_results(path)
        assert str(err.value).startswith(f"{path}: ") and message in str(err.value), str(err.value)
        assert "\n" not in str(err.value)

    def test_a_json_bool_is_not_a_float(self, tmp_path):
        path = tmp_path / "results.json"
        emit_results(run_experiment(quad_cfg(t=1)), path, fmt="json")
        records = json.loads(path.read_text())
        records[0]["train_loss"] = True
        path.write_text(json.dumps(records))
        with pytest.raises(ValueError, match="row 1, column train_loss: must be float, got True$"):
            load_results(path)

    def test_format_sniffing(self, tmp_path):
        metrics = run_experiment(quad_cfg(t=3))
        jpath = tmp_path / "res.json"
        emit_results(metrics, jpath, fmt="json")
        assert trajectory(load_results(jpath)) == trajectory(metrics)

    def test_sweep_emit(self, tmp_path):
        rows = sweep(quad_cfg(t=5), "gamma", [0.5, 1.0])
        cpath = tmp_path / "sweep.csv"
        emit_sweep(rows, cpath, fmt="csv")
        lines = cpath.read_text().splitlines()
        assert lines[0].startswith("axis,value,seed,")
        assert len(lines) == 3
        jpath = tmp_path / "sweep.json"
        emit_sweep(rows, jpath, fmt="json")
        assert len(json.loads(jpath.read_text())) == 2

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path / "x.yaml", fmt="yaml")


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"algorithm": "S3GD_MV", "m": 1, "t": 1, "lr": 0.1})

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": "SIGNSGD_MV", "m": 2, "t": 3, "n": 4}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.algorithm == "SIGNSGD_MV" and cfg.m == 2 and cfg.t == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"algorithm": "ADAM"},
            {"m": 0},
            {"t": 0},
            {"gamma": 2.0},
            {"gamma": -0.1},
            {"eta": -1.0},
            {"mu": 1.0},
            {"seed": -1},
            {"cost_mode": "EXACT"},
            {"learning_rate": "fast"},
            {"learning_rate": -0.5},
            {"batch_size": "big"},
            {"batch_size": 0},
        ],
    )
    def test_validation_rejects(self, overrides):
        with pytest.raises(ValueError):
            run_experiment(quad_cfg(**overrides))

    def test_checked_when_built_and_frozen(self):
        valid = quad_cfg()
        builds = [
            lambda: replace(valid, m=0),
            lambda: replace(valid, gamma="0.5"),
            lambda: ExperimentConfig(algorithm="S3GD_MV", m="3", t=1),
        ]
        for build in builds:
            with pytest.raises(ValueError):
                build()
        with pytest.raises(FrozenInstanceError):
            valid.m = 2

    # Configs are only built here, never run.
    @given(st.builds(
        ExperimentConfig,
        algorithm=st.sampled_from(sorted(ALGORITHMS)),
        m=st.integers(1, 16),
        t=st.integers(1, 8),
        gamma=st.floats(0, 1),
        n=st.none() | st.integers(1, 64),
        learning_rate=st.none() | st.just("theory") | st.floats(5e-324, allow_infinity=False),
        batch_size=st.just("theory") | st.integers(1, 64) | st.integers(1, 64).map(float),
        eta=st.floats(0, allow_infinity=False),
        mu=st.floats(0, 1, exclude_max=True),
        seed=st.integers(0, 2**70),
        cost_mode=st.sampled_from(["ANALYTIC", "WIRE"]),
        record_selection=st.booleans(),
        model=st.sampled_from([{"kind": "quadratic", "noise_std": 0.5}, {"kind": "logistic"}]),
        data=st.sampled_from([{}, {"n_samples": 60, "mode": "NONIID"}]),
    ))
    @settings(max_examples=100, deadline=None)
    def test_valid_config_round_trips_through_json(self, cfg):
        assert ExperimentConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_quadratic_needs_n(self):
        with pytest.raises(ValueError, match="n"):
            run_experiment(quad_cfg(n=None))

    def test_unknown_model_kind(self):
        with pytest.raises(ValueError, match="kind"):
            run_experiment(quad_cfg(model={"kind": "transformer"}))

    def test_unknown_model_key(self):
        with pytest.raises(ValueError, match="quadratic model keys"):
            run_experiment(quad_cfg(model={"kind": "quadratic", "rho": 1.0}))

    def test_logspace_coefficients(self):
        cfg = quad_cfg(
            n=4,
            t=1,
            model={"kind": "quadratic", "lipschitz": {"log_min": 0, "log_max": 3},
                   "noise_std": 0.0, "init": 1.0},
        )
        metrics = run_experiment(cfg)
        # loss at x = 1 is 0.5 * sum(logspace(0, 3, 4)) = 0.5 * (1 + 10 + 100 + 1000)
        assert metrics[0].train_loss == pytest.approx(0.5 * 1111.0)

    def test_theory_lr_needs_quadratic(self):
        cfg = quad_cfg(
            n=None,
            learning_rate="theory",
            model={"kind": "logistic"},
            data={"n_samples": 60, "d": 3, "num_classes": 3},
            m=2,
            t=2,
        )
        with pytest.raises(ValueError, match="quadratic"):
            run_experiment(cfg)


class TestQuadraticTask:
    @pytest.mark.parametrize("batch_size, scale", [(4, 2.0), (9, 3.0), ("theory", 4.0)])
    def test_noise_scale_shrinks_with_the_batch(self, batch_size, scale):
        # One task for each batch size: B = 4, 9 and, as "theory", t = 16.
        cfg = quad_cfg(t=16, batch_size=batch_size, model={"kind": "quadratic", "noise_std": 6.0})
        task = QuadraticTask(cfg)
        x = np.linspace(-1.0, 1.0, 16)
        got = task.gradients(x, [np.random.default_rng(5)])[0:1]
        expected = np.random.default_rng(5).standard_normal(16)
        expected *= 6.0 / scale
        expected += task.l_diag * x
        assert got[0].tobytes() == expected.tobytes()

    def test_a_task_keeps_no_batch_state(self):
        # Worker threads and the evaluation thread share the task, so a call
        # must not change what a later call gives: repeated calls on one task
        # equal a fresh task's.
        cfg = quad_cfg(t=16, batch_size=4, model={"kind": "quadratic", "noise_std": 6.0})
        task = QuadraticTask(cfg)
        state = dict(vars(task))
        arrays = {key: value.tobytes() for key, value in state.items() if isinstance(value, np.ndarray)}
        for seed in (4, 9, 4, 1, 9, 16):
            xs = np.random.default_rng(seed).normal(size=(2, 16))
            grads = task.gradients(xs[0], [np.random.default_rng(seed)])[0:1]
            fresh = QuadraticTask(cfg)
            assert task.evaluate(xs) == fresh.evaluate(xs)
            assert grads.tobytes() == fresh.gradients(xs[0], [np.random.default_rng(seed)])[0:1].tobytes()
        assert vars(task).keys() == state.keys()
        assert all(vars(task)[key] is value for key, value in state.items())
        assert all(state[key].tobytes() == data for key, data in arrays.items())


@st.composite
def tasks(draw):
    """A quadratic, logistic or MLP task with its config."""
    kind = draw(st.sampled_from(["quadratic", "logistic", "mlp"]))
    raw = dict(algorithm="S3GD_MV_RANDK", m=draw(st.integers(1, 6)), t=4,
               batch_size=draw(st.integers(1, 8)), seed=draw(st.integers(0, 2**16)))
    if kind == "quadratic":
        raw["n"] = draw(st.integers(1, 60))
        raw["model"] = {"kind": kind, "noise_std": draw(st.sampled_from([0.0, 0.5, 3.0])),
                        "lipschitz": {"log_min": -1, "log_max": 1}}
        task = QuadraticTask(ExperimentConfig.from_dict(raw))
    else:
        raw["model"] = {"kind": kind}
        if kind == "mlp":
            raw["model"]["hidden"] = draw(st.sampled_from([[3], [4, 3]]))
        raw["data"] = {"n_samples": draw(st.integers(60, 150)), "d": draw(st.integers(1, 5)),
                       "num_classes": draw(st.integers(2, 12)),
                       "mode": draw(st.sampled_from(["IID", "NONIID"]))}
        task = ClassificationTask(ExperimentConfig.from_dict(raw))
    return task, raw


class TestGradientsAndEvaluate:
    """A task's gradients and evaluate against the per-call reference
    (task_reference), bit for bit."""

    @given(tasks(), st.integers(0, 2**16), st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_call_reference(self, made, t, scale):
        task, raw = made
        per_call = PerCallTask(task, ExperimentConfig.from_dict(raw))
        x = task.x0 + scale * np.random.default_rng(t).standard_normal(task.dim)
        k = resolve_k(0.3, task.dim)
        rngs = [worker_rng(raw["seed"], m, t) for m in range(raw["m"])]
        # The quadratic's rows are drawn as the slice reads them.
        grads = task.gradients(x, rngs)[0:len(rngs)]
        # Each worker's rand-K draw follows its gradient draw on its stream.
        got = [(g, rand_k_sign(g, k, rng)) for g, rng in zip(grads, rngs)]

        (evaluation,) = task.evaluate(x[None])
        assert np.array(evaluation).tobytes() == np.array(per_call.evaluation(x)).tobytes()
        assert len(got) == raw["m"]
        for m, (g, msg) in enumerate(got):
            rng = worker_rng(raw["seed"], m, t)
            want = per_call.worker_grad(x, m, raw["batch_size"], rng)
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes()
            assert msg == rand_k_sign(want, k, rng)

    @given(st.sampled_from(["quadratic", "logistic", [6], [5, 4]]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_stack_evaluates_as_its_rows_one_at_a_time(self, kind, data):
        """Stacks of 1 to W + 1 iterates, W the run's evaluation window."""
        seed = data.draw(st.integers(0, 2**16))
        raw = dict(algorithm="S3GD_MV", m=3, t=4, seed=seed)
        if kind == "quadratic":
            raw.update(n=data.draw(st.integers(2000, 20000)),
                       model={"kind": "quadratic", "lipschitz": {"log_min": -1, "log_max": 1}})
            task = QuadraticTask(ExperimentConfig.from_dict(raw))
        else:
            raw.update(model={"kind": "logistic"} if kind == "logistic" else {"kind": "mlp", "hidden": kind},
                       data={"n_samples": data.draw(st.integers(100, 300)), "d": data.draw(st.integers(1, 16)),
                             "num_classes": data.draw(st.integers(2, 10)), "mode": "NONIID"})
            task = ClassificationTask(ExperimentConfig.from_dict(raw))
        window = max(1, simulator._EVALUATION_BUDGET // task.evaluation_entries)
        size = data.draw(st.integers(1, window + 1))
        xs = task.x0 + np.random.default_rng(seed).normal(scale=1.5, size=(size, task.dim))
        rows = task.evaluate(xs)
        assert len(rows) == size
        for x, row in zip(xs, rows):
            (alone,) = task.evaluate(x[None])
            assert np.array(row).tobytes() == np.array(alone).tobytes()

    @given(st.sampled_from([1, 7, 8, 9, 127, 128, 129, 170, 4110]), st.integers(1, 17), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_one_l1_call_a_window_sums_each_row_as_alone(self, width, count, seed):
        """evaluate's l1 norms of a stack of full-batch gradients, at widths
        on both sides of numpy's pairwise-sum blocks, against each row's
        float(np.abs(g).sum())."""
        task = ClassificationTask(ExperimentConfig.from_dict(dict(
            algorithm="S3GD_MV", m=2, t=1, model={"kind": "logistic"},
            data={"n_samples": 20, "d": 2, "num_classes": 2})))
        rng = np.random.default_rng(seed)
        gbar = rng.standard_normal((count, width)) * 10.0 ** rng.uniform(-8, 8, (count, width))
        want = [float(np.abs(g).sum()) for g in gbar]
        passed = (np.zeros(count), gbar, np.ones(count))
        with mock.patch.object(simulator.models, "_pass", return_value=passed):
            rows = task.evaluate(np.zeros((count, task.dim)))
        assert np.array([row[2] for row in rows]).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("mode", ["IID", "NONIID"])
    @pytest.mark.parametrize("batch", [1, 2, 3, 32])
    def test_each_stream_ends_where_its_own_minibatch_call_ends(self, mode, batch):
        # 12 training samples on 5 workers: at NONIID one shard holds a single
        # sample, whose draw takes no word; an odd batch leaves a uint32 buffered.
        cfg = ExperimentConfig.from_dict(dict(
            algorithm="S3GD_MV", m=5, t=2, batch_size=batch, seed=1, model={"kind": "logistic"},
            data={"n_samples": 15, "d": 3, "num_classes": 3, "mode": mode}))
        task = ClassificationTask(cfg)
        per_call = PerCallTask(task, cfg)
        rngs = [worker_rng(1, m, 1) for m in range(5)]
        grads = task.gradients(task.x0, rngs)
        for m, (shard, rng) in enumerate(zip(per_call.shards, rngs)):
            reference = worker_rng(1, m, 1)
            assert grads[m].tobytes() == per_call.worker_grad(task.x0, m, batch, reference).tobytes()
            assert rng.bit_generator.state == reference.bit_generator.state, (m, shard.size)


class TestClassificationRuns:
    def test_logistic_improves_accuracy(self):
        cfg = quad_cfg(
            algorithm="SIGNSGD_MV",
            n=None,
            m=4,
            t=150,
            learning_rate=1e-2,
            batch_size=8,
            model={"kind": "logistic"},
            data={"n_samples": 300, "d": 4, "num_classes": 3, "separation": 4.0},
        )
        metrics = run_experiment(cfg)
        assert metrics[-1].test_metric > metrics[0].test_metric
        assert metrics[-1].test_metric > 0.8

    def test_mlp_runs_and_learns(self):
        cfg = quad_cfg(
            algorithm="VANILLA_SGD",
            n=None,
            m=2,
            t=120,
            learning_rate=0.5,
            batch_size=16,
            model={"kind": "mlp", "hidden": [8]},
            data={"n_samples": 200, "d": 4, "num_classes": 3, "separation": 4.0},
        )
        metrics = run_experiment(cfg)
        assert metrics[-1].train_loss < metrics[0].train_loss

    def test_noniid_partition_runs(self):
        cfg = quad_cfg(
            algorithm="S3GD_MV",
            n=None,
            m=3,
            t=20,
            gamma=0.2,
            batch_size=4,
            model={"kind": "logistic"},
            data={"n_samples": 120, "d": 3, "num_classes": 3, "mode": "NONIID"},
        )
        metrics = run_experiment(cfg)
        assert len(metrics) == 20

    def test_logistic_init_scale_scales_the_init(self):
        def init(scale):
            cfg = quad_cfg(
                n=None,
                model={"kind": "logistic", "init_scale": scale},
                data={"n_samples": 60, "d": 3, "num_classes": 3},
            )
            return ClassificationTask(cfg).x0

        assert np.array_equal(init(0.5), 0.5 * init(1.0))
        assert np.any(init(1.0) != 0.0)
        assert not np.any(init(0.0))

    def test_mlp_init_scales_each_layer_by_its_fan_in(self, monkeypatch):
        cfg = quad_cfg(n=None, seed=9, t=3, model={"kind": "mlp", "hidden": [5, 4], "init_scale": 0.7},
                       data={"n_samples": 60, "d": 3, "num_classes": 3})
        task = ClassificationTask(cfg)
        # arch [3, 5, 4, 3]: each layer's [W, b] span holds fan_out * (fan_in + 1) parameters.
        want = derive_rng(9, "init").normal(0.0, 1.0, 20 + 24 + 15)
        want[:20] *= 0.7 / math.sqrt(3)
        want[20:44] *= 0.7 / math.sqrt(5)
        want[44:] *= 0.7 / math.sqrt(4)
        assert task.x0.tobytes() == want.tobytes()
        # A run on the task steps from a copy of x0 and leaves x0 as it was.
        monkeypatch.setattr(simulator, "_build_task", lambda _: task)
        run_experiment(cfg)
        assert task.x0.tobytes() == want.tobytes()

    def test_n_mismatch_rejected(self):
        cfg = quad_cfg(
            n=999,
            model={"kind": "logistic"},
            data={"n_samples": 60, "d": 3, "num_classes": 3},
            t=1,
        )
        with pytest.raises(ValueError, match="parameters"):
            run_experiment(cfg)
