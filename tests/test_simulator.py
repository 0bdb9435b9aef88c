"""End-to-end engine properties: reductions, determinism, costs, serialization."""

import json
import math

import numpy as np
import pytest

from sparsevote.codec import total_cost_bits
from sparsevote.simulator import (
    CSV_COLUMNS,
    ExperimentConfig,
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
        a = run_experiment(quad_cfg())
        b = run_experiment(quad_cfg())
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
            spent, total_cost_bits(alg, cfg.m, cfg.n, k, cfg.t), rel_tol=1e-9
        )
        assert metrics[-1].cumulative_bits == pytest.approx(spent, rel=1e-12)

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

    def test_cumulative_is_running_sum(self):
        metrics = run_experiment(quad_cfg(t=10))
        running = 0.0
        for m in metrics:
            running += m.uplink_bits + m.downlink_bits
            assert m.cumulative_bits == pytest.approx(running, rel=1e-12)


class TestDynamics:
    def test_zero_gradient_fixed_point(self):
        cfg = quad_cfg(model={"kind": "quadratic", "noise_std": 0.0, "init": 0.0}, t=10)
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
        cfg = quad_cfg(gamma=1.0, t=20)
        stats = selection_histogram(run_experiment(cfg))
        assert stats.counts.sum() == cfg.m * cfg.t * cfg.n
        assert stats.max_min_ratio == 1.0
        assert stats.chi_square == 0.0

    def test_sparse_counts_budget(self):
        # noisy gradients have no zero entries, so every message carries K signs
        cfg = quad_cfg(gamma=0.25, t=20)
        stats = selection_histogram(run_experiment(cfg))
        assert stats.counts.sum() == cfg.m * cfg.t * resolve_k(cfg.gamma, cfg.n)

    def test_vanilla_counts_dense(self):
        cfg = quad_cfg(algorithm="VANILLA_SGD", t=5)
        stats = selection_histogram(run_experiment(cfg))
        assert np.all(stats.counts == cfg.m * cfg.t)

    def test_disabled_recording_raises(self):
        metrics = run_experiment(quad_cfg(record_selection=False, t=5))
        assert all(m.selection_counts is None for m in metrics)
        with pytest.raises(ValueError):
            selection_histogram(metrics)

    def test_stats_shape(self):
        stats = selection_histogram(run_experiment(quad_cfg(t=10)))
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

    def test_n_mismatch_rejected(self):
        cfg = quad_cfg(
            n=999,
            model={"kind": "logistic"},
            data={"n_samples": 60, "d": 3, "num_classes": 3},
            t=1,
        )
        with pytest.raises(ValueError, match="parameters"):
            run_experiment(cfg)
