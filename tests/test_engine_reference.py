"""The table-driven round engine against a per-worker reference loop.

reference_run is the round loop written out per algorithm as an if-chain,
from the public compression, aggregation and codec functions only.
run_experiment must reproduce it bit for bit on every RoundMetrics field
except wall_ms, selection counts included.
"""

import itertools

import numpy as np
import pytest

from sparsevote.aggregation import average_aggregate, majority_vote
from sparsevote.codec import analytic_round_cost, decode_sparse_sign, encode_sparse_sign
from sparsevote.compression import rand_k_sign, top_k_select, top_k_sign
from sparsevote.rng import worker_rng
from sparsevote.simulator import (
    ClassificationTask,
    ExperimentConfig,
    QuadraticTask,
    resolve_k,
    run_experiment,
)

ALGORITHMS = ("VANILLA_SGD", "TOPK_SGD_MEM", "SIGNSGD_MV", "S3GD_MV", "S3GD_MV_RANDK")
SIGN = ("SIGNSGD_MV", "S3GD_MV", "S3GD_MV_RANDK")
SPARSE_SIGN = ("S3GD_MV", "S3GD_MV_RANDK")


def reference_run(cfg: ExperimentConfig) -> list[tuple]:
    """Per-round (round, algorithm, loss, metric, gbar_l1, up, down, cumulative, counts)."""
    task = QuadraticTask(cfg) if cfg.model["kind"] == "quadratic" else ClassificationTask(cfg)
    dim, alg, m_workers = task.dim, cfg.algorithm, cfg.m
    k = resolve_k(cfg.gamma, dim)
    delta = float(cfg.learning_rate)
    wire = cfg.cost_mode == "WIRE" and alg in SPARSE_SIGN
    x = task.init_params()
    v = np.zeros_like(x)
    memory = [np.zeros(dim) for _ in range(m_workers)]
    cumulative = 0.0
    out = []
    for t in range(cfg.t):
        row = (t, alg, task.train_loss(x), task.test_metric(x), task.gbar_l1(x))
        msgs, dense = [], np.zeros((m_workers, dim))
        counts = np.zeros(dim, dtype=np.int64)
        for m in range(m_workers):
            rng = worker_rng(cfg.seed, m, t)
            g_tilde = task.worker_grad(x, m, cfg.batch_size, rng)
            if alg == "VANILLA_SGD":
                dense[m] = g_tilde
                counts += 1
            elif alg == "TOPK_SGD_MEM":
                g = g_tilde + cfg.eta * memory[m]
                support, _ = top_k_select(g, k)
                dense[m, support] = g[support]
                memory[m] = g.copy()
                memory[m][support] = 0.0
                counts[support] += 1
            else:
                if alg == "S3GD_MV":
                    g = g_tilde + cfg.eta * memory[m]
                    msg = top_k_sign(g, k)
                    memory[m] = g.copy()
                    memory[m][top_k_select(g, k)[0]] = 0.0
                elif alg == "SIGNSGD_MV":
                    msg = top_k_sign(g_tilde, dim)
                else:
                    msg = rand_k_sign(g_tilde, k, rng)
                msgs.append(msg)
                counts += msg.to_dense() != 0

        up, down = analytic_round_cost(alg, m_workers, dim, k)
        if alg in SIGN:
            if wire:
                streams = [encode_sparse_sign(msg) for msg in msgs]
                msgs = [decode_sparse_sign(s, dim) for s in streams]
                up = float(sum(s.bit_len for s in streams))
            vote = majority_vote(msgs, dim)
            if wire:
                down = float(m_workers * encode_sparse_sign(vote.nonzero_message()).bit_len)
            direction = vote.ternary
        else:
            direction = average_aggregate(list(dense))

        if cfg.mu == 0.0:
            x = x - delta * direction
        else:
            v = cfg.mu * v + direction
            x = x - delta * v
        cumulative += up + down
        out.append(row + (up, down, cumulative, counts))
    return out


def engine_run(cfg: ExperimentConfig) -> list[tuple]:
    return [
        (r.round, r.algorithm, r.train_loss, r.test_metric, r.gbar_l1,
         r.uplink_bits, r.downlink_bits, r.cumulative_bits, r.selection_counts)
        for r in run_experiment(cfg)
    ]


def quadratic(**overrides):
    base = dict(
        m=4, t=20, gamma=0.25, n=16, learning_rate=1e-2, batch_size=1, seed=7,
        model={"kind": "quadratic", "noise_std": 0.5, "init": 1.0},
    )
    return ExperimentConfig.from_dict({**base, **overrides})


def logistic_noniid(**overrides):
    base = dict(
        m=3, t=12, gamma=0.25, learning_rate=1e-2, batch_size=4, seed=5,
        model={"kind": "logistic"},
        data={"n_samples": 120, "d": 3, "num_classes": 3, "mode": "NONIID"},
    )
    return ExperimentConfig.from_dict({**base, **overrides})


@pytest.mark.parametrize("make", [quadratic, logistic_noniid])
@pytest.mark.parametrize(
    "alg, cost_mode, mu",
    list(itertools.product(ALGORITHMS, ("ANALYTIC", "WIRE"), (0.0, 0.5))),
)
def test_engine_matches_reference_loop(make, alg, cost_mode, mu):
    cfg = make(algorithm=alg, cost_mode=cost_mode, mu=mu)
    expected = reference_run(cfg)
    got = engine_run(cfg)
    assert len(got) == len(expected) == cfg.t
    for ours, ref in zip(got, expected):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])
