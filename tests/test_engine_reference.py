"""The table-driven round engine against a per-worker reference loop.

reference_run is the round loop written out per algorithm as an if-chain,
from the public compression, aggregation and codec functions only, with each
round's evaluation and worker gradients from the per-call reference in
task_reference.
run_experiment must reproduce it bit for bit on every RoundMetrics field
except wall_ms, selection counts included.
"""

import itertools
import os
import sys
import threading

import numpy as np
import pytest

from sparsevote import rng, simulator
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
from task_reference import PerCallTask

ALGORITHMS = ("VANILLA_SGD", "TOPK_SGD_MEM", "SIGNSGD_MV", "S3GD_MV", "S3GD_MV_RANDK")
SIGN = ("SIGNSGD_MV", "S3GD_MV", "S3GD_MV_RANDK")
SPARSE_SIGN = ("S3GD_MV", "S3GD_MV_RANDK")


def reference_run(cfg: ExperimentConfig) -> list[tuple]:
    """Per-round (round, algorithm, loss, metric, gbar_l1, up, down, cumulative, counts)."""
    task = QuadraticTask(cfg) if cfg.model["kind"] == "quadratic" else ClassificationTask(cfg)
    per_call = PerCallTask(task, cfg)
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
        row = (t, alg, *per_call.evaluation(x))
        msgs, dense = [], np.zeros((m_workers, dim))
        counts = np.zeros(dim, dtype=np.int64)
        for m in range(m_workers):
            rng = worker_rng(cfg.seed, m, t)
            g_tilde = per_call.worker_grad(x, m, cfg.batch_size, rng)
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
        model={"kind": "quadratic", "noise_std": 0.5, "init": 1.0}, record_selection=True,
    )
    return ExperimentConfig.from_dict({**base, **overrides})


def logistic_noniid(**overrides):
    base = dict(
        m=3, t=12, gamma=0.25, learning_rate=1e-2, batch_size=4, seed=5, record_selection=True,
        model={"kind": "logistic"},
        data={"n_samples": 120, "d": 3, "num_classes": 3, "mode": "NONIID"},
    )
    return ExperimentConfig.from_dict({**base, **overrides})


def logistic_noniid_wide(**overrides):
    """The class and feature counts of configs/logistic_noniid.json: N = 170,
    and rows of 10 classes, which numpy sums with eight accumulators."""
    return logistic_noniid(**{"data": {"n_samples": 200, "d": 16, "num_classes": 10, "mode": "NONIID"},
                              **overrides})


def quadratic_all_tied(**overrides):
    """Every coordinate has the same magnitude at the start: top-K is all ties."""
    model = {"kind": "quadratic", "noise_std": 0.0, "init": 0.5, "lipschitz": 2.0}
    return quadratic(**{"model": model, **overrides})


def quadratic_wide_batch(**overrides):
    """N = 2000, M = 8 and B = 4, so the noise is drawn at scale noise_std / 2."""
    model = {"kind": "quadratic", "noise_std": 3.0, "init": 1.0,
             "lipschitz": {"log_min": -1, "log_max": 1}}
    return quadratic(**{"n": 2000, "m": 8, "t": 6, "gamma": 0.05, "batch_size": 4,
                        "model": model, **overrides})


def logistic_one_sample_shard(**overrides):
    """M = 5 workers on 3 classes with an odd batch of 3: worker 3's shard is one sample."""
    base = dict(
        m=5, t=8, gamma=0.25, learning_rate=1e-2, batch_size=3, seed=1, record_selection=True,
        model={"kind": "logistic"},
        data={"n_samples": 15, "d": 3, "num_classes": 3, "mode": "NONIID"},
    )
    return ExperimentConfig.from_dict({**base, **overrides})


@pytest.mark.parametrize("make", [quadratic, logistic_noniid, logistic_noniid_wide])
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


def test_one_sample_shard_premise():
    # The one-sample shard takes numpy's own draw, which draws nothing; the
    # odd batch leaves a high half buffered for random-K's draw after it.
    cfg = logistic_one_sample_shard(algorithm="S3GD_MV_RANDK")
    assert cfg.m > 3 and cfg.batch_size % 2 == 1
    task = ClassificationTask(cfg)
    assert sorted(len(shard) for shard in PerCallTask(task, cfg).shards) == [1, 2, 2, 3, 4]


@pytest.mark.parametrize("make", [quadratic_all_tied, quadratic_wide_batch, logistic_one_sample_shard])
@pytest.mark.parametrize("alg, cost_mode", list(itertools.product(ALGORITHMS, ("ANALYTIC", "WIRE"))))
def test_engine_matches_reference_loop_on_ties_and_batches(make, alg, cost_mode):
    cfg = make(algorithm=alg, cost_mode=cost_mode)
    expected = reference_run(cfg)
    got = engine_run(cfg)
    assert len(got) == len(expected) == cfg.t
    for ours, ref in zip(got, expected):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])


# The worker phase on threads: the gate forced down to N = 1 and the usable
# CPU count set, so T = min(CPUs, M) threads run it on any host.

def threaded(monkeypatch, cpus):
    """Force the threaded worker phase; returns a set that collects
    (thread id, workers) for each share run."""
    monkeypatch.setattr(simulator, "_THREADED_MIN_DIM", 1)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: cpus)
    ran = set()
    run_share = simulator._worker_share

    def spy(workers, *args):
        ran.add((threading.get_ident(), tuple(workers)))
        return run_share(workers, *args)

    monkeypatch.setattr(simulator, "_worker_share", spy)
    return ran


def assert_shares(ran, threads, m):
    """Worker shares i, i + T, ... ran, on the calling thread and at least one other.

    An idle pool thread may take up a second share, so fewer than T threads
    can run the T shares.
    """
    assert {workers for _, workers in ran} == {tuple(range(i, m, threads)) for i in range(threads)}
    assert len({ident for ident, _ in ran}) >= 2


@pytest.mark.parametrize("threads", ["1", "2", "M"])
@pytest.mark.parametrize("make", [quadratic, quadratic_wide_batch, logistic_noniid, logistic_noniid_wide])
@pytest.mark.parametrize(
    "alg, cost_mode, mu",
    list(itertools.product(ALGORITHMS, ("ANALYTIC", "WIRE"), (0.0, 0.5))),
)
def test_threaded_worker_phase_matches_reference_loop(monkeypatch, threads, make, alg, cost_mode, mu):
    cfg = make(algorithm=alg, cost_mode=cost_mode, mu=mu)
    expected = reference_run(cfg)
    count = cfg.m if threads == "M" else int(threads)
    ran = threaded(monkeypatch, count)
    got = engine_run(cfg)
    # A classifier's worker phase stays on one thread at any N.
    if count == 1 or cfg.model["kind"] != "quadratic":
        assert ran == {(threading.get_ident(), tuple(range(cfg.m)))}
    else:
        assert_shares(ran, count, cfg.m)
    assert len(got) == len(expected) == cfg.t
    for ours, ref in zip(got, expected):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])


def no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was built")


def test_no_threads_below_the_gate(monkeypatch):
    ran = threaded(monkeypatch, 2)
    monkeypatch.setattr(simulator, "_THREADED_MIN_DIM", 2001)
    monkeypatch.setattr(simulator, "ThreadPoolExecutor", no_pool)
    run_experiment(quadratic_wide_batch(algorithm="S3GD_MV"))
    # One share of all the workers, on the calling thread.
    assert ran == {(threading.get_ident(), tuple(range(8)))}


class NaNStream:
    """A worker stream whose Gaussian draws are all NaN."""

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out.fill(np.nan)
        return out


class BrokenStream:
    def standard_normal(self, size=None, out=None):
        raise RuntimeError("stream broke")


def break_streams(monkeypatch, streams):
    """Replace worker m's stream at round 1 by streams[m]."""
    derive = simulator.worker_rngs
    monkeypatch.setattr(
        simulator, "worker_rngs",
        lambda table, t: [streams[m]() if t == 1 and m in streams else rng
                          for m, rng in enumerate(derive(table, t))],
    )


def raised(cfg):
    with pytest.raises(Exception) as info:
        run_experiment(cfg)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("threads", [2, 3, 8])
@pytest.mark.parametrize(
    "streams, error",
    [
        ({5: NaNStream}, (ValueError, "cannot rank NaN magnitudes")),
        # The sequential loop stops at worker 1, before worker 2 fails.
        ({2: NaNStream, 1: BrokenStream}, (RuntimeError, "stream broke")),
    ],
)
def test_a_failing_worker_raises_as_in_the_sequential_loop(monkeypatch, threads, streams, error):
    cfg = quadratic_wide_batch(algorithm="S3GD_MV")
    break_streams(monkeypatch, streams)
    assert raised(cfg) == error
    before = threading.active_count()
    ran = threaded(monkeypatch, threads)
    assert raised(cfg) == error
    assert_shares(ran, threads, cfg.m)
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_a_block_reads_all_its_gradients_before_it_steps(monkeypatch, threads):
    """Worker 1's NaN gradient fails its step, worker 2's stream its read.
    At the default gate the 8 workers of N = 2000 are one block, whose read
    fails first; with the gate forced to 1 each worker is a block, and worker
    1's fails first at any thread count."""
    cfg = quadratic_wide_batch(algorithm="S3GD_MV")
    assert simulator._THREADED_MIN_DIM // cfg.n >= cfg.m
    break_streams(monkeypatch, {1: NaNStream, 2: BrokenStream})
    assert raised(cfg) == (RuntimeError, "stream broke")
    before = threading.active_count()
    ran = threaded(monkeypatch, threads)
    assert raised(cfg) == (ValueError, "cannot rank NaN magnitudes")
    if threads == 1:
        assert {workers for _, workers in ran} == {tuple(range(cfg.m))}
    else:
        assert_shares(ran, threads, cfg.m)
    assert threading.active_count() == before


def test_no_thread_outlives_a_run(monkeypatch):
    before = threading.active_count()
    ran = threaded(monkeypatch, 2)
    run_experiment(quadratic_wide_batch(algorithm="S3GD_MV"))
    assert_shares(ran, 2, 8)
    assert threading.active_count() == before


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_threaded_worker_phase_on_this_hosts_cpus(monkeypatch, alg):
    """The gate forced down with the real CPU count: under a one-CPU affinity
    mask T = 1 and every worker runs on the calling thread, otherwise the
    threads run them."""
    monkeypatch.setattr(simulator, "_THREADED_MIN_DIM", 1)
    cpus = simulator._usable_cpus()
    if hasattr(os, "sched_getaffinity"):
        assert cpus == len(os.sched_getaffinity(0))
    cfg = quadratic_wide_batch(algorithm=alg, cost_mode="WIRE")
    for ours, ref in zip(engine_run(cfg), reference_run(cfg), strict=True):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])


@pytest.mark.parametrize("alg", ["TOPK_SGD_MEM", "S3GD_MV"])
def test_threaded_worker_phase_under_frequent_thread_switches(monkeypatch, alg):
    """16 threads on 16 workers, switching every microsecond: a lost or
    crossed write to a memory row or an upload slot would change the run."""
    cfg = quadratic_wide_batch(algorithm=alg, cost_mode="WIRE", m=16)
    expected = reference_run(cfg)
    ran = threaded(monkeypatch, 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = engine_run(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert_shares(ran, 16, 16)
    for ours, ref in zip(got, expected, strict=True):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])


# Below the gate a round's error feedback step runs as blocks of consecutive
# rows, _THREADED_MIN_DIM // N of them, on the calling thread; from the gate
# up a block is one row.

def block_spy(monkeypatch):
    """Record (thread id, rows) for each error feedback block."""
    blocks = []
    step = simulator._error_feedback_rows

    def spy(g_tilde, memory, eta, k):
        blocks.append((threading.get_ident(), memory.shape[0]))
        return step(g_tilde, memory, eta, k)

    monkeypatch.setattr(simulator, "_error_feedback_rows", spy)
    return blocks


@pytest.mark.parametrize("make", [quadratic, quadratic_wide_batch, logistic_noniid, logistic_noniid_wide])
@pytest.mark.parametrize("alg", ["TOPK_SGD_MEM", "S3GD_MV"])
def test_below_the_budget_one_block_of_all_workers(monkeypatch, make, alg):
    cfg = make(algorithm=alg, cost_mode="WIRE")
    task = QuadraticTask(cfg) if cfg.model["kind"] == "quadratic" else ClassificationTask(cfg)
    assert cfg.m * task.dim <= simulator._THREADED_MIN_DIM
    expected = reference_run(cfg)
    blocks = block_spy(monkeypatch)
    got = engine_run(cfg)
    assert blocks == [(threading.get_ident(), cfg.m)] * cfg.t
    for ours, ref in zip(got, expected, strict=True):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])


@pytest.mark.parametrize("cpus", [1, 2])
def test_at_the_gate_each_block_is_one_row(monkeypatch, cpus):
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: cpus)
    cfg = quadratic(algorithm="S3GD_MV", n=simulator._THREADED_MIN_DIM, m=3, t=2)
    blocks = block_spy(monkeypatch)
    run_experiment(cfg)
    assert [rows for _, rows in blocks] == [1] * cfg.m * cfg.t
    if cpus == 1:
        assert {ident for ident, _ in blocks} == {threading.get_ident()}


@pytest.mark.parametrize("make", [quadratic, logistic_noniid, logistic_noniid_wide])
@pytest.mark.parametrize("alg", ["S3GD_MV", "S3GD_MV_RANDK"])
def test_a_run_over_several_stream_blocks_matches_reference_loop(monkeypatch, make, alg):
    # Blocks of one to three rounds, so the run re-derives its streams often.
    monkeypatch.setattr(rng, "_BLOCK_STREAMS", 7)
    cfg = make(algorithm=alg, t=9)
    assert cfg.t > rng._BLOCK_STREAMS // cfg.m
    for ours, ref in zip(engine_run(cfg), reference_run(cfg), strict=True):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])


@pytest.mark.parametrize("alg", ["SIGNSGD_MV", "VANILLA_SGD"])
def test_full_rows_build_no_columns_or_batch(monkeypatch, alg):
    """Every worker sends every coordinate: no column array, no SignBatch."""
    def refuse(*args, **kwargs):
        raise AssertionError("a column list was built")

    cfg = quadratic_wide_batch(algorithm=alg)
    expected = reference_run(cfg)
    monkeypatch.setattr(simulator.SignBatch, "quantize", refuse)
    monkeypatch.setattr(simulator, "participation_count", refuse)
    for ours, ref in zip(engine_run(cfg), expected, strict=True):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])
