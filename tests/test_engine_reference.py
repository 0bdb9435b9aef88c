"""The table-driven round engine against a per-worker reference loop.

reference_run is the round loop written out per algorithm as an if-chain,
from the public compression, aggregation and codec functions only, with each
round's evaluation and worker gradients from the per-call reference in
task_reference.
run_experiment must reproduce it bit for bit on every RoundMetrics field
except wall_ms, selection counts included.
"""

import itertools
import math
import os
import sys
import threading

import numpy as np
import pytest

from sparsevote import compression, rng, simulator
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
    x = task.x0
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
    """Force the threaded worker phase; returns a list that collects
    (round's gradients, thread id, workers) for each quadratic gradient read."""
    monkeypatch.setattr(simulator, "_THREADED_MIN_DIM", 1)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: cpus)
    reads = []
    read = simulator._NoisyGradients.__getitem__

    def spy(grads, workers):
        # Holding grads keeps each round's object, and so its id, apart.
        reads.append((grads, threading.get_ident(), range(len(grads._rngs))[workers]))
        return read(grads, workers)

    monkeypatch.setattr(simulator._NoisyGradients, "__getitem__", spy)
    return reads


def readers(reads):
    """For each round, in order, {worker: the thread that read its gradient}."""
    rounds = {}
    for grads, ident, workers in reads:
        round_readers = rounds.setdefault(id(grads), {})
        for m in workers:
            assert m not in round_readers, f"worker {m}'s gradient was read twice in a round"
            round_readers[m] = ident
    return list(rounds.values())


def assert_alone(reads, m):
    """Every round read all m gradients, each once, on the calling thread."""
    rounds = readers(reads)
    assert rounds and all(r == dict.fromkeys(range(m), threading.get_ident()) for r in rounds)


def assert_shares(reads, threads, m):
    """Each round, share i (workers i, i + T, ...) was read on one thread,
    share 0 on the calling thread, and at least two threads read.

    An idle pool thread may take up a second share, so fewer than T threads
    can run the T shares.  The first round reads every worker; a later one
    stops where a worker fails.
    """
    rounds = readers(reads)
    assert sorted(rounds[0]) == list(range(m))
    for round_readers in rounds:
        for i in range(threads):
            share = {round_readers[w] for w in range(i, m, threads) if w in round_readers}
            assert len(share) <= 1
            if i == 0:
                assert share <= {threading.get_ident()}
    assert len({ident for _, ident, _ in reads}) >= 2


def no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was built")


def no_worker_pool(monkeypatch):
    """Fail a run whose worker phase is given a pool: it runs every worker
    on the calling thread."""
    phase = simulator._worker_phase

    def alone(pool, threads, *args):
        assert pool is None and threads == 1, "the worker phase was given a pool"
        return phase(pool, threads, *args)

    monkeypatch.setattr(simulator, "_worker_phase", alone)


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
    reads = threaded(monkeypatch, count)
    # A classifier's worker phase stays on one thread at any N.
    alone = count == 1 or cfg.model["kind"] != "quadratic"
    if alone:
        no_worker_pool(monkeypatch)
    got = engine_run(cfg)
    if not alone:
        assert_shares(reads, count, cfg.m)
    elif cfg.model["kind"] == "quadratic":
        assert_alone(reads, cfg.m)
    assert len(got) == len(expected) == cfg.t
    for ours, ref in zip(got, expected):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])


def test_no_threads_below_the_gate(monkeypatch):
    reads = threaded(monkeypatch, 2)
    monkeypatch.setattr(simulator, "_THREADED_MIN_DIM", 2001)
    no_worker_pool(monkeypatch)
    run_experiment(quadratic_wide_batch(algorithm="S3GD_MV"))
    assert_alone(reads, 8)


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
    reads = threaded(monkeypatch, threads)
    assert raised(cfg) == error
    assert_shares(reads, threads, cfg.m)
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
    reads = threaded(monkeypatch, threads)
    assert raised(cfg) == (ValueError, "cannot rank NaN magnitudes")
    if threads == 1:
        assert {ident for _, ident, _ in reads} == {threading.get_ident()}
    else:
        assert_shares(reads, threads, cfg.m)
    assert threading.active_count() == before


def test_no_thread_outlives_a_run(monkeypatch):
    before = threading.active_count()
    reads = threaded(monkeypatch, 2)
    run_experiment(quadratic_wide_batch(algorithm="S3GD_MV"))
    assert_shares(reads, 2, 8)
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
    reads = threaded(monkeypatch, 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = engine_run(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert_shares(reads, 16, 16)
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
    # The one sign pass of SignBatch.quantize and of the engine's unchecked batch.
    monkeypatch.setattr(compression, "_sign_rows", refuse)
    monkeypatch.setattr(simulator, "participation_count", refuse)
    for ours, ref in zip(engine_run(cfg), expected, strict=True):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])


# The evaluation runs in windows of max(1, _EVALUATION_BUDGET // the entries
# one iterate's evaluation writes) iterates: a classifier's on a thread of
# its own with two usable CPUs and a window of more than one iterate, any
# other on the calling thread.

def build(cfg):
    return QuadraticTask(cfg) if cfg.model["kind"] == "quadratic" else ClassificationTask(cfg)


def windows(monkeypatch, cfg, window, cpus):
    """Set the evaluation window of cfg's task and the usable CPU count;
    returns a list that collects (thread id, iterates) of each evaluate call."""
    monkeypatch.setattr(simulator, "_EVALUATION_BUDGET", window * build(cfg).evaluation_entries)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: cpus)
    calls = []
    for task_class in (QuadraticTask, ClassificationTask):
        def spy(task, xs, evaluate=task_class.evaluate):
            calls.append((threading.get_ident(), len(xs)))
            return evaluate(task, xs)

        monkeypatch.setattr(task_class, "evaluate", spy)
    return calls


def pool_sizes(monkeypatch):
    """A list that collects the thread count of each pool a run builds."""
    sizes = []
    pool = simulator.ThreadPoolExecutor

    def spy(threads):
        sizes.append(threads)
        return pool(threads)

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", spy)
    return sizes


def evaluation_threads(calls):
    """The threads other than this one that ran an evaluation."""
    return {ident for ident, _ in calls} - {threading.get_ident()}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("window", [1, 2, 5, 12, 13])
@pytest.mark.parametrize("make", [quadratic, logistic_noniid, logistic_noniid_wide])
def test_evaluation_windows_match_reference_loop(monkeypatch, make, window, cpus):
    cfg = make(algorithm="S3GD_MV", cost_mode="WIRE", t=12)
    expected = reference_run(cfg)
    task = build(cfg)
    round_of = iterate_rounds(monkeypatch, task)
    calls = windows(monkeypatch, cfg, window, cpus)
    evaluate, seen = type(task).evaluate, []

    def first_rounds(task, xs):
        seen.append((round_of(xs[0]), len(xs)))
        return evaluate(task, xs)

    monkeypatch.setattr(type(task), "evaluate", first_rounds)
    before = threading.active_count()
    got = engine_run(cfg)
    assert threading.active_count() == before
    # Each full window, then the last one's rest at the end of the run, which
    # the calling thread may evaluate while the thread ends the window before.
    assert sorted(seen) == [(first, min(window, cfg.t - first)) for first in range(0, cfg.t, window)]
    beside = cpus > 1 and window > 1 and cfg.model["kind"] != "quadratic"
    assert len(evaluation_threads(calls)) == beside
    for ours, ref in zip(got, expected, strict=True):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])


@pytest.mark.parametrize("make", [logistic_noniid, logistic_noniid_wide])
def test_evaluation_thread_under_frequent_thread_switches(monkeypatch, make):
    """Windows of 2 on the evaluation thread, switching every microsecond:
    a row lost, crossed or filled out of round order would change the run."""
    cfg = make(algorithm="S3GD_MV", cost_mode="WIRE", t=40)
    expected = reference_run(cfg)
    calls = windows(monkeypatch, cfg, 2, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = engine_run(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 20 and len(evaluation_threads(calls)) == 1
    for ours, ref in zip(got, expected, strict=True):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])


@pytest.mark.parametrize("make, cpus, window", [
    (logistic_noniid_wide, 1, None),
    (logistic_noniid_wide, 2, 1),
    # The quadratic's evaluation stays on the calling thread.
    (quadratic, 2, None),
])
def test_no_evaluation_thread_at_one_cpu_a_one_iterate_window_or_the_quadratic(monkeypatch, make, cpus, window):
    cfg = make(algorithm="S3GD_MV", cost_mode="WIRE")
    expected = reference_run(cfg)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: cpus)
    if window is not None:
        monkeypatch.setattr(simulator, "_EVALUATION_BUDGET", build(cfg).evaluation_entries)
    else:
        assert simulator._EVALUATION_BUDGET // build(cfg).evaluation_entries > 1
    monkeypatch.setattr(simulator, "ThreadPoolExecutor", no_pool)
    for ours, ref in zip(engine_run(cfg), expected, strict=True):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])


class BrokenRows:
    """A worker stream whose minibatch draw fails."""

    def integers(self, *args, **kwargs):
        raise RuntimeError("stream broke")


def break_round(monkeypatch, t_broken):
    """Every worker's minibatch draw fails at round t_broken."""
    derive = simulator.worker_rngs
    monkeypatch.setattr(simulator, "worker_rngs",
                        lambda table, t: [BrokenRows() if t == t_broken else rng for rng in derive(table, t)])


@pytest.mark.parametrize("fails", [False, True])
def test_no_evaluation_thread_outlives_a_run(monkeypatch, fails):
    cfg = logistic_noniid(algorithm="S3GD_MV")
    calls = windows(monkeypatch, cfg, 2, 2)
    sizes = pool_sizes(monkeypatch)
    if fails:
        break_round(monkeypatch, 5)
    before = threading.active_count()
    if fails:
        assert raised(cfg) == (RuntimeError, "stream broke")
    else:
        run_experiment(cfg)
    assert sizes == [1] and len(evaluation_threads(calls)) == 1
    assert threading.active_count() == before


def iterate_rounds(monkeypatch, task):
    """A function that gives the round of an iterate of a run on task."""
    monkeypatch.setattr(simulator, "_build_task", lambda cfg: task)
    iterates = [task.x0.tobytes()]
    update = simulator.update_model

    def spy(*args):
        x, velocity = update(*args)
        iterates.append(x.tobytes())
        return x, velocity

    monkeypatch.setattr(simulator, "update_model", spy)
    return lambda x: iterates.index(x.tobytes())


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("window", [1, 2, 4])
@pytest.mark.parametrize("failing", [0, 2, 3, 4, 6])
def test_the_earliest_rounds_error_is_raised(monkeypatch, failing, window, cpus):
    """The evaluations of rounds failing and failing + 1 raise, and round
    3's step: the run raises the earliest round's error, and the evaluation
    of a round comes before its step, whatever the window or the thread.  A
    window holding both failing rounds raises the later one's error, as a
    stacked pass may, so the run must find the first on its own."""
    cfg = logistic_noniid(algorithm="S3GD_MV", t=8)
    task = build(cfg)
    round_of = iterate_rounds(monkeypatch, task)
    calls = windows(monkeypatch, cfg, window, cpus)
    evaluate = ClassificationTask.evaluate

    def fail(task, xs):
        failed = [t for t in map(round_of, xs) if t in (failing, failing + 1)]
        if failed:
            raise RuntimeError(f"evaluation of round {failed[-1]}")
        return evaluate(task, xs)

    monkeypatch.setattr(ClassificationTask, "evaluate", fail)
    break_round(monkeypatch, 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        run_experiment(cfg)
    if failing <= 3:
        assert str(info.value) == f"evaluation of round {failing}"
        assert info.value.__suppress_context__ or info.value.__context__ is None
    else:
        assert str(info.value) == "stream broke"
    assert len(evaluation_threads(calls)) == (cpus > 1 and window > 1 and len(calls) > 0)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("failing", [(7, 10), (10, 11), (3, 7)])
def test_the_last_windows_error_comes_after_the_one_before(monkeypatch, failing, cpus):
    """Windows of 5 over 12 rounds: the thread evaluates rounds 5 to 9 while
    the calling thread evaluates 10 and 11; the earlier failing round's error
    is raised."""
    cfg = logistic_noniid(algorithm="S3GD_MV", t=12)
    round_of = iterate_rounds(monkeypatch, build(cfg))
    windows(monkeypatch, cfg, 5, cpus)
    evaluate = ClassificationTask.evaluate

    def fail(task, xs):
        failed = [t for t in map(round_of, xs) if t in failing]
        if failed:
            raise RuntimeError(f"evaluation of round {failed[0]}")
        return evaluate(task, xs)

    monkeypatch.setattr(ClassificationTask, "evaluate", fail)
    assert raised(cfg) == (RuntimeError, f"evaluation of round {failing[0]}")


def test_a_window_holds_at_most_the_budgets_upload_entries(monkeypatch):
    """M * K = 64 uploads a round against 3N = 48 evaluation entries an
    iterate: a window of 8 iterates would queue 512 upload entries, so the
    uploads are charged once they hold the budget's 384."""
    cfg = quadratic(algorithm="S3GD_MV", cost_mode="WIRE", m=16, t=40)
    expected = reference_run(cfg)
    windows(monkeypatch, cfg, 8, 1)
    charged, lengths = [], simulator.message_bit_lengths

    def counting(dim, indices, counts):
        # Each round's M upload counts, then its broadcast's.
        charged.append(int(np.reshape(counts, (-1, cfg.m + 1))[:, :cfg.m].sum()))
        return lengths(dim, indices, counts)

    monkeypatch.setattr(simulator, "message_bit_lengths", counting)
    for ours, ref in zip(engine_run(cfg), expected, strict=True):
        assert ours[:-1] == ref[:-1]
        assert np.array_equal(ours[-1], ref[-1])
    assert sum(charged) <= cfg.t * 64 and max(charged) < 384 + 64 and len(charged) >= math.ceil(cfg.t / 6)


def broken_support(monkeypatch, kind, t_bad):
    """Worker 0's top-K support at round t_bad is broken: two indices swapped
    with their values ("descending"), its last index N ("out_of_range") or
    its first -1 ("negative").  Returns a list of the rounds of the _error_feedback_rows
    calls."""
    rows, rounds = simulator._error_feedback_rows, []

    def broken(g, memory, eta, k):
        rounds.append(len(rounds))  # one block of every worker a round
        columns, sent = rows(g, memory, eta, k)
        if rounds[-1] == t_bad:
            columns, sent = columns.copy(), sent.copy()
            if kind == "descending":
                columns[0, :2], sent[0, :2] = columns[0, 1::-1], sent[0, 1::-1]
            elif kind == "out_of_range":
                columns[0, -1] = g.shape[1]
            else:
                columns[0, 0] = -1
        return columns, sent

    monkeypatch.setattr(simulator, "_error_feedback_rows", broken)
    return rounds


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("cost_mode", ["ANALYTIC", "WIRE"])
@pytest.mark.parametrize("t_bad", [0, 3, 7, 9])
@pytest.mark.parametrize("kind", ["descending", "out_of_range", "negative"])
@pytest.mark.parametrize("make, window", [(logistic_noniid_wide, 8), (quadratic, 1)])
def test_only_the_vote_and_the_wire_lengths_read_a_support(monkeypatch, make, window, kind, t_bad, cost_mode, cpus):
    """No check reads the engine's own uploads, so a support broken by a
    patch meets only what uses it.  The vote reads it as a set of
    coordinates: one out of range gives a longer direction and a negative
    one makes bincount raise, so the round fails, while a descending one
    votes as its sorted support.  In WIRE mode message_bit_lengths refuses
    that one when its window is charged, and no later window runs."""
    cfg = make(algorithm="S3GD_MV", cost_mode=cost_mode, t=20)
    expected = reference_run(cfg)
    calls = windows(monkeypatch, cfg, window, cpus)
    assert cfg.m <= simulator._THREADED_MIN_DIM // build(cfg).dim
    rounds = broken_support(monkeypatch, kind, t_bad)
    before = threading.active_count()
    if kind != "descending":
        assert raised(cfg)[0] is ValueError
        assert rounds == list(range(t_bad + 1))
    elif cost_mode == "WIRE":
        assert raised(cfg) == (ValueError, "indices must be strictly increasing within each message")
        assert rounds == list(range((t_bad // window + 1) * window))
    else:
        for ours, ref in zip(engine_run(cfg), expected, strict=True):
            assert ours[:-1] == ref[:-1]
            assert np.array_equal(ours[-1], ref[-1])
        assert rounds == list(range(cfg.t))
    assert threading.active_count() == before
    assert len(evaluation_threads(calls)) <= (cpus > 1 and window > 1)


def nan_sent(monkeypatch, m_workers, t_nan):
    """Worker 0's gradient at round t_nan holds a NaN on the first coordinate
    that random-K selects for it; returns a list of the rounds of the
    rand_k_select calls."""
    select, rounds = simulator.rand_k_select, []

    def selecting(row, k, rng):
        rounds.append(len(rounds) // m_workers)  # one block of every worker a round
        support = select(row, k, rng)
        if len(rounds) == t_nan * m_workers + 1:
            row[support[0]] = np.nan  # row is the gradient's, which the upload reads
        return support

    monkeypatch.setattr(simulator, "rand_k_select", selecting)
    return rounds


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("window", [1, 8])
@pytest.mark.parametrize("t_nan", [0, 3, 9])
@pytest.mark.parametrize("cost_mode", ["ANALYTIC", "WIRE"])
def test_a_sent_nan_raises_at_its_round(monkeypatch, cost_mode, t_nan, window, cpus):
    """A NaN that random-K sends has no sign: the round that sends it raises
    the sign pass's refusal, and no later round runs."""
    cfg = logistic_noniid_wide(algorithm="S3GD_MV_RANDK", cost_mode=cost_mode, t=20)
    calls = windows(monkeypatch, cfg, window, cpus)
    assert cfg.m <= simulator._THREADED_MIN_DIM // build(cfg).dim
    rounds = nan_sent(monkeypatch, cfg.m, t_nan)
    before = threading.active_count()
    assert raised(cfg) == (ValueError, "values must not hold NaN, which has no sign")
    assert rounds == [t for t in range(t_nan + 1) for _ in range(cfg.m)]
    assert threading.active_count() == before
    assert len(evaluation_threads(calls)) <= (cpus > 1 and window > 1)


def diverging(**overrides):
    """Plain SGD whose iterate grows 1e6-fold a round: its loss overflows
    some 25 rounds before its step does."""
    model = {"kind": "quadratic", "noise_std": 0.0, "init": 1.0}
    return quadratic(**{"algorithm": "VANILLA_SGD", "learning_rate": 1e6, "t": 120, "model": model, **overrides})


@pytest.mark.parametrize("window", [1, 4, 1000])
def test_a_non_finite_update_raises_at_its_round(monkeypatch, window):
    windows(monkeypatch, diverging(), 1, 1)
    with np.errstate(over="ignore"):
        expected = raised(diverging())
    assert expected[0] is FloatingPointError and expected[1].startswith("non-finite parameters after round ")
    windows(monkeypatch, diverging(), window, 2)
    with np.errstate(over="ignore"):
        assert raised(diverging()) == expected


@pytest.mark.parametrize("window", [1, 4, 1000])
def test_a_callers_error_state_holds_in_the_evaluation(monkeypatch, window):
    """Under np.errstate(over="raise") the loss overflows first, in the
    evaluation; the run raises that, not the step's overflow."""
    windows(monkeypatch, diverging(), window, 2)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="^overflow encountered in multiply$") as info:
        run_experiment(diverging())
    assert info.traceback[-1].name == "evaluate"


def test_the_evaluation_thread_runs_under_the_callers_error_state(monkeypatch):
    cfg = logistic_noniid(algorithm="S3GD_MV")
    calls = windows(monkeypatch, cfg, 2, 2)
    evaluate = ClassificationTask.evaluate

    def overflowing(task, xs):
        rows = evaluate(task, xs)
        np.multiply(np.float64(1e308), 10.0)
        return rows

    monkeypatch.setattr(ClassificationTask, "evaluate", overflowing)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="^overflow encountered in multiply$"):
        run_experiment(cfg)
    assert len(evaluation_threads(calls)) == 1
