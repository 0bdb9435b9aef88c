"""Round-based simulation of distributed SGD under gradient compression.

One server, M workers, T synchronous rounds.  Per round each worker draws a
stochastic gradient from its own seeded stream, compresses it according to
the configured algorithm, and the server aggregates:

  VANILLA_SGD     dense gradients, averaged
  TOPK_SGD_MEM    top-K values at full precision with error accumulation,
                  averaged
  SIGNSGD_MV      full sign vector, majority vote
  S3GD_MV         top-K sign message with error accumulation, majority vote
  S3GD_MV_RANDK   uniform random-K sign message, no memory, majority vote

Each algorithm is one (selector, server) row of codec.ALGORITHMS: which
coordinates a worker sends (all, top-K of its gradient plus error memory, or
random-K) and whether the server takes a majority vote on signs or averages
values.  The update direction feeds a momentum step x <- x - delta * v.
Every round is charged either the analytic per-round budgets or the exact
encoded wire lengths (cost_mode WIRE: the bit_len the codec would give each
sparse sign message, from codec.message_bit_lengths, with no stream built),
and a codec.CommLedger keeps the running total.  Fixing the config and seed
fixes the whole trajectory bit for bit, because each (worker, round) pair
owns its random stream; the run keeps M generators and re-seeds them each
round with those streams' states, which rng.WorkerStreams derives a block of
rounds at a time.

A round runs as whole-round passes where it can: the task's gradients
gives the M worker gradients, which slice as an (M, N) array (a
classifier's from one model pass over the minibatch stack; the quadratic
draws a slice's noise as it is read), a vote server takes the M uploads as
one SignBatch, which majority_vote reads and the WIRE lengths are measured
on, and no per-message object is built.  Each pass gives the same bits as
its per-worker, per-message counterpart.  The worker phase runs in blocks
of consecutive workers, one gradient slice and one compression pass a
block; for the quadratic task at large N, where a block is one worker, it
deals the blocks round-robin to min(usable CPUs, M) threads, and the server
step then runs in worker order, so results do not depend on the thread
count.

No iterate depends on a round's evaluation, so the task's evaluate takes a
window of pre-update iterates at a time, a classifier's on a thread of its
own beside the rounds where there are two usable CPUs and a window holds
more than one iterate, and each row has the bits of its iterate's
evaluation alone.  A round's evaluation comes before its step, so a failing run
raises the earliest round's error, from either.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import json
import math
import os
import reprlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import _checks, models
from .aggregation import average_aggregate, majority_vote, participation_count
from .codec import ALGORITHMS, CommLedger, analytic_round_cost, message_bit_lengths
from .compression import SignBatch, _error_feedback_rows, rand_k_select
from .rng import WorkerStreams, derive_rng, worker_rngs

__all__ = [
    "ExperimentConfig",
    "RoundMetrics",
    "SweepRow",
    "SelectionStats",
    "CSV_COLUMNS",
    "SWEEP_AXES",
    "resolve_k",
    "update_model",
    "run_experiment",
    "sweep",
    "selection_histogram",
    "emit_results",
    "load_results",
    "emit_sweep",
]

# Default step sizes: sign updates need a much smaller step than
# full-precision ones at desk scale.
_DEFAULT_LR_SIGN = 1e-3
_DEFAULT_LR_FULL = 1e-1

SWEEP_AXES = ("GAMMA", "M", "ETA", "MU")


def resolve_k(gamma: float, dim: int) -> int:
    """Message size K = round(gamma * N), forced to >= 1 whenever gamma > 0."""
    _checks.real(gamma, "gamma", "in [0, 1]")
    _checks.count(dim, "dim")
    k = int(math.floor(gamma * dim + 0.5))
    if gamma > 0:
        k = max(k, 1)
    return min(k, dim)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; JSON configs mirror these field names.

    learning_rate and batch_size accept the literal "theory" for the
    horizon-matched schedules delta = 1/sqrt(T * L1) and B = T; the step
    needs the quadratic model, where L1 is known exactly.  n = None infers
    the model size from the model spec where possible.  Building a config
    (from_dict, directly or by dataclasses.replace) checks its top-level
    fields; a run checks the model and data specs when it builds its task.
    """

    algorithm: str
    m: int
    t: int
    gamma: float = 1.0
    n: int | None = None
    learning_rate: float | str | None = None
    batch_size: int | str = 1
    eta: float = 1.0
    mu: float = 0.0
    seed: int = 0
    cost_mode: str = "ANALYTIC"
    record_selection: bool = False
    model: dict = field(default_factory=lambda: {"kind": "quadratic"})
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.algorithm, str) or self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        _checks.count(self.m, "m")
        _checks.count(self.t, "t", high=2**32)  # a round index is one stream word (rng.WorkerStreams)
        _checks.count(self.seed, "seed", "non-negative", high=None)  # SeedSequence takes any size
        _checks.real(self.gamma, "gamma", "in [0, 1]")
        _checks.real(self.eta, "eta", "non-negative")
        _checks.real(self.mu, "mu", "in [0, 1)")
        if self.n is not None:
            _checks.count(self.n, "n")
        _checks.flag(self.record_selection, "record_selection")
        for name in ("model", "data"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be a JSON object, got {getattr(self, name)!r}")
        if self.cost_mode not in ("ANALYTIC", "WIRE"):
            raise ValueError(f"cost_mode must be ANALYTIC or WIRE, got {self.cost_mode!r}")
        lr = self.learning_rate
        if not (lr is None or lr == "theory" or _checks.is_real(lr) and lr > 0):
            raise ValueError(f"learning_rate must be a positive number, 'theory' or null, got {lr!r}")
        if self.batch_size != "theory":
            _checks.batch_size(self.batch_size, "batch_size")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"a config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.default_factory is MISSING and f.name not in raw]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return cls(**raw)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class RoundMetrics:
    """Per-round record; metrics are evaluated at the pre-update iterate.

    wall_ms is the round's own time: from its stream derivation to its
    ledger entry, without the evaluation, which runs beside the rounds.
    """

    round: int
    algorithm: str
    train_loss: float
    test_metric: float
    gbar_l1: float
    uplink_bits: float
    downlink_bits: float
    cumulative_bits: float
    wall_ms: float
    selection_counts: np.ndarray | None = None


# emit_results writes every field but the (N,) selection counts.
CSV_COLUMNS = tuple(f.name for f in fields(RoundMetrics) if f.name != "selection_counts")


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    seed: int
    final_train_loss: float
    final_test_metric: float
    final_gbar_l1: float
    mean_gbar_l1: float
    cumulative_bits: float


@dataclass(frozen=True)
class SelectionStats:
    """Aggregate per-coordinate selection counts over a run."""

    counts: np.ndarray
    max_min_ratio: float
    chi_square: float


def update_model(
    x: np.ndarray,
    direction: np.ndarray,
    delta: float,
    velocity: np.ndarray | None = None,
    mu: float = 0.0,
) -> tuple[np.ndarray, np.ndarray | None]:
    """x <- x - delta * v with v = mu * v + direction; plain step when mu = 0.

    velocity is the v of the previous step, None (read as zero) before the
    first one.  Returns the new iterate and the new velocity; with mu = 0 the
    velocity argument is returned unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    direction = np.asarray(direction)
    if x.shape != direction.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs direction {direction.shape}")
    _checks.real(delta, "delta", "positive")
    _checks.real(mu, "mu", "in [0, 1)")
    v = direction
    if mu != 0.0:
        if velocity is not None and np.shape(velocity) != x.shape:
            raise ValueError(f"shape mismatch: x {x.shape} vs velocity {np.shape(velocity)}")
        v = np.zeros(x.shape) if velocity is None else np.multiply(velocity, mu, dtype=np.float64)
        v += direction
        velocity = v
    # One fresh array, delta * v then the new iterate: it costs more than its passes.
    step = np.multiply(v, delta, dtype=np.float64)
    return np.subtract(x, step, out=step), velocity


# --------------------------------------------------------------------------
# tasks: adapt the model zoo to the engine

class QuadraticTask:
    """Diagonal quadratic with synthetic per-worker gradient noise."""

    def __init__(self, cfg: ExperimentConfig):
        if cfg.n is None:
            raise ValueError("quadratic model needs an explicit positive n")
        if cfg.data:
            raise ValueError(f"the quadratic model takes no data, got data keys {sorted(cfg.data)}")
        n = _checks.count(cfg.n, "n", high=_checks.FLOATS_MAX)
        spec = dict(cfg.model)
        spec.pop("kind")
        self.l_diag = _coefficients(spec.pop("lipschitz", 1.0), n, "lipschitz")
        self.noise_std = _coefficients(spec.pop("noise_std", 0.0), n, "noise_std")
        self.x0 = _coefficients(spec.pop("init", 1.0), n, "init")
        if spec:
            raise ValueError(f"unknown quadratic model keys: {sorted(spec)}")
        if np.any(self.l_diag <= 0):
            raise ValueError("lipschitz coefficients must be positive")
        if np.any(self.noise_std < 0):
            raise ValueError("noise_std must be non-negative")
        # Averaging a size-B minibatch of noisy gradients shrinks the noise
        # scale by sqrt(B); drawing once at the shrunk scale is equivalent.
        self.batch_noise_std = self.noise_std / math.sqrt(_batch_size(cfg))
        self.dim = n
        # The float64 entries one iterate's evaluation writes: L * x, its
        # absolute values and L * x * x.
        self.evaluation_entries = 3 * n

    def l1_smoothness(self) -> float:
        return float(self.l_diag.sum())

    def gradients(self, x, rngs):
        """The M worker gradients at x, which slice like the classifier's (M, N)
        array: grads[a:b] holds the gradients of workers a to b - 1, worker
        m's L * x plus Gaussian noise of scale batch_noise_std, drawn from
        rngs[m] when the slice is read, so a worker's later draws follow its
        own, on the thread that owns the worker.  Each row is read once.
        """
        return _NoisyGradients(self.l_diag * x, self.batch_noise_std, rngs)

    def evaluate(self, xs):
        """(train_loss, test_metric, gbar_l1) of each row of a (T, N) stack of
        iterates, from one L * x product: the loss 0.5 * sum(L * x * x) and the
        exact mean gradient's l1 norm, which also stands in for the test
        metric, as there is no held-out data.
        """
        rows = []
        for lx, x in zip(self.l_diag * xs, xs):
            loss = float(0.5 * np.sum(lx * x))
            gbar_l1 = float(np.abs(lx, out=lx).sum())  # lx is not read again
            rows.append((loss, gbar_l1, gbar_l1))
        return rows


class _NoisyGradients:
    """Worker m's gradient is mean + scale * z, z drawn from rngs[m] when a slice reads it."""

    def __init__(self, mean: np.ndarray, scale: np.ndarray, rngs):
        self._mean, self._scale, self._rngs = mean, scale, rngs

    def __getitem__(self, workers: slice) -> np.ndarray:
        rngs = self._rngs[workers]
        g = np.empty((len(rngs), self._mean.size))
        for rng, row in zip(rngs, g):
            rng.standard_normal(out=row)
        g *= self._scale
        g += self._mean
        return g


class ClassificationTask:
    """Logistic regression or the small net on partitioned classification data."""

    def __init__(self, cfg: ExperimentConfig):
        spec = dict(cfg.model)
        kind = spec.pop("kind")
        data = dict(cfg.data)
        mode = data.pop("mode", "IID")
        source = data.pop("source", "synthetic")
        if source == "synthetic":
            n_samples = _checks.count(data.pop("n_samples", 1000), "n_samples")
            d = _checks.count(data.pop("d", 16), "d")
            _checks.count(n_samples * d, "n_samples * d", high=_checks.FLOATS_MAX)  # the features array
            classes, separation = data.pop("num_classes", 10), data.pop("separation", 3.0)
            test_fraction = float(_checks.real(data.pop("test_fraction", 0.2), "test_fraction", "in [0, 1)"))
            n_test = int(round(test_fraction * n_samples))
            if not 0 < n_test < n_samples:
                raise ValueError(f"test_fraction must leave a test and a training sample, "
                                 f"got {test_fraction} of {n_samples} samples")
            full = models.synth_classification(
                n_samples, d, classes, separation, derive_rng(cfg.seed, "data")
            )
            n_train = n_samples - n_test
            self.train = full.subset(np.arange(n_train))
            self.test = full.subset(np.arange(n_train, n_samples))
        elif source == "idx":
            paths = {key: data.pop(key, None) for key in _IDX_KEYS}
            for key, path in paths.items():
                if not isinstance(path, str):
                    raise ValueError(f"idx data needs {key} as a file path, got {path!r}")
            self.train = models.load_idx_dataset(paths["train_images"], paths["train_labels"])
            self.test = models.load_idx_dataset(paths["test_images"], paths["test_labels"])
            if not len(self.test):
                raise ValueError(f"test_images {paths['test_images']} holds no samples")
            if self.test.features.shape[1] != self.train.features.shape[1]:
                raise ValueError(f"test_images {paths['test_images']} holds images of {self.test.features.shape[1]} "
                                 f"pixels, train_images {paths['train_images']} of {self.train.features.shape[1]}")
            if self.test.num_classes > self.train.num_classes:
                raise ValueError(f"test_labels {paths['test_labels']} holds class {self.test.num_classes - 1}, "
                                 f"train_labels {paths['train_labels']} only 0 to {self.train.num_classes - 1}")
        else:
            raise ValueError(f"unknown data source {source!r}")
        if data:
            raise ValueError(f"unknown data keys: {sorted(data)}")

        # Logistic regression is the net without a hidden layer.
        if kind == "logistic":
            hidden = []
        elif kind == "mlp":
            hidden = spec.pop("hidden", [32])
            if not isinstance(hidden, list):
                raise ValueError(f"hidden must be a list of positive integers, got {hidden!r}")
            for i, width in enumerate(hidden):
                _checks.count(width, f"hidden[{i}]")
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        self.arch = [self.train.features.shape[1], *hidden, self.train.num_classes]
        self.dim = _checks.count(models.mlp_param_count(self.arch), f"the parameter count of hidden {hidden}",
                                 high=_checks.FLOATS_MAX)
        init_scale = float(_checks.real(spec.pop("init_scale", 0.0 if kind == "logistic" else 0.5), "init_scale"))
        if spec:
            raise ValueError(f"unknown model keys: {sorted(spec)}")
        if cfg.n is not None and cfg.n != self.dim:
            raise ValueError(f"config n = {cfg.n} but model has {self.dim} parameters")
        self.batch = _batch_size(cfg)
        # The stacked minibatches and their activations, (M, B, width) each.
        _checks.count(cfg.m * self.batch * max(self.arch), "m * batch_size * the widest layer",
                      high=_checks.FLOATS_MAX)
        n_train = len(self.train)
        train_set = (f"n_samples {n_samples} leaves {n_train} for training" if source == "synthetic"
                     else f"train_images holds {n_train}")
        if cfg.m > n_train:
            raise ValueError(f"m must be at most the training sample count, got {cfg.m}: {train_set}")
        self._shards = models.partition_dataset(self.train, cfg.m, mode, derive_rng(cfg.seed, "partition"))
        # The float64 entries one iterate's evaluation writes: each layer's
        # outputs at every training and test row.
        self.evaluation_entries = (n_train + len(self.test)) * sum(self.arch[1:])
        self.x0 = np.zeros(self.dim)
        if init_scale != 0.0:
            self.x0 = derive_rng(cfg.seed, "init").normal(0.0, 1.0, self.dim)
            for w, b in models._mlp_unpack(self.x0, self.arch):
                # A net's Xavier-style 1 / sqrt(fan_in) per layer keeps tanh units out of saturation.
                scale = init_scale if kind == "logistic" else init_scale / math.sqrt(w.shape[1])
                w *= scale
                b *= scale

    def l1_smoothness(self) -> float:
        raise ValueError("theory schedules need the quadratic model (L1 unknown here)")

    def gradients(self, x, rngs):
        """The (M, N) worker gradients at x: row m is the gradient on worker
        m's minibatch, self.batch rows of its shard, drawn uniformly with
        replacement by its own stream's call rngs[m].integers(0, shard size,
        self.batch).  One pass of the net over the (M, B) stack gives them
        all, without the loss (models._pass: the task's data was checked
        when it was built).
        """
        train = self.train
        rows = np.array([shard[rng.integers(0, shard.size, self.batch)] for shard, rng in zip(self._shards, rngs)])
        return models._pass(x[None], self.arch, train.features[rows], train.labels[rows], None,
                            with_loss=False)[1][0]

    def evaluate(self, xs):
        """(train_loss, test_metric, gbar_l1) of each row of a (T, N) stack of
        iterates: the mean cross-entropy on the training set, the accuracy on
        the test set and the l1 norm of the full-batch gradient, from one
        pass of the net over the training and test sets at every iterate.
        """
        train, test = self.train, self.test
        loss, gbar, accuracy = models._pass(xs, self.arch, train.features, train.labels,
                                            (test.features, test.labels))
        # numpy sums each contiguous row of gbar as it sums that row alone,
        # so one call gives every iterate's l1 norm; gbar is not read again.
        gbar_l1 = np.abs(gbar, out=gbar).sum(axis=1)
        return list(zip(loss.tolist(), accuracy.tolist(), gbar_l1.tolist()))


_IDX_KEYS = ("train_images", "train_labels", "test_images", "test_labels")


def _coefficients(spec, n: int, name: str) -> np.ndarray:
    """Expand a scalar / list / logspace spec into an (n,) float array."""
    if isinstance(spec, dict):
        extra = set(spec) - {"log_min", "log_max"}
        if extra:
            raise ValueError(f"unknown {name} keys: {sorted(extra)}")
        if not (_checks.is_real(spec.get("log_min")) and _checks.is_real(spec.get("log_max"))):
            raise ValueError(f"{name} needs numeric log_min and log_max, got {spec}")
        with np.errstate(over="ignore"):
            arr = np.logspace(spec["log_min"], spec["log_max"], n)
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} {spec} has values too large for a float")
        return arr
    if not all(map(_checks.is_real, spec if isinstance(spec, list) else [spec])):
        raise ValueError(
            f"{name} must be a number, a list of numbers or a log_min/log_max object, got {spec!r}"
        )
    arr = np.asarray(spec, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
    return arr.copy()


def _build_task(cfg: ExperimentConfig):
    kind = cfg.model.get("kind")
    if kind == "quadratic":
        return QuadraticTask(cfg)
    if kind in ("logistic", "mlp"):
        return ClassificationTask(cfg)
    raise ValueError(f"unknown model kind {kind!r}")


def _batch_size(cfg: ExperimentConfig) -> int:
    return cfg.t if cfg.batch_size == "theory" else int(cfg.batch_size)


# The worker phase runs on min(usable CPUs, M) threads from this model
# dimension up.  Cross-over on a shared 2-CPU host, quadratic at M = 16,
# median ms per round of 9 alternating runs, one thread -> 2 threads:
#   N = 4096:  S3GD_MV 2.37 -> 2.53, SIGNSGD_MV 3.22 -> 3.11, VANILLA_SGD 1.88 -> 1.70
#   N = 8192:  S3GD_MV 4.22 -> 4.84, SIGNSGD_MV 5.57 -> 4.38, VANILLA_SGD 3.76 -> 2.95
#   N = 16384: S3GD_MV 8.25 -> 7.92, SIGNSGD_MV 7.97 -> 6.16, VANILLA_SGD 7.39 -> 5.57
# Below 16384 the result turned with the load on the second CPU: at a
# quieter time S3GD_MV ran 1.48 -> 1.15 at N = 4096, at a busier one
# 4.59 -> 5.05 at N = 8192.  From 16384 up, two threads never lost.
# Only the quadratic task draws its gradients in the worker phase.  A
# classifier's come from ClassificationTask.gradients on the calling
# thread, and its worker phase, the compression step alone, did not gain
# from threads on that host: an MLP at N = 79510, M = 16, S3GD_MV, worker
# phase 13.6 -> 14.8 ms per round (median of 7), where the quadratic at the
# same N went 41.1 -> 29.8 ms; logistic and MLP configs at N = 4110 to 79510 ran
# 0.90-1.08x as fast.  So classifiers keep one thread at any N.
# A block of the error feedback step holds as many entries, 16384 // N rows:
# step and quantize, K = N / 10, median us, per-worker loop / one-row blocks /
# blocks, N = 170, M = 10: 207 / 234 / 100; M = 16: N = 1000 463 / 520 / 276,
# 2048 665 / 693 / 506, 4096 1042 / 1066 / 973, 8192 1571 / 1586 / 1561 (2
# rows), 1e5 16913 / 16471 (1 row).  From 2 rows up a block never lost.
_THREADED_MIN_DIM = 16384


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _worker_phase(pool, threads, rule, grads, memory, eta, k, rngs, dim):
    """The worker phase on this thread and the pool: (columns, sent), a row a
    worker, columns None where every worker sends every coordinate.

    The workers run in blocks of max(1, _THREADED_MIN_DIM // N) consecutive
    workers, dealt round-robin: share i holds blocks i, i + T, i + 2T, ...,
    and this thread runs share 0, so with T = 1 (pool None) all blocks run
    here.  A block reads all its gradients, then steps.  Each pool share runs
    in a copy of this thread's context, so under the caller's numpy error
    state, which is a context variable.  If blocks raise, the lowest one's
    error is raised, as with one thread.
    """
    m_workers = len(rngs)
    dense = rule.selector == "all"
    columns = None if dense else np.empty((m_workers, k), dtype=np.int64)
    sent = np.empty((m_workers, dim if dense else k))
    size = max(1, _THREADED_MIN_DIM // dim)
    blocks = [slice(start, start + size) for start in range(0, m_workers, size)]

    def run(share):
        """None, or (the first worker, error) of the share's first block that raised."""
        for rows in share:
            try:
                g = grads[rows]
                if rule.selector == "topk":  # g is the step's scratch
                    columns[rows], sent[rows] = _error_feedback_rows(g, memory[rows], eta, k)
                elif rule.selector == "randk":
                    columns[rows] = [rand_k_select(row, k, rngs[m]) for m, row in enumerate(g, rows.start)]
                    sent[rows] = np.take_along_axis(g, columns[rows], axis=1)
                else:
                    sent[rows] = g
            except Exception as err:
                return rows.start, err
        return None

    futures = [pool.submit(contextvars.copy_context().run, run, blocks[i::threads]) for i in range(1, threads)]
    failed = [f for f in [run(blocks[::threads]), *(future.result() for future in futures)] if f is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return columns, sent


# A run evaluates its iterates in windows of max(1, this // the float64
# entries one iterate's evaluation writes), a classifier's on a thread of
# its own where there are two usable CPUs and a window holds more than one
# iterate.  A window is one stacked pass, so the two threads trade the
# interpreter lock a few dozen times a window, not a round: per-round
# evaluation on a thread had run slower than inline.  logistic_noniid_wire
# (20000 entries an iterate) on a 2-CPU shared host, perfbench/run.py, 8-s
# runs, median of 3, rounds/s scaled, wall clock and peak RSS MiB: window 16
# inline 939 / 1342 / 46.8; window 8: 1050 / 1100 / 46.4; 12: 1116 / 1203 /
# 47.2; 16: 1177 / 1321 / 48.0; 24: 1093 / 1439 / 49.4; 32: 1138 / 1517 /
# 50.4 (the calibration read 350-550 in these runs).  Memory grows with the
# window, and 16 keeps it within 3% of inline.  The quadratic's entries are
# 3N, so its window stays 1 at N = 1e5 while this is below 600000.
_EVALUATION_BUDGET = 320_000


def _evaluate(task, xs) -> list[tuple]:
    """task.evaluate(xs), or where that raises, the error of the first
    iterate whose evaluation raises on its own."""
    try:
        return task.evaluate(xs)
    except Exception:
        if len(xs) == 1:
            raise
    return [row for x in xs for row in task.evaluate(x[None])]


class _Evaluations:
    """A run's evaluation rows, a window of iterates at a time: on the
    calling thread, or with thread a one-thread pool, on that thread, one
    window at a time, in a copy of the caller's context (so under its numpy
    error state, as the worker shares are).

    As a context manager it orders a failed run's errors: a round's
    evaluation comes before its step, so if the rounds raise, the queued
    iterates are evaluated first, and the first one whose evaluation
    raises gives the run's error.
    """

    def __init__(self, task, window: int, thread):
        self._rows: list[tuple] = []
        self._task, self._window, self._thread = task, window, thread
        self._iterates: list[np.ndarray] = []
        self._pending = None

    def add(self, x: np.ndarray) -> None:
        """Queue the next round's iterate; x must not change afterwards."""
        self._iterates.append(x)
        if len(self._iterates) == self._window:
            self._hand_off()

    def finish(self) -> list[tuple]:
        """Every queued iterate's row, in round order.  If an evaluation
        raised, the first failing iterate's error is raised, once."""
        if self._iterates:
            self._hand_off()
        self._collect()
        return self._rows

    def _hand_off(self) -> None:
        # One iterate is a view: at large N a copy a round costs its pages.
        iterates, self._iterates = self._iterates, []
        xs = iterates[0][None] if len(iterates) == 1 else np.stack(iterates)
        if self._thread is None:
            self._rows += _evaluate(self._task, xs)
        else:
            self._collect()
            self._pending = self._thread.submit(contextvars.copy_context().run, _evaluate, self._task, xs)

    def _collect(self) -> None:
        pending, self._pending = self._pending, None
        if pending is not None:
            self._rows += pending.result()

    def __enter__(self) -> "_Evaluations":
        return self

    def __exit__(self, kind, error, traceback) -> None:
        if isinstance(error, Exception):
            try:
                self.finish()
            except Exception as earlier:
                raise earlier from None


def run_experiment(cfg: ExperimentConfig) -> list[RoundMetrics]:
    """Run one configured experiment and return its per-round metrics."""
    task = _build_task(cfg)
    dim = task.dim
    k = resolve_k(cfg.gamma, dim)
    rule = ALGORITHMS[cfg.algorithm]
    _checks.count(cfg.m * dim, "m * n", high=_checks.FLOATS_MAX)  # the (M, N) memory, uploads or gradients
    # Only sparse sign messages have a wire format; the others are always
    # charged their analytic budget.
    wire = cfg.cost_mode == "WIRE" and rule.server == "vote" and rule.selector != "all"

    if cfg.learning_rate == "theory":
        l1 = task.l1_smoothness()
        delta = 1.0 / math.sqrt(cfg.t * l1)
        if not delta > 0:
            raise ValueError(f"learning_rate 'theory' steps 1/sqrt(t * L1), which is 0 here: t {cfg.t} "
                             f"times L1 {l1}, the sum of the lipschitz coefficients, overflows a float")
    elif cfg.learning_rate is None:
        delta = _DEFAULT_LR_SIGN if rule.server == "vote" else _DEFAULT_LR_FULL
    else:
        delta = float(cfg.learning_rate)
    # A WIRE vote round charges the encoded lengths instead.
    analytic = analytic_round_cost(cfg.algorithm, cfg.m, dim, k)

    # The speed-up was measured at T = 2 only.  With T forced up on a 2-CPU
    # host, the quadratic at N = 1e5, M = 16 peaked 1.9, 5.6 and 30.7 MiB
    # RSS above its T = 1 peak (73.0 MiB) for T = 2, 4 and 16: each thread
    # holds its own temporaries, about 2 MiB at that N.
    threaded = isinstance(task, QuadraticTask) and dim >= _THREADED_MIN_DIM
    threads = min(_usable_cpus(), cfg.m) if threaded else 1

    # The evaluation is no input to the next iterate, so it runs a window at
    # a time, and a classifier's beside the rounds: it reads the whole
    # training and test sets, about half the round.  The quadratic's is a few
    # passes over N against the round's M * N noise, and a thread cost it
    # more than it saved: ms per round on a 2-CPU shared host, M = 16,
    # inline / on a thread, N = 1000 0.76 / 0.80, N = 4000 1.81 / 1.94
    # (30 and 40 alternating runs).
    window = max(1, _EVALUATION_BUDGET // task.evaluation_entries)
    beside = isinstance(task, ClassificationTask) and window > 1 and _usable_cpus() > 1

    x = task.x0.copy()
    velocity = None
    memory = np.zeros((cfg.m, dim)) if rule.selector == "topk" else None
    count_dtype = np.min_scalar_type(cfg.m)  # at most the M workers send a coordinate
    rounds: list[tuple] = []
    ledger = CommLedger(cfg.algorithm)
    worker_streams = WorkerStreams(cfg.seed, cfg.m, cfg.t)
    # No pool below the gate, no evaluation thread without a window to share,
    # and neither outlives the run.
    with (
        ThreadPoolExecutor(threads - 1) if threads > 1 else contextlib.nullcontext() as pool,
        ThreadPoolExecutor(1) if beside else contextlib.nullcontext() as thread,
        _Evaluations(task, window, thread) as evaluations,
    ):
        for t in range(cfg.t):
            # update_model gives each iterate a fresh array.
            evaluations.add(x)
            started = time.perf_counter()
            rngs = worker_rngs(worker_streams, t)
            grads = task.gradients(x, rngs)

            columns, sent = _worker_phase(pool, threads, rule, grads, memory, cfg.eta, k, rngs, dim)

            up, down = analytic
            if rule.server == "mean":
                uploads = sent
                if columns is not None:  # sent on columns, zero elsewhere
                    uploads = np.zeros((cfg.m, dim))
                    np.put_along_axis(uploads, columns, sent, axis=1)
                direction = average_aggregate(uploads)
                counts = None
                if cfg.record_selection:
                    counts = np.full(dim, cfg.m) if columns is None else participation_count(columns, dim)
            else:
                if columns is None:
                    # Dense sign rows, which the vote sums with no index list.
                    messages = np.sign(sent, out=np.empty(sent.shape, dtype=np.int8), casting="unsafe")
                else:
                    messages = SignBatch.quantize(dim, columns, sent)
                del columns, sent  # in the messages now; not kept into the next round
                vote = majority_vote(messages, dim)
                direction = vote.ternary
                if wire:
                    # The bit_len of each stream the codec would write, the M
                    # uploads then the vote broadcast to each worker; none is built.
                    broadcast = np.flatnonzero(direction)
                    lengths = message_bit_lengths(dim, np.concatenate([messages.indices, broadcast]),
                                                  [*messages.counts, broadcast.size])
                    up, down = float(lengths[:-1].sum()), float(cfg.m * lengths[-1])
                # The vote counted who sent each coordinate; a sign message
                # holds exactly the coordinates its worker sent.
                counts = vote.counts if cfg.record_selection else None

            x, velocity = update_model(x, direction, delta, velocity, cfg.mu)
            if not np.all(np.isfinite(x)):
                raise FloatingPointError(f"non-finite parameters after round {t}")

            ledger.record(t, up, down)
            rounds.append((up, down, ledger.cumulative_bits, (time.perf_counter() - started) * 1e3,
                           None if counts is None else counts.astype(count_dtype)))
        evaluated = evaluations.finish()
    return [
        RoundMetrics(round=t, algorithm=cfg.algorithm, train_loss=train_loss, test_metric=test_metric,
                     gbar_l1=gbar_l1, uplink_bits=up, downlink_bits=down, cumulative_bits=cumulative,
                     wall_ms=wall_ms, selection_counts=counts)
        for t, ((train_loss, test_metric, gbar_l1), (up, down, cumulative, wall_ms, counts))
        in enumerate(zip(evaluated, rounds))
    ]


def sweep(
    template: ExperimentConfig,
    axis: str,
    values: list,
    seeds: list[int] | None = None,
) -> list[SweepRow]:
    """Run the template once per (value, seed), varying one config axis.

    With the default single seed (the template's), a one-value sweep is the
    same run as run_experiment on the template.
    """
    if not isinstance(axis, str) or axis.upper() not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}, expected one of {SWEEP_AXES}")
    axis = axis.upper()
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"values must be a list of numbers, got {values!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    if not (seeds is None or isinstance(seeds, (list, tuple))):
        raise ValueError(f"seeds must be a list of integers or None, got {seeds!r}")
    field_name = axis.lower()
    rows: list[SweepRow] = []
    for value in values:
        cast = float(value)
        if axis == "M" and cast.is_integer():
            cast = int(cast)  # a non-integral M stays a float and fails validation
        for seed in seeds if seeds is not None else [template.seed]:
            try:
                metrics = run_experiment(replace(template, **{field_name: cast, "seed": seed}))
            except ValueError as err:
                raise ValueError(f"axis {axis} value {value!r}: {err}") from err
            last = metrics[-1]
            rows.append(
                SweepRow(
                    axis=axis,
                    value=cast,
                    seed=seed,
                    final_train_loss=last.train_loss,
                    final_test_metric=last.test_metric,
                    final_gbar_l1=last.gbar_l1,
                    mean_gbar_l1=float(np.mean([r.gbar_l1 for r in metrics])),
                    cumulative_bits=last.cumulative_bits,
                )
            )
    return rows


def selection_histogram(metrics: list[RoundMetrics]) -> SelectionStats:
    """Aggregate recorded per-round selection counts into uniformity stats.

    max/min ratio is inf when some coordinate was never selected; the
    chi-square statistic is against the uniform expectation.
    """
    if not (isinstance(metrics, (list, tuple)) and all(isinstance(m, RoundMetrics) for m in metrics)):
        raise ValueError(f"metrics must be a list of RoundMetrics, got {reprlib.repr(metrics)}")
    recorded = [m.selection_counts for m in metrics if m.selection_counts is not None]
    if not recorded:
        raise ValueError("no selection counts recorded (record_selection off?)")
    counts = np.sum(recorded, axis=0, dtype=np.int64)
    low, high = counts.min(), counts.max()
    ratio = float(high) / float(low) if low > 0 else math.inf
    total = counts.sum()
    expected = total / counts.size
    chi_square = float(((counts - expected) ** 2 / expected).sum()) if total else 0.0
    return SelectionStats(counts, ratio, chi_square)


# --------------------------------------------------------------------------
# result serialization

def _format(fmt) -> str:
    """fmt, "csv" or "json" in any case, in lower case."""
    if not (isinstance(fmt, str) and fmt.lower() in ("csv", "json")):
        raise ValueError(f"unknown format {fmt!r}")
    return fmt.lower()


def _write_table(records: list[dict], columns, path, fmt: str) -> None:
    """Write records as CSV (fixed column order, floats by repr) or JSON."""
    if _format(fmt) == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            for rec in records:
                writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in rec.items()})
    else:
        with open(path, "w") as fh:
            json.dump(records, fh, indent=2)


def emit_results(metrics: list[RoundMetrics], path, fmt: str = "csv") -> None:
    """Write metrics as CSV (fixed column order) or JSON records."""
    records = [{c: getattr(m, c) for c in CSV_COLUMNS} for m in metrics]
    _write_table(records, CSV_COLUMNS, path, fmt)


def _metrics_row(record, path, row: int) -> RoundMetrics:
    """A results file's row: each column parsed from a string, or a JSON number its type holds exactly."""
    # A column's type and the JSON types it takes beside a string; the other columns are floats.
    types = {"round": (int, (int,)), "algorithm": (str, ())}
    if not isinstance(record, dict) or set(record) - set(CSV_COLUMNS):
        raise ValueError(f"{path}: row {row} must be a record of {', '.join(CSV_COLUMNS)}, got {record!r}")
    values = {}
    for column in CSV_COLUMNS:
        value, (kind, numbers) = record.get(column), types.get(column, (float, (int, float)))
        try:
            if not (isinstance(value, str) or type(value) in numbers):
                raise TypeError
            values[column] = kind(value)
        except (TypeError, ValueError):
            raise ValueError(f"{path}: row {row}, column {column}: "
                             + (f"must be {kind.__name__}, got {value!r}" if column in record else "missing")) from None
    return RoundMetrics(**values)


def load_results(path, fmt: str | None = None) -> list[RoundMetrics]:
    """Read metrics back; the inverse of emit_results for both formats.

    A malformed file is one ValueError naming it, and the row (counted from 1,
    after a CSV's header) and the column where there is one.
    """
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "csv"
    if _format(fmt) == "json":
        with open(path) as fh:
            try:
                records = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}: {err}") from None
        if not isinstance(records, list):
            raise ValueError(f"{path}: results must be a JSON list of records, got {type(records).__name__}")
    else:
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
    return [_metrics_row(record, path, row) for row, record in enumerate(records, 1)]


def emit_sweep(rows: list[SweepRow], path, fmt: str = "csv") -> None:
    """Write sweep rows as a tidy table."""
    cols = tuple(f.name for f in fields(SweepRow))
    _write_table([{c: getattr(r, c) for c in cols} for r in rows], cols, path, fmt)
