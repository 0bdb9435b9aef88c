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

Each algorithm is one row of a table: which coordinates a worker selects
(all, top-K or random-K), whether it keeps an error memory, and whether the
server takes a majority vote on signs or averages values.  The update
direction feeds a momentum step x <- x - delta * v.  Every round is charged
either the analytic per-round budgets or the actual encoded wire lengths
(cost_mode WIRE, which also routes every sparse sign message through the
codec).  Fixing the config and seed fixes the whole trajectory bit for bit,
because each (worker, round) pair owns its random stream.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import models
from .aggregation import average_aggregate, majority_vote, participation_count
from .codec import analytic_round_cost, decode_sparse_sign, encode_sparse_sign
from .compression import error_feedback_step, rand_k_sign, top_k_sign
from .rng import derive_rng, worker_rng

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

CSV_COLUMNS = (
    "round",
    "algorithm",
    "train_loss",
    "test_metric",
    "gbar_l1",
    "uplink_bits",
    "downlink_bits",
    "cumulative_bits",
    "wall_ms",
)

SWEEP_AXES = ("GAMMA", "M", "ETA", "MU")


def resolve_k(gamma: float, dim: int) -> int:
    """Message size K = round(gamma * N), forced to >= 1 whenever gamma > 0."""
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    k = int(math.floor(gamma * dim + 0.5))
    if gamma > 0:
        k = max(k, 1)
    return min(k, dim)


@dataclass
class ExperimentConfig:
    """Everything a run needs; JSON configs mirror these field names.

    learning_rate and batch_size accept the literal "theory" for the
    horizon-matched schedules delta = 1/sqrt(T * L1) and B = T (quadratic
    model only, where L1 is known exactly).  n = None infers the model size
    from the model spec where possible.
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
    record_selection: bool = True
    model: dict = field(default_factory=lambda: {"kind": "quadratic"})
    data: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class RoundMetrics:
    """Per-round record; metrics are evaluated at the pre-update iterate."""

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
    direction = np.asarray(direction, dtype=np.float64)
    if x.shape != direction.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs direction {direction.shape}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not 0 <= mu < 1:
        raise ValueError(f"mu must be in [0, 1), got {mu}")
    if mu == 0.0:
        return x - delta * direction, velocity
    if velocity is None:
        velocity = np.zeros_like(x)
    v = mu * velocity + direction
    return x - delta * v, v


# --------------------------------------------------------------------------
# tasks: adapt the model zoo to the engine

class QuadraticTask:
    """Diagonal quadratic with synthetic per-worker gradient noise."""

    def __init__(self, cfg: ExperimentConfig):
        if cfg.n is None or cfg.n < 1:
            raise ValueError("quadratic model needs an explicit positive n")
        n = cfg.n
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
        self.dim = n

    def init_params(self) -> np.ndarray:
        return self.x0.copy()

    def l1_smoothness(self) -> float:
        return float(self.l_diag.sum())

    def worker_grad(self, x, worker, batch, rng) -> np.ndarray:
        # Averaging a size-B minibatch of noisy gradients shrinks the noise
        # scale by sqrt(B); drawing once at the shrunk scale is equivalent.
        return models.quadratic_grad(x, self.l_diag, self.noise_std / math.sqrt(batch), rng)

    def train_loss(self, x) -> float:
        return models.quadratic_loss(x, self.l_diag)

    def gbar_l1(self, x) -> float:
        return float(np.abs(self.l_diag * x).sum())

    def test_metric(self, x) -> float:
        # No held-out data; report the exact mean-gradient l1 norm instead.
        return self.gbar_l1(x)


class ClassificationTask:
    """Logistic regression or the small net on partitioned classification data."""

    def __init__(self, cfg: ExperimentConfig):
        spec = dict(cfg.model)
        kind = spec.pop("kind")
        data = dict(cfg.data)
        mode = data.pop("mode", "IID")
        source = data.pop("source", "synthetic")
        if source == "synthetic":
            n_samples = data.pop("n_samples", 1000)
            d = data.pop("d", 16)
            classes = data.pop("num_classes", 10)
            separation = data.pop("separation", 3.0)
            test_fraction = data.pop("test_fraction", 0.2)
            full = models.synth_classification(
                n_samples, d, classes, separation, derive_rng(cfg.seed, "data")
            )
            n_test = int(round(test_fraction * n_samples))
            n_train = n_samples - n_test
            self.train = full.subset(np.arange(n_train))
            self.test = full.subset(np.arange(n_train, n_samples))
        elif source == "idx":
            self.train = models.load_idx_dataset(data.pop("train_images"), data.pop("train_labels"))
            self.test = models.load_idx_dataset(data.pop("test_images"), data.pop("test_labels"))
        else:
            raise ValueError(f"unknown data source {source!r}")
        if data:
            raise ValueError(f"unknown data keys: {sorted(data)}")

        d = self.train.features.shape[1]
        c = self.train.num_classes
        if kind == "logistic":
            self.arch = None
            self.dim = c * (d + 1)
        elif kind == "mlp":
            hidden = list(spec.pop("hidden", [32]))
            self.arch = [d, *hidden, c]
            self.dim = models.mlp_param_count(self.arch)
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        self.init_scale = float(spec.pop("init_scale", 0.0 if self.arch is None else 0.5))
        if spec:
            raise ValueError(f"unknown model keys: {sorted(spec)}")
        if cfg.n is not None and cfg.n != self.dim:
            raise ValueError(f"config n = {cfg.n} but model has {self.dim} parameters")
        self.shards = models.partition_dataset(
            self.train, cfg.m, mode, derive_rng(cfg.seed, "partition")
        )
        self._seed = cfg.seed

    def init_params(self) -> np.ndarray:
        if self.init_scale == 0.0:
            return np.zeros(self.dim)
        rng = derive_rng(self._seed, "init")
        x = rng.normal(0.0, 1.0, self.dim)
        if self.arch is not None:
            # Xavier-style scaling per layer keeps tanh units out of saturation.
            pos = 0
            for fan_in, fan_out in zip(self.arch[:-1], self.arch[1:]):
                span = fan_out * (fan_in + 1)
                x[pos: pos + span] *= self.init_scale / math.sqrt(fan_in)
                pos += span
        return x

    def l1_smoothness(self) -> float:
        raise ValueError("theory schedules need the quadratic model (L1 unknown here)")

    def worker_grad(self, x, worker, batch, rng) -> np.ndarray:
        feats, labels = models.sample_minibatch(self.train, self.shards[worker], batch, rng)
        if self.arch is None:
            return models.logistic_grad(x, feats, labels)
        return models.mlp_grad(x, self.arch, feats, labels)

    def train_loss(self, x) -> float:
        if self.arch is None:
            return models.logistic_loss(x, self.train.features, self.train.labels)
        return models.mlp_loss(x, self.arch, self.train.features, self.train.labels)

    def gbar_l1(self, x) -> float:
        if self.arch is None:
            g = models.logistic_grad(x, self.train.features, self.train.labels)
        else:
            g = models.mlp_grad(x, self.arch, self.train.features, self.train.labels)
        return float(np.abs(g).sum())

    def test_metric(self, x) -> float:
        if self.arch is None:
            return models.logistic_accuracy(x, self.test.features, self.test.labels)
        return models.mlp_accuracy(x, self.arch, self.test.features, self.test.labels)


def _coefficients(spec, n: int, name: str) -> np.ndarray:
    """Expand a scalar / list / logspace spec into an (n,) float array."""
    if isinstance(spec, dict):
        extra = set(spec) - {"log_min", "log_max"}
        if extra:
            raise ValueError(f"unknown {name} keys: {sorted(extra)}")
        return np.logspace(spec["log_min"], spec["log_max"], n)
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


@dataclass(frozen=True)
class _Rule:
    """One algorithm as data.

    selector is the set of coordinates a worker sends: "all", "topk" or
    "randk".  memory marks error feedback: the worker selects the top-K of
    g + eta * e and keeps what it did not send as its next e (so memory
    implies "topk").  server is "vote" for a majority vote on the signs of
    the sent coordinates, "mean" for the average of their values.
    """

    selector: str
    memory: bool
    server: str


_RULES = {
    "VANILLA_SGD": _Rule("all", memory=False, server="mean"),
    "TOPK_SGD_MEM": _Rule("topk", memory=True, server="mean"),
    "SIGNSGD_MV": _Rule("all", memory=False, server="vote"),
    "S3GD_MV": _Rule("topk", memory=True, server="vote"),
    "S3GD_MV_RANDK": _Rule("randk", memory=False, server="vote"),
}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.algorithm not in _RULES:
        raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
    for name in ("m", "t", "seed"):
        if not _is_int(getattr(cfg, name)):
            raise ValueError(f"{name} must be an integer, got {getattr(cfg, name)!r}")
    if cfg.m < 1:
        raise ValueError(f"m must be positive, got {cfg.m}")
    if cfg.t < 1:
        raise ValueError(f"t must be positive, got {cfg.t}")
    if not 0 <= cfg.gamma <= 1:
        raise ValueError(f"gamma must be in [0, 1], got {cfg.gamma}")
    if cfg.eta < 0:
        raise ValueError(f"eta must be non-negative, got {cfg.eta}")
    if not 0 <= cfg.mu < 1:
        raise ValueError(f"mu must be in [0, 1), got {cfg.mu}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be non-negative, got {cfg.seed}")
    if cfg.cost_mode not in ("ANALYTIC", "WIRE"):
        raise ValueError(f"cost_mode must be ANALYTIC or WIRE, got {cfg.cost_mode!r}")
    if isinstance(cfg.learning_rate, str) and cfg.learning_rate != "theory":
        raise ValueError(f"learning_rate must be a number or 'theory', got {cfg.learning_rate!r}")
    if isinstance(cfg.learning_rate, (int, float)) and cfg.learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive, got {cfg.learning_rate}")
    if cfg.batch_size != "theory":
        b = cfg.batch_size
        if not (_is_int(b) or isinstance(b, float) and b.is_integer()):
            raise ValueError(f"batch_size must be an integer or 'theory', got {b!r}")
        if b < 1:
            raise ValueError(f"batch_size must be positive, got {b}")


def _worker_step(rule: _Rule, g: np.ndarray, memory, m: int, eta: float, k: int, rng):
    """Worker m's upload from its stochastic gradient g: (coordinates sent, upload).

    A vote server receives a SparseSignVector, which leaves out exact zeros
    because they carry no sign; a mean server receives g with every
    unselected coordinate zeroed.  Error memory is updated in place in
    memory[m].
    """
    if rule.memory:
        msg, memory[m], g, support = error_feedback_step(g, memory[m], eta, k)
    elif rule.selector == "randk":
        msg = rand_k_sign(g, k, rng)
    elif rule.server == "mean":
        return np.arange(g.size), g
    else:
        msg = top_k_sign(g, g.size)
    if rule.server == "vote":
        return msg.indices, msg
    upload = np.zeros_like(g)
    upload[support] = g[support]
    return support, upload


def run_experiment(cfg: ExperimentConfig) -> list[RoundMetrics]:
    """Run one configured experiment and return its per-round metrics."""
    _validate(cfg)
    task = _build_task(cfg)
    dim = task.dim
    k = resolve_k(cfg.gamma, dim)
    rule = _RULES[cfg.algorithm]
    # Only sparse sign messages have a wire format; the others are always
    # charged their analytic budget.
    wire = cfg.cost_mode == "WIRE" and rule.server == "vote" and rule.selector != "all"

    if cfg.learning_rate == "theory":
        delta = 1.0 / math.sqrt(cfg.t * task.l1_smoothness())
    elif cfg.learning_rate is None:
        delta = _DEFAULT_LR_SIGN if rule.server == "vote" else _DEFAULT_LR_FULL
    else:
        delta = float(cfg.learning_rate)
    batch = cfg.t if cfg.batch_size == "theory" else int(cfg.batch_size)

    x = task.init_params()
    velocity = None
    memory = np.zeros((cfg.m, dim)) if rule.memory else None
    metrics: list[RoundMetrics] = []
    cumulative = 0.0
    for t in range(cfg.t):
        started = time.perf_counter()
        train_loss = task.train_loss(x)
        test_metric = task.test_metric(x)
        gbar_l1 = task.gbar_l1(x)

        supports, uploads = [], []
        for m in range(cfg.m):
            rng = worker_rng(cfg.seed, m, t)
            g = task.worker_grad(x, m, batch, rng)
            support, upload = _worker_step(rule, g, memory, m, cfg.eta, k, rng)
            supports.append(support)
            uploads.append(upload)

        up, down = analytic_round_cost(cfg.algorithm, cfg.m, dim, k)
        if rule.server == "mean":
            direction = average_aggregate(uploads)
        else:
            if wire:
                streams = [encode_sparse_sign(msg) for msg in uploads]
                uploads = [decode_sparse_sign(s, dim) for s in streams]
                up = float(sum(s.bit_len for s in streams))
            vote = majority_vote(uploads, dim)
            if wire:
                down = float(cfg.m * encode_sparse_sign(vote.nonzero_message()).bit_len)
            direction = vote.ternary
        counts = participation_count(supports, dim) if cfg.record_selection else None

        x, velocity = update_model(x, direction, delta, velocity, cfg.mu)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"non-finite parameters after round {t}")

        cumulative += up + down
        metrics.append(
            RoundMetrics(
                round=t,
                algorithm=cfg.algorithm,
                train_loss=train_loss,
                test_metric=test_metric,
                gbar_l1=gbar_l1,
                uplink_bits=up,
                downlink_bits=down,
                cumulative_bits=cumulative,
                wall_ms=(time.perf_counter() - started) * 1e3,
                selection_counts=counts,
            )
        )
    return metrics


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
    axis = axis.upper()
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}, expected one of {SWEEP_AXES}")
    if not values:
        raise ValueError("sweep needs at least one value")
    field_name = axis.lower()
    rows: list[SweepRow] = []
    for value in values:
        cast = float(value)
        if axis == "M" and cast.is_integer():
            cast = int(cast)  # a non-integral M stays a float and fails validation
        for seed in seeds if seeds is not None else [template.seed]:
            cfg = replace(template, **{field_name: cast, "seed": seed})
            try:
                metrics = run_experiment(cfg)
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
    recorded = [m.selection_counts for m in metrics if m.selection_counts is not None]
    if not recorded:
        raise ValueError("no selection counts recorded (record_selection off?)")
    counts = np.sum(recorded, axis=0)
    low, high = counts.min(), counts.max()
    ratio = float(high) / float(low) if low > 0 else math.inf
    total = counts.sum()
    expected = total / counts.size
    chi_square = float(((counts - expected) ** 2 / expected).sum()) if total else 0.0
    return SelectionStats(counts, ratio, chi_square)


# --------------------------------------------------------------------------
# result serialization

def _write_table(records: list[dict], columns, path, fmt: str) -> None:
    """Write records as CSV (fixed column order, floats by repr) or JSON."""
    fmt = fmt.lower()
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            for rec in records:
                writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in rec.items()})
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(records, fh, indent=2)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def emit_results(metrics: list[RoundMetrics], path, fmt: str = "csv") -> None:
    """Write metrics as CSV (fixed column order) or JSON records."""
    records = [{c: getattr(m, c) for c in CSV_COLUMNS} for m in metrics]
    _write_table(records, CSV_COLUMNS, path, fmt)


def load_results(path, fmt: str | None = None) -> list[RoundMetrics]:
    """Read metrics back; the inverse of emit_results for both formats."""
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "csv"
    fmt = fmt.lower()
    if fmt == "json":
        with open(path) as fh:
            records = json.load(fh)
    elif fmt == "csv":
        with open(path, newline="") as fh:
            records = []
            for row in csv.DictReader(fh):
                rec = dict(row)
                for key in CSV_COLUMNS:
                    if key == "algorithm":
                        continue
                    rec[key] = int(rec[key]) if key == "round" else float(rec[key])
                records.append(rec)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return [RoundMetrics(**rec) for rec in records]


def emit_sweep(rows: list[SweepRow], path, fmt: str = "csv") -> None:
    """Write sweep rows as a tidy table."""
    cols = tuple(f.name for f in fields(SweepRow))
    _write_table([{c: getattr(r, c) for c in cols} for r in rows], cols, path, fmt)
